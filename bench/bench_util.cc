#include "bench/bench_util.hh"

#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"
#include "sim/run_pool.hh"
#include "triage/jsonio.hh"
#include "triage/repro.hh"

namespace edge::bench {

std::string
RunRow::failure() const
{
    if (ok())
        return "";
    std::string why;
    if (!result.halted)
        why += "did not finish; ";
    else if (!result.archMatch)
        why += "diverged from the reference; ";
    if (!result.error.ok())
        why += result.error.format();
    return strfmt("%s/%s (seed %llu): %s", spec.kernel.c_str(),
                  spec.config.c_str(),
                  static_cast<unsigned long long>(spec.seed),
                  why.c_str());
}

std::vector<RunSpec>
Grid::specs(std::uint64_t iterations) const
{
    std::vector<RunSpec> out;
    out.reserve(kernels.size() * configs.size() * points.size());
    for (const auto &k : kernels) {
        for (const auto &c : configs) {
            for (const Point &p : points) {
                RunSpec spec;
                spec.kernel = k;
                spec.config = c;
                spec.iterations = iterations;
                spec.tweak = p.tweak;
                out.push_back(std::move(spec));
            }
        }
    }
    return out;
}

RunRow
runOne(const RunSpec &spec)
{
    wl::KernelParams kp;
    kp.iterations = spec.iterations;
    kp.seed = spec.seed;
    core::MachineConfig cfg = sim::Configs::byName(spec.config);
    if (spec.tweak)
        spec.tweak(cfg);
    sim::Simulator s(wl::build(spec.kernel, kp), cfg);
    return {spec, s.run(spec.maxCycles), {}};
}

std::vector<RunRow>
runSpecs(const std::vector<RunSpec> &specs, unsigned threads)
{
    // One program per distinct (kernel, iterations, seed); every cell
    // of that kernel shares its reference execution via the RunPool.
    using ProgKey = std::tuple<std::string, std::uint64_t, std::uint64_t>;
    std::map<ProgKey, std::unique_ptr<isa::Program>> programs;

    std::vector<sim::RunJob> jobs;
    jobs.reserve(specs.size());
    for (const RunSpec &spec : specs) {
        ProgKey key{spec.kernel, spec.iterations, spec.seed};
        auto &prog = programs[key];
        if (!prog) {
            wl::KernelParams kp;
            kp.iterations = spec.iterations;
            kp.seed = spec.seed;
            prog = std::make_unique<isa::Program>(
                wl::build(spec.kernel, kp));
        }
        sim::RunJob job;
        job.program = prog.get();
        job.config = sim::Configs::byName(spec.config);
        if (spec.tweak)
            spec.tweak(job.config);
        job.maxCycles = spec.maxCycles;
        jobs.push_back(std::move(job));
    }

    sim::RunPool pool(threads);
    std::vector<sim::RunResult> results = pool.runAll(jobs);

    std::vector<RunRow> rows;
    rows.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        rows.push_back({specs[i], std::move(results[i]), {}});
    return rows;
}

std::vector<RunRow>
runMatrix(const std::vector<std::string> &kernels,
          const std::vector<std::string> &configs,
          std::uint64_t iterations, const ConfigTweak &tweak,
          unsigned threads)
{
    Grid grid{kernels, configs, {{"", tweak}}};
    return runSpecs(grid.specs(iterations), threads);
}

namespace {

void
writeJson(const std::string &path, const std::string &bench_name,
          const BenchArgs &args, const std::vector<RunRow> &rows,
          double wall_seconds, std::size_t quarantined,
          std::size_t fatal_cells)
{
    using triage::JsonValue;
    JsonValue cells = JsonValue::array();
    for (const RunRow &row : rows) {
        const sim::RunResult &r = row.result;
        JsonValue cell = JsonValue::object();
        cell.set("kernel", JsonValue::str(row.spec.kernel));
        cell.set("config", JsonValue::str(row.spec.config));
        cell.set("seed", JsonValue::u64(row.spec.seed));
        cell.set("cycles", JsonValue::u64(r.cycles));
        cell.set("insts", JsonValue::u64(r.committedInsts));
        cell.set("blocks", JsonValue::u64(r.committedBlocks));
        cell.set("ipc", JsonValue::number(r.ipc()));
        cell.set("ok", JsonValue::boolean(row.ok()));
        cell.set("violations",
                 JsonValue::u64(r.counter("lsq.violations")));
        cell.set("resends", JsonValue::u64(r.counter("lsq.resends")));
        cell.set("reexecs", JsonValue::u64(r.counter("core.alu_reexecs")));
        cell.set("upgrades", JsonValue::u64(r.counter("core.upgrades")));
        cell.set("flushes",
                 JsonValue::u64(r.counter("core.ctrl_flushes") +
                                r.counter("core.viol_flushes")));
        cell.set("error",
                 JsonValue::str(r.error.ok() ? "" : r.error.format()));
        cell.set("retries", JsonValue::u64(r.retries));
        cell.set("backoff_ms", JsonValue::u64(r.backoffMs));
        cell.set("repro", JsonValue::str(row.reproPath));
        cells.push(std::move(cell));
    }

    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::str(bench_name));
    doc.set("iterations", JsonValue::u64(args.iterations));
    doc.set("threads", JsonValue::u64(args.threads == 0
                                          ? ThreadPool::defaultThreads()
                                          : args.threads));
    doc.set("wall_seconds", JsonValue::number(wall_seconds));
    doc.set("cells", std::move(cells));
    doc.set("quarantined", JsonValue::u64(quarantined));
    doc.set("fatal", JsonValue::u64(fatal_cells));

    std::string err;
    if (!triage::writeFileDurable(path, doc.dump() + "\n", &err))
        warn("%s", err.c_str());
}

} // namespace

int
finishBench(const std::string &bench_name, const BenchArgs &args,
            std::vector<RunRow> &rows)
{
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      args.start)
            .count();
    // Capture repros first so the failure report can point at them.
    if (!args.reproDir.empty()) {
        for (RunRow &row : rows) {
            if (row.ok())
                continue;
            core::MachineConfig cfg =
                sim::Configs::byName(row.spec.config);
            if (row.spec.tweak)
                row.spec.tweak(cfg);
            triage::ProgramRef ref{
                row.spec.kernel,
                {row.spec.iterations, row.spec.seed}};
            triage::ReproSpec spec = triage::captureFromResult(
                ref, cfg, row.spec.maxCycles, row.result);
            row.reproPath = triage::captureToFile(spec, args.reproDir);
        }
    }
    std::size_t quarantined = 0, fatal_cells = 0;
    for (const RunRow &row : rows) {
        if (row.ok())
            continue;
        if (quarantined + fatal_cells == 0)
            std::fprintf(stderr, "\nFAILED cells:\n");
        quarantined += row.quarantined() ? 1 : 0;
        fatal_cells += row.fatalTransient() ? 1 : 0;
        std::fprintf(stderr, "  %s\n", row.failure().c_str());
        if (row.result.retries != 0)
            std::fprintf(stderr, "    retries=%u backoff_ms=%llu\n",
                         row.result.retries,
                         static_cast<unsigned long long>(
                             row.result.backoffMs));
        if (!row.reproPath.empty())
            std::fprintf(stderr,
                         "    to reproduce: edgesim --replay %s\n",
                         row.reproPath.c_str());
    }
    if (!args.jsonPath.empty())
        writeJson(args.jsonPath, bench_name, args, rows, wall,
                  quarantined, fatal_cells);
    if (quarantined + fatal_cells)
        std::fprintf(stderr,
                     "%zu/%zu cells failed (%zu quarantined "
                     "deterministic, %zu fatal after retries)\n",
                     quarantined + fatal_cells, rows.size(),
                     quarantined, fatal_cells);
    return quarantined + fatal_cells ? 1 : 0;
}

} // namespace edge::bench
