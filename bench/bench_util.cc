#include "bench/bench_util.hh"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <tuple>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"
#include "serve/fabric.hh"
#include "sim/run_pool.hh"
#include "super/supervisor.hh"
#include "super/worker.hh"
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

BenchArgs
benchArgs(int argc, char **argv, std::uint64_t default_iters)
{
    // An --isolate grid re-execs this very binary (/proc/self/exe) as
    // its worker; every bench main() calls benchArgs() first, so the
    // worker dispatch lives here.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        std::exit(super::workerCellMain(std::cin, std::cout));

    BenchArgs args;
    args.iterations = default_iters;
    args.start = std::chrono::steady_clock::now();
    if (const char *dir = std::getenv("EDGE_REPRO_DIR"))
        args.reproDir = dir;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "%s needs an argument", arg.c_str());
            return argv[++i];
        };
        if (arg == "-j") {
            args.threads =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            args.threads = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 2, nullptr, 10));
        } else if (arg == "--json") {
            args.jsonPath = next();
        } else if (arg == "--repro-dir") {
            args.reproDir = next();
        } else if (arg == "--isolate") {
            args.isolate = true;
        } else if (arg == "--journal-dir") {
            args.journalDir = next();
            args.isolate = true;
        } else if (arg == "--resume") {
            args.resumePath = next();
            args.isolate = true;
        } else if (arg == "--cell-timeout-ms") {
            args.cellTimeoutMs =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--agents") {
            args.agentsPort = static_cast<std::uint16_t>(
                std::strtoul(next(), nullptr, 10));
            args.agents = true;
            args.isolate = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [iterations] [-j N] [--json path] "
                        "[--repro-dir dir] [--isolate] "
                        "[--journal-dir dir] [--resume journal] "
                        "[--cell-timeout-ms N] [--agents port]\n",
                        argv[0]);
            std::exit(0);
        } else if (!arg.empty() && arg[0] != '-') {
            args.iterations = std::strtoull(arg.c_str(), nullptr, 10);
        } else {
            fatal("unknown bench argument '%s' "
                  "(usage: [iterations] [-j N] [--json path] "
                  "[--repro-dir dir] [--isolate] [--journal-dir dir] "
                  "[--resume journal] [--cell-timeout-ms N] "
                  "[--agents port])",
                  arg.c_str());
        }
    }
    return args;
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
    return {spec, s.run(spec.maxCycles)};
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
        rows.push_back({specs[i], std::move(results[i])});
    return rows;
}

namespace {

/** The supervised grid: every spec as a sandboxed worker cell, run by
 *  the local fork/exec supervisor or — under --agents — by a campaign
 *  fabric that leases cells to remote executors. */
std::vector<RunRow>
runSpecsIsolated(const std::vector<RunSpec> &specs,
                 const BenchArgs &args, const std::string &bench_name)
{
    super::installStopHandlers();
    std::string journal_path;
    if (!args.resumePath.empty())
        journal_path = args.resumePath;
    else if (!args.journalDir.empty())
        journal_path =
            args.journalDir + "/" + bench_name + ".journal";

    // Repro capture stays in finishBench so isolated and in-process
    // grids produce their .repro.json files through one code path.
    std::unique_ptr<super::Supervisor> local;
    std::unique_ptr<serve::Fabric> fabric;
    super::CellRunner *runner = nullptr;
    if (args.agents) {
        serve::FabricOptions fo;
        fo.listenPort = args.agentsPort;
        fo.localJobs = args.threads;
        fo.cellTimeoutMs = args.cellTimeoutMs;
        fo.journalPath = journal_path;
        fo.resume = !args.resumePath.empty();
        fabric = std::make_unique<serve::Fabric>(fo);
        std::string err;
        fatal_if(!fabric->start(&err), "%s: --agents: %s",
                 bench_name.c_str(), err.c_str());
        inform("%s: fabric coordinator on port %u (cells lease to "
               "connected agents; none connected -> local workers)",
               bench_name.c_str(), fabric->port());
        runner = fabric.get();
    } else {
        super::SupervisorOptions so;
        so.jobs = args.threads;
        so.cellTimeoutMs = args.cellTimeoutMs;
        so.journalPath = journal_path;
        so.resume = !args.resumePath.empty();
        local = std::make_unique<super::Supervisor>(so);
        runner = local.get();
    }
    super::CellRunner &sup = *runner;

    // One program hash per distinct (kernel, iterations, seed), same
    // sharing key as the in-process pool.
    using ProgKey =
        std::tuple<std::string, std::uint64_t, std::uint64_t>;
    std::map<ProgKey, std::uint64_t> hashes;

    std::vector<super::CellSpec> cells;
    cells.reserve(specs.size());
    for (const RunSpec &spec : specs) {
        super::CellSpec cell;
        cell.program.kernel = spec.kernel;
        cell.program.params.iterations = spec.iterations;
        cell.program.params.seed = spec.seed;
        ProgKey key{spec.kernel, spec.iterations, spec.seed};
        auto it = hashes.find(key);
        if (it == hashes.end())
            it = hashes
                     .emplace(key, triage::programHash(wl::build(
                                       spec.kernel, cell.program.params)))
                     .first;
        cell.programHash = it->second;
        cell.config = sim::Configs::byName(spec.config);
        if (spec.tweak)
            spec.tweak(cell.config);
        cell.maxCycles = spec.maxCycles;
        cells.push_back(std::move(cell));
    }

    std::vector<super::CellOutcome> outs = sup.runAll(cells);

    bool interrupted = false;
    std::vector<RunRow> rows;
    rows.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!outs[i].ran) {
            interrupted = true;
            continue;
        }
        RunRow row{specs[i], std::move(outs[i].result)};
        row.reproPath = std::move(outs[i].reproPath);
        rows.push_back(std::move(row));
    }
    if (interrupted) {
        int sig = super::stopSignal() ? super::stopSignal() : SIGINT;
        std::fprintf(stderr,
                     "%s: interrupted — %zu cell(s) journaled this "
                     "session, %zu replayed, %zu failure(s)\n",
                     bench_name.c_str(), sup.completed(),
                     sup.skipped(), sup.failures());
        std::string hint = sup.resumeHint();
        if (!hint.empty())
            std::fprintf(stderr, "  %s\n", hint.c_str());
        std::exit(128 + sig);
    }
    return rows;
}

} // namespace

std::vector<RunRow>
runSpecs(const std::vector<RunSpec> &specs, const BenchArgs &args,
         const std::string &bench_name)
{
    if (args.isolate)
        return runSpecsIsolated(specs, args, bench_name);
    return runSpecs(specs, args.threads);
}

std::vector<RunRow>
runMatrix(const std::vector<std::string> &kernels,
          const std::vector<std::string> &configs,
          std::uint64_t iterations, const ConfigTweak &tweak,
          unsigned threads)
{
    std::vector<RunSpec> specs;
    specs.reserve(kernels.size() * configs.size());
    for (const auto &k : kernels) {
        for (const auto &c : configs) {
            RunSpec spec;
            spec.kernel = k;
            spec.config = c;
            spec.iterations = iterations;
            spec.tweak = tweak;
            specs.push_back(std::move(spec));
        }
    }
    return runSpecs(specs, threads);
}

std::vector<RunRow>
runMatrix(const std::vector<std::string> &kernels,
          const std::vector<std::string> &configs,
          std::uint64_t iterations, const ConfigTweak &tweak,
          const BenchArgs &args, const std::string &bench_name)
{
    std::vector<RunSpec> specs;
    specs.reserve(kernels.size() * configs.size());
    for (const auto &k : kernels) {
        for (const auto &c : configs) {
            RunSpec spec;
            spec.kernel = k;
            spec.config = c;
            spec.iterations = iterations;
            spec.tweak = tweak;
            specs.push_back(std::move(spec));
        }
    }
    return runSpecs(specs, args, bench_name);
}

namespace {

void
writeJson(const std::string &path, const std::string &bench_name,
          const BenchArgs &args, const std::vector<RunRow> &rows,
          double wall_seconds)
{
    using triage::JsonValue;
    JsonValue cells = JsonValue::array();
    std::size_t quarantined = 0, fatal_cells = 0;
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
        cell.set("violations", JsonValue::u64(r.violations));
        cell.set("resends", JsonValue::u64(r.resends));
        cell.set("reexecs", JsonValue::u64(r.reexecs));
        cell.set("upgrades", JsonValue::u64(r.upgrades));
        cell.set("flushes", JsonValue::u64(r.ctrlFlushes + r.violFlushes));
        cell.set("error",
                 JsonValue::str(r.error.ok() ? "" : r.error.format()));
        cell.set("retries", JsonValue::u64(r.retries));
        cell.set("backoff_ms", JsonValue::u64(r.backoffMs));
        cell.set("repro", JsonValue::str(row.reproPath));
        cells.push(std::move(cell));
        quarantined += row.quarantined() ? 1 : 0;
        fatal_cells += row.fatalTransient() ? 1 : 0;
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
        writeJson(args.jsonPath, bench_name, args, rows, wall);
    if (quarantined + fatal_cells)
        std::fprintf(stderr,
                     "%zu/%zu cells failed (%zu quarantined "
                     "deterministic, %zu fatal after retries)\n",
                     quarantined + fatal_cells, rows.size(),
                     quarantined, fatal_cells);
    return quarantined + fatal_cells ? 1 : 0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
printRow(const std::string &name, const std::vector<std::string> &cells,
         unsigned width)
{
    std::fputs(padRight(name, 14).c_str(), stdout);
    for (const auto &c : cells)
        std::fputs(padLeft(c, width).c_str(), stdout);
    std::fputc('\n', stdout);
}

void
printHeader(const std::string &name, const std::vector<std::string> &cols,
            unsigned width)
{
    printRow(name, cols, width);
    std::size_t total = 14 + cols.size() * width;
    std::fputs((std::string(total, '-') + "\n").c_str(), stdout);
}

std::string
fmtF(double v, int prec)
{
    return strfmt("%.*f", prec, v);
}

std::string
fmtU(std::uint64_t v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

} // namespace edge::bench
