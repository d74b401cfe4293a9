/**
 * @file
 * edgebench: the edgesim benchmark.
 *
 *   edgebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--tiny]
 *
 * With --trace 0 it sets the workload up 7 to 25 times (the median is
 * setup_s), then runs whole grids in a closed loop for --seconds and
 * prints the end-to-end metrics. With --trace 1 it sets up once, runs
 * interleaved untraced and traced grids (their cells/s difference is
 * the tracing overhead), then probes each layer's API on single cells
 * and prints the per-layer metrics. Every cell of every grid and probe
 * is checked against its reference result. The last line of standard
 * output is the JSON result object.
 *
 * With --digests <file>, the digest of the simulated results is
 * checked against the one recorded there for the workload and seed; a
 * mismatch fails every cell. --digest-only prints the line to record.
 *
 * The same binary is also the supervisor's worker (`--worker-cell`)
 * and the fabric's agent (`--agent`).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/logging.hh"
#include "campaign.hh"
#include "fabric_host.hh"
#include "probes.hh"
#include "report.hh"
#include "super/worker.hh"
#include "trace.hh"

using namespace edgebench;

namespace {

/** Set-ups per timed run: at least kMinSetups, and more, up to
 *  kMaxSetups, until kSetupSeconds have been spent, so that the median
 *  (setup_s) spans more than one short phase of the host's speed. */
constexpr unsigned kMinSetups = 7;
constexpr unsigned kMaxSetups = 25;
constexpr double kSetupSeconds = 3.0;
/** Grids (and single-cell probes) a run makes at least, so every
 *  tail percentile has ten samples beyond it and sits at or above
 *  the median. */
constexpr std::size_t kMinSamples = 20;
constexpr std::size_t kTinyMinSamples = 2;

struct Args
{
    std::string workload;
    RunOptions run;
    double seconds = 10;
    bool trace = false;
    /** Recorded digests to check the simulated results against. */
    std::string digests;
    /** Set up once, print the digest record and stop. */
    bool digestOnly = false;
};

int
usage(const char *why)
{
    std::fprintf(stderr, "edgebench: %s\nusage: edgebench --workload <",
                 why);
    for (const WorkloadSpec &w : workloadSpecs())
        std::fprintf(stderr, "%s%s", &w == &workloadSpecs()[0] ? "" : "|",
                     w.name.c_str());
    std::fprintf(stderr, "> --seed <n> --seconds <s> --trace <0|1> "
                         "[--digests <file>] [--digest-only] "
                         "[--out-dir <dir>] [--tiny]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    a->run.workDir = ".bench_build/edgebench-run";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a->run.tiny = true;
            continue;
        }
        if (flag == "--digest-only") {
            a->digestOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        if (flag == "--workload")
            a->workload = value;
        else if (flag == "--seed")
            a->run.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            a->seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            a->trace = std::strcmp(value, "0") != 0;
        else if (flag == "--out-dir")
            a->run.workDir = value;
        else if (flag == "--digests")
            a->digests = value;
        else
            return false;
    }
    return !a->workload.empty() && a->seconds > 0;
}

/**
 * Peak resident set of this process (VmHWM, which unlike
 * RUSAGE_SELF's ru_maxrss does not carry over the launcher's peak
 * across exec) and of its largest reaped child, in MiB.
 */
double
peakRssMiB()
{
    long selfKiB = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            selfKiB = std::strtol(line.c_str() + 6, nullptr, 10);
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(selfKiB, children.ru_maxrss)) /
           1024.0;
}

void
printHeader(const WorkloadSpec &w, const Args &a)
{
    std::printf("edgebench: workload %s, seed %llu, %s run\n",
                w.name.c_str(), static_cast<unsigned long long>(a.run.seed),
                a.trace ? "traced" : "timed");
    std::printf("  grid: %zu kernels x %zu mechanisms = %zu cells, "
                "%llu iterations\n",
                w.kernels.size(), w.mechanisms.size(),
                w.kernels.size() * w.mechanisms.size(),
                static_cast<unsigned long long>(a.run.iterations(w)));
    std::printf("  entry point: %s; closed loop of %u slots\n",
                entryName(w.entry), a.run.slots);
    std::printf("  modelled caches: cold at the start of every cell "
                "(each cell runs on a fresh Processor)\n");
}

/** Accumulates timed grids. */
struct GridTally
{
    std::vector<double> seconds;
    double cellsOk = 0;
    double cycles = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const Campaign &c, const GridRun &g)
    {
        const std::size_t bad = c.check(g);
        seconds.push_back(g.seconds);
        attempted += c.cellCount();
        failed += bad;
        cellsOk += static_cast<double>(c.cellCount() - bad);
        for (const edge::sim::RunResult &r : g.results)
            cycles += static_cast<double>(r.cycles);
    }

    double
    totalSeconds() const
    {
        double s = 0;
        for (double x : seconds)
            s += x;
        return s;
    }

    double cellsPerSecond() const { return cellsOk / totalSeconds(); }
};

/**
 * The digest recorded for this workload and seed in `path`, whose
 * lines read "<workload> <seed> 0x<digest>"; 0 when none is recorded.
 */
std::uint64_t
recordedDigest(const std::string &path, const std::string &workload,
               std::uint64_t seed)
{
    std::ifstream in(path);
    std::string name;
    std::uint64_t s = 0;
    std::string digest;
    while (in >> name >> s >> digest)
        if (name == workload && s == seed)
            return std::strtoull(digest.c_str(), nullptr, 16);
    return 0;
}

/**
 * Print the digest of the campaign's simulated results and check it
 * against the recorded one. Returns the cells to count as failed: all
 * of them when the digests differ, since then the simulated results
 * are not the ones the benchmark was defined on.
 */
std::size_t
checkDigest(const Campaign &c, const WorkloadSpec &w, const Args &a)
{
    const std::uint64_t digest = resultDigest(c.reference());
    std::printf("digest: 0x%016llx over %zu cells' cycles, instructions, "
                "counters and histograms\n",
                static_cast<unsigned long long>(digest), c.cellCount());
    const std::uint64_t want =
        a.run.tiny || a.digests.empty()
            ? 0
            : recordedDigest(a.digests, w.name, a.run.seed);
    if (want == 0) {
        std::printf("digest: none recorded for this workload, seed and "
                    "size; not checked\n");
        return 0;
    }
    if (want == digest) {
        std::printf("digest: matches the recorded one\n");
        return 0;
    }
    std::printf("digest: MISMATCH, recorded 0x%016llx: the simulated "
                "results changed; all %zu cells count as failed\n",
                static_cast<unsigned long long>(want), c.cellCount());
    return c.cellCount();
}

double
simIpc(const Campaign &c)
{
    std::vector<double> ipcs;
    for (const edge::sim::RunResult &r : c.reference())
        ipcs.push_back(r.ipc());
    return geomean(ipcs);
}

int
timedRun(const WorkloadSpec &w, const Args &a, Tracer &tracer)
{
    const unsigned minReps = a.run.tiny ? 1 : kMinSetups;
    const unsigned maxReps = a.run.tiny ? 1 : kMaxSetups;
    std::vector<double> setupSeconds;
    double setupTotal = 0;
    std::unique_ptr<Campaign> c;
    // Warm-up grids count as attempted cells: they are verified too,
    // just not timed.
    std::uint64_t attempted = 0, failed = 0;
    for (unsigned rep = 0; rep < maxReps &&
                           (rep < minReps || setupTotal < kSetupSeconds);
         ++rep) {
        c.reset();
        const auto t0 = SteadyClock::now();
        c = std::make_unique<Campaign>(w, a.run, tracer);
        std::string err;
        if (!c->setUp(&err)) {
            std::fprintf(stderr, "edgebench: set-up failed: %s\n",
                         err.c_str());
            return 1;
        }
        setupSeconds.push_back(secondsBetween(t0, SteadyClock::now()));
        setupTotal += setupSeconds.back();
        attempted += c->cellCount();
        failed += c->warmupFailures();
    }

    const std::size_t minGrids = a.run.tiny ? kTinyMinSamples : kMinSamples;
    const auto deadline =
        SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                                 std::chrono::duration<double>(a.seconds));
    GridTally timed;
    while (timed.seconds.size() < minGrids || SteadyClock::now() < deadline)
        timed.add(*c, c->runGrid());
    attempted += timed.attempted;
    failed += timed.failed;

    failed += checkDigest(*c, w, a);
    const double ipc = simIpc(*c);
    c.reset();

    std::printf("setup_s over %zu set-ups:", setupSeconds.size());
    for (double s : setupSeconds)
        std::printf(" %.3f", s);
    std::printf("\n");
    const Tail gridTail = tailOf(timed.seconds);
    std::printf("timed: %zu grids in %.3f s (mean %.4f); grid_s p10 %.4f, "
                "p50 %.4f, p90 %.4f; grid_s_tail: %s\n",
                timed.seconds.size(), timed.totalSeconds(),
                timed.totalSeconds() /
                    static_cast<double>(timed.seconds.size()),
                quantile(timed.seconds, 0.1), median(timed.seconds),
                quantile(timed.seconds, 0.9), describe(gridTail).c_str());
    std::printf("failed_frac: %.6g (%llu of %llu cells failed, mismatched "
                "or not run)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    MetricSet m;
    m.add("cells_per_s", timed.cellsPerSecond(), "cells/s");
    m.add("sim_mcycles_per_s", timed.cycles / timed.totalSeconds() / 1e6,
          "Mcycles/s");
    m.add("grid_s_p50", median(timed.seconds), "s");
    m.add("grid_s_tail", gridTail.value, "s");
    m.add("setup_s", median(setupSeconds), "s");
    m.add("peak_rss_mb", peakRssMiB(), "MiB");
    m.add("ok_frac",
          1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
          "ratio");
    m.add("sim_ipc", ipc, "insts/cycle");
    std::printf("metrics:\n");
    m.print();
    std::printf("%s\n", m.json(failed == 0, attempted, failed).c_str());
    return 0;
}

int
tracedRun(const WorkloadSpec &w, const Args &a, Tracer &tracer)
{
    const auto origin = SteadyClock::now();
    tracer.setEnabled(true);
    Campaign c(w, a.run, tracer);
    std::string err;
    if (!c.setUp(&err)) {
        std::fprintf(stderr, "edgebench: set-up failed: %s\n", err.c_str());
        return 1;
    }
    std::uint64_t attempted = c.cellCount();
    std::uint64_t failed = c.warmupFailures();

    MetricSet m;
    for (const char *layer : {"workloads.build", "sim.prepare"}) {
        double ms = 0;
        for (double d : tracer.durationsMs(layer, origin))
            ms += d;
        m.add(std::string(layer) + "_ms", ms, "ms");
    }

    // Untraced and traced grids alternate, so host drift hits both.
    const auto t0 = SteadyClock::now();
    auto at = [&](double frac) {
        return t0 + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(a.seconds * frac));
    };
    const std::size_t minGrids = a.run.tiny ? 1 : 2;
    GridTally plain, traced;
    while (traced.seconds.size() < minGrids || SteadyClock::now() < at(0.4)) {
        const bool on = plain.seconds.size() > traced.seconds.size();
        tracer.setEnabled(on);
        GridTally &into = on ? traced : plain;
        auto s = tracer.span("bench.grid");
        GridRun g = c.runGrid();
        auto checkSpan = tracer.span("bench.check");
        into.add(c, g);
    }
    tracer.setEnabled(true);
    for (const GridTally *t : {&plain, &traced}) {
        attempted += t->attempted;
        failed += t->failed;
    }
    std::printf("tracing overhead: %.4g cells/s untraced vs %.4g traced "
                "(%zu + %zu grids)\n",
                plain.cellsPerSecond(), traced.cellsPerSecond(),
                plain.seconds.size(), traced.seconds.size());

    ProbeTally probes;
    if (!probeLayers(c, a.run, tracer, at(0.6), at(1.0),
                     a.run.tiny ? kTinyMinSamples : kMinSamples, m, probes,
                     &err)) {
        std::fprintf(stderr, "edgebench: layer probes failed: %s\n",
                     err.c_str());
        return 1;
    }
    attempted += probes.attempted;
    failed += probes.failed;
    addSimulatedCounts(m, c.reference());
    m.add("trace.overhead_cells_per_s",
          plain.cellsPerSecond() - traced.cellsPerSecond(), "cells/s");
    failed += checkDigest(c, w, a);

    std::printf("layer times over the traced run (ms):\n");
    std::printf("  %-10s %8s %12s %12s\n", "layer", "calls", "total",
                "self");
    for (const LayerTime &lt : tracer.layerTimes())
        std::printf("  %-10s %8zu %12.3f %12.3f\n", lt.layer.c_str(),
                    lt.calls, lt.totalMs, lt.selfMs);
    const std::string spansPath = edge::strfmt(
        "%s/spans-%s-%llu.json", a.run.workDir.c_str(), w.name.c_str(),
        static_cast<unsigned long long>(a.run.seed));
    if (!tracer.writeChromeTrace(spansPath, origin, &err)) {
        std::fprintf(stderr, "edgebench: %s\n", err.c_str());
        return 1;
    }
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                spansPath.c_str());

    std::printf("metrics:\n");
    m.print();
    std::printf("%s\n", m.json(failed == 0, attempted, failed).c_str());
    return 0;
}

/** One set-up, then the line to record in the digests file. */
int
digestRun(const WorkloadSpec &w, const Args &a, Tracer &tracer)
{
    Campaign c(w, a.run, tracer);
    std::string err;
    if (!c.setUp(&err) || c.warmupFailures() != 0) {
        std::fprintf(stderr, "edgebench: set-up failed: %s\n",
                     err.empty() ? "warm-up cells failed" : err.c_str());
        return 1;
    }
    std::printf("%s %llu 0x%016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(a.run.seed),
                static_cast<unsigned long long>(resultDigest(c.reference())));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The supervisor re-enters this binary as its worker, and the
    // fabric host as its agents.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        return edge::super::workerCellMain(std::cin, std::cout);
    if (argc >= 2 && std::strcmp(argv[1], "--agent") == 0)
        return agentProcessMain(argc, argv);

    Args a;
    if (!parseArgs(argc, argv, &a))
        return usage("bad arguments");
    const WorkloadSpec *w = findWorkload(a.workload);
    if (!w)
        return usage(("unknown workload '" + a.workload + "'").c_str());
    a.run.slots = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::error_code ec;
    std::filesystem::create_directories(a.run.workDir, ec);
    if (ec) {
        std::fprintf(stderr, "edgebench: %s: %s\n", a.run.workDir.c_str(),
                     ec.message().c_str());
        return 1;
    }
    edge::setLogLevel(edge::LogLevel::Silent);

    Tracer tracer;
    if (a.digestOnly)
        return digestRun(*w, a, tracer);
    printHeader(*w, a);
    return a.trace ? tracedRun(*w, a, tracer) : timedRun(*w, a, tracer);
}
