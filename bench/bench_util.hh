/**
 * @file
 * The run harness under bench_paper's figures (bench/figures.hh): run
 * grids of kernels under machine configurations and report their
 * failing cells.
 *
 * Grids (runSpecs / runMatrix) execute on a sim::RunPool: every cell
 * is an independent deterministic run, the per-kernel reference
 * execution is computed once and shared read-only, and results come
 * back in submission order — so `-j N` changes wall-clock only,
 * never a single printed digit. Failing cells (timeout, divergence,
 * structured SimError) never kill the driver: they are reported at
 * the end by finishBench(), which also emits the optional `--json`
 * metrics file and the exit status.
 */

#ifndef EDGE_BENCH_BENCH_UTIL_HH
#define EDGE_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace edge::bench {

/** Tweak hook applied to a config before the run (sweeps). */
using ConfigTweak = std::function<void(core::MachineConfig &)>;

struct RunSpec
{
    std::string kernel;
    std::string config; ///< one of sim::Configs::allNames()
    std::uint64_t iterations = 2000;
    std::uint64_t seed = 1;
    ConfigTweak tweak; ///< optional
    Cycle maxCycles = 500'000'000; ///< watchdog per cell
};

struct RunRow
{
    RunSpec spec;
    sim::RunResult result;
    /** Path of this cell's captured .repro.json ("" when none). */
    std::string reproPath;

    /** Did the cell finish and match the reference cleanly? */
    bool
    ok() const
    {
        return result.halted && result.archMatch && result.error.ok();
    }

    /**
     * A failing cell is either QUARANTINED — a deterministic failure
     * (invariant violation, watchdog, panic, divergence)
     * that replays from its repro file and must be triaged, not
     * retried — or FATAL: a host-level transient (wall-clock
     * deadline) that still failed after every retry the policy
     * allowed, i.e. the host could not complete the cell at all.
     */
    bool
    quarantined() const
    {
        return !ok() && !chaos::isTransient(result.error.reason);
    }

    bool
    fatalTransient() const
    {
        return !ok() && chaos::isTransient(result.error.reason);
    }

    /** One-line description of a failing cell ("" when ok()). */
    std::string failure() const;
};

/** What finishBench() needs from the command line. */
struct BenchArgs
{
    std::uint64_t iterations = 2000;
    unsigned threads = 0;     ///< -j; 0 = hardware_concurrency
    std::string jsonPath;     ///< --json; empty = no JSON output
    std::string reproDir;     ///< failing cells' captures; empty = none
    std::chrono::steady_clock::time_point start; ///< harness start
};

/** One point of a swept axis: its column label and its config tweak. */
struct Point
{
    std::string label;
    ConfigTweak tweak; ///< nullptr = the mechanism's default machine
};

/**
 * The shape of every paper grid: kernels x mechanisms x points of
 * one swept axis (window size, latency, an ablation tweak...),
 * kernel-major. A grid without a swept axis has one unlabelled point.
 */
struct Grid
{
    std::vector<std::string> kernels;
    std::vector<std::string> configs; ///< sim::Configs::allNames() names
    std::vector<Point> points = {{"", nullptr}};

    /** One spec per cell, in cell() order. */
    std::vector<RunSpec> specs(std::uint64_t iterations) const;

    /** Index of (kernel k, config c, point p) in specs(). */
    std::size_t
    cell(std::size_t k, std::size_t c, std::size_t p = 0) const
    {
        return (k * configs.size() + c) * points.size() + p;
    }
};

/** Run one spec serially; a failure comes back in the row (ok()). */
RunRow runOne(const RunSpec &spec);

/**
 * Run an arbitrary list of specs on the thread pool; row i
 * corresponds to specs[i]. Specs naming the same
 * (kernel, iterations, seed) share one reference execution.
 */
std::vector<RunRow> runSpecs(const std::vector<RunSpec> &specs,
                             unsigned threads = 0);

/** Run the cross product of kernels x configs (kernel-major). */
std::vector<RunRow> runMatrix(const std::vector<std::string> &kernels,
                              const std::vector<std::string> &configs,
                              std::uint64_t iterations,
                              const ConfigTweak &tweak = nullptr,
                              unsigned threads = 0);

/**
 * End-of-bench bookkeeping: capture a .repro.json for every failing
 * cell (when args.reproDir is set, filling each row's reproPath),
 * print every failing cell with its "to reproduce: edgesim --replay
 * ..." line, summarize quarantined (deterministic) vs fatal
 * (transient-exhausted) failures separately, write the `--json`
 * metrics file (per-cell metrics + repro path + retry count +
 * harness wall-clock) when requested, and return the process exit
 * code (0 iff no failures).
 */
int finishBench(const std::string &bench_name, const BenchArgs &args,
                std::vector<RunRow> &rows);

} // namespace edge::bench

#endif // EDGE_BENCH_BENCH_UTIL_HH
