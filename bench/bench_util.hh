/**
 * @file
 * Shared harness for the paper-reproduction benches: run a kernel
 * under a machine configuration, collect the metrics the paper's
 * tables and figures report, and print aligned tables. Each bench
 * binary regenerates one table or figure (see DESIGN.md's
 * per-experiment index).
 *
 * Grids (runSpecs / runMatrix) execute on a sim::RunPool: every cell
 * is an independent deterministic run, the per-kernel reference
 * execution is computed once and shared read-only, and results come
 * back in submission order — so `-j N` changes wall-clock only,
 * never a single printed digit. Failing cells (timeout, divergence,
 * structured SimError) no longer kill the binary: they are reported
 * at the end by finishBench(), which also emits the optional
 * `--json` metrics file and the exit status.
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
     * (invariant violation, watchdog, livelock, panic, divergence)
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

/**
 * Command-line contract shared by every bench binary:
 *   bench_xxx [iterations] [-j N] [--json <path>] [--repro-dir <dir>]
 *             [--isolate] [--journal-dir <dir>] [--resume <journal>]
 *             [--cell-timeout-ms N] [--agents <port>]
 * A bare number is the iteration count; `-j 0` (the default) means
 * all hardware threads.
 */
struct BenchArgs
{
    std::uint64_t iterations = 2000;
    unsigned threads = 0;     ///< -j; 0 = hardware_concurrency
    std::string jsonPath;     ///< --json; empty = no JSON output
    /**
     * Directory for .repro.json captures of failing cells
     * (--repro-dir, falling back to $EDGE_REPRO_DIR; empty disables
     * capture).
     */
    std::string reproDir;
    /**
     * Supervised-campaign controls (see src/super/): run every grid
     * cell in a sandboxed child process, journal completed cells,
     * resume an interrupted grid. --journal-dir and --resume imply
     * --isolate. Results are byte-identical to the in-process grid.
     */
    bool isolate = false;        ///< --isolate
    std::string journalDir;      ///< --journal-dir
    std::string resumePath;      ///< --resume <journal>
    std::uint64_t cellTimeoutMs = 0; ///< --cell-timeout-ms
    /**
     * Campaign-fabric pass-through (--agents <port>, implies
     * --isolate): the bench hosts a serve::Fabric coordinator on this
     * port and leases grid cells to any `edgesim serve --agent`
     * executors that connect; with none connected the grid degrades
     * to the local fork/exec supervisor. Results are byte-identical
     * either way. 0 = plain local --isolate.
     */
    std::uint16_t agentsPort = 0;
    bool agents = false;         ///< --agents was given (port may be 0)
    std::chrono::steady_clock::time_point start; ///< harness start
};

/** Parse argv (fatal on unknown flags); starts the wall clock. */
BenchArgs benchArgs(int argc, char **argv,
                    std::uint64_t default_iters = 2000);

/**
 * Run one spec serially. Never fatal: a timeout, divergence, or
 * structured error comes back in the row (check ok()).
 */
RunRow runOne(const RunSpec &spec);

/**
 * Run an arbitrary list of specs on the thread pool; row i
 * corresponds to specs[i]. Specs naming the same
 * (kernel, iterations, seed) share one reference execution.
 */
std::vector<RunRow> runSpecs(const std::vector<RunSpec> &specs,
                             unsigned threads = 0);

/**
 * The args-aware grid entry every bench binary calls: in-process on
 * the thread pool by default, or — under --isolate — each cell in a
 * sandboxed worker process with journal/resume support, keyed by
 * `bench_name`. An interrupted supervised grid prints the partial
 * tally plus a resume hint and exits 128+signal.
 */
std::vector<RunRow> runSpecs(const std::vector<RunSpec> &specs,
                             const BenchArgs &args,
                             const std::string &bench_name);

/** Run the cross product of kernels x configs (kernel-major). */
std::vector<RunRow> runMatrix(const std::vector<std::string> &kernels,
                              const std::vector<std::string> &configs,
                              std::uint64_t iterations,
                              const ConfigTweak &tweak = nullptr,
                              unsigned threads = 0);

/** Args-aware runMatrix (see the runSpecs overload above). */
std::vector<RunRow> runMatrix(const std::vector<std::string> &kernels,
                              const std::vector<std::string> &configs,
                              std::uint64_t iterations,
                              const ConfigTweak &tweak,
                              const BenchArgs &args,
                              const std::string &bench_name);

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

/** Geometric mean (values must be positive). */
double geomean(const std::vector<double> &values);

/** Print one aligned table row ("name | v0 v1 v2 ..."). */
void printRow(const std::string &name,
              const std::vector<std::string> &cells, unsigned width = 12);

/** Print a table header + separator. */
void printHeader(const std::string &name,
                 const std::vector<std::string> &cols,
                 unsigned width = 12);

/** Format helpers. */
std::string fmtF(double v, int prec = 2);
std::string fmtU(std::uint64_t v);

} // namespace edge::bench

#endif // EDGE_BENCH_BENCH_UTIL_HH
