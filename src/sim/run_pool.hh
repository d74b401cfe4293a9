/**
 * @file
 * Parallel execution of independent simulator runs. Every
 * (program, MachineConfig, max_cycles) cell of a sweep or bench grid
 * is an isolated deterministic computation: the run-level rngSeed in
 * the config fixes every stochastic decision, each job owns its own
 * Processor and StatSet, and the only shared state is the per-program
 * reference execution (RefExecutor + OracleDb), which RunPool
 * computes once per distinct program and then shares read-only.
 * Results come back in submission order, so a parallel grid is bit-
 * identical to the same grid run serially — `-j N` changes wall-clock
 * only, never output.
 */

#ifndef EDGE_SIM_RUN_POOL_HH
#define EDGE_SIM_RUN_POOL_HH

#include <algorithm>
#include <atomic>
#include <functional>
#include <vector>

#include "sim/simulator.hh"

namespace edge::sim {

/** One independent run: a program under one config. */
struct RunJob
{
    /**
     * Program to run (not owned; must outlive runAll). Jobs sharing
     * the same pointer share one reference execution.
     */
    const isa::Program *program = nullptr;
    core::MachineConfig config;
    Cycle maxCycles = 500'000'000;
};

/**
 * Bounded retry with backoff for *transient* (host-level) failures —
 * today that is exactly SimError::Reason::HostDeadline, the
 * wall-clock guard. Deterministic failures (watchdog, invariant
 * violation, protocol panic, divergence) are properties of
 * (program, config, seed) and are NEVER retried: rerunning them
 * would burn time to reproduce the same bits. A cell that fails
 * deterministically is quarantined — reported as a structured row
 * while the rest of the grid keeps running.
 */
struct RetryPolicy
{
    /** Total attempts per cell (1 = no retry). */
    unsigned maxAttempts = 3;
    /** Sleep before the first retry; doubles on each further one. */
    unsigned backoffMs = 10;
    /**
     * Hard cap on the *total* milliseconds of backoff one cell may
     * accumulate across all its retries. Exponential doubling is
     * clipped against whatever budget remains, so a cell can never
     * stall a grid for more than this long in sleeps.
     */
    std::uint64_t maxTotalBackoffMs = 2'000;
    /**
     * Cooperative cancellation flag (not owned; may be null). A
     * backoff sleep polls it and aborts early — during shutdown no
     * cell sits in an un-cancellable sleep. When it becomes true the
     * cell's current result is accepted as-is, with no further
     * attempts. The campaign supervisor points this at its stop flag.
     */
    const std::atomic<bool> *cancel = nullptr;

    /** Should this result be retried at the given attempt number? */
    bool
    shouldRetry(const RunResult &result, unsigned attempt) const
    {
        return attempt < maxAttempts &&
               chaos::isTransient(result.error.reason) &&
               !(cancel && cancel->load(std::memory_order_relaxed));
    }

    /**
     * The backoff before retry `n` (1-based) of a cell that has
     * already backed off `spentMs`: backoffMs doubled n-1 times (at
     * most 10), clipped against what is left of maxTotalBackoffMs.
     * The one formula every runner (RunPool, Supervisor, Fabric)
     * schedules retries and reassignments with.
     */
    std::uint64_t
    delayMs(unsigned n, std::uint64_t spentMs) const
    {
        return std::min<std::uint64_t>(
            static_cast<std::uint64_t>(backoffMs) << std::min(n - 1, 10u),
            maxTotalBackoffMs - std::min(maxTotalBackoffMs, spentMs));
    }
};

class RunPool
{
  public:
    /** @param threads worker count; 0 means all hardware threads */
    explicit RunPool(unsigned threads = 0);

    unsigned threads() const { return _threads; }

    /**
     * Run every job, concurrently, and return results indexed like
     * `jobs`. Distinct programs get their reference executions
     * computed first (also in parallel, one job per program); then
     * every cell runs as its own pool job. Run failures (watchdog,
     * invariant violation, protocol panic, divergence) are per-cell
     * data in RunResult — one bad cell never aborts the grid.
     * Transient host-level failures are retried per `retry`; the
     * accepted result's `retries` field reports how many times.
     */
    std::vector<RunResult> runAll(const std::vector<RunJob> &jobs,
                                  const RetryPolicy &retry = {});

    /**
     * Run many configs of one already-constructed Simulator without
     * rebuilding its reference execution (prepares it on first use).
     * The triage minimizer leans on this: each delta-debugging round
     * is a batch of masked-schedule candidate runs over one program.
     */
    std::vector<RunResult>
    runConfigs(Simulator &sim,
               const std::vector<core::MachineConfig> &configs,
               Cycle max_cycles = 500'000'000,
               const RetryPolicy &retry = {});

  private:
    RunResult runWithRetry(const std::function<RunResult()> &once,
                           const RetryPolicy &retry) const;

    unsigned _threads;
};

} // namespace edge::sim

#endif // EDGE_SIM_RUN_POOL_HH
