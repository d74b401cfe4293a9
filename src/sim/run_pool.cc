#include "sim/run_pool.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace edge::sim {

RunPool::RunPool(unsigned threads)
    : _threads(threads == 0 ? ThreadPool::defaultThreads() : threads)
{
}

namespace {

/**
 * Sleep for `ms`, polling `cancel` in short slices so a shutdown
 * request never waits behind a long backoff. Returns the
 * milliseconds actually slept.
 */
std::uint64_t
interruptibleSleep(std::uint64_t ms, const std::atomic<bool> *cancel)
{
    constexpr std::uint64_t kSliceMs = 5;
    std::uint64_t slept = 0;
    while (slept < ms) {
        if (cancel && cancel->load(std::memory_order_relaxed))
            break;
        std::uint64_t slice = std::min(kSliceMs, ms - slept);
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        slept += slice;
    }
    return slept;
}

} // namespace

RunResult
RunPool::runWithRetry(const std::function<RunResult()> &once,
                      const RetryPolicy &retry) const
{
    unsigned attempt = 1;
    std::uint64_t total_backoff = 0;
    for (;;) {
        RunResult r = once();
        r.retries = attempt - 1;
        r.backoffMs = total_backoff;
        if (!retry.shouldRetry(r, attempt))
            return r;
        // Transient host-level failure: back off and rerun. The run
        // itself is deterministic, so only host conditions (load,
        // wall-clock pressure) can change the outcome. The backoff
        // budget is capped per cell and the sleep is cancellable.
        total_backoff += interruptibleSleep(
            retry.delayMs(attempt, total_backoff), retry.cancel);
        ++attempt;
    }
}

std::vector<RunResult>
RunPool::runAll(const std::vector<RunJob> &jobs,
                const RetryPolicy &retry)
{
    if (jobs.empty())
        return {};
    for (const RunJob &job : jobs)
        fatal_if(job.program == nullptr, "RunPool: job without a program");

    // One Simulator per distinct program; map preserves a
    // deterministic preparation order (pointer order is fine — it
    // only affects which thread prepares what, never any result).
    std::map<const isa::Program *, std::unique_ptr<Simulator>> sims;
    for (const RunJob &job : jobs) {
        auto &slot = sims[job.program];
        if (!slot)
            slot = std::make_unique<Simulator>(*job.program,
                                               job.config);
    }

    ThreadPool pool(_threads);

    // Phase 1: reference executions, one pool job per program. Each
    // Simulator is touched by exactly one thread here; afterwards its
    // reference state is immutable and safe to share.
    std::vector<Simulator *> to_prepare;
    for (auto &kv : sims)
        to_prepare.push_back(kv.second.get());
    parallelIndex(pool, to_prepare.size(), [&](std::size_t i) {
        to_prepare[i]->prepare();
        return 0;
    });

    // Phase 2: the cells. Each job owns its Processor + StatSet via
    // runShared(); results land in submission order.
    return parallelIndex(pool, jobs.size(), [&](std::size_t i) {
        const RunJob &job = jobs[i];
        const Simulator *sim = sims.at(job.program).get();
        return runWithRetry(
            [&] { return sim->runShared(job.config, job.maxCycles); },
            retry);
    });
}

std::vector<RunResult>
RunPool::runConfigs(Simulator &sim,
                    const std::vector<core::MachineConfig> &configs,
                    Cycle max_cycles, const RetryPolicy &retry)
{
    if (configs.empty())
        return {};
    sim.prepare();
    ThreadPool pool(_threads);
    return parallelIndex(pool, configs.size(), [&](std::size_t i) {
        return runWithRetry(
            [&] { return sim.runShared(configs[i], max_cycles); },
            retry);
    });
}

} // namespace edge::sim
