/**
 * @file
 * Fixed-size worker thread pool with a bounded job queue. The
 * simulator's unit of parallelism is one whole deterministic run
 * (sim::RunPool), so the pool is deliberately simple: submit
 * type-erased jobs, block when the queue is full (backpressure
 * instead of unbounded memory), drain to a barrier. The
 * parallelIndex() helper layers ordered results and exception
 * capture on top: job i's result (or exception) lands in slot i, so
 * output order never depends on the thread schedule.
 */

#ifndef EDGE_COMMON_THREAD_POOL_HH
#define EDGE_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace edge {

class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 means defaultThreads()
     * @param queue_capacity max queued (not yet running) jobs;
     *        submit() blocks while the queue is at capacity
     */
    explicit ThreadPool(unsigned threads = 0,
                        std::size_t queue_capacity = 1024);

    /** Joins the workers (drains the queue first). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** hardware_concurrency, never less than 1. */
    static unsigned defaultThreads();

    /** The most workers a command line may ask for (-j, --slots). */
    static constexpr unsigned kMaxThreads = 256;

    unsigned numThreads() const { return _numThreads; }

    /**
     * Enqueue a job; blocks while the queue is full. Exceptions the
     * job throws are swallowed at the worker — use parallelIndex()
     * (or catch inside the job) when failures must reach the caller.
     */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished running. */
    void drain();

  private:
    void workerLoop();

    unsigned _numThreads;
    std::size_t _capacity;

    std::mutex _mutex;
    std::condition_variable _notEmpty; ///< queue gained a job / stop
    std::condition_variable _notFull;  ///< queue has room again
    std::condition_variable _idle;     ///< queue empty and none running
    std::deque<std::function<void()>> _queue;
    std::size_t _active = 0; ///< jobs currently executing
    bool _stop = false;

    std::vector<std::thread> _workers;
};

/**
 * Run fn(i) for every i in [0, n) on the pool and return the results
 * in index order — the caller cannot observe the thread schedule.
 * Exceptions are captured per job; after all jobs finish, the
 * lowest-index one is rethrown (deterministically, regardless of
 * which job failed first in wall-clock time).
 */
template <typename Fn>
auto
parallelIndex(ThreadPool &pool, std::size_t n, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    using Result = decltype(fn(std::size_t{0}));
    std::vector<Result> results(n);
    std::vector<std::exception_ptr> errors(n);
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
            try {
                results[i] = fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    pool.drain();
    for (std::size_t i = 0; i < n; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);
    return results;
}

} // namespace edge

#endif // EDGE_COMMON_THREAD_POOL_HH
