/**
 * @file
 * The parallel run harness. Two layers under test:
 *
 *  - common/thread_pool: ordered results, exception propagation,
 *    backpressure on a bounded queue;
 *  - sim/run_pool + sim/sweep + bench grids: the determinism
 *    contract — every cell of a grid is an independent deterministic
 *    run, so `-j 1` and `-j 8` must produce bit-identical RunResults
 *    (cycles, every counter, every histogram, all flags), and a
 *    failing cell must surface as a structured row, never a fatal.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "common/thread_pool.hh"
#include "sim/run_pool.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

// ---------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, DefaultThreadsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool(3);
    EXPECT_EQ(pool.numThreads(), 3u);
}

TEST(ThreadPool, ParallelIndexOrderedResults)
{
    ThreadPool pool(4);
    // Jitter the per-job latency so completion order differs from
    // submission order; results must still come back index-ordered.
    std::vector<int> out = parallelIndex(pool, 100, [](std::size_t i) {
        if (i % 7 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ThreadPool, ParallelIndexPropagatesLowestIndexError)
{
    ThreadPool pool(4);
    try {
        parallelIndex(pool, 64, [](std::size_t i) -> int {
            if (i == 9)
                throw std::runtime_error("nine");
            if (i == 41)
                throw std::runtime_error("forty-one");
            return 0;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        // Deterministic pick: the lowest failing index wins, no
        // matter which worker hit its throw first.
        EXPECT_STREQ(e.what(), "nine");
    }
}

TEST(ThreadPool, BoundedQueueBackpressure)
{
    // Queue shorter than the job list: submit() must block instead of
    // growing without bound, and every job must still run exactly once.
    ThreadPool pool(2, /*queue_capacity=*/4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, DrainIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        pool.drain();
        EXPECT_EQ(ran.load(), 10 * (round + 1));
    }
}

// ---------------------------------------------------------------
// RunPool determinism

void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedBlocks, b.committedBlocks);
    EXPECT_EQ(a.committedInsts, b.committedInsts);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.archMatch, b.archMatch);
    EXPECT_EQ(a.error.ok(), b.error.ok());
    EXPECT_EQ(a.rngSeed, b.rngSeed);
    EXPECT_EQ(a.chaosSeed, b.chaosSeed);
    EXPECT_EQ(a.injections.total(), b.injections.total());
    EXPECT_EQ(a.invariantChecks, b.invariantChecks);
    // The full counter snapshot covers every stat the run produced
    // (including net.delivered, LSQ traffic, cache behaviour): any
    // thread-schedule dependence anywhere in the model shows up here.
    EXPECT_EQ(a.counters, b.counters);
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
        EXPECT_EQ(a.histograms[i].first, b.histograms[i].first);
        EXPECT_EQ(a.histograms[i].second.samples(),
                  b.histograms[i].second.samples());
        EXPECT_EQ(a.histograms[i].second.sum(),
                  b.histograms[i].second.sum());
        EXPECT_EQ(a.histograms[i].second.maxValue(),
                  b.histograms[i].second.maxValue());
        EXPECT_EQ(a.histograms[i].second.buckets(),
                  b.histograms[i].second.buckets());
    }
}

std::vector<sim::RunJob>
smallGrid(const isa::Program &prog)
{
    std::vector<sim::RunJob> jobs;
    for (const char *config : {"dsre", "storesets-flush"}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            sim::RunJob job;
            job.program = &prog;
            job.config = sim::Configs::byName(config);
            job.config.rngSeed = seed;
            job.config.chaos = chaos::ChaosParams::byProfile(
                chaos::Profile::Light, seed);
            job.config.checkInvariants = true;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(RunPool, SerialAndParallelBitIdentical)
{
    wl::KernelParams kp;
    kp.iterations = 300;
    isa::Program prog = wl::build("gzipish", kp);

    std::vector<sim::RunJob> jobs = smallGrid(prog);
    std::vector<sim::RunResult> serial =
        sim::RunPool(1).runAll(jobs);
    std::vector<sim::RunResult> parallel =
        sim::RunPool(8).runAll(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(serial[i], parallel[i]);
        EXPECT_TRUE(serial[i].halted);
        EXPECT_TRUE(serial[i].archMatch);
    }
}

TEST(RunPool, MixedProgramsShareOneSimulatorPerProgram)
{
    wl::KernelParams kp;
    kp.iterations = 200;
    isa::Program a = wl::build("gzipish", kp);
    isa::Program b = wl::build("mcfish", kp);

    std::vector<sim::RunJob> jobs;
    for (const isa::Program *p : {&a, &b, &a, &b}) {
        sim::RunJob job;
        job.program = p;
        job.config = sim::Configs::byName("dsre");
        jobs.push_back(std::move(job));
    }
    std::vector<sim::RunResult> results = sim::RunPool(4).runAll(jobs);
    ASSERT_EQ(results.size(), 4u);
    for (const auto &r : results) {
        EXPECT_TRUE(r.halted);
        EXPECT_TRUE(r.archMatch);
    }
    // Same program + same config = same run, wherever it sat in the
    // grid.
    expectIdentical(results[0], results[2]);
    expectIdentical(results[1], results[3]);
}

TEST(ChaosSweep, ThreadCountDoesNotChangeTheReport)
{
    wl::KernelParams kp;
    kp.iterations = 250;
    isa::Program prog = wl::build("parserish", kp);

    sim::ChaosSweepParams params;
    params.seeds = {1, 2, 3, 4};
    params.configs = {"dsre", "blind-flush"};
    params.profile = chaos::Profile::Light;

    params.threads = 1;
    sim::ChaosSweepReport serial = sim::chaosSweep(prog, params);
    params.threads = 8;
    sim::ChaosSweepReport parallel = sim::chaosSweep(prog, params);

    EXPECT_EQ(serial.failures, parallel.failures);
    EXPECT_EQ(serial.totalInjections, parallel.totalInjections);
    EXPECT_EQ(serial.totalChecks, parallel.totalChecks);
    EXPECT_EQ(serial.summary(), parallel.summary());
    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        EXPECT_EQ(serial.runs[i].seed, parallel.runs[i].seed);
        EXPECT_EQ(serial.runs[i].config, parallel.runs[i].config);
        expectIdentical(serial.runs[i].result, parallel.runs[i].result);
    }
}

// ---------------------------------------------------------------
// Bench grid plumbing

TEST(BenchGrid, MatrixMatchesSerialRunOne)
{
    std::vector<bench::RunRow> rows = bench::runMatrix(
        {"gzipish"}, {"dsre", "blind-flush"}, 200, nullptr, 4);
    ASSERT_EQ(rows.size(), 2u);
    for (const auto &row : rows) {
        EXPECT_TRUE(row.ok()) << row.failure();
        bench::RunRow one = bench::runOne(row.spec);
        expectIdentical(one.result, row.result);
    }
}

TEST(BenchGrid, FailingCellIsStructuredNotFatal)
{
    // A 50-cycle watchdog cannot finish any kernel: the cell must come
    // back as a non-ok row with a printable reason, and the healthy
    // cell beside it must be untouched.
    bench::RunSpec bad;
    bad.kernel = "gzipish";
    bad.config = "dsre";
    bad.iterations = 200;
    bad.maxCycles = 50;
    bench::RunSpec good = bad;
    good.maxCycles = 500'000'000;

    std::vector<bench::RunRow> rows = bench::runSpecs({bad, good}, 2);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_FALSE(rows[0].ok());
    EXPECT_FALSE(rows[0].result.halted);
    EXPECT_NE(rows[0].failure().find("did not finish"),
              std::string::npos);
    EXPECT_TRUE(rows[1].ok()) << rows[1].failure();
}

} // namespace
