/**
 * @file
 * Named regression tests for protocol bugs found (and fixed) during
 * development. Each test reconstructs the scenario that exposed the
 * bug; see DESIGN.md "Protocol engineering notes" for the analysis.
 */

#include <gtest/gtest.h>

#include "compiler/builder.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace edge {
namespace {

/**
 * Regression 1 — flush-recovery livelock on intra-block aliases.
 * A single-address read-modify-write where the load (lower LSID)
 * architecturally precedes the store in the same block, but the
 * *next* block's load aliases this block's store. Under blind+flush
 * the violating block is flushed and refetched; without the one-shot
 * replay hold the deterministic replay violates identically forever.
 */
isa::Program
intraBlockRmw(std::uint64_t n)
{
    compiler::ProgramBuilder pb("rmw_livelock");
    pb.setInitReg(1, 0);
    pb.setInitReg(2, n);
    pb.initDataWords(0x2000, {1});
    auto &loop = pb.newBlock("loop");
    compiler::Val i = loop.readReg(1);
    compiler::Val v = loop.load(loop.imm(0x2000), 8);
    // Deep data chain so the store resolves late and the next
    // block's load issues first.
    compiler::Val slow =
        loop.muli(loop.muli(loop.muli(v, 3), 5), 7);
    loop.store(loop.imm(0x2000), loop.andi(slow, 0xffff), 8);
    compiler::Val i2 = loop.addi(i, 1);
    loop.writeReg(1, i2);
    loop.branchCond(loop.tlt(i2, loop.readReg(2)), "loop", "done");
    auto &done = pb.newBlock("done");
    done.branchHalt();
    pb.setEntry("loop");
    return pb.build();
}

TEST(Regressions, FlushRecoveryDoesNotLivelock)
{
    sim::Simulator s(intraBlockRmw(100), sim::Configs::blindFlush());
    sim::RunResult r = s.run(5'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
}

/**
 * Regression 2 — commit-wave value time travel. A value computed
 * behind a long-latency operation (FP divide feeding a load address)
 * must never reach consumers earlier via a status upgrade than via
 * the data message it confirms. The symptom was DSRE "beating" the
 * dependence oracle on a serial pointer chase; the guard is that
 * DSRE can never be faster than the flush machine on an alias-free
 * serial chain (the two machines do identical work there).
 */
TEST(Regressions, CommitWaveCannotOutrunData)
{
    wl::KernelParams kp;
    kp.iterations = 300;
    sim::Simulator dsre(wl::build("mcfish", kp), sim::Configs::dsre());
    sim::Simulator flush(wl::build("mcfish", kp),
                         sim::Configs::blindFlush());
    sim::RunResult a = dsre.run();
    sim::RunResult b = flush.run();
    ASSERT_TRUE(a.halted && a.archMatch);
    ASSERT_TRUE(b.halted && b.archMatch);
    // Identical work: DSRE must not be measurably faster than flush
    // on the serial chase (small slack for commit-wave timing).
    EXPECT_LE(a.cycles * 100, b.cycles * 102);
}

/**
 * Regression 3 — re-execution storm collapse. An unbounded resend
 * budget on a deep same-address store chain amplifies corrective
 * waves geometrically. The budget must keep even the worst-case
 * kernel terminating (and the machine was congesting past the
 * watchdog without it). Budget 4 is the default; this pins the
 * bounded-budget guarantee on the storm kernel.
 */
TEST(Regressions, ResendBudgetPreventsStormCollapse)
{
    wl::KernelParams kp;
    kp.iterations = 400;
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.lsq.maxResendsPerLoad = 4;
    sim::Simulator s(wl::build("parserish", kp), cfg);
    sim::RunResult r = s.run(20'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
}

/**
 * Regression 4 — stranded deferral. When a deferred (over-budget)
 * load's *address* upgrade is the last finality event in the
 * machine, the final correction must bypass the budget or the
 * commit wave never completes (deadlock with an idle machine).
 * Exposed by fuzz seed 8 with value prediction enabled, which
 * maximises address-wave traffic.
 */
TEST(Regressions, DeferredLoadsStillJoinTheCommitWave)
{
    for (std::uint64_t seed : {8ull, 9ull, 10ull}) {
        wl::KernelParams kp;
        kp.iterations = 400;
        kp.seed = seed;
        core::MachineConfig cfg = sim::Configs::dsreVp();
        cfg.lsq.maxResendsPerLoad = 1; // maximal deferral pressure
        sim::Simulator s(wl::build("twolfish", kp), cfg);
        sim::RunResult r = s.run(20'000'000);
        EXPECT_TRUE(r.halted) << seed;
        EXPECT_TRUE(r.archMatch) << seed;
    }
}

/**
 * Regression 5 — cross-network reordering. Status (commit-wave)
 * messages travel on a different mesh than data and can arrive out
 * of order; every consumer must drop stale waves or a late data
 * message "downgrades" a Final value (which panics). Heavy network
 * contention plus value prediction reproduces the interleaving.
 */
TEST(Regressions, CrossNetworkReorderingIsHandled)
{
    wl::KernelParams kp;
    kp.iterations = 500;
    core::MachineConfig cfg = sim::Configs::dsreVp();
    cfg.core.hopLatency = 3; // widen the reordering window
    sim::Simulator s(wl::build("bzip2ish", kp), cfg);
    sim::RunResult r = s.run(20'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
}

/**
 * Regression 6 — store-set dispatch-time capture. The LFST must be
 * read at load map time; reading it at address-ready time always
 * finds the load's own block's younger store and never serialises.
 * Observable end to end: on the deterministic stencil dependence,
 * a trained store-set machine must have (almost) no violations.
 */
TEST(Regressions, StoreSetsActuallySerialiseAfterTraining)
{
    wl::KernelParams kp;
    kp.iterations = 1000;
    sim::Simulator s(wl::build("swimish", kp),
                     sim::Configs::storeSetsFlush());
    sim::RunResult r = s.run();
    ASSERT_TRUE(r.halted && r.archMatch);
    // Blind speculation violates on ~every block here; a working
    // store-set predictor eliminates nearly all of them.
    EXPECT_LT(r.counter("lsq.violations"), r.committedBlocks / 20);
    EXPECT_GT(r.counter("lsq.policy_holds"), r.committedBlocks / 2);
}

/**
 * Regression 7 — value prediction is architecturally invisible.
 * Wrong guesses must always be corrected through the wave protocol
 * before commit; a tiny value-predicting machine with a cold table
 * (all guesses wrong at first touch) still commits exact state.
 */
TEST(Regressions, ValuePredictionNeverLeaksWrongValues)
{
    for (const char *k : {"mcfish", "equakeish", "gzipish"}) {
        wl::KernelParams kp;
        kp.iterations = 300;
        core::MachineConfig cfg = sim::Configs::dsreVp();
        cfg.lsq.vpLatencyThreshold = 0; // predict on every access
        sim::Simulator s(wl::build(k, kp), cfg);
        sim::RunResult r = s.run(20'000'000);
        EXPECT_TRUE(r.halted) << k;
        EXPECT_TRUE(r.archMatch) << k;
    }
}

} // namespace
} // namespace edge
