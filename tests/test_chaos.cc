/**
 * @file
 * Chaos-harness tests: the DSRE convergence claim under deterministic
 * fault injection, the runtime invariant checker catching seeded
 * protocol mutations by name, and graceful (structured, non-aborting)
 * failure reporting.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "chaos/chaos.hh"
#include "chaos/trace_ring.hh"
#include "compiler/builder.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

namespace edge {
namespace {

const std::vector<std::string> kMechanisms = {
    "blind-flush", "storesets-flush", "dsre", "storesets-dsre"};

isa::Program
kernelProgram(const std::string &name, std::uint64_t iterations)
{
    wl::KernelParams kp;
    kp.iterations = iterations;
    return wl::build(name, kp);
}

// ---------------------------------------------------------------------
// Fault-schedule determinism: everything derives from one seed.
// ---------------------------------------------------------------------

TEST(ChaosEngine, StreamsAreSeedDeterministic)
{
    chaos::ChaosParams p =
        chaos::ChaosParams::byProfile(chaos::Profile::Heavy, 1234);
    chaos::ChaosEngine a(p);
    chaos::ChaosEngine b(p);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.hopJitter(), b.hopJitter());
        EXPECT_EQ(a.memJitter(), b.memJitter());
        EXPECT_EQ(a.storeResolveDelay(), b.storeResolveDelay());
        EXPECT_EQ(a.duplicate(), b.duplicate());
    }
    // A different run-level seed yields a different schedule.
    p.seed = 1235;
    chaos::ChaosEngine c(p);
    int diffs = 0;
    for (int i = 0; i < 1000; ++i)
        diffs += a.hopJitter() != c.hopJitter();
    EXPECT_GT(diffs, 0);
}

TEST(ChaosRun, SameSeedReplaysExactly)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.rngSeed = 9;
    cfg.chaos = chaos::ChaosParams::byProfile(chaos::Profile::Heavy, 9);
    cfg.checkInvariants = true;
    sim::Simulator s(kernelProgram("parserish", 120), cfg);
    sim::RunResult a = s.run();
    sim::RunResult b = s.run(cfg);
    ASSERT_TRUE(a.halted && a.archMatch) << a.error.format();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.injections.total(), b.injections.total());
    EXPECT_EQ(a.invariantChecks, b.invariantChecks);
    EXPECT_EQ(a.chaosSeed, 9u);
    EXPECT_GT(a.injections.total(), 0u);
}

// ---------------------------------------------------------------------
// The convergence sweep (the acceptance grid): >= 20 seeds x 4
// kernels x all four mechanism configs, every run committing
// bit-identical architectural state with zero invariant violations.
// ---------------------------------------------------------------------

TEST(ChaosConvergence, SweepGridCommitsIdenticalState)
{
    sim::ChaosSweepParams sp;
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        sp.seeds.push_back(seed);
    sp.configs = kMechanisms;
    sp.profile = chaos::Profile::Heavy;
    sp.checkInvariants = true;

    for (const char *kernel :
         {"parserish", "mcfish", "twolfish", "gzipish"}) {
        sim::ChaosSweepReport rep =
            sim::chaosSweep(kernelProgram(kernel, 80), sp);
        EXPECT_TRUE(rep.allConverged())
            << kernel << ":\n"
            << rep.summary();
        EXPECT_EQ(rep.runs.size(), 20u * kMechanisms.size());
        EXPECT_GT(rep.totalInjections, 0u);
        EXPECT_GT(rep.totalChecks, 0u);
    }
}

TEST(ChaosConvergence, SpuriousWavesForceReFiresAndStillConverge)
{
    // The lsq profile aims squarely at DSRE's re-fire machinery:
    // delayed store resolution plus injected spurious violation
    // waves (a wrong value immediately corrected one wave later).
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.rngSeed = 5;
    cfg.chaos = chaos::ChaosParams::byProfile(chaos::Profile::Lsq, 5);
    cfg.checkInvariants = true;
    sim::Simulator s(kernelProgram("parserish", 150), cfg);
    sim::RunResult r = s.run();
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
    EXPECT_TRUE(r.error.ok()) << r.error.format();
    EXPECT_GT(r.injections.spuriousWaves, 0u);
    EXPECT_GT(r.invariantChecks, 0u);
}

// ---------------------------------------------------------------------
// Graceful failure: a wedged machine returns a structured SimError
// (with the trace-ring tail) instead of aborting the process.
// ---------------------------------------------------------------------

#ifdef EDGE_MUTATIONS

TEST(ChaosGraceful, WatchdogReturnsStructuredReport)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.core.watchdogCycles = 20000;
    cfg.chaos.mutation = chaos::Mutation::DropUpgrade;
    cfg.chaos.mutationNode = ~0u; // every node drops its upgrades
    cfg.checkInvariants = true;
    sim::Simulator s(kernelProgram("parserish", 60), cfg);
    sim::RunResult r = s.run();
    EXPECT_FALSE(r.halted);
    EXPECT_FALSE(r.archMatch);
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::Watchdog);
    EXPECT_EQ(r.error.invariant, "commit-progress");
    EXPECT_FALSE(r.error.message.empty());
    EXPECT_FALSE(r.error.trace.empty());
    EXPECT_FALSE(r.error.format().empty());
}

// ---------------------------------------------------------------------
// Mutation tests: each compile-time-flagged protocol mutation must be
// caught by the named invariant.
// ---------------------------------------------------------------------

TEST(ChaosMutation, SkipSquashCaughtByValueIdentityInvariant)
{
    // The lsq chaos profile injects spurious glitch/fix wave pairs;
    // consumers whose output is insensitive to the glitched bit
    // re-execute to an identical result, which the protocol must
    // squash. The mutation sends those identical waves anyway.
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.rngSeed = 5;
    cfg.chaos = chaos::ChaosParams::byProfile(chaos::Profile::Lsq, 5);
    cfg.chaos.mutation = chaos::Mutation::SkipSquash;
    cfg.chaos.mutationNode = ~0u;
    cfg.checkInvariants = true;
    sim::Simulator s(kernelProgram("parserish", 150), cfg);
    sim::RunResult r = s.run();
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.error.reason,
              chaos::SimError::Reason::InvariantViolation);
    EXPECT_EQ(r.error.invariant, "value-identity-squash");
    EXPECT_FALSE(r.error.trace.empty());
}

TEST(ChaosMutation, DropUpgradeCaughtByCommitProgress)
{
    // Finality never reaches one node's consumers, so the commit
    // wave stalls; the commit watchdog surfaces that as the
    // commit-progress invariant rather than killing the process.
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.core.watchdogCycles = 20000;
    cfg.chaos.mutation = chaos::Mutation::DropUpgrade;
    cfg.chaos.mutationNode = ~0u;
    sim::Simulator s(kernelProgram("twolfish", 60), cfg);
    sim::RunResult r = s.run();
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::Watchdog);
    EXPECT_EQ(r.error.invariant, "commit-progress");
}

/**
 * Two older stores cover the same word, then a load reads it. The
 * protocol forwards youngest-first; the mutation flips that to
 * oldest-first, so the load's final value disagrees with the
 * age-ordered recomputation inside the checker.
 */
isa::Program
overlappingStoreProgram()
{
    compiler::ProgramBuilder pb("misorder");
    pb.setInitReg(1, 0);
    auto &blk = pb.newBlock("body");
    compiler::Val addr = blk.imm(0x1000);
    blk.store(addr, blk.imm(0x11), 8);
    blk.store(addr, blk.imm(0x22), 8);
    compiler::Val v = blk.load(addr, 8);
    blk.writeReg(1, v);
    blk.branchHalt();
    pb.setEntry("body");
    return pb.build();
}

TEST(ChaosMutation, MisorderForwardCaughtByAgeOrderedForwarding)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.chaos.mutation = chaos::Mutation::MisorderForward;
    cfg.checkInvariants = true;
    sim::Simulator s(overlappingStoreProgram(), cfg);
    sim::RunResult r = s.run();
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.error.reason,
              chaos::SimError::Reason::InvariantViolation);
    EXPECT_EQ(r.error.invariant, "lsq-age-ordered-forwarding");
}

TEST(ChaosMutation, UnmutatedOverlappingStoresAreClean)
{
    // The same program with the mutation off passes the checker and
    // matches the reference — the signal comes from the mutation,
    // not from the program.
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.checkInvariants = true;
    sim::Simulator s(overlappingStoreProgram(), cfg);
    sim::RunResult r = s.run();
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
    EXPECT_TRUE(r.error.ok()) << r.error.format();
}

#endif // EDGE_MUTATIONS

// ---------------------------------------------------------------------
// TraceRing: the failure-report tail must be the populated prefix in
// insertion order before the ring wraps, and the newest `depth`
// events afterwards.
// ---------------------------------------------------------------------

chaos::TraceEvent
cycleEvent(Cycle c)
{
    chaos::TraceEvent ev;
    ev.cycle = c;
    ev.kind = chaos::TraceEvent::Kind::Commit;
    return ev;
}

std::vector<Cycle>
snapshotCycles(const chaos::TraceRing &ring)
{
    // The cycle leads each rendered line: "cycle <N> ...".
    std::vector<Cycle> out;
    for (const std::string &line : ring.snapshot())
        out.push_back(std::strtoull(line.c_str() + 6, nullptr, 10));
    return out;
}

TEST(TraceRing, PartialFillReportsInsertionOrder)
{
    chaos::TraceRing ring(8);
    for (Cycle c = 1; c <= 3; ++c)
        ring.push(cycleEvent(c));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(snapshotCycles(ring), (std::vector<Cycle>{1, 2, 3}));
}

TEST(TraceRing, ExactFillReportsAllEvents)
{
    chaos::TraceRing ring(4);
    for (Cycle c = 1; c <= 4; ++c)
        ring.push(cycleEvent(c));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(snapshotCycles(ring), (std::vector<Cycle>{1, 2, 3, 4}));
}

TEST(TraceRing, WraparoundKeepsNewestDepthEvents)
{
    chaos::TraceRing ring(4);
    for (Cycle c = 1; c <= 6; ++c)
        ring.push(cycleEvent(c));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(snapshotCycles(ring), (std::vector<Cycle>{3, 4, 5, 6}));
}

TEST(TraceRing, NonPowerOfTwoDepthWrapsTwice)
{
    chaos::TraceRing ring(3);
    for (Cycle c = 1; c <= 7; ++c)
        ring.push(cycleEvent(c));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(snapshotCycles(ring), (std::vector<Cycle>{5, 6, 7}));
}

TEST(TraceRing, DepthOneKeepsTheNewestEvent)
{
    chaos::TraceRing ring(1);
    ring.push(cycleEvent(1));
    EXPECT_EQ(snapshotCycles(ring), (std::vector<Cycle>{1}));
    for (Cycle c = 2; c <= 4; ++c)
        ring.push(cycleEvent(c));
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(snapshotCycles(ring), (std::vector<Cycle>{4}));
}

TEST(TraceRing, DepthZeroIsInertAndSafe)
{
    chaos::TraceRing ring(0);
    for (Cycle c = 1; c <= 3; ++c)
        ring.push(cycleEvent(c));
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, EmptyRingSnapshotIsEmpty)
{
    chaos::TraceRing ring(8);
    EXPECT_TRUE(ring.snapshot().empty());
}

} // namespace
} // namespace edge
