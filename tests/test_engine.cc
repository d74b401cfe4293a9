/**
 * @file
 * The event-driven cycle engine and its supporting pieces:
 *
 *  - core/program_image: one decode/validate/place per distinct
 *    program, shared read-only across Processors;
 *  - the engine differential: MachineConfig::engine Tick and Event
 *    must produce bit-identical RunResults — cycles, every counter,
 *    every histogram bucket, and (under chaos) the same structured
 *    failure — across kernels x mechanisms x chaos seeds, on 2x4 and
 *    8x8 grids as well as the default 4x4, with a 16-frame window as
 *    well as the default 8, and across 20 fuzz-generated programs. This is the guardrail that lets the
 *    cycle-skipping engine replace the ticking loop as the default.
 */

#include <gtest/gtest.h>

#include "core/program_image.hh"
#include "fuzz/generator.hh"
#include "sim/run_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

// ---------------------------------------------------------------
// ProgramImage

TEST(ProgramImage, LayoutsAreCachedPerGeometry)
{
    wl::KernelParams kp;
    kp.iterations = 10;
    isa::Program prog = wl::build("gzipish", kp);
    core::ProgramImage image(prog);
    EXPECT_EQ(&image.program(), &prog);

    compiler::GridGeom geom; // default 4x4x8
    const core::Layout &a = image.layout(geom);
    const core::Layout &b = image.layout(geom);
    EXPECT_EQ(&a, &b); // same geometry: the same cached layout
    EXPECT_EQ(a.placements.size(), prog.numBlocks());

    compiler::GridGeom wide = geom;
    wide.cols = 8;
    const core::Layout &c = image.layout(wide);
    EXPECT_NE(&a, &c); // distinct geometry: a distinct layout
    EXPECT_EQ(c.placements.size(), prog.numBlocks());
}

TEST(ProgramImage, NodeMaskIsTheSetOfPlacedNodes)
{
    wl::KernelParams kp;
    kp.iterations = 10;
    isa::Program prog = wl::build("gzipish", kp);
    core::ProgramImage image(prog);
    // 9x9 = 81 nodes: the mask spans two words.
    compiler::GridGeom geom{9, 9, 2};
    const core::Layout &l = image.layout(geom);
    ASSERT_EQ(l.maskWords, 2u);
    for (BlockId b = 0; b < prog.numBlocks(); ++b) {
        std::vector<bool> used(geom.numNodes(), false);
        for (std::uint16_t n : l.placements[b].nodeOf)
            used[n] = true;
        const std::uint64_t *mask = l.nodeMask(b);
        for (unsigned n = 0; n < geom.numNodes(); ++n)
            EXPECT_EQ((mask[n / 64] >> (n % 64)) & 1, used[n] ? 1u : 0u)
                << "block " << b << " node " << n;
    }
}

TEST(ProgramImage, LocalIndicesNumberEachNodesInstructionsInSlotOrder)
{
    wl::KernelParams kp;
    kp.iterations = 10;
    isa::Program prog = wl::build("bzip2ish", kp);
    core::ProgramImage image(prog);
    for (compiler::GridGeom geom :
         {compiler::GridGeom{}, compiler::GridGeom{8, 8, 2}}) {
        const core::Layout &l = image.layout(geom);
        ASSERT_EQ(l.localOf.size(), prog.numBlocks());
        for (BlockId b = 0; b < prog.numBlocks(); ++b) {
            const auto &node_of = l.placements[b].nodeOf;
            ASSERT_EQ(l.localOf[b].size(), node_of.size());
            // The k-th instruction placed on a node gets local slot k.
            std::vector<std::uint16_t> next(geom.numNodes(), 0);
            for (std::size_t s = 0; s < node_of.size(); ++s) {
                EXPECT_EQ(l.localOf[b][s], next[node_of[s]]++)
                    << "block " << b << " slot " << s;
                EXPECT_LT(l.localOf[b][s], geom.slotsPerNode);
            }
        }
    }
}

// ---------------------------------------------------------------
// Engine differential: tick vs event must be bit-identical.

void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedBlocks, b.committedBlocks);
    EXPECT_EQ(a.committedInsts, b.committedInsts);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.archMatch, b.archMatch);
    EXPECT_EQ(a.error.reason, b.error.reason);
    EXPECT_EQ(a.error.invariant, b.error.invariant);
    EXPECT_EQ(a.error.message, b.error.message);
    EXPECT_EQ(a.error.cycle, b.error.cycle);
    EXPECT_EQ(a.error.seq, b.error.seq);
    EXPECT_EQ(a.rngSeed, b.rngSeed);
    EXPECT_EQ(a.chaosSeed, b.chaosSeed);
    EXPECT_EQ(a.injections.total(), b.injections.total());
    EXPECT_EQ(a.invariantChecks, b.invariantChecks);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.resends, b.resends);
    EXPECT_EQ(a.reexecs, b.reexecs);
    EXPECT_EQ(a.upgrades, b.upgrades);
    // The full counter snapshot covers every stat the run produced:
    // a single skipped-but-not-inert cycle anywhere shows up here.
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

/** Jobs for `prog` under both engines: [0..n) tick, [n..2n) event. */
std::vector<sim::RunJob>
dualEngineJobs(const isa::Program &prog,
               const std::vector<std::string> &configs,
               const std::vector<std::uint64_t> &chaos_seeds)
{
    std::vector<sim::RunJob> jobs;
    for (core::EngineKind engine :
         {core::EngineKind::Tick, core::EngineKind::Event}) {
        for (const std::string &config : configs) {
            for (std::uint64_t seed : chaos_seeds) {
                sim::RunJob job;
                job.program = &prog;
                job.config = sim::Configs::byName(config);
                job.config.engine = engine;
                job.config.rngSeed = seed;
                if (seed != 0) {
                    job.config.chaos = chaos::ChaosParams::byProfile(
                        chaos::Profile::Light, seed);
                    job.config.checkInvariants = true;
                }
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

TEST(EngineDifferential, KernelsByMechanismsByChaosSeeds)
{
    // Clean runs (seed 0) plus two chaos-injected seeds, across the
    // mechanisms that exercise every recovery path: flush, DSRE, and
    // the conservative no-speculation baseline.
    const std::vector<std::string> configs = {
        "conservative", "blind-flush", "storesets-flush",
        "dsre",         "dsre-vp",
    };
    const std::vector<std::uint64_t> chaos_seeds = {0, 1, 2};

    for (const char *kernel : {"gzipish", "parserish", "swimish"}) {
        SCOPED_TRACE(kernel);
        wl::KernelParams kp;
        kp.iterations = 150;
        isa::Program prog = wl::build(kernel, kp);

        std::vector<sim::RunJob> jobs =
            dualEngineJobs(prog, configs, chaos_seeds);
        std::vector<sim::RunResult> results =
            sim::RunPool(4).runAll(jobs);

        std::size_t half = jobs.size() / 2;
        ASSERT_EQ(results.size(), half * 2);
        for (std::size_t i = 0; i < half; ++i) {
            SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                         configs[i / chaos_seeds.size()] + ", seed " +
                         std::to_string(
                             chaos_seeds[i % chaos_seeds.size()]) +
                         ")");
            expectIdentical(results[i], results[half + i]);
        }
    }
}

TEST(EngineDifferential, NonDefaultGrids)
{
    // The event engine ticks only the nodes in its active-node set.
    // A set capped at 32 nodes, or a node whose bit goes stale, makes
    // the engines disagree on a 2x4 grid (8 nodes, 16 slots each, so a
    // block still fits) or an 8x8 grid (64 nodes, 2 slots each). The
    // placer packs blocks next to the register row and the LSQ
    // column, so only equakeish's large blocks reach nodes 32 and up.
    struct Grid
    {
        unsigned rows, cols, slotsPerNode;
    };
    for (Grid g : {Grid{2, 4, 16}, Grid{8, 8, 2}}) {
        SCOPED_TRACE(std::to_string(g.rows) + "x" +
                     std::to_string(g.cols));
        for (const char *kernel : {"parserish", "equakeish"}) {
            SCOPED_TRACE(kernel);
            wl::KernelParams kp;
            kp.iterations = 100;
            isa::Program prog = wl::build(kernel, kp);
            if (g.rows * g.cols > 32 &&
                std::string(kernel) == "equakeish") {
                core::ProgramImage image(prog);
                unsigned top = 0;
                for (const compiler::Placement &pl :
                     image.layout({g.rows, g.cols, g.slotsPerNode})
                         .placements) {
                    for (std::uint16_t n : pl.nodeOf)
                        top = std::max<unsigned>(top, n);
                }
                ASSERT_GE(top, 32u) << "no block reaches node 32";
            }

            std::vector<sim::RunJob> jobs = dualEngineJobs(
                prog, {"dsre", "storesets-flush"}, {0, 1});
            for (sim::RunJob &job : jobs) {
                job.config.core.rows = g.rows;
                job.config.core.cols = g.cols;
                job.config.core.slotsPerNode = g.slotsPerNode;
            }
            std::vector<sim::RunResult> results =
                sim::RunPool(4).runAll(jobs);

            std::size_t half = jobs.size() / 2;
            ASSERT_EQ(results.size(), half * 2);
            for (std::size_t i = 0; i < half; ++i) {
                SCOPED_TRACE("cell " + std::to_string(i));
                EXPECT_TRUE(results[i].halted);
                expectIdentical(results[i], results[half + i]);
            }
        }
    }

    // The widest window (Fig. 6): 16 frames of in-flight state, with
    // frames recycled out of age order by flushes and commits.
    for (const char *kernel : {"parserish", "swimish"}) {
        SCOPED_TRACE(std::string("16 frames, ") + kernel);
        wl::KernelParams kp;
        kp.iterations = 100;
        isa::Program prog = wl::build(kernel, kp);
        std::vector<sim::RunJob> jobs =
            dualEngineJobs(prog, {"dsre", "storesets-flush"}, {0, 1});
        for (sim::RunJob &job : jobs)
            job.config.core.numFrames = 16;
        std::vector<sim::RunResult> results =
            sim::RunPool(4).runAll(jobs);

        std::size_t half = jobs.size() / 2;
        ASSERT_EQ(results.size(), half * 2);
        for (std::size_t i = 0; i < half; ++i) {
            SCOPED_TRACE("cell " + std::to_string(i));
            EXPECT_TRUE(results[i].halted);
            expectIdentical(results[i], results[half + i]);
        }
    }
}

TEST(EngineDifferential, WatchdogFiresAtTheSameCycle)
{
    // A watchdog shorter than the time to the first commit must trip
    // at the same cycle with the same machine dump under both
    // engines, even though the event engine reaches the deadline via
    // a scheduled wake rather than per-cycle polling.
    wl::KernelParams kp;
    kp.iterations = 200;
    isa::Program prog = wl::build("gzipish", kp);

    sim::RunJob tick;
    tick.program = &prog;
    tick.config = sim::Configs::byName("dsre");
    tick.config.engine = core::EngineKind::Tick;
    tick.config.core.watchdogCycles = 1;
    sim::RunJob event = tick;
    event.config.engine = core::EngineKind::Event;

    std::vector<sim::RunResult> r = sim::RunPool(2).runAll({tick, event});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].error.reason, chaos::SimError::Reason::Watchdog);
    expectIdentical(r[0], r[1]);
}

TEST(EngineDifferential, TwentyFuzzSeedsWithChaos)
{
    // Random hyperblock programs are the adversarial input the
    // hand-written kernels can't provide: odd block shapes, dense
    // store aliasing, deep predicate chains. 20 seeds x 2 configs,
    // chaos-injected, both engines — identical results or identical
    // structured failures.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        isa::Program prog = fuzz::generate(seed);

        std::vector<sim::RunJob> jobs =
            dualEngineJobs(prog, {"dsre", "storesets-flush"}, {seed});
        std::vector<sim::RunResult> results =
            sim::RunPool(4).runAll(jobs);

        std::size_t half = jobs.size() / 2;
        ASSERT_EQ(results.size(), half * 2);
        for (std::size_t i = 0; i < half; ++i) {
            SCOPED_TRACE("cell " + std::to_string(i));
            expectIdentical(results[i], results[half + i]);
        }
    }
}

} // namespace
