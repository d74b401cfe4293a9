/**
 * @file
 * Golden tables: simulated results pinned to files under tests/golden,
 * so a refactor that claims to change nothing simulated can prove it.
 * RefExecutor proves architectural state; these pin *timing*.
 *
 *  - timing.txt: every kernel x mechanism cell at 50 iterations,
 *    cycles plus the DSRE headline counters.
 *  - results.txt: every field of a RunResult (cycles, commits, the
 *    structured failure, chaos injections, invariant checks, and
 *    sim::resultDigest over every counter and histogram) across
 *    kernels x mechanisms x chaos seeds, 2x4 and 8x8 grids, a
 *    16-frame window, a watchdog trip and 20 chaos-injected fuzz
 *    programs. It was generated while the cycle loop still had a
 *    poll-every-cycle twin, and both loops produced it byte for byte,
 *    so it pins that skipping inert cycles changes nothing.
 *
 * On a mismatch the test writes the table it computed next to the test
 * binary and prints the `cp` command that accepts it; a change that
 * moves a row must say why in its description.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>

#include "common/hash.hh"
#include "core/program_image.hh"
#include "fuzz/generator.hh"
#include "sim/result_digest.hh"
#include "sim/run_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

/**
 * Compare `got` with the pinned table tests/golden/`name`. On a
 * mismatch, name each moved row, write `got` into the build directory
 * and print the `cp` that accepts it.
 */
void
expectGolden(const std::string &name, const std::string &got)
{
    const std::string golden = EDGE_TEST_GOLDEN_DIR "/" + name;
    std::ifstream in(golden);
    std::stringstream want;
    want << in.rdbuf();
    if (got == want.str())
        return;

    const std::string actual = EDGE_TEST_OUT_DIR "/" + name;
    std::ofstream(actual) << got;
    std::istringstream a(want.str()), b(got);
    for (;;) {
        std::string wl, gl;
        bool more_want = static_cast<bool>(std::getline(a, wl));
        bool more_got = static_cast<bool>(std::getline(b, gl));
        if (!more_want && !more_got)
            break;
        EXPECT_EQ(wl, gl);
    }
    ADD_FAILURE() << name << " rows differ from " << golden
                  << "\nif the change is intended, accept it with:\n  cp "
                  << actual << " " << golden;
}

// ---------------------------------------------------------------
// timing.txt

constexpr std::uint64_t kTimingIterations = 50;

/** The timing table for every kernel x mechanism cell, one row each. */
std::string
timingTable()
{
    const auto &kernels = wl::kernelNames();
    const auto &configs = sim::Configs::allNames();
    std::vector<isa::Program> programs;
    programs.reserve(kernels.size());
    for (const std::string &k : kernels)
        programs.push_back(wl::build(k, {kTimingIterations, 1}));

    std::vector<sim::RunJob> jobs;
    for (const isa::Program &prog : programs) {
        for (const std::string &c : configs) {
            sim::RunJob job;
            job.program = &prog;
            job.config = sim::Configs::byName(c);
            jobs.push_back(std::move(job));
        }
    }
    std::vector<sim::RunResult> results = sim::RunPool(4).runAll(jobs);

    std::string out = "# kernel config cycles insts violations resends "
                      "reexecs upgrades flushes\n";
    std::size_t i = 0;
    for (const std::string &k : kernels) {
        for (const std::string &c : configs) {
            const sim::RunResult &r = results[i++];
            EXPECT_TRUE(r.halted && r.archMatch && r.error.ok())
                << k << " / " << c << ": " << r.error.message;
            auto n = [&r](const char *counter) {
                return static_cast<unsigned long long>(r.counter(counter));
            };
            char line[256];
            std::snprintf(
                line, sizeof line,
                "%-10s %-15s %8llu %8llu %6llu %6llu %6llu %6llu %5llu\n",
                k.c_str(), c.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.committedInsts),
                n("lsq.violations"), n("lsq.resends"),
                n("core.alu_reexecs"), n("core.upgrades"),
                n("core.ctrl_flushes") + n("core.viol_flushes"));
            out += line;
        }
    }
    return out;
}

TEST(GoldenTiming, EveryKernelMechanismCellMatchesPinnedRows)
{
    expectGolden("timing.txt", timingTable());
}

// ---------------------------------------------------------------
// results.txt

/** The cells of the results table and the programs they run. */
struct ResultCells
{
    std::vector<std::string> keys;
    std::vector<sim::RunJob> jobs;
    /** Stable storage: jobs point into it. */
    std::deque<isa::Program> programs;

    const isa::Program &
    kernel(const std::string &name, std::uint64_t iterations)
    {
        wl::KernelParams kp;
        kp.iterations = iterations;
        return programs.emplace_back(wl::build(name, kp));
    }

    /**
     * One cell per config: chaos seed 0 is a clean run, any other
     * seed injects the light profile and checks invariants. The seed
     * is also the run seed.
     */
    void
    add(const std::string &prefix, const isa::Program &prog,
        const std::vector<std::string> &configs, std::uint64_t seed,
        void (*tweak)(core::MachineConfig &) = nullptr)
    {
        for (const std::string &config : configs) {
            sim::RunJob job;
            job.program = &prog;
            job.config = sim::Configs::byName(config);
            job.config.rngSeed = seed;
            if (seed != 0) {
                job.config.chaos = chaos::ChaosParams::byProfile(
                    chaos::Profile::Light, seed);
                job.config.checkInvariants = true;
            }
            if (tweak)
                tweak(job.config);
            keys.push_back(prefix + "/" + config + "/s" +
                           std::to_string(seed));
            jobs.push_back(std::move(job));
        }
    }
};

/** One row: every field of the result, hashes for the long ones. */
std::string
resultRow(const std::string &key, const sim::RunResult &r)
{
    char line[512];
    std::snprintf(
        line, sizeof line,
        "%-39s %8llu %6llu %8llu %d %d %-19s %-16s %8llu %6llu "
        "%016llx %5llu %8llu %016llx\n",
        key.c_str(), static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.committedBlocks),
        static_cast<unsigned long long>(r.committedInsts),
        r.halted ? 1 : 0, r.archMatch ? 1 : 0, enumName(r.error.reason),
        r.error.invariant.empty() ? "-" : r.error.invariant.c_str(),
        static_cast<unsigned long long>(r.error.cycle),
        static_cast<unsigned long long>(r.error.seq),
        static_cast<unsigned long long>(fnv1a64(r.error.message)),
        static_cast<unsigned long long>(r.injections.total()),
        static_cast<unsigned long long>(r.invariantChecks),
        static_cast<unsigned long long>(sim::resultDigest({r})));
    return line;
}

/** The results table: 110 cells, one row each. */
std::string
resultsTable()
{
    ResultCells cells;
    const std::vector<std::string> both = {"dsre", "storesets-flush"};

    // Clean runs plus two chaos seeds across every recovery path:
    // flush, DSRE, and the conservative no-speculation baseline.
    for (const char *k : {"gzipish", "parserish", "swimish"}) {
        const isa::Program &prog = cells.kernel(k, 150);
        for (std::uint64_t seed : {0, 1, 2})
            cells.add(std::string("chaos/") + k, prog,
                      {"conservative", "blind-flush", "storesets-flush",
                       "dsre", "dsre-vp"},
                      seed);
    }

    // The cycle loop ticks only the nodes in its active-node set. A
    // set capped at 32 nodes, or a node whose bit goes stale, moves
    // rows on a 2x4 grid (8 nodes, 16 slots each, so a block still
    // fits) or an 8x8 grid (64 nodes, 2 slots each). The placer packs
    // blocks next to the register row and the LSQ column, so only
    // equakeish's large blocks reach nodes 32 and up.
    for (const char *k : {"parserish", "equakeish"}) {
        const isa::Program &prog = cells.kernel(k, 100);
        if (std::string(k) == "equakeish") {
            core::ProgramImage image(prog);
            unsigned top = 0;
            for (const compiler::Placement &pl :
                 image.layout({8, 8, 2}).placements)
                for (std::uint16_t n : pl.nodeOf)
                    top = std::max<unsigned>(top, n);
            EXPECT_GE(top, 32u) << "no equakeish block reaches node 32";
        }
        for (std::uint64_t seed : {0, 1}) {
            cells.add(std::string("grid2x4x16/") + k, prog, both, seed,
                      [](core::MachineConfig &c) {
                          c.core.rows = 2;
                          c.core.cols = 4;
                          c.core.slotsPerNode = 16;
                      });
            cells.add(std::string("grid8x8x2/") + k, prog, both, seed,
                      [](core::MachineConfig &c) {
                          c.core.rows = 8;
                          c.core.cols = 8;
                          c.core.slotsPerNode = 2;
                      });
        }
    }

    // The widest window (Fig. 6): 16 frames of in-flight state, with
    // frames recycled out of age order by flushes and commits.
    for (const char *k : {"parserish", "swimish"}) {
        const isa::Program &prog = cells.kernel(k, 100);
        for (std::uint64_t seed : {0, 1})
            cells.add(std::string("frames16/") + k, prog, both, seed,
                      [](core::MachineConfig &c) {
                          c.core.numFrames = 16;
                      });
    }

    // A watchdog shorter than the time to the first commit: the loop
    // reaches the fire cycle through a deadline, not by polling.
    cells.add("watchdog1/gzipish", cells.kernel("gzipish", 200),
              {"dsre"}, 0, [](core::MachineConfig &c) {
                  c.core.watchdogCycles = 1;
              });

    // Random hyperblock programs: odd block shapes, dense store
    // aliasing, deep predicate chains, chaos-injected.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const isa::Program &prog =
            cells.programs.emplace_back(fuzz::generate(seed));
        cells.add("fuzz" + std::to_string(seed), prog, both, seed);
    }

    std::vector<sim::RunResult> results =
        sim::RunPool(4).runAll(cells.jobs);
    EXPECT_EQ(results.size(), 110u);

    std::string out =
        "# key cycles blocks insts halted arch_match reason invariant "
        "err_cycle err_seq msg_fnv injections checks result_digest\n";
    for (std::size_t i = 0; i < results.size(); ++i)
        out += resultRow(cells.keys[i], results[i]);
    return out;
}

TEST(GoldenResults, EveryCellMatchesPinnedRows)
{
    expectGolden("results.txt", resultsTable());
}

} // namespace
