/**
 * @file
 * Golden timing rows: every kernel x mechanism cell at 50 iterations,
 * pinned to tests/golden/timing.txt. RefExecutor proves architectural
 * state and the engine differential proves tick == event; this file
 * pins *timing* (cycles and the DSRE headline counters), so a refactor
 * that claims to change nothing simulated can prove it.
 *
 * On a mismatch the test writes the table it computed next to the test
 * binary and prints the `cp` command that accepts it; a change that
 * moves a row must say why in its description.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/run_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

constexpr std::uint64_t kIterations = 50;

/** The timing table for every kernel x mechanism cell, one row each. */
std::string
timingTable()
{
    const auto &kernels = wl::kernelNames();
    const auto &configs = sim::Configs::allNames();
    std::vector<isa::Program> programs;
    programs.reserve(kernels.size());
    for (const std::string &k : kernels)
        programs.push_back(wl::build(k, {kIterations, 1}));

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
            char line[256];
            std::snprintf(
                line, sizeof line,
                "%-10s %-15s %8llu %8llu %6llu %6llu %6llu %6llu %5llu\n",
                k.c_str(), c.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.committedInsts),
                static_cast<unsigned long long>(r.violations),
                static_cast<unsigned long long>(r.resends),
                static_cast<unsigned long long>(r.reexecs),
                static_cast<unsigned long long>(r.upgrades),
                static_cast<unsigned long long>(r.ctrlFlushes +
                                                r.violFlushes));
            out += line;
        }
    }
    return out;
}

TEST(GoldenTiming, EveryKernelMechanismCellMatchesPinnedRows)
{
    const std::string golden = EDGE_TEST_GOLDEN_DIR "/timing.txt";
    std::ifstream in(golden);
    std::stringstream want;
    want << in.rdbuf();

    std::string got = timingTable();
    if (got == want.str())
        return;

    const std::string actual = EDGE_TEST_OUT_DIR "/timing.txt";
    std::ofstream(actual) << got;
    // Name each moved row so the failure says what changed.
    std::istringstream a(want.str()), b(got);
    for (;;) {
        std::string wl, gl;
        bool more_want = static_cast<bool>(std::getline(a, wl));
        bool more_got = static_cast<bool>(std::getline(b, gl));
        if (!more_want && !more_got)
            break;
        EXPECT_EQ(wl, gl);
    }
    ADD_FAILURE() << "timing rows differ from " << golden
                  << "\nif the change is intended, accept it with:\n  cp "
                  << actual << " " << golden;
}

} // namespace
