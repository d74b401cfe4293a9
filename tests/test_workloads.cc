/**
 * @file
 * The central correctness property of the whole reproduction: for
 * every workload kernel, under every recovery mechanism and
 * dependence policy, the timing simulator must commit exactly the
 * architectural state (registers, memory, committed counts) that
 * the functional reference produces — no matter how much
 * misspeculation, re-execution, or flushing happened on the way.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace edge {
namespace {

using Combo = std::tuple<std::string, std::string>;

class WorkloadXMechanism : public ::testing::TestWithParam<Combo>
{
};

TEST_P(WorkloadXMechanism, ArchitecturalEquivalence)
{
    const auto &[kernel, config] = GetParam();
    wl::KernelParams kp;
    kp.iterations = 400; // small but enough to fill the window
    sim::Simulator s(wl::build(kernel, kp),
                     sim::Configs::byName(config));
    sim::RunResult r = s.run(20'000'000);
    ASSERT_TRUE(r.halted) << kernel << " did not halt under "
                          << config;
    EXPECT_TRUE(r.archMatch)
        << kernel << " diverged from the reference under " << config;

    if (config == "conservative") {
        // A policy that never speculates can never violate.
        EXPECT_EQ(r.counter("lsq.violations"), 0u) << kernel;
    }
}

std::vector<Combo>
allCombos()
{
    std::vector<Combo> out;
    for (const auto &k : wl::kernelNames())
        for (const auto &c : sim::Configs::allNames())
            out.emplace_back(k, c);
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadXMechanism, ::testing::ValuesIn(allCombos()),
    [](const auto &p) {
        std::string n = std::get<0>(p.param) + "_" +
                        std::get<1>(p.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace edge
