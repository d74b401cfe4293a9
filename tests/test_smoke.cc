/**
 * @file
 * End-to-end smoke tests: every mechanism configuration must run a
 * small program to completion and commit exactly the architectural
 * state the functional reference produces.
 */

#include <gtest/gtest.h>

#include "compiler/builder.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace edge {
namespace {

/** Trivial counted loop accumulating i into r5 and memory. */
isa::Program
tinyLoop(std::uint64_t n)
{
    compiler::ProgramBuilder pb("tiny");
    pb.setInitReg(1, 0);
    pb.setInitReg(2, n);
    pb.setInitReg(5, 0);

    auto &loop = pb.newBlock("loop");
    {
        compiler::Val i = loop.readReg(1);
        compiler::Val nn = loop.readReg(2);
        compiler::Val acc = loop.readReg(5);
        loop.writeReg(5, loop.add(acc, i));
        compiler::Val i2 = loop.addi(i, 1);
        loop.writeReg(1, i2);
        loop.branchCond(loop.tlt(i2, nn), "loop", "done");
    }
    auto &done = pb.newBlock("done");
    {
        done.store(done.imm(0x1000), done.readReg(5), 8);
        done.branchHalt();
    }
    pb.setEntry("loop");
    return pb.build();
}

/** Loop with an intra/inter-block store->load dependence. */
isa::Program
rmwLoop(std::uint64_t n)
{
    compiler::ProgramBuilder pb("rmw");
    pb.setInitReg(1, 0);
    pb.setInitReg(2, n);
    pb.initDataWords(0x2000, {5});

    auto &loop = pb.newBlock("loop");
    {
        compiler::Val i = loop.readReg(1);
        compiler::Val nn = loop.readReg(2);
        compiler::Val v = loop.load(loop.imm(0x2000), 8);
        loop.store(loop.imm(0x2000), loop.addi(v, 3), 8);
        compiler::Val i2 = loop.addi(i, 1);
        loop.writeReg(1, i2);
        loop.branchCond(loop.tlt(i2, nn), "loop", "done");
    }
    auto &done = pb.newBlock("done");
    done.branchHalt();
    pb.setEntry("loop");
    return pb.build();
}

TEST(Smoke, RefExecutorTinyLoop)
{
    isa::Program p = tinyLoop(10);
    compiler::RefExecutor ref(p);
    auto r = ref.run(1000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.dynBlocks, 11u);
    EXPECT_EQ(ref.regs()[5], 45u);
    EXPECT_EQ(ref.memory().read(0x1000, 8), 45u);
}

class SmokeAllConfigs : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SmokeAllConfigs, TinyLoopMatchesReference)
{
    sim::Simulator s(tinyLoop(50), sim::Configs::byName(GetParam()));
    sim::RunResult r = s.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
    EXPECT_EQ(r.committedBlocks, 51u);
}

TEST_P(SmokeAllConfigs, RmwLoopMatchesReference)
{
    sim::Simulator s(rmwLoop(60), sim::Configs::byName(GetParam()));
    sim::RunResult r = s.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, SmokeAllConfigs,
    ::testing::ValuesIn(sim::Configs::allNames()),
    [](const auto &p) {
        std::string n = p.param;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace edge
