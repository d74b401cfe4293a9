/**
 * @file
 * Property-based testing: a seeded random-program generator builds
 * loops of random dataflow blocks with random memory traffic over a
 * small region (maximising aliasing), and every generated program
 * must commit reference-identical state under every recovery
 * mechanism, window size and dependence policy. This is the fuzzer
 * that guards the DSRE protocol's correctness invariants.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compiler/builder.hh"
#include "sim/simulator.hh"

namespace edge {
namespace {

/**
 * Generate a random two-block loop program. The loop body mixes
 * random arithmetic over a small value pool with loads and stores
 * whose addresses are data-dependent over a tiny region (64 words),
 * so in-flight aliases of every flavour (RMW, silent store, partial
 * overlap via mixed access sizes) occur constantly.
 */
isa::Program
randomProgram(std::uint64_t seed, std::uint64_t iterations)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    compiler::ProgramBuilder pb("fuzz");
    pb.setInitReg(1, 0);
    pb.setInitReg(2, iterations);
    pb.setInitReg(5, rng.below(1000));
    pb.setInitReg(6, rng.below(1000) | 1);
    {
        std::vector<Word> data(64);
        for (auto &w : data)
            w = rng.next() & 0xffff;
        pb.initDataWords(0x8000, data);
    }

    auto &b = pb.newBlock("loop");
    std::vector<compiler::Val> pool;
    pool.push_back(b.readReg(1));
    pool.push_back(b.readReg(5));
    pool.push_back(b.readReg(6));
    pool.push_back(b.imm(static_cast<std::int64_t>(rng.below(100))));

    auto pick = [&]() -> compiler::Val {
        return pool[rng.below(pool.size())];
    };
    auto addr_of = [&](compiler::Val v) {
        // Confine to [0x8000, 0x8000 + 64*8).
        return b.addi(b.shli(b.andi(v, 63), 3), 0x8000);
    };

    unsigned ops = 6 + static_cast<unsigned>(rng.below(14));
    for (unsigned i = 0; i < ops; ++i) {
        switch (rng.below(8)) {
          case 0:
            pool.push_back(b.add(pick(), pick()));
            break;
          case 1:
            pool.push_back(b.sub(pick(), pick()));
            break;
          case 2:
            pool.push_back(b.mul(pick(), pick()));
            break;
          case 3:
            pool.push_back(
                b.xori(pick(),
                       static_cast<std::int64_t>(rng.below(255))));
            break;
          case 4:
            pool.push_back(b.sel(pick(), pick(), pick()));
            break;
          case 5: {
            unsigned bytes = 1u << rng.below(4); // 1/2/4/8
            pool.push_back(b.load(addr_of(pick()), bytes));
            break;
          }
          case 6: {
            unsigned bytes = 1u << rng.below(4);
            b.store(addr_of(pick()), pick(), bytes);
            break;
          }
          default:
            pool.push_back(b.tlt(pick(), pick()));
            break;
        }
    }
    // Fold a couple of pool values into the live-out registers so
    // random results are architecturally observable.
    b.writeReg(5, b.andi(b.add(pick(), pick()), 0xffffffff));
    b.writeReg(6, b.ori(b.bxor(pick(), pick()), 1));
    compiler::Val i2 = b.addi(pool[0], 1);
    b.writeReg(1, i2);
    b.branchCond(b.tlt(i2, b.readReg(2)), "loop", "done");

    auto &done = pb.newBlock("done");
    done.store(done.imm(0x1000), done.readReg(5), 8);
    done.store(done.imm(0x1008), done.readReg(6), 8);
    done.branchHalt();
    pb.setEntry("loop");
    return pb.build();
}

using FuzzParam = std::tuple<std::uint64_t, std::string>;

class RandomPrograms : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(RandomPrograms, CommitReferenceIdenticalState)
{
    auto [seed, config] = GetParam();
    isa::Program prog = randomProgram(seed, 120);
    sim::Simulator s(std::move(prog), sim::Configs::byName(config));
    sim::RunResult r = s.run(10'000'000);
    ASSERT_TRUE(r.halted) << "seed " << seed << " " << config;
    EXPECT_TRUE(r.archMatch) << "seed " << seed << " " << config;
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, RandomPrograms,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 13),
                       ::testing::ValuesIn(sim::Configs::allNames())),
    [](const auto &p) {
        std::string n = "seed" +
                        std::to_string(std::get<0>(p.param)) + "_" +
                        std::get<1>(p.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

class RandomProgramsWindows
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(RandomProgramsWindows, DsreCorrectAtEveryWindowSize)
{
    auto [seed, frames] = GetParam();
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.core.numFrames = static_cast<unsigned>(frames);
    sim::Simulator s(randomProgram(seed, 100), cfg);
    sim::RunResult r = s.run(10'000'000);
    ASSERT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch) << "seed " << seed << " frames " << frames;
}

INSTANTIATE_TEST_SUITE_P(
    Windows, RandomProgramsWindows,
    ::testing::Combine(::testing::Range<std::uint64_t>(20, 26),
                       ::testing::Values(1, 2, 4, 16)));

TEST(RandomPrograms, GeneratorIsDeterministic)
{
    isa::Program a = randomProgram(5, 10);
    isa::Program b = randomProgram(5, 10);
    EXPECT_EQ(a.disassemble(), b.disassemble());
}

TEST(RandomPrograms, SeedsProduceDistinctPrograms)
{
    isa::Program a = randomProgram(5, 10);
    isa::Program b = randomProgram(6, 10);
    EXPECT_NE(a.disassemble(), b.disassemble());
}

} // namespace
} // namespace edge
