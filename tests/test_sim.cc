/**
 * @file
 * Tests for the simulator facade and the workload registry: config
 * presets, name round-trips, reference-execution accounting, result
 * metrics, and kernel determinism/scaling properties.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace edge {
namespace {

TEST(Configs, EveryNameResolves)
{
    for (const auto &name : sim::Configs::allNames()) {
        core::MachineConfig cfg = sim::Configs::byName(name);
        // Sanity: a resolvable config must be runnable.
        EXPECT_GE(cfg.core.numFrames, 1u) << name;
    }
}

TEST(Configs, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)sim::Configs::byName("nonsense"),
                 "unknown machine configuration");
}

TEST(Configs, PresetsMatchTheirMechanism)
{
    EXPECT_EQ(sim::Configs::conservative().policy,
              pred::DepPolicy::Conservative);
    EXPECT_EQ(sim::Configs::blindFlush().lsq.recovery,
              lsq::Recovery::Flush);
    EXPECT_EQ(sim::Configs::dsre().lsq.recovery, lsq::Recovery::Dsre);
    EXPECT_EQ(sim::Configs::dsre().policy, pred::DepPolicy::Blind);
    EXPECT_EQ(sim::Configs::storeSetsFlush().policy,
              pred::DepPolicy::StoreSets);
    EXPECT_EQ(sim::Configs::oracle().policy, pred::DepPolicy::Oracle);
    EXPECT_TRUE(sim::Configs::dsreVp().lsq.valuePredictMisses);
    EXPECT_FALSE(sim::Configs::dsre().lsq.valuePredictMisses);
}

TEST(Simulator, ReferenceAccountingMatchesTimingRun)
{
    wl::KernelParams kp;
    kp.iterations = 120;
    sim::Simulator s(wl::build("gzipish", kp), sim::Configs::dsre());
    EXPECT_EQ(s.refDynBlocks(), 121u); // 120 loop blocks + done
    sim::RunResult r = s.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.committedBlocks, s.refDynBlocks());
    EXPECT_EQ(r.committedInsts, s.refDynInsts());
    EXPECT_EQ(s.oracleDb().numBlocks(), s.refDynBlocks());
}

TEST(Simulator, RunResultMetricsAreConsistent)
{
    wl::KernelParams kp;
    kp.iterations = 100;
    sim::Simulator s(wl::build("bzip2ish", kp),
                     sim::Configs::dsre());
    sim::RunResult r = s.run();
    ASSERT_TRUE(r.halted && r.archMatch);
    EXPECT_NEAR(r.ipc(),
                static_cast<double>(r.committedInsts) /
                    static_cast<double>(r.cycles),
                1e-12);
    // Wrong-path work and re-execution issue beyond the committed path.
    EXPECT_GE(r.counter("core.alu_issues"), r.committedInsts);
    EXPECT_LE(r.reexecFraction(), 1.0);
    EXPECT_GE(r.counter("lsq.loads"), 1u);
    EXPECT_GE(r.counter("lsq.stores"), 1u);

    // counter() reads 0 for a name the run never registered, so a
    // misspelt name in a report would print zeros. Every stat name the
    // reports in bench/, tools/ and examples/ spell out ("lsq.resends")
    // must be registered under both recovery mechanisms. A literal
    // counts as a stat name when its prefix is one a run registers.
    const std::regex literal(R"re("([a-z0-9]+)\.([a-z0-9_]+)")re");
    std::set<std::string> spelled;
    for (const char *dir : {"bench", "tools", "examples"}) {
        for (const auto &e : std::filesystem::directory_iterator(
                 std::filesystem::path(EDGE_TEST_SOURCE_DIR) / dir)) {
            std::ifstream in(e.path());
            std::stringstream text;
            text << in.rdbuf();
            const std::string src = text.str();
            for (std::sregex_iterator m(src.begin(), src.end(), literal),
                 end;
                 m != end; ++m)
                spelled.insert((*m)[1].str() + "." + (*m)[2].str());
        }
    }
    for (const char *config : {"dsre", "storesets-flush"}) {
        sim::Simulator run(wl::build("bzip2ish", kp),
                           sim::Configs::byName(config));
        const sim::RunResult res = run.run();
        std::set<std::string> names, prefixes;
        for (const auto &kv : res.counters)
            names.insert(kv.first);
        for (const auto &kv : res.histograms)
            names.insert(kv.first);
        for (const std::string &n : names)
            prefixes.insert(n.substr(0, n.find('.')));
        std::size_t checked = 0;
        for (const std::string &n : spelled) {
            if (!prefixes.count(n.substr(0, n.find('.'))))
                continue;
            ++checked;
            EXPECT_TRUE(names.count(n)) << config << ": " << n;
        }
        EXPECT_GE(checked, 15u) << config;
    }
}

TEST(Simulator, CycleBudgetIsRespected)
{
    wl::KernelParams kp;
    kp.iterations = 100000; // far more than the budget allows
    sim::Simulator s(wl::build("mcfish", kp), sim::Configs::dsre());
    sim::RunResult r = s.run(/*max_cycles=*/5000);
    EXPECT_FALSE(r.halted);
    EXPECT_FALSE(r.archMatch); // incomplete run can never match
    EXPECT_LE(r.cycles, 5000u);
}

TEST(Workloads, RegistryAndBuildersAgree)
{
    EXPECT_EQ(wl::kernels().size(), 14u);
    for (const auto &info : wl::kernels()) {
        wl::KernelParams kp;
        kp.iterations = 4;
        isa::Program p = wl::build(info.name, kp);
        std::string why;
        EXPECT_TRUE(p.validate(&why)) << info.name << ": " << why;
        EXPECT_FALSE(info.specAnalog.empty());
        EXPECT_FALSE(info.description.empty());
    }
    // An unknown name is an answer, not an exit.
    EXPECT_FALSE(wl::tryBuild("bogus").has_value());
    EXPECT_THROW((void)wl::build("bogus", {}), std::invalid_argument);
}

TEST(Workloads, SeedsChangeInputsDeterministically)
{
    wl::KernelParams a, b;
    a.iterations = b.iterations = 50;
    a.seed = 1;
    b.seed = 2;
    for (const char *k : {"gzipish", "twolfish", "craftyish"}) {
        compiler::RefExecutor r1(wl::build(k, a));
        compiler::RefExecutor r1b(wl::build(k, a));
        compiler::RefExecutor r2(wl::build(k, b));
        r1.run(1000);
        r1b.run(1000);
        r2.run(1000);
        EXPECT_EQ(r1.regs()[5], r1b.regs()[5]) << k; // deterministic
        EXPECT_NE(r1.regs()[5], r2.regs()[5]) << k;  // seed-sensitive
    }
}

TEST(Workloads, IterationsScaleDynamicBlocks)
{
    for (std::uint64_t n : {10ull, 100ull}) {
        wl::KernelParams kp;
        kp.iterations = n;
        compiler::RefExecutor ref(wl::build("vprish", kp));
        auto r = ref.run(10000);
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.dynBlocks, n + 1);
    }
}

TEST(Workloads, EveryKernelTerminatesFunctionally)
{
    for (const auto &name : wl::kernelNames()) {
        wl::KernelParams kp;
        kp.iterations = 25;
        compiler::RefExecutor ref(wl::build(name, kp));
        auto r = ref.run(100000);
        EXPECT_TRUE(r.halted) << name;
    }
}

} // namespace
} // namespace edge
