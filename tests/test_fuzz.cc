/**
 * @file
 * Differential-fuzzing tests: the generator's well-formedness and
 * termination guarantees, campaign determinism across thread counts,
 * outcome classification, embedded-program JSON round trips, and —
 * on EDGE_MUTATIONS builds — the full pipeline on a planted protocol
 * mutation: find the failure, capture it to a corpus, minimize the
 * program, and replay the shrunk repro to the same failure kind.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "compiler/ref_executor.hh"
#include "fuzz/diff.hh"
#include "triage/minimize.hh"
#include "triage/program_json.hh"
#include "triage/repro.hh"

namespace edge {
namespace {

/** Fresh scratch directory under the system temp dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : _path(std::filesystem::temp_directory_path() /
                ("edgesim-fuzz-" + name))
    {
        std::filesystem::remove_all(_path);
        std::filesystem::create_directories(_path);
    }

    ~TempDir() { std::filesystem::remove_all(_path); }

    std::string str() const { return _path.string(); }

  private:
    std::filesystem::path _path;
};

// ---------------------------------------------------------------------
// Generator guarantees.
// ---------------------------------------------------------------------

TEST(FuzzGenerator, ProgramsAreValidAndHalt)
{
    const fuzz::GenOptions opts;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        isa::Program prog = fuzz::generate(seed, opts);
        std::vector<isa::ValidationIssue> issues = prog.validateAll();
        ASSERT_TRUE(issues.empty())
            << "seed " << seed << ": " << issues.front().str();
        compiler::RefExecutor ref(prog);
        auto r = ref.run(fuzz::dynBlockBound(opts));
        EXPECT_TRUE(r.halted) << "seed " << seed << " exceeded the "
                              << "static dynamic-block bound";
    }
}

TEST(FuzzGenerator, DeterministicPerSeed)
{
    isa::Program a = fuzz::generate(7);
    isa::Program b = fuzz::generate(7);
    EXPECT_EQ(triage::programHash(a), triage::programHash(b));
    // Different seeds must explore different programs.
    EXPECT_NE(triage::programHash(a),
              triage::programHash(fuzz::generate(8)));
}

TEST(FuzzGenerator, RespectsShapeOptions)
{
    fuzz::GenOptions opts;
    opts.minBlocks = 5;
    opts.maxBlocks = 5;
    isa::Program prog = fuzz::generate(3, opts);
    EXPECT_EQ(prog.numBlocks(), 5u);
    EXPECT_TRUE(prog.validateAll().empty());
}

// ---------------------------------------------------------------------
// Outcome classification.
// ---------------------------------------------------------------------

TEST(FuzzClassify, MapsResultsToOutcomes)
{
    sim::RunResult r;
    r.halted = true;
    r.archMatch = true;
    EXPECT_EQ(fuzz::classify(r), fuzz::Outcome::Pass);

    r.archMatch = false;
    EXPECT_EQ(fuzz::classify(r), fuzz::Outcome::Divergence);

    r.halted = false; // clean error but never finished: budget hang
    EXPECT_EQ(fuzz::classify(r), fuzz::Outcome::Hang);

    r.error.reason = chaos::SimError::Reason::Watchdog;
    EXPECT_EQ(fuzz::classify(r), fuzz::Outcome::Hang);

    r.error.reason = chaos::SimError::Reason::InvariantViolation;
    EXPECT_EQ(fuzz::classify(r), fuzz::Outcome::Crash);

    r.error.reason = chaos::SimError::Reason::ProtocolPanic;
    EXPECT_EQ(fuzz::classify(r), fuzz::Outcome::Crash);

    // A cell lost to the fabric never halted, yet it is a host-side
    // loss beside the Worker* reasons, not a hang of the machine.
    r.halted = false;
    for (chaos::SimError::Reason lost :
         {chaos::SimError::Reason::AgentLost,
          chaos::SimError::Reason::AgentCorrupt,
          chaos::SimError::Reason::ProvenanceMismatch,
          chaos::SimError::Reason::FabricSimViolation}) {
        r.error.reason = lost;
        EXPECT_EQ(fuzz::classify(r), fuzz::Outcome::Crash)
            << enumName(lost);
    }
}

// ---------------------------------------------------------------------
// Campaigns.
// ---------------------------------------------------------------------

TEST(FuzzCampaign, CleanOnFixedSeeds)
{
    fuzz::FuzzOptions opts;
    opts.count = 8;
    opts.seed = 1;
    opts.threads = 2;
    fuzz::FuzzReport rep = fuzz::runCampaign(opts);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.programs, 8u);
    EXPECT_EQ(rep.runs, 8u * fuzz::defaultConfigs().size());
    EXPECT_EQ(rep.passes, rep.runs);
}

TEST(FuzzCampaign, ReportIsThreadCountInvariant)
{
    fuzz::FuzzOptions opts;
    opts.count = 6;
    opts.seed = 21;
    opts.threads = 1;
    fuzz::FuzzReport a = fuzz::runCampaign(opts);
    opts.threads = 4;
    fuzz::FuzzReport b = fuzz::runCampaign(opts);
    EXPECT_EQ(a.programs, b.programs);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.passes, b.passes);
    EXPECT_EQ(a.refHangs, b.refHangs);
    EXPECT_EQ(a.duplicates, b.duplicates);
    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
        EXPECT_EQ(a.failures[i].seed, b.failures[i].seed);
        EXPECT_EQ(a.failures[i].signature, b.failures[i].signature);
    }
}

// ---------------------------------------------------------------------
// Embedded-program JSON.
// ---------------------------------------------------------------------

TEST(FuzzProgramJson, LosslessRoundTrip)
{
    isa::Program prog = fuzz::generate(3);
    triage::JsonValue js = triage::programToJson(prog);

    triage::JsonValue parsed;
    std::string err;
    ASSERT_TRUE(triage::JsonValue::parse(js.dump(), &parsed, &err))
        << err;
    isa::Program back("x");
    ASSERT_TRUE(triage::programFromJson(parsed, &back, &err)) << err;
    EXPECT_TRUE(back.validateAll().empty());
    EXPECT_EQ(triage::programHash(prog), triage::programHash(back));
}

#ifdef EDGE_MUTATIONS

// ---------------------------------------------------------------------
// The whole point: a planted protocol bug is found, captured,
// minimized, and the shrunk repro still reproduces it.
// ---------------------------------------------------------------------

TEST(FuzzPipeline, PlantedMutationIsFoundMinimizedAndReplayed)
{
    TempDir dir("planted");
    fuzz::FuzzOptions opts;
    opts.count = 1;
    opts.seed = 57; // known to trip skip-squash (see EXPERIMENTS.md)
    opts.mutation = chaos::Mutation::SkipSquash;
    opts.mutationNode = ~0u; // every node
    opts.checkInvariants = true;
    opts.threads = 2;
    opts.corpusDir = dir.str();

    fuzz::FuzzReport rep = fuzz::runCampaign(opts);
    ASSERT_FALSE(rep.failures.empty());
    const fuzz::FuzzFailure &f = rep.failures.front();
    EXPECT_EQ(f.outcome, fuzz::Outcome::Crash);
    EXPECT_TRUE(f.unique);
    ASSERT_FALSE(f.reproPath.empty());

    // The corpus entry replays bit-identically.
    triage::ReproSpec spec;
    std::string err;
    ASSERT_TRUE(triage::load(f.reproPath, &spec, &err)) << err;
    ASSERT_TRUE(spec.program.hasEmbedded);
    EXPECT_TRUE(triage::sameSignature(spec, triage::replay(spec)));

    // Program-level ddmin shrinks it hard (seed 57: 7 -> 1 block).
    triage::MinimizeOptions mopts;
    mopts.threads = 2;
    triage::ProgramMinimizeResult min =
        triage::minimizeProgram(spec, mopts);
    EXPECT_TRUE(min.converged);
    EXPECT_LE(min.blocksAfter, 3u);
    EXPECT_LT(min.effectsAfter, min.effectsBefore);

    // And the shrunk spec still reproduces the same failure kind.
    triage::ReproSpec shrunk = triage::applyProgram(spec, min.program);
    EXPECT_TRUE(
        triage::sameFailureKind(spec, triage::replay(shrunk)));
}

#endif // EDGE_MUTATIONS

} // namespace
} // namespace edge
