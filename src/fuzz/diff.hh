/**
 * @file
 * The differential fuzzing driver. Every generated program is run
 * through the four recovery mechanisms of the paper's evaluation
 * (conservative, blind+flush, store-sets+flush, DSRE) on a
 * sim::RunPool, and each run's final architectural state — registers,
 * memory image, and the committed block/exit sequence — is cross-
 * checked against the RefExecutor golden model (RunResult::archMatch
 * plus the committed-path check). Outcomes are classified as pass /
 * divergence / crash / hang; failures are captured as `.repro.json`
 * files with the program embedded (replayable via `edgesim --replay`,
 * minimizable via triage::minimizeProgram) and deduplicated by
 * failure signature. The campaign is a pure function of
 * (seed, count, options): results are bit-identical at any thread
 * count, because RunPool returns results in submission order.
 */

#ifndef EDGE_FUZZ_DIFF_HH
#define EDGE_FUZZ_DIFF_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/enum_names.hh"
#include "fuzz/generator.hh"
#include "sim/run_pool.hh"

namespace edge::fuzz {

/** What one (program, mechanism) run did. */
enum class Outcome : std::uint8_t
{
    Pass,       ///< halted, architectural state matches the reference
    Divergence, ///< clean run, but final state differs from the oracle
    Crash,      ///< SimError: invariant violation / protocol panic /
                ///  host deadline (after retries) / a cell lost to
                ///  its worker process or fabric agents
    Hang,       ///< watchdog, or the cycle budget expired
    RefHang,    ///< the *reference* did not halt (a generator bug)
};

inline constexpr EnumName<Outcome> kOutcomeNames[] = {
    {Outcome::Pass, "pass"},
    {Outcome::Divergence, "divergence"},
    {Outcome::Crash, "crash"},
    {Outcome::Hang, "hang"},
    {Outcome::RefHang, "ref-hang"},
};
constexpr auto &enumNames(Outcome) { return kOutcomeNames; }
static_assert(enumTableCovers(kOutcomeNames, Outcome::RefHang));

/** One failing (program, mechanism) cell of a campaign. */
struct FuzzFailure
{
    std::uint64_t seed = 0;   ///< generator seed of the program
    std::string config;       ///< mechanism name
    Outcome outcome = Outcome::Pass;
    sim::RunResult result;
    /** Dedup key: config + error kind + invariant + verdict. */
    std::string signature;
    /** True for the first occurrence of this signature. */
    bool unique = false;
    /** Corpus file, when a corpus directory captured this failure. */
    std::string reproPath;
};

struct FuzzOptions
{
    /** Programs to generate. Program i uses generator seed
     *  `seed + i`, so any case is reproducible standalone. */
    std::uint64_t count = 100;
    std::uint64_t seed = 1;
    GenOptions gen;

    /** Mechanisms to cross-check; empty selects the paper's four. */
    std::vector<std::string> configs;

    /** Optional chaos profile layered onto every run (the chaos seed
     *  derives from the per-case rngSeed, so it stays deterministic). */
    chaos::Profile chaosProfile = chaos::Profile::None;
    /** Optional planted protocol mutation (EDGE_MUTATIONS builds). */
    chaos::Mutation mutation = chaos::Mutation::None;
    unsigned mutationNode = 0;
    /** Run the protocol invariant checker on every run. */
    bool checkInvariants = false;

    /** Cycle budget per run; exceeding it classifies as Hang. */
    Cycle maxCycles = 2'000'000;
    /** Worker threads (0 = all hardware). */
    unsigned threads = 0;
    /** Programs per RunPool batch. */
    std::uint64_t batch = 64;

    /** When nonempty, capture one repro per unique failure signature
     *  (program embedded) into this directory. */
    std::string corpusDir;

    /**
     * Pluggable batch executor. Null (the default) runs every batch
     * on the in-process RunPool; the campaign supervisor injects its
     * process-isolated runner here, so supervised and in-process
     * campaigns share ALL of the driver — generation, grid order,
     * classification, dedup, corpus capture — and produce identical
     * reports. One entry per job; nullopt marks a cell the runner
     * did not execute because the campaign was interrupted.
     */
    std::function<std::vector<std::optional<sim::RunResult>>(
        const std::vector<sim::RunJob> &)>
        batchRunner;
};

/** The paper's four mechanisms, the default cross-check set. */
const std::vector<std::string> &defaultConfigs();

struct FuzzReport
{
    std::uint64_t programs = 0; ///< programs generated and run
    std::uint64_t runs = 0;     ///< (program, mechanism) cells
    std::uint64_t passes = 0;
    std::uint64_t refHangs = 0; ///< programs skipped: reference hung
    /** Every failing cell, in deterministic (seed, config) order. */
    std::vector<FuzzFailure> failures;
    /** Failures carrying an already-seen signature. */
    std::uint64_t duplicates = 0;
    /** True when the campaign stopped early (supervised runs only):
     *  the report covers the cells that completed, and the campaign
     *  journal carries what is needed to `--resume`. */
    bool interrupted = false;

    bool clean() const { return failures.empty() && refHangs == 0; }
};

/**
 * Run a differential campaign. Deterministic: the report (and any
 * corpus files) depend only on `opts`, never on thread count.
 */
FuzzReport runCampaign(const FuzzOptions &opts);

/** Classify one run result (clean pass included). */
Outcome classify(const sim::RunResult &result);

} // namespace edge::fuzz

#endif // EDGE_FUZZ_DIFF_HH
