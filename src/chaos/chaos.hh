/**
 * @file
 * Deterministic fault injection. The DSRE protocol's headline claim
 * is that speculative waves with value-identity squashing converge to
 * the committed (golden) architectural state under ANY legal timing
 * of operand and memory messages. A ChaosEngine turns that claim into
 * an executable property: it perturbs message timing — extra operand-
 * network hop delay, duplicate delivery of (idempotent) messages,
 * jittered cache-fill latency, delayed store resolution, spurious
 * corrective re-fire waves — from a single replayable seed, and every
 * perturbed schedule must still commit bit-identical state.
 *
 * All draws come from per-site SplitMix64 streams derived from one
 * run-level seed, so a failing schedule replays exactly from the seed
 * reported in sim::RunResult.
 */

#ifndef EDGE_CHAOS_CHAOS_HH
#define EDGE_CHAOS_CHAOS_HH

#include <string>
#include <vector>

#include "common/enum_names.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace edge::chaos {

/**
 * Compile-time-flagged protocol mutations (EDGE_MUTATIONS, on by
 * default) used by the mutation tests: each one breaks a protocol
 * rule the invariant checker must catch by name.
 */
enum class Mutation : std::uint8_t
{
    None,
    /** One node sends re-fires even when (value, state) is identical
     *  to its previous send — the value-identity squash is skipped.
     *  Caught by `value-identity-squash`. */
    SkipSquash,
    /** One node silently drops its commit-wave upgrades, so finality
     *  never reaches its consumers. Caught by `commit-progress` (the
     *  watchdog surfaces as that invariant). */
    DropUpgrade,
    /** The LSQ forwards each load byte from the OLDEST older covering
     *  store instead of the youngest. Caught by
     *  `lsq-age-ordered-forwarding`. */
    MisorderForward,
};

inline constexpr EnumName<Mutation> kMutationNames[] = {
    {Mutation::None, "none"},
    {Mutation::SkipSquash, "skip-squash"},
    {Mutation::DropUpgrade, "drop-upgrade"},
    {Mutation::MisorderForward, "misorder-forward"},
};
constexpr auto &enumNames(Mutation) { return kMutationNames; }
static_assert(enumTableCovers(kMutationNames, Mutation::MisorderForward));

/** Built-in fault-mix presets selectable with --chaos-profile. */
enum class Profile : std::uint8_t
{
    None,  ///< no injection (chaos off)
    Light, ///< all sites, low rates, small magnitudes
    Heavy, ///< all sites, high rates, larger magnitudes
    Net,   ///< operand-network delay + duplication only
    Mem,   ///< cache-fill / DRAM jitter only
    Lsq,   ///< store-resolve delay + spurious re-fire waves only
};

inline constexpr EnumName<Profile> kProfileNames[] = {
    {Profile::None, "none"},
    {Profile::Light, "light"},
    {Profile::Heavy, "heavy"},
    {Profile::Net, "net"},
    {Profile::Mem, "mem"},
    {Profile::Lsq, "lsq"},
};
constexpr auto &enumNames(Profile) { return kProfileNames; }
static_assert(enumTableCovers(kProfileNames, Profile::Lsq));

struct ChaosParams
{
    /** Run-level seed for every injection stream. */
    std::uint64_t seed = 0;
    Profile profile = Profile::None;

    // Per-site rates (per-mille probabilities) and magnitudes,
    // normally filled in from the profile by byProfile().
    unsigned hopDelayPermille = 0;   ///< extra hop delay probability
    unsigned hopDelayMax = 0;        ///< max extra cycles per message
    unsigned duplicatePermille = 0;  ///< duplicate-delivery probability
    unsigned duplicateSkewMax = 0;   ///< extra delay of the duplicate
    unsigned memJitterPermille = 0;  ///< fill-latency jitter probability
    unsigned memJitterMax = 0;       ///< max extra fill cycles
    unsigned storeDelayPermille = 0; ///< store-resolve delay probability
    unsigned storeDelayMax = 0;      ///< max store-resolve delay
    unsigned spuriousPermille = 0;   ///< spurious re-fire wave probability

    Mutation mutation = Mutation::None;
    unsigned mutationNode = 0; ///< grid node a node-scoped mutation hits

    /**
     * Schedule filtering (the triage minimizer's lever). When set,
     * the engine still makes every RNG draw exactly as the seed
     * dictates, but only injections whose ordinal — the position in
     * the run's would-inject sequence — appears in `allowedEvents`
     * take effect. The full schedule (filter off) and the identity
     * filter (every ordinal allowed) are bit-identical runs.
     */
    bool filterSchedule = false;
    /** Sorted injection ordinals that stay live under the filter. */
    std::vector<std::uint64_t> allowedEvents;

    bool enabled() const { return profile != Profile::None; }

    /** The canned parameter set for a profile, with the given seed. */
    static ChaosParams byProfile(Profile profile, std::uint64_t seed);
};

/**
 * One concrete fault the seed decided to inject. Events are recorded
 * whether or not the schedule filter let them through, so a baseline
 * failing run yields the full candidate universe the triage minimizer
 * then delta-debugs down to a locally minimal subset.
 */
struct FaultEvent
{
    enum class Site : std::uint8_t
    {
        HopDelay,    ///< extra operand-network hop latency
        Duplicate,   ///< duplicate message delivery
        MemJitter,   ///< cache-fill / DRAM latency jitter
        StoreDelay,  ///< delayed store resolution at the LSQ
        Spurious,    ///< forced spurious corrective re-fire wave
    };

    std::uint64_t ordinal = 0;   ///< position in the would-inject sequence
    Site site = Site::HopDelay;
    std::uint64_t magnitude = 0; ///< extra cycles (0 for boolean faults)

    bool
    operator==(const FaultEvent &o) const
    {
        return ordinal == o.ordinal && site == o.site &&
               magnitude == o.magnitude;
    }
};

inline constexpr EnumName<FaultEvent::Site> kFaultSiteNames[] = {
    {FaultEvent::Site::HopDelay, "hop-delay"},
    {FaultEvent::Site::Duplicate, "duplicate"},
    {FaultEvent::Site::MemJitter, "mem-jitter"},
    {FaultEvent::Site::StoreDelay, "store-delay"},
    {FaultEvent::Site::Spurious, "spurious"},
};
constexpr auto &enumNames(FaultEvent::Site) { return kFaultSiteNames; }
static_assert(enumTableCovers(kFaultSiteNames, FaultEvent::Site::Spurious));

/** What the engine actually injected during one run (replay aid). */
struct InjectionCounts
{
    std::uint64_t hopDelays = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t memJitters = 0;
    std::uint64_t storeDelays = 0;
    std::uint64_t spuriousWaves = 0;

    std::uint64_t
    total() const
    {
        return hopDelays + duplicates + memJitters + storeDelays +
               spuriousWaves;
    }
};

class ChaosEngine
{
  public:
    explicit ChaosEngine(const ChaosParams &params);

    const ChaosParams &params() const { return _p; }
    const InjectionCounts &counts() const { return _counts; }

    /**
     * Every fault the seed decided to inject this run, in injection
     * order, including ones the schedule filter suppressed (capped at
     * kMaxRecordedEvents — see eventsTruncated()).
     */
    const std::vector<FaultEvent> &events() const { return _events; }

    /** True when the event log hit its cap and stopped recording. */
    bool eventsTruncated() const { return _eventsTruncated; }

    // --- operand / status network --------------------------------------
    /** Extra cycles to add to one message's arrival (usually 0). */
    Cycle hopJitter();
    /** Deliver a second copy of this message? (All consumers drop
     *  duplicates as stale waves — that idempotency is exactly what
     *  this injection exercises.) */
    bool duplicate();
    /** Extra delay of the duplicate copy relative to the original
     *  (valid after the duplicate() call that returned true). */
    Cycle duplicateSkew();

    // --- memory hierarchy ----------------------------------------------
    /** Extra cycles to add to one cache-fill / DRAM access. */
    Cycle memJitter();

    // --- LSQ -------------------------------------------------------------
    /** Cycles to delay one store's resolution at the LSQ. */
    Cycle storeResolveDelay();
    /** Force a spurious corrective resend of one speculative load? */
    bool spuriousViolation();
    /** Uniform pick in [0, n) from the LSQ stream (victim choice). */
    std::size_t pickIndex(std::size_t n);
    void countSpurious() { ++_counts.spuriousWaves; }

    // --- mutations -------------------------------------------------------
    Mutation mutation() const { return _p.mutation; }
    unsigned mutationNode() const { return _p.mutationNode; }

  private:
    static constexpr std::size_t kMaxRecordedEvents = 1u << 20;

    /**
     * Record the fault in the event log and decide whether the
     * schedule filter lets it take effect. Every would-inject fault
     * passes through here exactly once, so ordinals are stable for a
     * fixed (seed, program, config).
     */
    bool admit(FaultEvent::Site site, std::uint64_t magnitude);

    ChaosParams _p;
    // Independent streams so that, e.g., adding a memory access does
    // not reshuffle the network fault schedule.
    Rng _netRng;
    Rng _memRng;
    Rng _lsqRng;
    InjectionCounts _counts;
    std::vector<FaultEvent> _events;
    std::uint64_t _nextOrdinal = 0;
    bool _eventsTruncated = false;
    Cycle _pendingDuplicateSkew = 1;
};

} // namespace edge::chaos

#endif // EDGE_CHAOS_CHAOS_HH
