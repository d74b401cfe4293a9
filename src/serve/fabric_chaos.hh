/**
 * @file
 * Deterministic fault injection for the campaign fabric — the
 * network-layer sibling of the simulator's chaos engine. Every
 * decision is a pure FNV-1a hash of (seed, agent ordinal, event
 * ordinal, salt): no wall clock, no RNG state, so a profile+seed pair
 * names one exact fault schedule and a flaky-looking fabric failure
 * can be replayed on demand. The correctness contract under every
 * profile is unchanged: the merged campaign report must be
 * byte-identical to a clean single-host `--isolate` run.
 *
 * Profiles:
 *   none       no interference (the default)
 *   drop       drop ~1/4 of inbound heartbeats and results
 *   duplicate  deliver every inbound result twice
 *   partition  drop windows of consecutive inbound messages — long
 *              enough to trip the heartbeat timeout — then heal
 *   kill       close an agent's connection right after its second
 *              assignment (an agent death mid-cell)
 *   heavy      drop + duplicate + partition together
 *   slow       the first-registered agent delays every cell by a
 *              fixed kSlowCellDelayMs before answering — alive and
 *              heartbeating, but a straggler on every lease it holds
 *              (exercises hedged re-execution)
 *   liar       the first-registered agent flips bits in every result
 *              payload it returns — structurally valid JSON, wrong
 *              simulation content (exercises result audits)
 *
 * `slow` and `liar` are AGENT-side faults: the coordinator arms them,
 * but the affliction ships to the chosen agent inside its welcome
 * message, so the misbehaviour happens where it would in production —
 * on the executor, past every coordinator-side code path.
 */

#ifndef EDGE_SERVE_FABRIC_CHAOS_HH
#define EDGE_SERVE_FABRIC_CHAOS_HH

#include <cstdint>
#include <string>

#include "common/enum_names.hh"

namespace edge::serve {

enum class FabricProfile : std::uint8_t
{
    None,
    Drop,
    Duplicate,
    Partition,
    Kill,
    Heavy,
    Slow,
    Liar,
};

/** Per-cell delay a `slow`-afflicted agent adds before answering.
 *  Deliberately far past any sane --hedge-after-ms so the straggler
 *  path fires deterministically in tests and smokes. */
constexpr std::uint64_t kSlowCellDelayMs = 1500;

inline constexpr EnumName<FabricProfile> kFabricProfileNames[] = {
    {FabricProfile::None, "none"},
    {FabricProfile::Drop, "drop"},
    {FabricProfile::Duplicate, "duplicate"},
    {FabricProfile::Partition, "partition"},
    {FabricProfile::Kill, "kill"},
    {FabricProfile::Heavy, "heavy"},
    {FabricProfile::Slow, "slow"},
    {FabricProfile::Liar, "liar"},
};
constexpr auto &enumNames(FabricProfile) { return kFabricProfileNames; }
static_assert(enumTableCovers(kFabricProfileNames, FabricProfile::Liar));

class FabricChaos
{
  public:
    FabricChaos() = default;
    FabricChaos(FabricProfile profile, std::uint64_t seed)
        : _profile(profile), _seed(seed)
    {
    }

    FabricProfile profile() const { return _profile; }
    bool active() const { return _profile != FabricProfile::None; }

    /**
     * Should this inbound message (the `ordinal`-th from this agent)
     * be dropped before processing? A dropped message never updates
     * the agent's last-heard time, so drop/partition schedules
     * exercise the heartbeat-timeout path. `hello` is never dropped —
     * an agent that can't register models a different failure (a
     * never-started agent), which the zero-agent fallback covers.
     */
    bool dropInbound(std::uint64_t agentOrdinal, std::uint64_t ordinal,
                     const std::string &type);

    /** Should this inbound result be delivered a second time? */
    bool duplicateResult(std::uint64_t agentOrdinal,
                         std::uint64_t ordinal);

    /** Should the agent's connection be severed after sending its
     *  `assignOrdinal`-th assignment (0-based)? */
    bool killOnAssign(std::uint64_t agentOrdinal,
                      std::uint64_t assignOrdinal);

    /**
     * The agent-side affliction to ship in this agent's welcome
     * message: FabricProfile::Slow or ::Liar for the afflicted agent
     * (registration ordinal 0 under those profiles), ::None for
     * everyone else. Exactly one agent misbehaves, deterministically
     * — the first to register — so audits always have an honest
     * majority to vote with.
     */
    FabricProfile agentAffliction(std::uint64_t agentOrdinal) const;

    struct Tally
    {
        std::uint64_t dropped = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t kills = 0;
    };
    const Tally &tally() const { return _tally; }

  private:
    std::uint64_t decision(std::uint64_t a, std::uint64_t b,
                           std::uint64_t salt) const;

    FabricProfile _profile = FabricProfile::None;
    std::uint64_t _seed = 0;
    Tally _tally;
};

} // namespace edge::serve

#endif // EDGE_SERVE_FABRIC_CHAOS_HH
