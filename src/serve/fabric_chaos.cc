#include "serve/fabric_chaos.hh"

#include "common/hash.hh"

namespace edge::serve {

std::uint64_t
FabricChaos::decision(std::uint64_t a, std::uint64_t b,
                      std::uint64_t salt) const
{
    Fnv1a f;
    f.mix64(_seed);
    f.mix64(a);
    f.mix64(b);
    f.mix64(salt);
    // One extra scramble round: FNV alone keys poorly off trailing
    // small integers, and these bits pick modular buckets.
    std::uint64_t h = f.state;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

bool
FabricChaos::dropInbound(std::uint64_t agentOrdinal,
                         std::uint64_t ordinal,
                         const std::string &type)
{
    if (type == "hello")
        return false;
    bool drop = false;
    if (_profile == FabricProfile::Drop ||
        _profile == FabricProfile::Heavy)
        drop = decision(agentOrdinal, ordinal, 0x11) % 4 == 0;
    if (!drop && (_profile == FabricProfile::Partition ||
                  _profile == FabricProfile::Heavy)) {
        // Windows of 6 consecutive messages, 1 window in 3 dark:
        // long enough to miss several heartbeats in a row (a real
        // partition), then traffic resumes and the agent heals.
        drop = decision(agentOrdinal, ordinal / 6, 0x22) % 3 == 0;
    }
    if (drop)
        ++_tally.dropped;
    return drop;
}

bool
FabricChaos::duplicateResult(std::uint64_t agentOrdinal,
                             std::uint64_t ordinal)
{
    (void)agentOrdinal;
    (void)ordinal;
    if (_profile != FabricProfile::Duplicate &&
        _profile != FabricProfile::Heavy)
        return false;
    ++_tally.duplicated;
    return true;
}

bool
FabricChaos::killOnAssign(std::uint64_t agentOrdinal,
                          std::uint64_t assignOrdinal)
{
    if (_profile != FabricProfile::Kill)
        return false;
    (void)agentOrdinal;
    if (assignOrdinal != 1)
        return false;
    ++_tally.kills;
    return true;
}

FabricProfile
FabricChaos::agentAffliction(std::uint64_t agentOrdinal) const
{
    if ((_profile == FabricProfile::Slow ||
         _profile == FabricProfile::Liar) &&
        agentOrdinal == 0)
        return _profile;
    return FabricProfile::None;
}

} // namespace edge::serve
