#include "chaos/chaos.hh"

#include <algorithm>

namespace edge::chaos {

namespace {

/** Derive an independent per-site stream from the run-level seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t site)
{
    // One SplitMix64 step keeps nearby run seeds from producing
    // correlated site streams.
    Rng r(seed ^ (site * 0xd1342543de82ef95ULL));
    return r.next();
}

} // namespace

ChaosParams
ChaosParams::byProfile(Profile profile, std::uint64_t seed)
{
    ChaosParams p;
    p.seed = seed;
    p.profile = profile;
    switch (profile) {
      case Profile::None:
        break;
      case Profile::Light:
        p.hopDelayPermille = 20;
        p.hopDelayMax = 3;
        p.duplicatePermille = 10;
        p.duplicateSkewMax = 4;
        p.memJitterPermille = 50;
        p.memJitterMax = 8;
        p.storeDelayPermille = 20;
        p.storeDelayMax = 4;
        p.spuriousPermille = 5;
        break;
      case Profile::Heavy:
        p.hopDelayPermille = 100;
        p.hopDelayMax = 8;
        p.duplicatePermille = 60;
        p.duplicateSkewMax = 10;
        p.memJitterPermille = 200;
        p.memJitterMax = 24;
        p.storeDelayPermille = 80;
        p.storeDelayMax = 10;
        p.spuriousPermille = 20;
        break;
      case Profile::Net:
        p.hopDelayPermille = 150;
        p.hopDelayMax = 8;
        p.duplicatePermille = 100;
        p.duplicateSkewMax = 10;
        break;
      case Profile::Mem:
        p.memJitterPermille = 300;
        p.memJitterMax = 32;
        break;
      case Profile::Lsq:
        p.storeDelayPermille = 120;
        p.storeDelayMax = 12;
        p.spuriousPermille = 30;
        break;
    }
    return p;
}

ChaosEngine::ChaosEngine(const ChaosParams &params)
    : _p(params),
      _netRng(deriveSeed(params.seed, 1)),
      _memRng(deriveSeed(params.seed, 2)),
      _lsqRng(deriveSeed(params.seed, 3))
{
}

bool
ChaosEngine::admit(FaultEvent::Site site, std::uint64_t magnitude)
{
    std::uint64_t ordinal = _nextOrdinal++;
    if (_events.size() < kMaxRecordedEvents)
        _events.push_back({ordinal, site, magnitude});
    else
        _eventsTruncated = true;
    if (!_p.filterSchedule)
        return true;
    return std::binary_search(_p.allowedEvents.begin(),
                              _p.allowedEvents.end(), ordinal);
}

Cycle
ChaosEngine::hopJitter()
{
    if (!_p.hopDelayPermille || !_netRng.chance(_p.hopDelayPermille, 1000))
        return 0;
    // The magnitude draw happens before the filter decision so a
    // masked event consumes exactly the draws the live event would.
    Cycle d = _netRng.range(1, _p.hopDelayMax);
    if (!admit(FaultEvent::Site::HopDelay, d))
        return 0;
    ++_counts.hopDelays;
    return d;
}

bool
ChaosEngine::duplicate()
{
    if (!_p.duplicatePermille || !_netRng.chance(_p.duplicatePermille, 1000))
        return false;
    _pendingDuplicateSkew =
        _p.duplicateSkewMax ? _netRng.range(1, _p.duplicateSkewMax) : 1;
    if (!admit(FaultEvent::Site::Duplicate, _pendingDuplicateSkew))
        return false;
    ++_counts.duplicates;
    return true;
}

Cycle
ChaosEngine::duplicateSkew()
{
    return _pendingDuplicateSkew;
}

Cycle
ChaosEngine::memJitter()
{
    if (!_p.memJitterPermille || !_memRng.chance(_p.memJitterPermille, 1000))
        return 0;
    Cycle d = _memRng.range(1, _p.memJitterMax);
    if (!admit(FaultEvent::Site::MemJitter, d))
        return 0;
    ++_counts.memJitters;
    return d;
}

Cycle
ChaosEngine::storeResolveDelay()
{
    if (!_p.storeDelayPermille || !_lsqRng.chance(_p.storeDelayPermille, 1000))
        return 0;
    Cycle d = _lsqRng.range(1, _p.storeDelayMax);
    if (!admit(FaultEvent::Site::StoreDelay, d))
        return 0;
    ++_counts.storeDelays;
    return d;
}

bool
ChaosEngine::spuriousViolation()
{
    if (!_p.spuriousPermille || !_lsqRng.chance(_p.spuriousPermille, 1000))
        return false;
    if (!admit(FaultEvent::Site::Spurious, 0)) {
        // Burn the victim-pick draw the live event would have made so
        // the LSQ stream stays aligned with the unfiltered schedule.
        _lsqRng.next();
        return false;
    }
    return true;
}

std::size_t
ChaosEngine::pickIndex(std::size_t n)
{
    return static_cast<std::size_t>(_lsqRng.below(n));
}

} // namespace edge::chaos
