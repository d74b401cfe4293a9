#include "mem/hierarchy.hh"

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edge::mem {

Hierarchy::Hierarchy(const HierarchyParams &params, StatSet &stats,
                     chaos::ChaosEngine *chaos)
    : _p(params), _chaos(chaos)
{
    fatal_if(_p.numDBanks == 0, "need at least one L1D bank");

    _dram = std::make_unique<Dram>(
        DramParams{"dram", _p.dramLatency, _p.dramCyclesPerLine}, stats);

    CacheParams l2p;
    l2p.name = "l2";
    l2p.sizeBytes = _p.l2SizeBytes;
    l2p.assoc = _p.l2Assoc;
    l2p.lineBytes = _p.lineBytes;
    l2p.hitLatency = _p.l2HitLatency;
    l2p.numMshrs = _p.l2Mshrs;
    l2p.numBanks = _p.l2Banks;
    _l2 = std::make_unique<Cache>(l2p, _dram.get(), stats);

    CacheParams l1ip;
    l1ip.name = "l1i";
    l1ip.sizeBytes = _p.l1iSizeBytes;
    l1ip.assoc = _p.l1iAssoc;
    l1ip.lineBytes = _p.lineBytes;
    l1ip.hitLatency = _p.l1iHitLatency;
    l1ip.numMshrs = 4;
    l1ip.numBanks = 1;
    _l1i = std::make_unique<Cache>(l1ip, _l2.get(), stats);

    for (unsigned b = 0; b < _p.numDBanks; ++b) {
        CacheParams dp;
        dp.name = strfmt("l1d%u", b);
        dp.sizeBytes = _p.l1dSizeBytes;
        dp.assoc = _p.l1dAssoc;
        dp.lineBytes = _p.lineBytes;
        dp.hitLatency = _p.l1dHitLatency;
        dp.numMshrs = _p.l1dMshrs;
        dp.numBanks = 1;
        _l1d.push_back(std::make_unique<Cache>(dp, _l2.get(), stats));
    }

    // Every Cache above has checked that lineBytes is a power of two.
    _lineShift = static_cast<unsigned>(__builtin_ctz(_p.lineBytes));
    _banksPow2 = (_p.numDBanks & (_p.numDBanks - 1)) == 0;
    _bankMask = _p.numDBanks - 1;
}

Cycle
Hierarchy::dataRead(Cycle now, Addr addr)
{
    Cycle done = _l1d[bankOf(addr)]->access(now, addr, false);
    // Chaos: jitter the fill latency of misses only (done past the
    // pure-hit time); hits stay deterministic.
    if (_chaos && done > now + _p.l1dHitLatency)
        done += _chaos->memJitter();
    return done;
}

Cycle
Hierarchy::dataWrite(Cycle now, Addr addr)
{
    return _l1d[bankOf(addr)]->access(now, addr, true);
}

Cycle
Hierarchy::instFetch(Cycle now, Addr addr)
{
    Cycle done = _l1i->access(now, addr, false);
    if (_chaos && done > now + _p.l1iHitLatency)
        done += _chaos->memJitter();
    return done;
}

bool
Hierarchy::dataProbe(Addr addr) const
{
    return _l1d[bankOf(addr)]->probe(addr);
}

void
Hierarchy::reset()
{
    _dram->reset();
    _l2->invalidateAll();
    _l1i->invalidateAll();
    for (auto &c : _l1d)
        c->invalidateAll();
}

} // namespace edge::mem
