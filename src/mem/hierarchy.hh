/**
 * @file
 * The assembled timing memory hierarchy of the simulated EDGE
 * processor: address-interleaved L1 data cache banks (one per grid
 * row, co-located with the LSQ banks), an instruction cache for
 * block fetch, a shared L2, and DRAM. Timing only; values live in
 * the architectural SparseMemory owned by the simulator.
 */

#ifndef EDGE_MEM_HIERARCHY_HH
#define EDGE_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "chaos/chaos.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"

namespace edge::mem {

struct HierarchyParams
{
    unsigned numDBanks = 4;         ///< L1D banks (== LSQ banks)
    std::size_t l1dSizeBytes = 8 * 1024;  ///< per bank
    unsigned l1dAssoc = 2;
    unsigned l1dHitLatency = 2;
    unsigned l1dMshrs = 16;
    std::size_t l1iSizeBytes = 32 * 1024;
    unsigned l1iAssoc = 2;
    unsigned l1iHitLatency = 1;
    std::size_t l2SizeBytes = 1024 * 1024;
    unsigned l2Assoc = 8;
    unsigned l2HitLatency = 12;
    unsigned l2Mshrs = 32;
    unsigned l2Banks = 4;
    unsigned lineBytes = 64;
    unsigned dramLatency = 100;
    unsigned dramCyclesPerLine = 4;
};

class Hierarchy
{
  public:
    /**
     * @param chaos optional fault injector (not owned): jitters the
     *        completion time of accesses that miss (models refill
     *        contention / variable DRAM scheduling); pure hits stay
     *        deterministic.
     */
    Hierarchy(const HierarchyParams &params, StatSet &stats,
              chaos::ChaosEngine *chaos = nullptr);

    /**
     * The L1D bank (== LSQ bank) an address maps to: lines interleave
     * across banks, so unit-stride streams hit every bank and a line
     * lives in exactly one. Equal to (addr / lineBytes) % numDBanks,
     * computed with a shift, and a mask for a power-of-two bank count.
     */
    unsigned
    bankOf(Addr addr) const
    {
        Addr line = addr >> _lineShift;
        return static_cast<unsigned>(_banksPow2 ? line & _bankMask
                                                : line % _p.numDBanks);
    }

    /** Timing of a data-cache load reaching bank `bankOf(addr)`. */
    Cycle dataRead(Cycle now, Addr addr);

    /** Timing of a committed store draining into its L1D bank. */
    Cycle dataWrite(Cycle now, Addr addr);

    /** Timing of an instruction-cache access for block fetch. */
    Cycle instFetch(Cycle now, Addr addr);

    /** True if addr currently hits in its L1D bank (for stats). */
    bool dataProbe(Addr addr) const;

    /** Drop all cached state. */
    void reset();

    const HierarchyParams &params() const { return _p; }

  private:
    HierarchyParams _p;
    unsigned _lineShift = 0; ///< log2(lineBytes)
    bool _banksPow2 = false; ///< numDBanks is a power of two
    Addr _bankMask = 0;      ///< numDBanks - 1
    chaos::ChaosEngine *_chaos;
    std::unique_ptr<Dram> _dram;
    std::unique_ptr<Cache> _l2;
    std::unique_ptr<Cache> _l1i;
    std::vector<std::unique_ptr<Cache>> _l1d;
};

} // namespace edge::mem

#endif // EDGE_MEM_HIERARCHY_HH
