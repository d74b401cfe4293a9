/**
 * @file
 * The register tiles: the architectural register file plus the
 * forwarding logic that lets in-flight blocks communicate. A block's
 * register read is satisfied either from the architectural file
 * (Final by definition) or from the youngest older in-flight block
 * that writes the register — in which case the reader subscribes and
 * receives every wave the writer produces, so DSRE waves and the
 * commit wave propagate across block boundaries.
 */

#ifndef EDGE_CORE_REG_UNIT_HH
#define EDGE_CORE_REG_UNIT_HH

#include <vector>

#include "common/frame_ring.hh"
#include "common/stats.hh"
#include "core/params.hh"
#include "isa/block.hh"

namespace edge::core {

/**
 * A register value being forwarded to one reader's targets. The unit
 * appends it to an outbox the processor owns and routes right after
 * the mapBlock / writeArrived call that produced it. The targets are
 * those of read `readIdx` of the reader's block.
 */
struct RegForward
{
    Cycle when = 0;
    DynBlockSeq readerSeq = 0;
    unsigned readerFrame = 0;
    std::uint8_t reg = 0; ///< for bank routing
    std::uint8_t readIdx = 0; ///< the reader block's read slot
    Word value = 0;
    ValState state = ValState::Spec;
    std::uint32_t wave = 0; ///< per reader-read link, monotonic
    std::uint16_t depth = 0;
    bool statusOnly = false; ///< commit-wave upgrade (same value)
};
static_assert(isa::kMaxBlockReads <= 256, "readIdx too narrow");

class RegUnit
{
  public:
    /** @param outbox receives every forward (not owned) */
    RegUnit(const CoreParams &params, const std::vector<Word> &init_regs,
            StatSet &stats, std::vector<RegForward> *outbox);

    /**
     * A block entered the window in `frame`: resolve every register
     * read (forward immediately or subscribe) and register its
     * writes. Sequence numbers must increase from one map to the
     * next.
     */
    void mapBlock(Cycle now, unsigned frame, DynBlockSeq seq,
                  const isa::Block &block);

    /**
     * A write value arrived (or changed / upgraded) from the grid.
     * Dropped when `frame` no longer holds block `seq` (flushed).
     */
    void writeArrived(Cycle now, unsigned frame, DynBlockSeq seq,
                      unsigned write_idx, Word value, ValState state,
                      std::uint32_t wave, std::uint16_t depth);

    /**
     * All of the block's writes present (and Final if required)?
     * O(1): reads the frame's counts.
     */
    bool blockWritesFinal(unsigned frame, bool need_final) const;

    /**
     * Commit the oldest block, which must sit in `frame`: retire its
     * writes architecturally.
     */
    void commitBlock(unsigned frame);

    /** Squash blocks with seq >= from_seq. */
    void flushFrom(DynBlockSeq from_seq);

    const std::vector<Word> &archRegs() const { return _regs; }

    std::size_t numBlocks() const { return _order.size(); }

  private:
    struct WriteSlot
    {
        std::uint8_t reg = 0;
        bool seen = false;
        Word value = 0;
        ValState state = ValState::Spec;
        std::uint32_t wave = 0; ///< drop stale (reordered) arrivals
        std::uint16_t depth = 0;
    };

    struct Subscription
    {
        DynBlockSeq readerSeq = 0;
        unsigned readerFrame = 0;
        std::uint8_t reg = 0;
        std::uint8_t readIdx = 0; ///< the reader block's read slot
        std::uint32_t wave = 0; ///< forwards sent on this link
        Cycle lastWhen = 0;     ///< upgrades may not overtake data
    };

    /**
     * One window frame's register writes. The slot is reused by every
     * block mapped into the frame (vector capacity survives); `seq`
     * says which block owns it now.
     */
    struct BlockRegs
    {
        DynBlockSeq seq = 0; ///< owning block; 0 = frame free
        std::vector<WriteSlot> writes;
        /**
         * Readers subscribed to each write slot; only the first
         * writes.size() lists belong to the current block.
         */
        std::vector<std::vector<Subscription>> subscribers;
        /** Bit r: the block writes architectural register r. */
        std::uint64_t writeMask = 0;
        unsigned unseen = 0;   ///< writes that have not arrived
        unsigned nonFinal = 0; ///< writes not (yet) Final
    };
    static_assert(isa::kNumArchRegs <= 64, "writeMask too narrow");

    /** Charge a register-bank port (one forward per bank per cycle);
     *  returns the start cycle. */
    Cycle bankPort(Cycle now, unsigned reg);

    void forwardTo(Cycle now, Subscription &sub, Word value,
                   ValState state, std::uint16_t depth,
                   bool status_only);

    const CoreParams &_p;
    std::vector<Word> _regs;
    std::vector<BlockRegs> _blocks; ///< indexed by frame
    FrameRing _order;               ///< occupied frames, oldest first
    std::vector<Cycle> _bankFree;

    std::vector<RegForward> *_out;
    Counter &_archReads;
    Counter &_forwardReads;
    Counter &_rewrites;
};

} // namespace edge::core

#endif // EDGE_CORE_REG_UNIT_HH
