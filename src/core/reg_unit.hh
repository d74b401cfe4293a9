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

#include <map>
#include <vector>

#include "common/stats.hh"
#include "core/params.hh"
#include "isa/block.hh"

namespace edge::core {

/**
 * A register value being forwarded to one reader's targets. The unit
 * appends it to an outbox the processor owns and routes right after
 * the mapBlock / writeArrived call that produced it.
 */
struct RegForward
{
    Cycle when = 0;
    DynBlockSeq readerSeq = 0;
    std::uint8_t reg = 0; ///< for bank routing
    Word value = 0;
    ValState state = ValState::Spec;
    std::uint32_t wave = 0; ///< per reader-read link, monotonic
    std::uint16_t depth = 0;
    bool statusOnly = false; ///< commit-wave upgrade (same value)
    std::array<isa::Target, isa::kMaxTargets> targets{};
};

class RegUnit
{
  public:
    /** @param outbox receives every forward (not owned) */
    RegUnit(const CoreParams &params, const std::vector<Word> &init_regs,
            StatSet &stats, std::vector<RegForward> *outbox);

    /**
     * A block entered the window: resolve every register read
     * (forward immediately or subscribe) and register its writes.
     */
    void mapBlock(Cycle now, DynBlockSeq seq, const isa::Block &block);

    /** A write value arrived (or changed / upgraded) from the grid. */
    void writeArrived(Cycle now, DynBlockSeq seq, unsigned write_idx,
                      Word value, ValState state, std::uint32_t wave,
                      std::uint16_t depth);

    /** All of the block's writes present (and Final if required)? */
    bool blockWritesFinal(DynBlockSeq seq, bool need_final) const;

    /** Commit the oldest block: retire its writes architecturally. */
    void commitBlock(DynBlockSeq seq);

    /** Squash blocks with seq >= from_seq. */
    void flushFrom(DynBlockSeq from_seq);

    const std::vector<Word> &archRegs() const { return _regs; }

    std::size_t numBlocks() const { return _blocks.size(); }

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
        std::uint8_t reg = 0;
        std::array<isa::Target, isa::kMaxTargets> targets{};
        std::uint32_t wave = 0; ///< forwards sent on this link
        Cycle lastWhen = 0;     ///< upgrades may not overtake data
    };

    struct BlockRegs
    {
        const isa::Block *block = nullptr;
        std::vector<WriteSlot> writes;
        /** Readers subscribed to each write slot. */
        std::vector<std::vector<Subscription>> subscribers;
    };

    /** Charge a register-bank port; returns the start cycle. */
    Cycle bankPort(Cycle now, unsigned reg);

    void forwardTo(Cycle now, Subscription &sub, Word value,
                   ValState state, std::uint16_t depth,
                   bool status_only);

    const CoreParams &_p;
    std::vector<Word> _regs;
    std::map<DynBlockSeq, BlockRegs> _blocks;
    std::vector<Cycle> _bankFree;

    std::vector<RegForward> *_out;
    Counter &_archReads;
    Counter &_forwardReads;
    Counter &_rewrites;
};

} // namespace edge::core

#endif // EDGE_CORE_REG_UNIT_HH
