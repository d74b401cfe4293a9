/**
 * @file
 * One execution node of the grid: an integer/FP ALU fronted by
 * `slotsPerNode * numFrames` reservation-station slots. Implements
 * the node-side half of the DSRE protocol:
 *
 *  - an operand arrival with a *changed value* re-arms the slot for
 *    a full ALU re-execution (a speculative wave passing through);
 *  - an arrival that only upgrades Spec -> Final re-arms the slot
 *    for a cheap state-upgrade re-send (the commit wave), which by
 *    default uses a separate commit port rather than the ALU;
 *  - re-sends whose value and state match the last send are
 *    squashed (value-identity squash), configurable for ablation;
 *  - wave numbers are per producer-link monotonic: stale (lower
 *    wave) messages are ignored, Final is sticky.
 *
 * Each reservation-station slot is two records: a 64-byte hot line
 * holding everything deliver, refreshWant and the issue scan read
 * (operand values, waves and states, the seen/full/flag bytes, seq,
 * slot and trigger depth), and a cold record for what only the issue
 * path reads (what the slot last sent, and its instruction). The
 * issue scan walks two per-slot want-bitmaps (want-ALU, want-upgrade)
 * kept incrementally up to date by deliver/map/issue, so an idle node
 * answers hasWork() from a couple of words and a busy node's tick
 * touches only the slots that can actually issue.
 *
 * Static instruction data (opcode, immediate, LSID, targets) is not
 * copied into the slot: the slot points at the program's instruction,
 * which must outlive the mapping (see mapInst).
 */

#ifndef EDGE_CORE_EXEC_NODE_HH
#define EDGE_CORE_EXEC_NODE_HH

#include <array>
#include <vector>

#include "chaos/chaos.hh"
#include "common/stats.hh"
#include "core/params.hh"
#include "isa/instruction.hh"

namespace edge::core {

/**
 * What an issued instruction sends. The node appends it to an outbox
 * the processor owns; the processor routes the outbox right after
 * the node's tick, in the order the node issued.
 */
struct NodeEvent
{
    enum class Kind : std::uint8_t
    {
        Result,       ///< value to the instruction's targets
        LoadRequest,  ///< address to the LSQ
        StoreResolve, ///< address + data to the LSQ
        Exit,         ///< branch outcome to the control unit
    };

    Kind kind = Kind::Result;
    Cycle when = 0; ///< completion time (message leaves the node)
    DynBlockSeq seq = 0;
    unsigned frame = 0; ///< window frame of block `seq`
    SlotId slot = 0;
    Lsid lsid = 0;
    Word value = 0; ///< result / store data / exit index
    Addr addr = 0;  ///< loads and stores
    ValState state = ValState::Spec;    ///< result / store *data* state
    ValState addrState = ValState::Spec; ///< store *address* state
    std::uint32_t wave = 0; ///< per-producer monotonic send count
    std::uint16_t depth = 0;
    bool statusOnly = false; ///< commit-wave upgrade (no new value)
};

/** Aggregated (across nodes) execution statistics. */
struct NodeStats
{
    Counter &issues;      ///< ALU issues (first executions)
    Counter &reexecs;     ///< ALU issues that are DSRE re-fires
    Counter &upgrades;    ///< commit-wave state-upgrade re-sends
    Counter &squashes;    ///< re-sends suppressed by value identity
    Histogram &waveDepth; ///< propagation depth of each re-fire
};

class ExecNode
{
  public:
    /**
     * @param outbox receives every event the node sends (not owned)
     * @param chaos optional fault injector (not owned); only its
     *        compile-time-gated protocol *mutations* apply here
     * @param node_index this node's flat grid index, matched against
     *        ChaosParams::mutationNode
     */
    ExecNode(const CoreParams &params, NodeStats stats,
             std::vector<NodeEvent> *outbox,
             chaos::ChaosEngine *chaos = nullptr,
             unsigned node_index = 0);

    /**
     * Install one instruction into (frame, local slot). The node keeps
     * a pointer to `inst`, not a copy: the instruction must stay alive
     * and unchanged until the frame is cleared. A Processor's program
     * outlives the Processor, so every mapping it makes satisfies
     * this.
     */
    void mapInst(unsigned frame, unsigned local, DynBlockSeq seq,
                 SlotId slot, const isa::Instruction &inst);

    /** Release every slot of the frame (commit or flush). */
    void clearFrame(unsigned frame);

    /**
     * An operand message arrived for (frame, local slot).
     * @return false if the message was stale (old wave) and dropped
     */
    bool deliver(unsigned frame, unsigned local, unsigned operand,
                 Word value, ValState state, std::uint32_t wave,
                 std::uint16_t depth);

    /**
     * Issue up to one ALU op and the commit-port budget.
     * @return true iff any slot issued (the node did work)
     */
    bool tick(Cycle now);

    /**
     * True if tick(now) would issue anything — i.e. some slot wants
     * the ALU or a commit-port upgrade. The cycle loop skips the node
     * (and whole cycles) when every node answers false. O(words of
     * the want-bitmaps).
     */
    bool
    hasWork() const
    {
        for (const SlotBits &b : _bits)
            if (b.wantAlu | b.wantUpgrade)
                return true;
        return false;
    }

    /** Number of occupied slots (tests / deadlock dumps). */
    unsigned occupancy() const;

    /** True if some slot could still make progress (debug dumps). */
    std::string debugState() const;

  private:
    /**
     * The part of a slot that operand delivery and the issue scan
     * touch, in one cache line: a first delivery to a slot misses
     * once, not once per field.
     */
    struct alignas(64) HotSlot
    {
        DynBlockSeq seq = 0;
        Word opVal[isa::kMaxOperands] = {};
        std::uint32_t opWave[isa::kMaxOperands] = {};
        SlotId slot = 0;
        std::uint16_t triggerDepth = 0;
        ValState opState[isa::kMaxOperands] = {};
        std::uint8_t flags = 0;
        std::uint8_t seen = 0; ///< operand-seen bitmask
        std::uint8_t full = 0; ///< (1 << numOps) - 1
        std::uint8_t numOps = 0;
    };
    static_assert(sizeof(HotSlot) == 64, "RS hot record is one line");

    /** What only execute / upgrade / emit read. */
    struct ColdSlot
    {
        const isa::Instruction *inst = nullptr; ///< see mapInst
        Word lastValue = 0; ///< last sent value (loads: address)
        Word lastData = 0;  ///< stores: last sent data
        Cycle lastSendWhen = 0; ///< upgrades don't overtake data
        std::uint32_t sendCount = 0; ///< outgoing wave counter
        std::uint16_t frame = 0;
        ValState lastState = ValState::Spec;
        ValState lastAddrState = ValState::Spec; ///< stores only
    };

    // Per-slot flag bits (HotSlot::flags).
    static constexpr std::uint8_t kExecuted = 1u << 0;
    static constexpr std::uint8_t kDirtyValue = 1u << 1;
    static constexpr std::uint8_t kDirtyState = 1u << 2;

    unsigned at(unsigned frame, unsigned local) const;

    ValState inputState(const HotSlot &h) const;

    bool
    valid(unsigned rs) const
    {
        return _bits[rs >> 6].valid >> (rs & 63) & 1;
    }

    /**
     * Re-derive the two want bits of slot `rs` from its flags. Only
     * called on a valid slot: mapInst, deliver and issue are the only
     * callers, and each works on an occupied slot.
     */
    void refreshWant(unsigned rs);

    /** Is the given protocol mutation active on this node? */
    bool mutated(chaos::Mutation m) const;

    /** Execute one slot on the ALU; emit its event. */
    void execute(Cycle now, unsigned rs, bool is_reexec);

    /** Send the commit-wave upgrade for a slot (no ALU). */
    void upgrade(Cycle now, unsigned rs);

    /**
     * Append the outgoing event for a slot's current operands to the
     * outbox; returns it for the caller to amend.
     */
    NodeEvent &emit(Cycle done, unsigned rs, Word value, ValState state,
                    std::uint16_t depth);

    const CoreParams &_p;
    NodeStats _stats;
    std::vector<NodeEvent> *_out;
    chaos::ChaosEngine *_chaos;
    unsigned _nodeIndex;
    unsigned _numSlots; ///< slotsPerNode * numFrames

    // Reservation-station records, indexed by
    // rs = frame * slotsPerNode + local.
    std::vector<HotSlot> _hot;
    std::vector<ColdSlot> _cold;

    /**
     * Per-slot bitmaps, one word each for slots [64w, 64w + 64).
     * `valid`: the slot holds an instruction. `wantAlu` / `wantUpgrade`:
     * it is valid, has seen every operand, and wants an ALU issue / a
     * commit-port upgrade. Bitmaps rather than flags in the records,
     * so clearing a frame writes a few words instead of touching every
     * slot's line, and hasWork() and the issue scan read one array.
     */
    struct SlotBits
    {
        std::uint64_t valid = 0;
        std::uint64_t wantAlu = 0;
        std::uint64_t wantUpgrade = 0;
    };
    std::vector<SlotBits> _bits;
};

} // namespace edge::core

#endif // EDGE_CORE_EXEC_NODE_HH
