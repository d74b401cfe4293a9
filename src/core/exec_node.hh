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
 * Reservation-station state is stored structure-of-arrays: the issue
 * scan walks two per-slot want-bitmaps (want-ALU, want-upgrade) kept
 * incrementally up to date by deliver/map/issue, so an idle node
 * answers hasWork() from a couple of words and a busy node's tick
 * touches only the slots that can actually issue — instead of
 * striding over ~100-byte cold slot objects every cycle.
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
    std::array<isa::Target, isa::kMaxTargets> targets{};
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

    /** Install one instruction into (frame, local slot). */
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
     * the ALU or a commit-port upgrade. The event-driven engine skips
     * the node (and lets the cycle loop skip whole cycles) when every
     * node answers false. O(words of the want-bitmaps).
     */
    bool
    hasWork() const
    {
        for (std::size_t w = 0; w < _wantAlu.size(); ++w)
            if (_wantAlu[w] | _wantUpgrade[w])
                return true;
        return false;
    }

    /** Number of occupied slots (tests / deadlock dumps). */
    unsigned occupancy() const;

    /** True if some slot could still make progress (debug dumps). */
    std::string debugState() const;

  private:
    // Per-slot flag bits (_flags).
    static constexpr std::uint8_t kValid = 1u << 0;
    static constexpr std::uint8_t kExecuted = 1u << 1;
    static constexpr std::uint8_t kDirtyValue = 1u << 2;
    static constexpr std::uint8_t kDirtyState = 1u << 3;

    unsigned at(unsigned frame, unsigned local) const;

    bool allSeen(unsigned rs) const { return _seen[rs] == _full[rs]; }
    ValState inputState(unsigned rs) const;

    /** Re-derive the two want bits of slot `rs` from its flags. */
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

    // Structure-of-arrays reservation-station state, indexed by
    // rs = frame * slotsPerNode + local. The scan-hot fields (flags,
    // seen masks, seq for age ordering) are dense byte/word arrays;
    // operand values are flattened [rs * kMaxOperands + k].
    std::vector<std::uint8_t> _flags;
    std::vector<std::uint8_t> _seen; ///< operand-seen bitmask
    std::vector<std::uint8_t> _full; ///< (1 << numOps) - 1
    std::vector<std::uint8_t> _numOps;
    std::vector<DynBlockSeq> _seq;
    std::vector<SlotId> _slot;
    std::vector<isa::Opcode> _op;
    std::vector<std::int64_t> _imm;
    std::vector<Lsid> _lsid;
    std::vector<std::array<isa::Target, isa::kMaxTargets>> _targets;

    std::vector<Word> _opVal;
    std::vector<ValState> _opState;
    std::vector<std::uint32_t> _opWave;

    std::vector<Word> _lastValue; ///< last sent value (loads: address)
    std::vector<Word> _lastData;  ///< stores: last sent data
    std::vector<ValState> _lastState;
    std::vector<ValState> _lastAddrState; ///< stores only
    std::vector<std::uint32_t> _sendCount; ///< outgoing wave counter
    std::vector<Cycle> _lastSendWhen; ///< upgrades don't overtake data
    std::vector<std::uint16_t> _triggerDepth;

    // Wake bitmaps: bit rs set iff the slot is valid, all operands
    // seen, and it wants an ALU issue / a commit-port upgrade.
    std::vector<std::uint64_t> _wantAlu;
    std::vector<std::uint64_t> _wantUpgrade;
};

} // namespace edge::core

#endif // EDGE_CORE_EXEC_NODE_HH
