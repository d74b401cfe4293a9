#include "core/exec_node.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edge::core {

namespace {

/** Set or clear bit `idx & 63` of a bitmap word. */
inline void
setBit(std::uint64_t &word, unsigned idx, bool on)
{
    std::uint64_t mask = std::uint64_t{1} << (idx & 63);
    word = (word & ~mask) | (-std::uint64_t{on} & mask);
}

/** Mask of bits [lo, lo + n) within one word (lo + n <= 64). */
inline std::uint64_t
rangeMask(unsigned lo, unsigned n)
{
    return (n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1)
           << lo;
}

} // namespace

ExecNode::ExecNode(const CoreParams &params, NodeStats stats,
                   std::vector<NodeEvent> *outbox,
                   chaos::ChaosEngine *chaos, unsigned node_index)
    : _p(params),
      _stats(stats),
      _out(outbox),
      _chaos(chaos),
      _nodeIndex(node_index),
      _numSlots(params.slotsPerNode * params.numFrames),
      _hot(_numSlots),
      _cold(_numSlots),
      _bits((_numSlots + 63) / 64)
{
}

bool
ExecNode::mutated(chaos::Mutation m) const
{
#ifdef EDGE_MUTATIONS
    return _chaos && _chaos->mutation() == m &&
           (_chaos->mutationNode() == ~0u ||
            _chaos->mutationNode() == _nodeIndex);
#else
    (void)m;
    return false;
#endif
}

unsigned
ExecNode::at(unsigned frame, unsigned local) const
{
    panic_if(frame >= _p.numFrames || local >= _p.slotsPerNode,
             "RS index (%u, %u) out of range", frame, local);
    return frame * _p.slotsPerNode + local;
}

ValState
ExecNode::inputState(const HotSlot &h) const
{
    ValState s = ValState::Final;
    for (unsigned k = 0; k < h.numOps; ++k)
        s = andState(s, h.opState[k]);
    return s;
}

void
ExecNode::refreshWant(unsigned rs)
{
    const HotSlot &h = _hot[rs];
    std::uint8_t f = h.flags;
    bool ready = h.seen == h.full;
    bool executed = f & kExecuted;
    bool dv = f & kDirtyValue;
    bool ds = f & kDirtyState;
    bool want_alu =
        ready && (!executed || dv || (_p.commitWaveUsesAlu && ds));
    bool want_up =
        ready && !_p.commitWaveUsesAlu && executed && !dv && ds;
    SlotBits &b = _bits[rs >> 6];
    setBit(b.wantAlu, rs, want_alu);
    setBit(b.wantUpgrade, rs, want_up);
}

void
ExecNode::mapInst(unsigned frame, unsigned local, DynBlockSeq seq,
                  SlotId slot, const isa::Instruction &inst)
{
    unsigned rs = at(frame, local);
    panic_if(valid(rs), "mapping into an occupied RS slot");
    auto n = static_cast<std::uint8_t>(inst.numOperands());
    HotSlot &h = _hot[rs];
    h = HotSlot{};
    h.seq = seq;
    h.slot = slot;
    h.full = static_cast<std::uint8_t>((1u << n) - 1);
    h.numOps = n;
    ColdSlot &c = _cold[rs];
    c = ColdSlot{};
    c.inst = &inst;
    c.frame = static_cast<std::uint16_t>(frame);
    setBit(_bits[rs >> 6].valid, rs, true);
    refreshWant(rs);
}

void
ExecNode::clearFrame(unsigned frame)
{
    // A frame's slots are contiguous: clear its valid and want bits a
    // word at a time, without touching the records.
    unsigned lo = frame * _p.slotsPerNode;
    unsigned n = _p.slotsPerNode;
    while (n) {
        unsigned bit = lo & 63;
        unsigned take = std::min(n, 64 - bit);
        std::uint64_t keep = ~rangeMask(bit, take);
        SlotBits &b = _bits[lo >> 6];
        b.valid &= keep;
        b.wantAlu &= keep;
        b.wantUpgrade &= keep;
        lo += take;
        n -= take;
    }
}

bool
ExecNode::deliver(unsigned frame, unsigned local, unsigned operand,
                  Word value, ValState state, std::uint32_t wave,
                  std::uint16_t depth)
{
    unsigned rs = at(frame, local);
    HotSlot &h = _hot[rs];
    panic_if(!valid(rs), "operand delivered to an empty RS slot");
    panic_if(operand >= h.numOps, "operand %u out of range for %s",
             operand, isa::opName(_cold[rs].inst->op));

    if (wave <= h.opWave[operand])
        return false; // stale wave: the producer has sent newer data
    h.opWave[operand] = wave;

    bool first = !(h.seen & (1u << operand));
    ValState prev_state = first ? ValState::Spec : h.opState[operand];
    bool value_changed = first || h.opVal[operand] != value;

    panic_if(!first && prev_state == ValState::Final && value_changed,
             "protocol violation: Final operand changed value "
             "(seq %llu slot %u op %u)",
             static_cast<unsigned long long>(h.seq), h.slot, operand);

    // Final is sticky.
    ValState next_state = state;
    if (prev_state == ValState::Final)
        next_state = ValState::Final;

    h.seen |= static_cast<std::uint8_t>(1u << operand);
    h.opVal[operand] = value;
    h.opState[operand] = next_state;

    if (h.flags & kExecuted) {
        if (value_changed) {
            h.flags |= kDirtyValue;
            h.triggerDepth = std::max<std::uint16_t>(
                h.triggerDepth, static_cast<std::uint16_t>(depth + 1));
        } else if (prev_state != ValState::Final &&
                   next_state == ValState::Final) {
            h.flags |= kDirtyState;
            h.triggerDepth = std::max<std::uint16_t>(
                h.triggerDepth, static_cast<std::uint16_t>(depth + 1));
        }
    }
    refreshWant(rs);
    return true;
}

NodeEvent &
ExecNode::emit(Cycle done, unsigned rs, Word value, ValState state,
               std::uint16_t depth)
{
    const HotSlot &h = _hot[rs];
    const ColdSlot &c = _cold[rs];
    const isa::Instruction &in = *c.inst;
    NodeEvent &ev = _out->emplace_back();
    ev.when = done;
    ev.seq = h.seq;
    ev.frame = c.frame;
    ev.slot = h.slot;
    ev.lsid = in.lsid;
    ev.value = value;
    ev.state = state;
    ev.wave = c.sendCount;
    ev.depth = depth;
    if (isa::isLoad(in.op)) {
        ev.kind = NodeEvent::Kind::LoadRequest;
        ev.addr = isa::memEffAddr(h.opVal[0], in.imm);
    } else if (isa::isStore(in.op)) {
        ev.kind = NodeEvent::Kind::StoreResolve;
        ev.addr = isa::memEffAddr(h.opVal[0], in.imm);
        ev.value = h.opVal[1];
        ev.addrState = h.opState[0];
        ev.state = h.opState[1];
    } else if (isa::isBranch(in.op)) {
        ev.kind = NodeEvent::Kind::Exit;
    } else {
        ev.kind = NodeEvent::Kind::Result;
    }
    return ev;
}

void
ExecNode::execute(Cycle now, unsigned rs, bool is_reexec)
{
    HotSlot &h = _hot[rs];
    ColdSlot &c = _cold[rs];
    const isa::Instruction &in = *c.inst;
    Cycle done = now + _p.execLatency(in.op);
    ValState state = inputState(h);
    std::uint16_t depth = is_reexec ? h.triggerDepth : 0;

    Word value = 0;
    Word addr_key = 0; ///< identity key for the squash comparison
    Word data_key = 0;
    if (isa::isLoad(in.op)) {
        addr_key = isa::memEffAddr(h.opVal[0], in.imm);
        state = h.opState[0];
    } else if (isa::isStore(in.op)) {
        addr_key = isa::memEffAddr(h.opVal[0], in.imm);
        data_key = h.opVal[1];
    } else {
        value = isa::evalOp(in.op, h.opVal[0], h.opVal[1], h.opVal[2],
                            in.imm);
        addr_key = value;
    }

    ValState addr_state =
        isa::isMem(in.op) ? h.opState[0] : ValState::Spec;
    if (isa::isStore(in.op))
        state = h.opState[1]; // data state travels separately

    ++_stats.issues;
    if (is_reexec) {
        ++_stats.reexecs;
        _stats.waveDepth.sample(depth);
    }

    bool executed = h.flags & kExecuted;
    bool identical = executed && c.lastValue == addr_key &&
                     c.lastData == data_key && c.lastState == state &&
                     c.lastAddrState == addr_state;
    bool squash = identical && _p.squashIdenticalValues;
    // Deliberate protocol mutation: this node forgets to squash and
    // re-sends bit-identical waves. The invariant checker catches it
    // as `value-identity-squash`.
    if (squash && mutated(chaos::Mutation::SkipSquash))
        squash = false;
    bool send = !squash;
    if (squash)
        ++_stats.squashes;

    h.flags = static_cast<std::uint8_t>(
        (h.flags | kExecuted) & ~(kDirtyValue | kDirtyState));
    h.triggerDepth = 0;
    c.lastValue = addr_key;
    c.lastData = data_key;
    c.lastState = state;
    c.lastAddrState = addr_state;

    if (send) {
        ++c.sendCount;
        done = std::max(done, c.lastSendWhen);
        c.lastSendWhen = done;
        emit(done, rs, value, state, depth);
    }
}

void
ExecNode::upgrade(Cycle now, unsigned rs)
{
    HotSlot &h = _hot[rs];
    ColdSlot &c = _cold[rs];
    h.flags &= static_cast<std::uint8_t>(~kDirtyState);
    std::uint16_t depth = h.triggerDepth;
    h.triggerDepth = 0;

    // Deliberate protocol mutation: this node swallows commit-wave
    // upgrades, so downstream finality never arrives and the commit
    // frontier stalls. Caught as `commit-progress` (watchdog).
    if (mutated(chaos::Mutation::DropUpgrade))
        return;

    isa::Opcode op = c.inst->op;
    if (isa::isStore(op)) {
        // Stores propagate address and data finality independently:
        // a final address alone already un-blocks younger loads'
        // commit waves (they learn the store cannot move onto them).
        ValState as = h.opState[0];
        ValState ds = h.opState[1];
        if (as == c.lastAddrState && ds == c.lastState)
            return;
        c.lastAddrState = as;
        c.lastState = ds;
        ++_stats.upgrades;
        ++c.sendCount;
        Cycle when = std::max(now + 1, c.lastSendWhen);
        c.lastSendWhen = when;
        NodeEvent &ev = emit(when, rs, c.lastData, ds, depth);
        ev.addr = c.lastValue;
        ev.statusOnly = true;
        return;
    }

    ValState state = isa::isLoad(op) ? h.opState[0] : inputState(h);
    if (state != ValState::Final || c.lastState == ValState::Final)
        return;
    c.lastState = state;
    ++_stats.upgrades;
    ++c.sendCount;
    Cycle when = std::max(now + 1, c.lastSendWhen);
    c.lastSendWhen = when;
    NodeEvent &ev = emit(when, rs, c.lastValue, state, depth);
    if (ev.kind == NodeEvent::Kind::LoadRequest)
        ev.addr = c.lastValue; // lastValue holds the address key
    ev.statusOnly = true;
}

bool
ExecNode::tick(Cycle now)
{
    bool did = false;

    // ALU: one issue per cycle; oldest block first, then slot order.
    // The want-ALU bitmap holds exactly the valid, all-seen slots
    // that need a (re-)execution, so the scan touches only those.
    int best = -1;
    for (std::size_t w = 0; w < _bits.size(); ++w) {
        std::uint64_t bits = _bits[w].wantAlu;
        while (bits) {
            unsigned rs = static_cast<unsigned>(w * 64) +
                          static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            if (best < 0 || _hot[rs].seq < _hot[best].seq ||
                (_hot[rs].seq == _hot[best].seq &&
                 _hot[rs].slot < _hot[best].slot))
                best = static_cast<int>(rs);
        }
    }
    if (best >= 0) {
        unsigned rs = static_cast<unsigned>(best);
        std::uint8_t f = _hot[rs].flags;
        bool is_reexec = f & kExecuted;
        if (_p.commitWaveUsesAlu && is_reexec && !(f & kDirtyValue) &&
            (f & kDirtyState)) {
            upgrade(now, rs);
        } else {
            execute(now, rs, is_reexec);
        }
        refreshWant(rs);
        did = true;
    }

    if (!_p.commitWaveUsesAlu) {
        unsigned budget = _p.commitPortsPerNode;
        for (std::size_t w = 0; w < _bits.size() && budget; ++w) {
            std::uint64_t bits = _bits[w].wantUpgrade;
            while (bits && budget) {
                unsigned rs =
                    static_cast<unsigned>(w * 64) +
                    static_cast<unsigned>(__builtin_ctzll(bits));
                bits &= bits - 1;
                upgrade(now, rs);
                refreshWant(rs);
                --budget;
                did = true;
            }
        }
    }
    return did;
}

unsigned
ExecNode::occupancy() const
{
    unsigned n = 0;
    for (const SlotBits &b : _bits)
        n += static_cast<unsigned>(__builtin_popcountll(b.valid));
    return n;
}

std::string
ExecNode::debugState() const
{
    std::string out;
    for (unsigned rs = 0; rs < _numSlots; ++rs) {
        const HotSlot &h = _hot[rs];
        if (!valid(rs) || (h.flags & kExecuted))
            continue;
        std::string missing;
        for (unsigned k = 0; k < h.numOps; ++k)
            if (!(h.seen & (1u << k)))
                missing += strfmt(" op%u", k);
        out += strfmt("  seq %llu slot %u %s waiting:%s\n",
                      static_cast<unsigned long long>(h.seq), h.slot,
                      isa::opName(_cold[rs].inst->op),
                      missing.empty() ? " (ready)" : missing.c_str());
    }
    return out;
}

} // namespace edge::core
