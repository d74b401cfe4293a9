#include "core/exec_node.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edge::core {

namespace {

inline void
setBit(std::vector<std::uint64_t> &words, unsigned idx, bool on)
{
    std::uint64_t mask = std::uint64_t{1} << (idx & 63);
    if (on)
        words[idx >> 6] |= mask;
    else
        words[idx >> 6] &= ~mask;
}

/** Clear bits [lo, lo + n) a word at a time. */
inline void
clearBits(std::vector<std::uint64_t> &words, unsigned lo, unsigned n)
{
    while (n) {
        unsigned bit = lo & 63;
        unsigned take = std::min(n, 64 - bit);
        std::uint64_t mask = take == 64 ? ~std::uint64_t{0}
                                        : ((std::uint64_t{1} << take) - 1)
                                              << bit;
        words[lo >> 6] &= ~mask;
        lo += take;
        n -= take;
    }
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
      _flags(_numSlots, 0),
      _seen(_numSlots, 0),
      _full(_numSlots, 0),
      _numOps(_numSlots, 0),
      _seq(_numSlots, 0),
      _slot(_numSlots, 0),
      _op(_numSlots, isa::Opcode::MOVI),
      _imm(_numSlots, 0),
      _lsid(_numSlots, 0),
      _targets(_numSlots),
      _opVal(_numSlots * isa::kMaxOperands, 0),
      _opState(_numSlots * isa::kMaxOperands, ValState::Spec),
      _opWave(_numSlots * isa::kMaxOperands, 0),
      _lastValue(_numSlots, 0),
      _lastData(_numSlots, 0),
      _lastState(_numSlots, ValState::Spec),
      _lastAddrState(_numSlots, ValState::Spec),
      _sendCount(_numSlots, 0),
      _lastSendWhen(_numSlots, 0),
      _triggerDepth(_numSlots, 0),
      _wantAlu((_numSlots + 63) / 64, 0),
      _wantUpgrade((_numSlots + 63) / 64, 0)
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
ExecNode::inputState(unsigned rs) const
{
    ValState s = ValState::Final;
    for (unsigned k = 0; k < _numOps[rs]; ++k)
        s = andState(s, _opState[rs * isa::kMaxOperands + k]);
    return s;
}

void
ExecNode::refreshWant(unsigned rs)
{
    std::uint8_t f = _flags[rs];
    bool ready = (f & kValid) && _seen[rs] == _full[rs];
    bool executed = f & kExecuted;
    bool dv = f & kDirtyValue;
    bool ds = f & kDirtyState;
    bool want_alu =
        ready && (!executed || dv || (_p.commitWaveUsesAlu && ds));
    bool want_up =
        ready && !_p.commitWaveUsesAlu && executed && !dv && ds;
    setBit(_wantAlu, rs, want_alu);
    setBit(_wantUpgrade, rs, want_up);
}

void
ExecNode::mapInst(unsigned frame, unsigned local, DynBlockSeq seq,
                  SlotId slot, const isa::Instruction &inst)
{
    unsigned rs = at(frame, local);
    panic_if(_flags[rs] & kValid, "mapping into an occupied RS slot");
    _flags[rs] = kValid;
    _seq[rs] = seq;
    _slot[rs] = slot;
    _op[rs] = inst.op;
    _imm[rs] = inst.imm;
    _lsid[rs] = inst.lsid;
    auto n = static_cast<std::uint8_t>(inst.numOperands());
    _numOps[rs] = n;
    _full[rs] = static_cast<std::uint8_t>((1u << n) - 1);
    _seen[rs] = 0;
    _targets[rs] = inst.targets;
    for (unsigned k = 0; k < isa::kMaxOperands; ++k) {
        unsigned oi = rs * isa::kMaxOperands + k;
        _opVal[oi] = 0;
        _opState[oi] = ValState::Spec;
        _opWave[oi] = 0;
    }
    _lastValue[rs] = 0;
    _lastData[rs] = 0;
    _lastState[rs] = ValState::Spec;
    _lastAddrState[rs] = ValState::Spec;
    _sendCount[rs] = 0;
    _lastSendWhen[rs] = 0;
    _triggerDepth[rs] = 0;
    refreshWant(rs);
}

void
ExecNode::clearFrame(unsigned frame)
{
    // A frame's slots are contiguous: clear its flags and want-bits
    // as ranges, not slot by slot.
    unsigned lo = frame * _p.slotsPerNode;
    std::fill_n(_flags.begin() + lo, _p.slotsPerNode, 0);
    clearBits(_wantAlu, lo, _p.slotsPerNode);
    clearBits(_wantUpgrade, lo, _p.slotsPerNode);
}

bool
ExecNode::deliver(unsigned frame, unsigned local, unsigned operand,
                  Word value, ValState state, std::uint32_t wave,
                  std::uint16_t depth)
{
    unsigned rs = at(frame, local);
    panic_if(!(_flags[rs] & kValid),
             "operand delivered to an empty RS slot");
    panic_if(operand >= _numOps[rs], "operand %u out of range for %s",
             operand, isa::opName(_op[rs]));

    unsigned oi = rs * isa::kMaxOperands + operand;
    if (wave <= _opWave[oi])
        return false; // stale wave: the producer has sent newer data
    _opWave[oi] = wave;

    bool first = !(_seen[rs] & (1u << operand));
    ValState prev_state = first ? ValState::Spec : _opState[oi];
    bool value_changed = first || _opVal[oi] != value;

    panic_if(!first && prev_state == ValState::Final && value_changed,
             "protocol violation: Final operand changed value "
             "(seq %llu slot %u op %u)",
             static_cast<unsigned long long>(_seq[rs]), _slot[rs],
             operand);

    // Final is sticky.
    ValState next_state = state;
    if (prev_state == ValState::Final)
        next_state = ValState::Final;

    _seen[rs] |= static_cast<std::uint8_t>(1u << operand);
    _opVal[oi] = value;
    _opState[oi] = next_state;

    if (_flags[rs] & kExecuted) {
        if (value_changed) {
            _flags[rs] |= kDirtyValue;
            _triggerDepth[rs] = std::max<std::uint16_t>(
                _triggerDepth[rs],
                static_cast<std::uint16_t>(depth + 1));
        } else if (prev_state != ValState::Final &&
                   next_state == ValState::Final) {
            _flags[rs] |= kDirtyState;
            _triggerDepth[rs] = std::max<std::uint16_t>(
                _triggerDepth[rs],
                static_cast<std::uint16_t>(depth + 1));
        }
    }
    refreshWant(rs);
    return true;
}

NodeEvent &
ExecNode::emit(Cycle done, unsigned rs, Word value, ValState state,
               std::uint16_t depth)
{
    unsigned oi = rs * isa::kMaxOperands;
    NodeEvent &ev = _out->emplace_back();
    ev.when = done;
    ev.seq = _seq[rs];
    ev.frame = rs / _p.slotsPerNode;
    ev.slot = _slot[rs];
    ev.lsid = _lsid[rs];
    ev.value = value;
    ev.state = state;
    ev.wave = _sendCount[rs];
    ev.depth = depth;
    ev.targets = _targets[rs];
    if (isa::isLoad(_op[rs])) {
        ev.kind = NodeEvent::Kind::LoadRequest;
        ev.addr = isa::memEffAddr(_opVal[oi + 0], _imm[rs]);
    } else if (isa::isStore(_op[rs])) {
        ev.kind = NodeEvent::Kind::StoreResolve;
        ev.addr = isa::memEffAddr(_opVal[oi + 0], _imm[rs]);
        ev.value = _opVal[oi + 1];
        ev.addrState = _opState[oi + 0];
        ev.state = _opState[oi + 1];
    } else if (isa::isBranch(_op[rs])) {
        ev.kind = NodeEvent::Kind::Exit;
    } else {
        ev.kind = NodeEvent::Kind::Result;
    }
    return ev;
}

void
ExecNode::execute(Cycle now, unsigned rs, bool is_reexec)
{
    unsigned oi = rs * isa::kMaxOperands;
    Cycle done = now + _p.execLatency(_op[rs]);
    ValState state = inputState(rs);
    std::uint16_t depth = is_reexec ? _triggerDepth[rs] : 0;

    Word value = 0;
    Word addr_key = 0; ///< identity key for the squash comparison
    Word data_key = 0;
    if (isa::isLoad(_op[rs])) {
        addr_key = isa::memEffAddr(_opVal[oi + 0], _imm[rs]);
        state = _opState[oi + 0];
    } else if (isa::isStore(_op[rs])) {
        addr_key = isa::memEffAddr(_opVal[oi + 0], _imm[rs]);
        data_key = _opVal[oi + 1];
    } else {
        value = isa::evalOp(_op[rs], _opVal[oi + 0], _opVal[oi + 1],
                            _opVal[oi + 2], _imm[rs]);
        addr_key = value;
    }

    ValState addr_state =
        isa::isMem(_op[rs]) ? _opState[oi + 0] : ValState::Spec;
    if (isa::isStore(_op[rs]))
        state = _opState[oi + 1]; // data state travels separately

    ++_stats.issues;
    if (is_reexec) {
        ++_stats.reexecs;
        _stats.waveDepth.sample(depth);
    }

    bool executed = _flags[rs] & kExecuted;
    bool identical = executed && _lastValue[rs] == addr_key &&
                     _lastData[rs] == data_key &&
                     _lastState[rs] == state &&
                     _lastAddrState[rs] == addr_state;
    bool squash = identical && _p.squashIdenticalValues;
    // Deliberate protocol mutation: this node forgets to squash and
    // re-sends bit-identical waves. The invariant checker catches it
    // as `value-identity-squash`.
    if (squash && mutated(chaos::Mutation::SkipSquash))
        squash = false;
    bool send = !squash;
    if (squash)
        ++_stats.squashes;

    _flags[rs] = static_cast<std::uint8_t>(
        (_flags[rs] | kExecuted) & ~(kDirtyValue | kDirtyState));
    _triggerDepth[rs] = 0;
    _lastValue[rs] = addr_key;
    _lastData[rs] = data_key;
    _lastState[rs] = state;
    _lastAddrState[rs] = addr_state;

    if (send) {
        ++_sendCount[rs];
        done = std::max(done, _lastSendWhen[rs]);
        _lastSendWhen[rs] = done;
        emit(done, rs, value, state, depth);
    }
}

void
ExecNode::upgrade(Cycle now, unsigned rs)
{
    unsigned oi = rs * isa::kMaxOperands;
    _flags[rs] &= static_cast<std::uint8_t>(~kDirtyState);
    std::uint16_t depth = _triggerDepth[rs];
    _triggerDepth[rs] = 0;

    // Deliberate protocol mutation: this node swallows commit-wave
    // upgrades, so downstream finality never arrives and the commit
    // frontier stalls. Caught as `commit-progress` (watchdog).
    if (mutated(chaos::Mutation::DropUpgrade))
        return;

    if (isa::isStore(_op[rs])) {
        // Stores propagate address and data finality independently:
        // a final address alone already un-blocks younger loads'
        // commit waves (they learn the store cannot move onto them).
        ValState as = _opState[oi + 0];
        ValState ds = _opState[oi + 1];
        if (as == _lastAddrState[rs] && ds == _lastState[rs])
            return;
        _lastAddrState[rs] = as;
        _lastState[rs] = ds;
        ++_stats.upgrades;
        ++_sendCount[rs];
        Cycle when = std::max(now + 1, _lastSendWhen[rs]);
        _lastSendWhen[rs] = when;
        NodeEvent &ev = emit(when, rs, _lastData[rs], ds, depth);
        ev.addr = _lastValue[rs];
        ev.statusOnly = true;
        return;
    }

    ValState state =
        isa::isLoad(_op[rs]) ? _opState[oi + 0] : inputState(rs);
    if (state != ValState::Final || _lastState[rs] == ValState::Final)
        return;
    _lastState[rs] = state;
    ++_stats.upgrades;
    ++_sendCount[rs];
    Cycle when = std::max(now + 1, _lastSendWhen[rs]);
    _lastSendWhen[rs] = when;
    NodeEvent &ev = emit(when, rs, _lastValue[rs], state, depth);
    if (ev.kind == NodeEvent::Kind::LoadRequest)
        ev.addr = _lastValue[rs]; // lastValue holds the address key
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
    for (std::size_t w = 0; w < _wantAlu.size(); ++w) {
        std::uint64_t bits = _wantAlu[w];
        while (bits) {
            unsigned rs = static_cast<unsigned>(w * 64) +
                          static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            if (best < 0 || _seq[rs] < _seq[best] ||
                (_seq[rs] == _seq[best] && _slot[rs] < _slot[best]))
                best = static_cast<int>(rs);
        }
    }
    if (best >= 0) {
        unsigned rs = static_cast<unsigned>(best);
        bool is_reexec = _flags[rs] & kExecuted;
        if (_p.commitWaveUsesAlu && is_reexec &&
            !(_flags[rs] & kDirtyValue) && (_flags[rs] & kDirtyState)) {
            upgrade(now, rs);
        } else {
            execute(now, rs, is_reexec);
        }
        refreshWant(rs);
        did = true;
    }

    if (!_p.commitWaveUsesAlu) {
        unsigned budget = _p.commitPortsPerNode;
        for (std::size_t w = 0; w < _wantUpgrade.size() && budget;
             ++w) {
            std::uint64_t bits = _wantUpgrade[w];
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
    for (unsigned rs = 0; rs < _numSlots; ++rs)
        n += (_flags[rs] & kValid) != 0;
    return n;
}

std::string
ExecNode::debugState() const
{
    std::string out;
    for (unsigned rs = 0; rs < _numSlots; ++rs) {
        if (!(_flags[rs] & kValid) || (_flags[rs] & kExecuted))
            continue;
        std::string missing;
        for (unsigned k = 0; k < _numOps[rs]; ++k)
            if (!(_seen[rs] & (1u << k)))
                missing += strfmt(" op%u", k);
        out += strfmt("  seq %llu slot %u %s waiting:%s\n",
                      static_cast<unsigned long long>(_seq[rs]),
                      _slot[rs], isa::opName(_op[rs]),
                      missing.empty() ? " (ready)" : missing.c_str());
    }
    return out;
}

} // namespace edge::core
