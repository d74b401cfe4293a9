#include "core/reg_unit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edge::core {

RegUnit::RegUnit(const CoreParams &params,
                 const std::vector<Word> &init_regs, StatSet &stats,
                 std::vector<RegForward> *outbox)
    : _p(params),
      _regs(init_regs),
      _blocks(params.numFrames),
      _order(params.numFrames),
      _bankFree(params.cols, 0),
      _out(outbox),
      _archReads(stats.counter("regs.arch_reads",
                               "reads satisfied from the committed RF")),
      _forwardReads(stats.counter(
          "regs.forward_reads",
          "reads satisfied by in-flight block forwarding")),
      _rewrites(stats.counter(
          "regs.rewrites",
          "write values that changed after first arrival (waves)"))
{
    _regs.resize(isa::kNumArchRegs, 0);
}

Cycle
RegUnit::bankPort(Cycle now, unsigned reg)
{
    unsigned bank = reg % _p.cols;
    Cycle start = std::max(now, _bankFree[bank]);
    _bankFree[bank] = start + 1;
    return start;
}

void
RegUnit::forwardTo(Cycle now, Subscription &sub, Word value,
                   ValState state, std::uint16_t depth,
                   bool status_only)
{
    RegForward &f = _out->emplace_back();
    // Status-only forwards ride the status network and do not
    // occupy a register-file data port; either way a later forward
    // (commit wave) may not overtake an earlier one on this link.
    f.when = status_only ? now + _p.regReadLatency
                         : bankPort(now, sub.reg) + _p.regReadLatency;
    f.when = std::max(f.when, sub.lastWhen);
    sub.lastWhen = f.when;
    f.statusOnly = status_only;
    f.readerSeq = sub.readerSeq;
    f.readerFrame = sub.readerFrame;
    f.reg = sub.reg;
    f.readIdx = sub.readIdx;
    f.value = value;
    f.state = state;
    f.wave = ++sub.wave;
    f.depth = depth;
}

void
RegUnit::mapBlock(Cycle now, unsigned frame, DynBlockSeq seq,
                  const isa::Block &block)
{
    panic_if(frame >= _blocks.size(), "register frame %u out of range",
             frame);
    panic_if(_blocks[frame].seq != 0, "register map into an occupied frame");
    panic_if(seq == 0 ||
                 (!_order.empty() && seq <= _blocks[_order.back()].seq),
             "register map out of order");

    // Resolve the reads *before* inserting our own writes so a block
    // never forwards from itself.
    for (std::size_t r = 0; r < block.reads().size(); ++r) {
        const isa::RegRead &rd = block.reads()[r];
        // Youngest older in-flight writer of this register.
        BlockRegs *writer = nullptr;
        for (unsigned i = _order.size(); i-- > 0;) {
            BlockRegs &br = _blocks[_order[i]];
            if (br.writeMask >> rd.reg & 1) {
                writer = &br;
                break;
            }
        }
        Subscription sub;
        sub.readerSeq = seq;
        sub.readerFrame = frame;
        sub.reg = rd.reg;
        sub.readIdx = static_cast<std::uint8_t>(r);
        if (!writer) {
            // Architectural value: Final by definition.
            ++_archReads;
            forwardTo(now, sub, _regs[rd.reg], ValState::Final, 0,
                      false);
            // No subscription: the committed value cannot change.
            continue;
        }
        ++_forwardReads;
        std::size_t write_idx = 0;
        while (writer->writes[write_idx].reg != rd.reg)
            ++write_idx;
        WriteSlot &ws = writer->writes[write_idx];
        writer->subscribers[write_idx].push_back(sub);
        if (ws.seen) {
            forwardTo(now, writer->subscribers[write_idx].back(),
                      ws.value, ws.state, ws.depth, false);
        }
    }

    BlockRegs &br = _blocks[frame];
    std::size_t n = block.writes().size();
    br.seq = seq;
    br.writes.assign(n, WriteSlot{});
    if (br.subscribers.size() < n)
        br.subscribers.resize(n);
    br.writeMask = 0;
    for (std::size_t w = 0; w < n; ++w) {
        br.writes[w].reg = block.writes()[w].reg;
        br.subscribers[w].clear();
        br.writeMask |= std::uint64_t{1} << br.writes[w].reg;
    }
    br.unseen = br.nonFinal = static_cast<unsigned>(n);
    _order.push_back(frame);
}

void
RegUnit::writeArrived(Cycle now, unsigned frame, DynBlockSeq seq,
                      unsigned write_idx, Word value, ValState state,
                      std::uint32_t wave, std::uint16_t depth)
{
    panic_if(frame >= _blocks.size(), "register frame %u out of range",
             frame);
    BlockRegs &br = _blocks[frame];
    if (br.seq != seq)
        return; // flushed block: stale message
    panic_if(write_idx >= br.writes.size(), "write index out of range");
    WriteSlot &ws = br.writes[write_idx];

    // The data and status networks can reorder messages from the
    // same producer; waves are per-producer monotonic, so anything
    // at or below the last accepted wave is stale.
    if (ws.seen && wave <= ws.wave)
        return;
    ws.wave = wave;

    bool value_changed = !ws.seen || ws.value != value;
    panic_if(ws.seen && ws.state == ValState::Final && value_changed,
             "protocol violation: Final register write changed");
    bool state_up = ws.seen && ws.state != ValState::Final &&
                    state == ValState::Final;
    if (ws.seen && !value_changed && !state_up)
        return; // duplicate
    if (ws.seen && value_changed)
        ++_rewrites;

    bool first = !ws.seen;
    bool was_final = ws.seen && ws.state == ValState::Final;
    ws.seen = true;
    ws.value = value;
    if (state == ValState::Final)
        ws.state = ValState::Final;
    else if (first || value_changed)
        ws.state = state;
    ws.depth = depth;
    if (first)
        --br.unseen;
    if (!was_final && ws.state == ValState::Final)
        --br.nonFinal;

    bool status_only = !first && !value_changed && state_up;
    for (Subscription &sub : br.subscribers[write_idx])
        forwardTo(now, sub, ws.value, ws.state, ws.depth, status_only);
}

bool
RegUnit::blockWritesFinal(unsigned frame, bool need_final) const
{
    panic_if(frame >= _blocks.size() || _blocks[frame].seq == 0,
             "blockWritesFinal on an empty frame");
    const BlockRegs &br = _blocks[frame];
    return (need_final ? br.nonFinal : br.unseen) == 0;
}

void
RegUnit::commitBlock(unsigned frame)
{
    panic_if(frame >= _blocks.size() || _blocks[frame].seq == 0,
             "commit of an empty register frame");
    panic_if(_order.front() != frame, "register commit out of order");
    BlockRegs &br = _blocks[frame];
    for (const WriteSlot &ws : br.writes) {
        panic_if(!ws.seen, "commit with a missing write value");
        _regs[ws.reg] = ws.value;
    }
    br.seq = 0;
    _order.pop_front();
}

void
RegUnit::flushFrom(DynBlockSeq from_seq)
{
    while (!_order.empty() && _blocks[_order.back()].seq >= from_seq) {
        _blocks[_order.back()].seq = 0;
        _order.pop_back();
    }
    // Remove subscriptions from squashed readers.
    for (unsigned i = 0; i < _order.size(); ++i) {
        BlockRegs &br = _blocks[_order[i]];
        for (std::size_t w = 0; w < br.writes.size(); ++w) {
            std::erase_if(br.subscribers[w], [&](const Subscription &s) {
                return s.readerSeq >= from_seq;
            });
        }
    }
}

} // namespace edge::core
