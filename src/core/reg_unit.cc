#include "core/reg_unit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edge::core {

RegUnit::RegUnit(const CoreParams &params,
                 const std::vector<Word> &init_regs, StatSet &stats,
                 std::vector<RegForward> *outbox)
    : _p(params),
      _regs(init_regs),
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
    f.reg = sub.reg;
    f.value = value;
    f.state = state;
    f.wave = ++sub.wave;
    f.depth = depth;
    f.targets = sub.targets;
}

void
RegUnit::mapBlock(Cycle now, DynBlockSeq seq, const isa::Block &block)
{
    panic_if(_blocks.count(seq), "register map of seq twice");

    // Resolve the reads *before* inserting our own writes so a block
    // never forwards from itself.
    for (const isa::RegRead &rd : block.reads()) {
        // Youngest older in-flight writer of this register.
        BlockRegs *writer = nullptr;
        std::size_t write_idx = 0;
        for (auto it = _blocks.rbegin(); it != _blocks.rend(); ++it) {
            for (std::size_t w = 0; w < it->second.writes.size(); ++w) {
                if (it->second.writes[w].reg == rd.reg) {
                    writer = &it->second;
                    write_idx = w;
                    break;
                }
            }
            if (writer)
                break;
        }
        Subscription sub;
        sub.readerSeq = seq;
        sub.reg = rd.reg;
        sub.targets = rd.targets;
        if (!writer) {
            // Architectural value: Final by definition.
            ++_archReads;
            forwardTo(now, sub, _regs[rd.reg], ValState::Final, 0,
                      false);
            // No subscription: the committed value cannot change.
            continue;
        }
        ++_forwardReads;
        WriteSlot &ws = writer->writes[write_idx];
        writer->subscribers[write_idx].push_back(sub);
        if (ws.seen) {
            forwardTo(now, writer->subscribers[write_idx].back(),
                      ws.value, ws.state, ws.depth, false);
        }
    }

    BlockRegs br;
    br.block = &block;
    br.writes.resize(block.writes().size());
    br.subscribers.resize(block.writes().size());
    for (std::size_t w = 0; w < block.writes().size(); ++w)
        br.writes[w].reg = block.writes()[w].reg;
    _blocks.emplace(seq, std::move(br));
}

void
RegUnit::writeArrived(Cycle now, DynBlockSeq seq, unsigned write_idx,
                      Word value, ValState state, std::uint32_t wave,
                      std::uint16_t depth)
{
    auto it = _blocks.find(seq);
    if (it == _blocks.end())
        return; // flushed block: stale message
    panic_if(write_idx >= it->second.writes.size(),
             "write index out of range");
    WriteSlot &ws = it->second.writes[write_idx];

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
    ws.seen = true;
    ws.value = value;
    if (state == ValState::Final)
        ws.state = ValState::Final;
    else if (first || value_changed)
        ws.state = state;
    ws.depth = depth;

    bool status_only = !first && !value_changed && state_up;
    for (Subscription &sub : it->second.subscribers[write_idx])
        forwardTo(now, sub, ws.value, ws.state, ws.depth, status_only);
}

bool
RegUnit::blockWritesFinal(DynBlockSeq seq, bool need_final) const
{
    auto it = _blocks.find(seq);
    panic_if(it == _blocks.end(), "blockWritesFinal on unknown seq");
    for (const WriteSlot &ws : it->second.writes) {
        if (!ws.seen)
            return false;
        if (need_final && ws.state != ValState::Final)
            return false;
    }
    return true;
}

void
RegUnit::commitBlock(DynBlockSeq seq)
{
    auto it = _blocks.find(seq);
    panic_if(it == _blocks.end(), "commit of unknown seq");
    panic_if(it != _blocks.begin(), "register commit out of order");
    for (const WriteSlot &ws : it->second.writes) {
        panic_if(!ws.seen, "commit with a missing write value");
        _regs[ws.reg] = ws.value;
    }
    _blocks.erase(it);
}

void
RegUnit::flushFrom(DynBlockSeq from_seq)
{
    _blocks.erase(_blocks.lower_bound(from_seq), _blocks.end());
    // Remove subscriptions from squashed readers.
    for (auto &[seq, br] : _blocks) {
        for (auto &subs : br.subscribers) {
            std::erase_if(subs, [&](const Subscription &s) {
                return s.readerSeq >= from_seq;
            });
        }
    }
}

} // namespace edge::core
