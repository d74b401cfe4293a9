#include "lsq/lsq.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "predictor/oracle.hh" // rangesOverlap

namespace edge::lsq {

using pred::rangesOverlap;

LoadStoreQueue::LoadStoreQueue(const LsqParams &params,
                               mem::Hierarchy *hierarchy,
                               mem::SparseMemory *memory,
                               pred::DependencePredictor *policy,
                               StatSet &stats, ReplyFn reply,
                               ViolationFn violation,
                               chaos::ChaosEngine *chaos,
                               chaos::InvariantChecker *check)
    : _p(params),
      _spec(params.recovery == Recovery::Dsre),
      _hier(hierarchy),
      _mem(memory),
      _policy(policy),
      _reply(std::move(reply)),
      _violation(std::move(violation)),
      _chaos(chaos),
      _check(check),
      _bankFree(hierarchy->params().numDBanks, 0),
      _loads(stats.counter("lsq.loads", "loads performed")),
      _stores(stats.counter("lsq.stores", "stores resolved")),
      _forwards(stats.counter("lsq.forwards",
                              "loads fully forwarded from stores")),
      _violations(stats.counter("lsq.violations",
                                "dependence violations detected")),
      _resends(stats.counter("lsq.resends",
                             "DSRE corrective load resends")),
      _upgrades(stats.counter("lsq.upgrades",
                              "commit-wave load state upgrades")),
      _policyHolds(stats.counter("lsq.policy_holds",
                                 "loads initially held by the policy")),
      _replayWaits(stats.counter(
          "lsq.replay_waits",
          "violating loads replayed conservatively after a flush")),
      _deferrals(stats.counter(
          "lsq.deferrals",
          "corrective resends deferred to the commit wave")),
      _vpPredictions(stats.counter(
          "lsq.vp_predictions",
          "miss value predictions issued (vp extension)")),
      _vpCorrect(stats.counter(
          "lsq.vp_correct",
          "miss value predictions that were right (vp extension)")),
      _violationDistance(stats.histogram(
          "lsq.violation_distance",
          "blocks between conflicting store and load"))
{
    fatal_if(_p.valuePredictMisses && !_spec,
             "miss value prediction needs DSRE recovery to correct "
             "wrong predictions");
    if (_p.valuePredictMisses)
        _vpTable.assign(_p.vpTableSize, VpEntry{});
}

LoadStoreQueue::MemEntry &
LoadStoreQueue::entry(MemKey key)
{
    auto it = _blocks.find(key.first);
    panic_if(it == _blocks.end(), "no LSQ block for seq %llu",
             static_cast<unsigned long long>(key.first));
    panic_if(key.second >= it->second.ops.size(),
             "LSID %u out of range", key.second);
    return it->second.ops[key.second];
}

const LoadStoreQueue::MemEntry *
LoadStoreQueue::find(MemKey key) const
{
    auto it = _blocks.find(key.first);
    if (it == _blocks.end() || key.second >= it->second.ops.size())
        return nullptr;
    return &it->second.ops[key.second];
}

BlockId
LoadStoreQueue::blockIdOf(DynBlockSeq seq) const
{
    auto it = _blocks.find(seq);
    return it == _blocks.end() ? kInvalidBlock : it->second.blockId;
}

Cycle
LoadStoreQueue::bankPort(Cycle now, Addr addr)
{
    unsigned bank = _hier->bankOf(addr);
    Cycle start = std::max(now, _bankFree[bank]);
    _bankFree[bank] = start + 1;
    return start;
}

void
LoadStoreQueue::mapBlock(DynBlockSeq seq, std::uint64_t arch_idx,
                         BlockId block_id, const isa::Block &block)
{
    panic_if(_blocks.count(seq), "block seq %llu mapped twice",
             static_cast<unsigned long long>(seq));
    BlockEntry be;
    be.archIdx = arch_idx;
    be.blockId = block_id;
    be.ops.resize(block.numMemOps());
    for (std::size_t s = 0; s < block.insts().size(); ++s) {
        const auto &in = block.insts()[s];
        if (!isa::isMem(in.op))
            continue;
        MemEntry &e = be.ops[in.lsid];
        e.isStore = isa::isStore(in.op);
        e.bytes = isa::opInfo(in.op).accessBytes;
        e.slot = static_cast<SlotId>(s);
        if (e.isStore) {
            if (_spec)
                _nonFinalStores.insert({seq, in.lsid});
            _policy->onStoreMapped(seq, block_id, in.lsid);
        } else {
            e.dep = _policy->onLoadMapped(seq, block_id, in.lsid);
        }
        if (_check)
            _check->onMemOpMapped(seq, in.lsid, e.isStore, e.bytes);
    }
    _blocks.emplace(seq, std::move(be));
}

const std::vector<pred::UnresolvedStore> &
LoadStoreQueue::olderUnresolved(MemKey key) const
{
    std::vector<pred::UnresolvedStore> &out = _olderScratch;
    out.clear();
    for (const auto &[seq, be] : _blocks) {
        if (seq > key.first)
            break;
        for (Lsid l = 0; l < be.ops.size(); ++l) {
            if (seq == key.first && l >= key.second)
                break;
            const MemEntry &e = be.ops[l];
            if (e.isStore && !e.resolved)
                out.push_back({seq, be.archIdx, be.blockId, l});
        }
    }
    return out;
}

Word
LoadStoreQueue::computeLoadValue(MemKey key, const MemEntry &e) const
{
    // Start from architectural memory, then overlay every resolved
    // older store in ascending (seq, lsid) order so the youngest
    // writer of each byte wins.
    Word value = _mem->read(e.addr, e.bytes);
#ifdef EDGE_MUTATIONS
    // Deliberate protocol mutation: forward each byte from the
    // OLDEST older covering store instead of the youngest. The
    // invariant checker catches it as `lsq-age-ordered-forwarding`.
    bool oldest_wins =
        _chaos &&
        _chaos->mutation() == chaos::Mutation::MisorderForward;
    std::array<bool, kWordBytes> written{};
#endif
    for (const auto &[seq, be] : _blocks) {
        if (seq > key.first)
            break;
        for (Lsid l = 0; l < be.ops.size(); ++l) {
            if (seq == key.first && l >= key.second)
                break;
            const MemEntry &st = be.ops[l];
            if (!st.isStore || !st.resolved)
                continue;
            if (!rangesOverlap(st.addr, st.bytes, e.addr, e.bytes))
                continue;
            for (unsigned i = 0; i < e.bytes; ++i) {
                Addr a = e.addr + i;
                if (a < st.addr || a >= st.addr + st.bytes)
                    continue;
#ifdef EDGE_MUTATIONS
                if (oldest_wins && written[i])
                    continue;
                written[i] = true;
#endif
                unsigned si = static_cast<unsigned>(a - st.addr);
                Word byte = (st.data >> (8 * si)) & 0xff;
                value &= ~(Word{0xff} << (8 * i));
                value |= byte << (8 * i);
            }
        }
    }
    return value;
}

bool
LoadStoreQueue::loadIsFinal(MemKey key, const MemEntry &e) const
{
    if (!_spec)
        return true;
    if (e.addrState != ValState::Final)
        return false;
    // A load is final when no older store can still change it:
    // every older store must be resolved with a Final address, and
    // the ones that actually overlap must have Final data too.
    for (auto it = _nonFinalStores.begin();
         it != _nonFinalStores.end() && *it < key; ++it) {
        const MemEntry *st = find(*it);
        panic_if(!st, "stale non-final store key");
        if (!st->resolved || st->addrSt != ValState::Final)
            return false;
        if (rangesOverlap(st->addr, st->bytes, e.addr, e.bytes) &&
            st->state != ValState::Final) {
            return false;
        }
    }
    return true;
}

void
LoadStoreQueue::loadRequest(
    Cycle now, DynBlockSeq seq, Lsid lsid, Addr addr,
    ValState addr_state, std::uint32_t wave, std::uint16_t depth,
    const std::array<isa::Target, isa::kMaxTargets> &targets,
    SlotId slot)
{
    auto bit = _blocks.find(seq);
    if (bit == _blocks.end())
        return; // flushed block: stale message, drop
    MemKey key{seq, lsid};
    MemEntry &e = entry(key);
    panic_if(e.isStore, "load request for a store LSID");

    if (e.addrKnown && wave <= e.inWave)
        return; // stale (reordered) request
    e.inWave = wave;

    bool addr_changed = e.addrKnown && e.addr != addr;
    e.addrKnown = true;
    e.addr = addr;
    // Monotonic: a Final address never goes back to Spec.
    if (addr_state == ValState::Final)
        e.addrState = ValState::Final;
    else if (!addr_changed && e.addrState == ValState::Final)
        addr_state = ValState::Final;
    else
        e.addrState = addr_state;
    e.targets = targets;
    e.slot = slot;
    e.depth = depth;

    if (_check)
        _check->onLoadAddr(seq, lsid, e.addr, e.addrState);

    if (!e.performed) {
        if (e.waiting && !addr_changed) {
            // Address state upgrade while held: nothing to do yet.
            return;
        }
        tryIssueLoad(now, key, e);
        return;
    }

    // Re-execution of the load's address (a DSRE wave upstream) or
    // an address state upgrade: recompute and resend as needed.
    Word v = computeLoadValue(key, e);
    bool final_now = loadIsFinal(key, e);
    if (v != e.lastValue) {
        if (final_now) {
            // A final correction is mandatory: this may be the last
            // event that can ever finalise this load, so it bypasses
            // the resend budget (it IS the commit wave).
            e.deferred = false;
            ++_resends;
            performLoad(now, key, e, true, depth);
            _specLoads.erase(key);
            return;
        }
        if (_p.maxResendsPerLoad != 0 &&
            e.resends >= _p.maxResendsPerLoad) {
            e.deferred = true;
            ++_deferrals;
            return;
        }
        ++e.resends;
        ++_resends;
        performLoad(now, key, e, true, depth);
    } else if (final_now && e.lastState != ValState::Final) {
        ++_upgrades;
        e.deferred = false;
        performLoad(now, key, e, true, depth);
        _specLoads.erase(key);
    }
}

void
LoadStoreQueue::tryIssueLoad(Cycle now, MemKey key, MemEntry &e)
{
    auto &be = _blocks.at(key.first);
    const std::vector<pred::UnresolvedStore> &older =
        olderUnresolved(key);
    pred::LoadQuery q;
    q.seq = key.first;
    q.archIdx = be.archIdx;
    q.block = be.blockId;
    q.lsid = key.second;
    q.addr = e.addr;
    q.bytes = e.bytes;
    q.olderUnresolved = &older;
    q.dep = e.dep;
    auto hold_key = std::make_pair(be.archIdx, key.second);
    if (_replayHolds.count(hold_key)) {
        if (!older.empty()) {
            if (!e.waiting) {
                e.waiting = true;
                ++_replayWaits;
                _waitingLoads.insert(key);
            }
            return;
        }
        _replayHolds.erase(hold_key);
    }
    if (_policy->loadMustWait(q)) {
        if (!e.waiting) {
            e.waiting = true;
            ++_policyHolds;
            _waitingLoads.insert(key);
        }
        return;
    }
    if (e.waiting) {
        e.waiting = false;
        _waitingLoads.erase(key);
    }
    performLoad(now, key, e, false, e.depth);
}

void
LoadStoreQueue::performLoad(Cycle now, MemKey key, MemEntry &e,
                            bool is_resend, std::uint16_t depth)
{
    Word value = computeLoadValue(key, e);
    bool final_now = loadIsFinal(key, e);
    // Commit-wave upgrades carry the same value: the LSQ re-sends it
    // without re-accessing the data cache.
    bool value_unchanged = e.performed && value == e.lastValue;

    // Does any byte come from memory (vs pure store forwarding)?
    bool any_from_mem = false;
    {
        std::array<bool, 8> covered{};
        for (const auto &[seq, be] : _blocks) {
            if (seq > key.first)
                break;
            for (Lsid l = 0; l < be.ops.size(); ++l) {
                if (seq == key.first && l >= key.second)
                    break;
                const MemEntry &st = be.ops[l];
                if (!st.isStore || !st.resolved)
                    continue;
                for (unsigned i = 0; i < e.bytes; ++i) {
                    Addr a = e.addr + i;
                    if (a >= st.addr && a < st.addr + st.bytes)
                        covered[i] = true;
                }
            }
        }
        for (unsigned i = 0; i < e.bytes; ++i)
            any_from_mem = any_from_mem || !covered[i];
    }

    Cycle done;
    bool predicted_early = false;
    if (value_unchanged && !_p.chargeUpgradePorts) {
        // Status-only commit-wave upgrade: rides the narrow status
        // path rather than a data port.
        done = now + 1;
    } else {
        Cycle start = bankPort(now, e.addr);
        Cycle fast = start + _p.lsqLatency;
        done = fast;
        if (any_from_mem && !value_unchanged)
            done = std::max(done, _hier->dataRead(start, e.addr));

        // Value-prediction extension: on a long miss, reply with the
        // last value seen at this address immediately; the real
        // value follows as a second wave of the same DSRE protocol.
        if (_p.valuePredictMisses && !is_resend && !e.performed &&
            done > fast + _p.vpLatencyThreshold) {
            VpEntry &ve =
                _vpTable[(e.addr >> 3) % _vpTable.size()];
            Word guess = ve.addr == e.addr ? ve.value : 0;
            ++_vpPredictions;
            if (guess == value)
                ++_vpCorrect;
            LoadReply pr;
            pr.when = std::max(fast, e.lastReplyWhen);
            pr.addr = e.addr;
            pr.seq = key.first;
            pr.slot = e.slot;
            pr.lsid = key.second;
            pr.value = guess;
            pr.state = ValState::Spec; // a guess is never final
            pr.wave = ++e.replyWave;
            pr.depth = depth;
            // A confirmation (guess == real value) deliberately
            // repeats the value on the next wave; exempt it from the
            // value-identity-squash invariant.
            pr.echo = true;
            pr.targets = e.targets;
            _reply(pr);
            e.lastReplyWhen = pr.when;
            predicted_early = true;
            // The real reply below corrects (or confirms) it; when
            // it merely confirms, it travels as a status upgrade.
            value_unchanged = false;
        }
    }
    // An upgrade or resend must not overtake the previous reply on
    // the same link: the commit wave trails the data it confirms.
    done = std::max(done, e.lastReplyWhen);
    e.lastReplyWhen = done;
    if (!any_from_mem && !e.performed && !predicted_early)
        ++_forwards;

    // Train the last-value table with the true value.
    if (_p.valuePredictMisses) {
        VpEntry &ve = _vpTable[(e.addr >> 3) % _vpTable.size()];
        ve.addr = e.addr;
        ve.value = value;
    }

    if (!e.performed)
        ++_loads;
    e.performed = true;
    e.lastValue = value;
    e.lastState = final_now ? ValState::Final : ValState::Spec;
    if (_spec) {
        if (final_now)
            _specLoads.erase(key);
        else
            _specLoads.insert(key);
    }

    LoadReply r;
    r.when = done;
    r.addr = e.addr;
    r.seq = key.first;
    r.slot = e.slot;
    r.lsid = key.second;
    r.value = value;
    r.state = e.lastState;
    r.wave = ++e.replyWave;
    r.depth = static_cast<std::uint16_t>(is_resend ? depth + 1 : depth);
    r.statusOnly = value_unchanged;
    r.targets = e.targets;
    if (_check)
        _check->onLoadReply(r.when, r.seq, r.lsid, r.value, r.state,
                            r.echo);
    _reply(r);
}

void
LoadStoreQueue::storeResolve(Cycle now, DynBlockSeq seq, Lsid lsid,
                             Addr addr, Word data, ValState addr_state,
                             ValState data_state, std::uint32_t wave,
                             std::uint16_t depth)
{
    // Chaos: hold the store's resolution at the bank entrance for a
    // few cycles, widening the speculation window of younger loads.
    if (_chaos)
        now += _chaos->storeResolveDelay();

    auto bit = _blocks.find(seq);
    if (bit == _blocks.end())
        return; // flushed block: stale message, drop
    MemKey key{seq, lsid};
    MemEntry &e = entry(key);
    panic_if(!e.isStore, "store resolve for a load LSID");

    if (e.resolved && wave <= e.inWave)
        return; // stale (reordered) resolve
    e.inWave = wave;
    if (!_spec) {
        addr_state = ValState::Final;
        data_state = ValState::Final;
    }

    bool had_old = e.resolved;
    Addr old_addr = e.addr;
    unsigned old_bytes = e.bytes;
    bool addr_changed = had_old && e.addr != addr;
    bool data_changed = had_old && e.data != data;
    bool changed = !had_old || addr_changed || data_changed;

    panic_if(had_old && e.addrSt == ValState::Final && addr_changed,
             "protocol violation: store with Final address moved "
             "(seq %llu lsid %u)",
             static_cast<unsigned long long>(seq), lsid);
    panic_if(had_old && e.state == ValState::Final && data_changed,
             "protocol violation: store with Final data changed "
             "(seq %llu lsid %u)",
             static_cast<unsigned long long>(seq), lsid);

    bool state_improved =
        (addr_state == ValState::Final &&
         e.addrSt != ValState::Final) ||
        (data_state == ValState::Final && e.state != ValState::Final);
    if (had_old && !changed && !state_improved)
        return; // pure duplicate

    if (!had_old)
        ++_stores;
    e.resolved = true;
    e.addr = addr;
    e.data = data;
    // States are sticky-monotonic.
    if (addr_state == ValState::Final)
        e.addrSt = ValState::Final;
    else if (addr_changed || !had_old)
        e.addrSt = addr_state;
    if (data_state == ValState::Final)
        e.state = ValState::Final;
    else if (data_changed || !had_old)
        e.state = data_state;

    if (_check)
        _check->onStoreState(seq, lsid, e.addr, e.data, e.state,
                             e.addrSt);

    _policy->onStoreResolved(seq, bit->second.blockId, lsid);

    if (_spec && e.state == ValState::Final &&
        e.addrSt == ValState::Final) {
        _nonFinalStores.erase(key);
    }

    if (changed)
        storeChanged(now, key, old_addr, old_bytes, had_old, depth);

    // Re-query loads held back by the policy: the store landscape
    // just changed. (Snapshot first: tryIssueLoad mutates the set.)
    _waitingScratch.assign(_waitingLoads.begin(), _waitingLoads.end());
    for (MemKey wk : _waitingScratch) {
        auto wit = _blocks.find(wk.first);
        if (wit == _blocks.end())
            continue; // flushed meanwhile
        tryIssueLoad(now, wk, wit->second.ops[wk.second]);
    }

    sweepFinality(now);

    if (_chaos && _spec)
        injectSpuriousWave(now);
}

void
LoadStoreQueue::storeChanged(Cycle now, MemKey store_key, Addr old_addr,
                             unsigned old_bytes, bool had_old,
                             std::uint16_t depth)
{
    const MemEntry &st = entry(store_key);
    std::vector<Hit> &hits = _hitsScratch;
    hits.clear();

    for (auto it = _blocks.lower_bound(store_key.first);
         it != _blocks.end(); ++it) {
        auto &[seq, be] = *it;
        for (Lsid l = 0; l < be.ops.size(); ++l) {
            MemKey key{seq, l};
            if (!(store_key < key))
                continue;
            MemEntry &ld = be.ops[l];
            if (ld.isStore || !ld.performed)
                continue;
            bool overlap_new =
                rangesOverlap(st.addr, st.bytes, ld.addr, ld.bytes);
            bool overlap_old =
                had_old &&
                rangesOverlap(old_addr, old_bytes, ld.addr, ld.bytes);
            if (!overlap_new && !overlap_old)
                continue;
            Word v = computeLoadValue(key, ld);
            bool value_changed = v != ld.lastValue;
            bool addr_hit = overlap_new && _p.addrBasedViolations &&
                            _p.recovery == Recovery::Flush;
            if (value_changed || addr_hit)
                hits.push_back({key, value_changed});
        }
    }

    for (const Hit &hit : hits) {
        auto bit = _blocks.find(hit.key.first);
        if (bit == _blocks.end())
            continue; // flushed by an earlier hit in this batch
        MemEntry &ld = bit->second.ops[hit.key.second];

        ++_violations;
        _violationDistance.sample(hit.key.first - store_key.first);
        _policy->onViolation(bit->second.blockId, hit.key.second,
                             blockIdOf(store_key.first),
                             store_key.second);

        if (_p.recovery == Recovery::Dsre) {
            if (hit.value_changed) {
                if (_p.maxResendsPerLoad != 0 &&
                    ld.resends >= _p.maxResendsPerLoad) {
                    // Storm throttle: batch further corrections into
                    // the commit wave (sweepFinality sends them).
                    ld.deferred = true;
                    ++_deferrals;
                } else {
                    ++ld.resends;
                    ++_resends;
                    performLoad(now, hit.key, ld, true,
                                static_cast<std::uint16_t>(depth));
                }
            }
        } else {
            // Forward-progress guarantee: replay this dynamic load
            // conservatively after the flush (see _replayHolds).
            _replayHolds.emplace(bit->second.archIdx, hit.key.second);
            Violation v;
            v.loadSeq = hit.key.first;
            v.loadBlock = bit->second.blockId;
            v.loadLsid = hit.key.second;
            v.storeSeq = store_key.first;
            v.storeBlock = blockIdOf(store_key.first);
            v.storeLsid = store_key.second;
            _violation(v);
            // The flush removed this load's block and everything
            // younger; the remaining hits that survived are handled
            // on the next iteration (find() guards stale keys).
        }
    }
}

void
LoadStoreQueue::sweepFinality(Cycle now)
{
    if (!_spec)
        return;
    // Snapshot: performLoad mutates _specLoads while we walk it.
    _sweepScratch.assign(_specLoads.begin(), _specLoads.end());
    for (MemKey key : _sweepScratch) {
        auto bit = _blocks.find(key.first);
        if (bit == _blocks.end()) {
            _specLoads.erase(key);
            continue;
        }
        MemEntry &e = bit->second.ops[key.second];
        if (!loadIsFinal(key, e))
            continue;
        Word v = computeLoadValue(key, e);
        panic_if(v != e.lastValue && !e.deferred,
                 "finality sweep found a changed value that no store "
                 "event reported (seq %llu lsid %u)",
                 static_cast<unsigned long long>(key.first), key.second);
        if (v != e.lastValue)
            ++_resends;
        else
            ++_upgrades;
        e.deferred = false;
        performLoad(now, key, e, true, e.depth);
        _specLoads.erase(key);
    }
}

void
LoadStoreQueue::injectSpuriousWave(Cycle now)
{
    if (_specLoads.empty() || !_chaos->spuriousViolation())
        return;
    auto it = _specLoads.begin();
    std::advance(it, _chaos->pickIndex(_specLoads.size()));
    MemKey key = *it;
    MemEntry &e = entry(key);
    _chaos->countSpurious();

    // A transient wrong value followed one cycle later by the true
    // value again — a forced spurious violation. The entry's own
    // record (lastValue/lastState) is untouched, so from the LSQ's
    // point of view nothing happened; the dataflow graph downstream
    // sees a genuine DSRE correction storm that must converge back
    // to the same architectural state. Both waves are echoes: they
    // deliberately repeat values, which the value-identity-squash
    // invariant must not flag.
    LoadReply glitch;
    glitch.when = std::max(now, e.lastReplyWhen);
    glitch.addr = e.addr;
    glitch.seq = key.first;
    glitch.slot = e.slot;
    glitch.lsid = key.second;
    glitch.value = e.lastValue ^ 1;
    glitch.state = ValState::Spec;
    glitch.wave = ++e.replyWave;
    glitch.depth = e.depth;
    glitch.echo = true;
    glitch.targets = e.targets;
    _reply(glitch);

    LoadReply fix = glitch;
    fix.when = glitch.when + 1;
    fix.value = e.lastValue;
    fix.wave = ++e.replyWave;
    _reply(fix);
    e.lastReplyWhen = fix.when;
}

bool
LoadStoreQueue::blockMemFinal(DynBlockSeq seq) const
{
    auto it = _blocks.find(seq);
    panic_if(it == _blocks.end(), "blockMemFinal on unknown seq");
    for (Lsid l = 0; l < it->second.ops.size(); ++l) {
        const MemEntry &e = it->second.ops[l];
        if (e.isStore) {
            if (!e.resolved)
                return false;
            if (_spec && (e.state != ValState::Final ||
                          e.addrSt != ValState::Final)) {
                return false;
            }
        } else {
            if (!e.performed || e.waiting)
                return false;
            if (_spec && e.lastState != ValState::Final)
                return false;
        }
    }
    return true;
}

void
LoadStoreQueue::commitBlock(Cycle now, DynBlockSeq seq)
{
    auto it = _blocks.find(seq);
    panic_if(it == _blocks.end(), "commit of unknown seq");
    panic_if(it != _blocks.begin(),
             "commit of seq %llu but older blocks are in flight",
             static_cast<unsigned long long>(seq));
    panic_if(!blockMemFinal(seq), "commit of non-final block");

    for (Lsid l = 0; l < it->second.ops.size(); ++l) {
        const MemEntry &e = it->second.ops[l];
        if (!e.isStore)
            continue;
        _mem->write(e.addr, e.bytes, e.data);
        (void)_hier->dataWrite(now, e.addr); // drain occupancy
        _nonFinalStores.erase({seq, l});
    }
    for (Lsid l = 0; l < it->second.ops.size(); ++l) {
        _specLoads.erase({seq, l});
        _waitingLoads.erase({seq, l});
    }
    _blocks.erase(it);
    if (_check)
        _check->onBlockRetired(seq);
}

std::string
LoadStoreQueue::debugState() const
{
    std::string out;
    for (const auto &[seq, be] : _blocks) {
        for (Lsid l = 0; l < be.ops.size(); ++l) {
            const MemEntry &e = be.ops[l];
            if (e.isStore) {
                if (e.resolved && e.addrSt == ValState::Final &&
                    e.state == ValState::Final)
                    continue;
                out += strfmt("  st seq=%llu lsid=%u resolved=%d "
                              "addrFinal=%d dataFinal=%d\n",
                              (unsigned long long)seq, l, e.resolved,
                              e.addrSt == ValState::Final,
                              e.state == ValState::Final);
            } else {
                if (e.performed && !e.waiting &&
                    e.lastState == ValState::Final)
                    continue;
                out += strfmt("  ld seq=%llu lsid=%u performed=%d "
                              "waiting=%d deferred=%d addrFinal=%d "
                              "final=%d\n",
                              (unsigned long long)seq, l, e.performed,
                              e.waiting, e.deferred,
                              e.addrState == ValState::Final,
                              e.lastState == ValState::Final);
            }
        }
    }
    return out;
}

void
LoadStoreQueue::flushFrom(DynBlockSeq from_seq)
{
    auto it = _blocks.lower_bound(from_seq);
    _blocks.erase(it, _blocks.end());

    auto prune = [&](std::set<MemKey> &set) {
        auto first = set.lower_bound({from_seq, 0});
        set.erase(first, set.end());
    };
    prune(_nonFinalStores);
    prune(_specLoads);
    prune(_waitingLoads);

    _policy->onFlush(from_seq);
    if (_check)
        _check->onFlushFrom(from_seq);
}

} // namespace edge::lsq
