#include "lsq/lsq.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "predictor/oracle.hh" // rangesOverlap

namespace edge::lsq {

using pred::rangesOverlap;

namespace {

/** The LSIDs below `n`: a block's entries older than LSID `n`. */
constexpr std::uint32_t
lowMask(unsigned n)
{
    return n >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << n) - 1;
}

void
setBit(std::uint32_t &mask, Lsid lsid, bool on)
{
    std::uint32_t bit = std::uint32_t{1} << lsid;
    mask = on ? mask | bit : mask & ~bit;
}

Lsid
lowestLsid(std::uint32_t mask)
{
    return static_cast<Lsid>(std::countr_zero(mask));
}

} // namespace

LoadStoreQueue::LoadStoreQueue(const LsqParams &params,
                               unsigned num_frames,
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
      _blocks(num_frames),
      _order(num_frames),
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
    for (unsigned f = 0; f < num_frames; ++f)
        _blocks[f].frame = f;
}

LoadStoreQueue::BlockEntry *
LoadStoreQueue::liveBlock(unsigned frame, DynBlockSeq seq)
{
    panic_if(frame >= _blocks.size(), "LSQ frame %u out of range", frame);
    BlockEntry &be = _blocks[frame];
    return be.seq == seq ? &be : nullptr;
}

BlockId
LoadStoreQueue::blockIdOf(unsigned frame, DynBlockSeq seq) const
{
    const BlockEntry &be = _blocks[frame];
    return be.seq == seq ? be.blockId : kInvalidBlock;
}

void
LoadStoreQueue::syncStore(BlockEntry &be, Lsid lsid)
{
    const MemEntry &e = be.ops[lsid];
    setBit(be.resolved, lsid, e.resolved);
    setBit(be.addrPending, lsid,
           !e.resolved || e.addrSt != ValState::Final);
    setBit(be.dataSpec, lsid, !e.resolved || e.state != ValState::Final);
}

void
LoadStoreQueue::syncLoad(BlockEntry &be, Lsid lsid)
{
    const MemEntry &e = be.ops[lsid];
    setBit(be.performed, lsid, e.performed);
    setBit(be.waiting, lsid, e.waiting);
    setBit(be.specLoads, lsid,
           e.performed && e.lastState != ValState::Final);
}

void
LoadStoreQueue::updateFrontier()
{
    _frontier = {kInvalidSeq, 0};
    for (unsigned i = 0; i < _order.size(); ++i) {
        const BlockEntry &be = _blocks[_order[i]];
        if (be.addrPending) {
            _frontier = {be.seq, lowestLsid(be.addrPending)};
            return;
        }
    }
}

template <typename Pick, typename Fn>
void
LoadStoreQueue::forEachOlder(DynBlockSeq seq, Lsid lsid, Pick pick,
                             Fn fn) const
{
    for (unsigned i = 0; i < _order.size(); ++i) {
        const BlockEntry &be = _blocks[_order[i]];
        if (be.seq > seq)
            return;
        LsidMask m = pick(be);
        if (be.seq == seq)
            m &= lowMask(lsid);
        for (; m; m &= m - 1) {
            if (!fn(be, lowestLsid(m)))
                return;
        }
    }
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
LoadStoreQueue::mapBlock(unsigned frame, DynBlockSeq seq,
                         std::uint64_t arch_idx, BlockId block_id,
                         const isa::Block &block)
{
    panic_if(frame >= _blocks.size(), "LSQ frame %u out of range", frame);
    BlockEntry &be = _blocks[frame];
    panic_if(be.seq != 0, "block seq %llu mapped into occupied frame %u",
             static_cast<unsigned long long>(seq), frame);
    panic_if(seq == 0 ||
                 (!_order.empty() && seq <= _blocks[_order.back()].seq),
             "block seq %llu mapped out of order",
             static_cast<unsigned long long>(seq));
    be.seq = seq;
    be.archIdx = arch_idx;
    be.blockId = block_id;
    be.ops.assign(block.numMemOps(), MemEntry{});
    be.loads = be.stores = be.resolved = 0;
    be.performed = be.specLoads = be.waiting = 0;
    for (std::size_t s = 0; s < block.insts().size(); ++s) {
        const auto &in = block.insts()[s];
        if (!isa::isMem(in.op))
            continue;
        MemEntry &e = be.ops[in.lsid];
        e.isStore = isa::isStore(in.op);
        e.bytes = isa::opInfo(in.op).accessBytes;
        e.slot = static_cast<SlotId>(s);
        if (e.isStore) {
            be.stores |= LsidMask{1} << in.lsid;
            _policy->onStoreMapped(seq, block_id, in.lsid);
        } else {
            be.loads |= LsidMask{1} << in.lsid;
            e.dep = _policy->onLoadMapped(seq, block_id, in.lsid);
        }
        if (_check)
            _check->onMemOpMapped(seq, in.lsid, e.isStore, e.bytes);
    }
    be.addrPending = be.dataSpec = be.stores;
    _order.push_back(frame);
    updateFrontier();
}

const std::vector<pred::UnresolvedStore> &
LoadStoreQueue::olderUnresolved(DynBlockSeq seq, Lsid lsid) const
{
    std::vector<pred::UnresolvedStore> &out = _olderScratch;
    out.clear();
    // Unresolved stores are a subset of the frontier's stores.
    if (MemKey{seq, lsid} < _frontier)
        return out;
    forEachOlder(
        seq, lsid,
        [](const BlockEntry &b) { return b.stores & ~b.resolved; },
        [&](const BlockEntry &b, Lsid l) {
            out.push_back({b.seq, b.archIdx, b.blockId, l});
            return true;
        });
    return out;
}

Word
LoadStoreQueue::computeLoadValue(const BlockEntry &be, Lsid lsid,
                                 bool *from_mem) const
{
    const MemEntry &e = be.ops[lsid];
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
    unsigned covered = 0; ///< bit i: byte i comes from a store
    forEachOlder(
        be.seq, lsid, [](const BlockEntry &b) { return b.resolved; },
        [&](const BlockEntry &b, Lsid l) {
            const MemEntry &st = b.ops[l];
            if (!rangesOverlap(st.addr, st.bytes, e.addr, e.bytes))
                return true;
            for (unsigned i = 0; i < e.bytes; ++i) {
                Addr a = e.addr + i;
                if (a < st.addr || a >= st.addr + st.bytes)
                    continue;
                covered |= 1u << i;
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
            return true;
        });
    if (from_mem)
        *from_mem = covered != (1u << e.bytes) - 1;
    return value;
}

bool
LoadStoreQueue::loadIsFinal(const BlockEntry &be, Lsid lsid) const
{
    if (!_spec)
        return true;
    const MemEntry &e = be.ops[lsid];
    if (e.addrState != ValState::Final)
        return false;
    // A load is final when no older store can still change it:
    // every older store must be resolved with a Final address (the
    // load is older than the frontier), and the ones that actually
    // overlap must have Final data too.
    if (!(MemKey{be.seq, lsid} < _frontier))
        return false;
    bool final_now = true;
    forEachOlder(
        be.seq, lsid, [](const BlockEntry &b) { return b.dataSpec; },
        [&](const BlockEntry &b, Lsid l) {
            const MemEntry &st = b.ops[l];
            final_now = !rangesOverlap(st.addr, st.bytes, e.addr, e.bytes);
            return final_now;
        });
    return final_now;
}

void
LoadStoreQueue::loadRequest(
    Cycle now, unsigned frame, DynBlockSeq seq, Lsid lsid, Addr addr,
    ValState addr_state, std::uint32_t wave, std::uint16_t depth)
{
    BlockEntry *be = liveBlock(frame, seq);
    if (!be)
        return; // flushed block: stale message, drop
    panic_if(lsid >= be->ops.size(), "LSID %u out of range", lsid);
    MemEntry &e = be->ops[lsid];
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
    e.depth = depth;

    if (_check)
        _check->onLoadAddr(seq, lsid, e.addr, e.addrState);

    if (!e.performed) {
        if (e.waiting && !addr_changed) {
            // Address state upgrade while held: nothing to do yet.
            return;
        }
        tryIssueLoad(now, *be, lsid);
        return;
    }

    // Re-execution of the load's address (a DSRE wave upstream) or
    // an address state upgrade: recompute and resend as needed.
    Word v = computeLoadValue(*be, lsid);
    bool final_now = loadIsFinal(*be, lsid);
    if (v != e.lastValue) {
        if (final_now) {
            // A final correction is mandatory: this may be the last
            // event that can ever finalise this load, so it bypasses
            // the resend budget (it IS the commit wave).
            e.deferred = false;
            ++_resends;
            performLoad(now, *be, lsid, true, depth);
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
        performLoad(now, *be, lsid, true, depth);
    } else if (final_now && e.lastState != ValState::Final) {
        ++_upgrades;
        e.deferred = false;
        performLoad(now, *be, lsid, true, depth);
    }
}

void
LoadStoreQueue::tryIssueLoad(Cycle now, BlockEntry &be, Lsid lsid)
{
    MemEntry &e = be.ops[lsid];
    const std::vector<pred::UnresolvedStore> &older =
        olderUnresolved(be.seq, lsid);
    pred::LoadQuery q;
    q.seq = be.seq;
    q.archIdx = be.archIdx;
    q.block = be.blockId;
    q.lsid = lsid;
    q.addr = e.addr;
    q.bytes = e.bytes;
    q.olderUnresolved = &older;
    q.dep = e.dep;
    auto hold_key = std::make_pair(be.archIdx, lsid);
    if (_replayHolds.count(hold_key)) {
        if (!older.empty()) {
            if (!e.waiting) {
                e.waiting = true;
                ++_replayWaits;
                syncLoad(be, lsid);
            }
            return;
        }
        _replayHolds.erase(hold_key);
    }
    if (_policy->loadMustWait(q)) {
        if (!e.waiting) {
            e.waiting = true;
            ++_policyHolds;
            syncLoad(be, lsid);
        }
        return;
    }
    if (e.waiting) {
        e.waiting = false;
        syncLoad(be, lsid);
    }
    performLoad(now, be, lsid, false, e.depth);
}

void
LoadStoreQueue::performLoad(Cycle now, BlockEntry &be, Lsid lsid,
                            bool is_resend, std::uint16_t depth)
{
    MemEntry &e = be.ops[lsid];
    // Does any byte come from memory (vs pure store forwarding)?
    bool any_from_mem = false;
    Word value = computeLoadValue(be, lsid, &any_from_mem);
    bool final_now = loadIsFinal(be, lsid);
    // Commit-wave upgrades carry the same value: the LSQ re-sends it
    // without re-accessing the data cache.
    bool value_unchanged = e.performed && value == e.lastValue;

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
            pr.seq = be.seq;
            pr.frame = be.frame;
            pr.slot = e.slot;
            pr.lsid = lsid;
            pr.value = guess;
            pr.state = ValState::Spec; // a guess is never final
            pr.wave = ++e.replyWave;
            pr.depth = depth;
            // A confirmation (guess == real value) deliberately
            // repeats the value on the next wave; exempt it from the
            // value-identity-squash invariant.
            pr.echo = true;
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
    syncLoad(be, lsid);

    LoadReply r;
    r.when = done;
    r.addr = e.addr;
    r.seq = be.seq;
    r.frame = be.frame;
    r.slot = e.slot;
    r.lsid = lsid;
    r.value = value;
    r.state = e.lastState;
    r.wave = ++e.replyWave;
    r.depth = static_cast<std::uint16_t>(is_resend ? depth + 1 : depth);
    r.statusOnly = value_unchanged;
    if (_check)
        _check->onLoadReply(r.when, r.seq, r.lsid, r.value, r.state,
                            r.echo);
    _reply(r);
}

void
LoadStoreQueue::storeResolve(Cycle now, unsigned frame, DynBlockSeq seq,
                             Lsid lsid, Addr addr, Word data,
                             ValState addr_state, ValState data_state,
                             std::uint32_t wave, std::uint16_t depth)
{
    // Chaos: hold the store's resolution at the bank entrance for a
    // few cycles, widening the speculation window of younger loads.
    if (_chaos)
        now += _chaos->storeResolveDelay();

    BlockEntry *be = liveBlock(frame, seq);
    if (!be)
        return; // flushed block: stale message, drop
    panic_if(lsid >= be->ops.size(), "LSID %u out of range", lsid);
    MemEntry &e = be->ops[lsid];
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

    LsidMask pending_before = be->addrPending;
    LsidMask data_spec_before = be->dataSpec;
    syncStore(*be, lsid);
    if (be->addrPending != pending_before)
        updateFrontier();
    // Loads can only become final when a store's address or data does
    // (see sweepFinality).
    bool store_finalised = be->addrPending != pending_before ||
                           be->dataSpec != data_spec_before;

    if (_check)
        _check->onStoreState(seq, lsid, e.addr, e.data, e.state,
                             e.addrSt);

    _policy->onStoreResolved(seq, be->blockId, lsid);

    // A flush-recovery violation inside storeChanged may squash this
    // very block; nothing below touches `be` or `e`.
    if (changed)
        storeChanged(now, frame, {seq, lsid}, old_addr, old_bytes,
                     had_old, depth);

    // Re-query loads held back by the policy: the store landscape
    // just changed. (Snapshot first: tryIssueLoad mutates the masks.)
    _waitingScratch.clear();
    for (unsigned i = 0; i < _order.size(); ++i) {
        const BlockEntry &b = _blocks[_order[i]];
        for (LsidMask m = b.waiting; m; m &= m - 1)
            _waitingScratch.push_back({b.frame, {b.seq, lowestLsid(m)}});
    }
    for (const auto &[wf, wk] : _waitingScratch) {
        BlockEntry *wb = liveBlock(wf, wk.first);
        if (!wb)
            continue; // flushed meanwhile
        tryIssueLoad(now, *wb, wk.second);
    }

    if (store_finalised)
        sweepFinality(now);

    if (_chaos && _spec)
        injectSpuriousWave(now);
}

void
LoadStoreQueue::storeChanged(Cycle now, unsigned store_frame,
                             MemKey store_key, Addr old_addr,
                             unsigned old_bytes, bool had_old,
                             std::uint16_t depth)
{
    const MemEntry &st = _blocks[store_frame].ops[store_key.second];
    std::vector<Hit> &hits = _hitsScratch;
    hits.clear();

    // Younger performed loads, in (seq, lsid) order.
    for (unsigned i = 0; i < _order.size(); ++i) {
        BlockEntry &be = _blocks[_order[i]];
        if (be.seq < store_key.first)
            continue;
        LsidMask m = be.performed;
        if (be.seq == store_key.first)
            m &= ~lowMask(store_key.second + 1u);
        for (; m; m &= m - 1) {
            Lsid l = lowestLsid(m);
            const MemEntry &ld = be.ops[l];
            bool overlap_new =
                rangesOverlap(st.addr, st.bytes, ld.addr, ld.bytes);
            bool overlap_old =
                had_old &&
                rangesOverlap(old_addr, old_bytes, ld.addr, ld.bytes);
            if (!overlap_new && !overlap_old)
                continue;
            Word v = computeLoadValue(be, l);
            bool value_changed = v != ld.lastValue;
            bool addr_hit = overlap_new && _p.addrBasedViolations &&
                            _p.recovery == Recovery::Flush;
            if (value_changed || addr_hit)
                hits.push_back({be.frame, {be.seq, l}, value_changed});
        }
    }

    for (const Hit &hit : hits) {
        BlockEntry *hb = liveBlock(hit.frame, hit.key.first);
        if (!hb)
            continue; // flushed by an earlier hit in this batch
        MemEntry &ld = hb->ops[hit.key.second];

        ++_violations;
        _violationDistance.sample(hit.key.first - store_key.first);
        _policy->onViolation(hb->blockId, hit.key.second,
                             blockIdOf(store_frame, store_key.first),
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
                    performLoad(now, *hb, hit.key.second, true, depth);
                }
            }
        } else {
            // Forward-progress guarantee: replay this dynamic load
            // conservatively after the flush (see _replayHolds).
            _replayHolds.emplace(hb->archIdx, hit.key.second);
            Violation v;
            v.loadSeq = hit.key.first;
            v.loadFrame = hit.frame;
            v.loadBlock = hb->blockId;
            v.loadLsid = hit.key.second;
            v.storeSeq = store_key.first;
            v.storeBlock = blockIdOf(store_frame, store_key.first);
            v.storeLsid = store_key.second;
            _violation(v);
            // The flush removed this load's block and everything
            // younger; the remaining hits that survived are handled
            // on the next iteration (liveBlock guards stale keys).
        }
    }
}

void
LoadStoreQueue::sweepFinality(Cycle now)
{
    if (!_spec)
        return;
    // Only loads older than the frontier can be final. performLoad
    // clears the bit of the load it finalises and never reorders the
    // window, so walking a per-block snapshot of the mask is safe.
    for (unsigned i = 0; i < _order.size(); ++i) {
        BlockEntry &be = _blocks[_order[i]];
        if (be.seq > _frontier.first)
            break;
        LsidMask m = be.specLoads;
        if (be.seq == _frontier.first)
            m &= lowMask(_frontier.second);
        for (; m; m &= m - 1) {
            Lsid l = lowestLsid(m);
            MemEntry &e = be.ops[l];
            if (!loadIsFinal(be, l))
                continue;
            Word v = computeLoadValue(be, l);
            panic_if(v != e.lastValue && !e.deferred,
                     "finality sweep found a changed value that no "
                     "store event reported (seq %llu lsid %u)",
                     static_cast<unsigned long long>(be.seq), l);
            if (v != e.lastValue)
                ++_resends;
            else
                ++_upgrades;
            e.deferred = false;
            performLoad(now, be, l, true, e.depth);
        }
    }
}

void
LoadStoreQueue::injectSpuriousWave(Cycle now)
{
    std::size_t spec_loads = 0;
    for (unsigned i = 0; i < _order.size(); ++i)
        spec_loads += std::popcount(_blocks[_order[i]].specLoads);
    if (spec_loads == 0 || !_chaos->spuriousViolation())
        return;
    // The k-th Spec load in (seq, lsid) order.
    std::size_t k = _chaos->pickIndex(spec_loads);
    unsigned i = 0;
    for (;; ++i) {
        auto n = static_cast<std::size_t>(
            std::popcount(_blocks[_order[i]].specLoads));
        if (k < n)
            break;
        k -= n;
    }
    BlockEntry &be = _blocks[_order[i]];
    LsidMask m = be.specLoads;
    for (; k; --k)
        m &= m - 1;
    Lsid lsid = lowestLsid(m);
    MemEntry &e = be.ops[lsid];
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
    glitch.seq = be.seq;
    glitch.frame = be.frame;
    glitch.slot = e.slot;
    glitch.lsid = lsid;
    glitch.value = e.lastValue ^ 1;
    glitch.state = ValState::Spec;
    glitch.wave = ++e.replyWave;
    glitch.depth = e.depth;
    glitch.echo = true;
    _reply(glitch);

    LoadReply fix = glitch;
    fix.when = glitch.when + 1;
    fix.value = e.lastValue;
    fix.wave = ++e.replyWave;
    _reply(fix);
    e.lastReplyWhen = fix.when;
}

bool
LoadStoreQueue::blockMemFinal(unsigned frame) const
{
    panic_if(frame >= _blocks.size() || _blocks[frame].seq == 0,
             "blockMemFinal on an empty frame");
    const BlockEntry &be = _blocks[frame];
    // Stores resolved with Final address and data (flush recovery
    // makes both Final on resolution), loads performed (a load held
    // by the policy has not) and replied Final.
    return (be.addrPending | be.dataSpec | be.specLoads |
            (be.loads & ~be.performed)) == 0;
}

void
LoadStoreQueue::commitBlock(Cycle now, unsigned frame)
{
    panic_if(frame >= _blocks.size() || _blocks[frame].seq == 0,
             "commit of an empty frame");
    BlockEntry &be = _blocks[frame];
    panic_if(_order.front() != frame,
             "commit of seq %llu but older blocks are in flight",
             static_cast<unsigned long long>(be.seq));
    panic_if(!blockMemFinal(frame), "commit of non-final block");

    for (LsidMask m = be.stores; m; m &= m - 1) {
        const MemEntry &e = be.ops[lowestLsid(m)];
        _mem->write(e.addr, e.bytes, e.data);
        (void)_hier->dataWrite(now, e.addr); // drain occupancy
    }
    DynBlockSeq seq = be.seq;
    be.seq = 0;
    _order.pop_front();
    // A final block holds no pending store, so the frontier stays.
    if (_check)
        _check->onBlockRetired(seq);
}

std::string
LoadStoreQueue::debugState() const
{
    std::string out;
    for (unsigned i = 0; i < _order.size(); ++i) {
        const BlockEntry &be = _blocks[_order[i]];
        for (Lsid l = 0; l < be.ops.size(); ++l) {
            const MemEntry &e = be.ops[l];
            if (e.isStore) {
                if (e.resolved && e.addrSt == ValState::Final &&
                    e.state == ValState::Final)
                    continue;
                out += strfmt("  st seq=%llu lsid=%u resolved=%d "
                              "addrFinal=%d dataFinal=%d\n",
                              (unsigned long long)be.seq, l, e.resolved,
                              e.addrSt == ValState::Final,
                              e.state == ValState::Final);
            } else {
                if (e.performed && !e.waiting &&
                    e.lastState == ValState::Final)
                    continue;
                out += strfmt("  ld seq=%llu lsid=%u performed=%d "
                              "waiting=%d deferred=%d addrFinal=%d "
                              "final=%d\n",
                              (unsigned long long)be.seq, l, e.performed,
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
    while (!_order.empty() && _blocks[_order.back()].seq >= from_seq) {
        _blocks[_order.back()].seq = 0;
        _order.pop_back();
    }
    updateFrontier();

    _policy->onFlush(from_seq);
    if (_check)
        _check->onFlushFrom(from_seq);
}

} // namespace edge::lsq
