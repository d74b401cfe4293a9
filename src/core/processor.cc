#include "core/processor.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edge::core {

Processor::Processor(const MachineConfig &config,
                     const isa::Program &program,
                     const pred::OracleDb *oracle, StatSet &stats,
                     const ProgramImage *image)
    : _cfg(config),
      _prog(program),
      _oracle(oracle),
      _stats(stats),
      _trace(config.traceDepth),
      _inflight(config.core.numFrames),
      _statCommittedBlocks(stats.counter("core.committed_blocks",
                                         "blocks committed")),
      _statCommittedInsts(stats.counter("core.committed_insts",
                                        "instructions committed")),
      _statCtrlFlushes(stats.counter("core.ctrl_flushes",
                                     "flushes from exit mispredicts")),
      _statViolFlushes(stats.counter(
          "core.viol_flushes", "flushes from dependence violations")),
      _statFetchedBlocks(stats.counter("core.fetched_blocks",
                                       "blocks fetched and mapped"))
{
    fatal_if(_cfg.core.numNodes() * _cfg.core.slotsPerNode <
                 isa::kMaxBlockInsts,
             "grid capacity below the maximum block size");
    fatal_if(_cfg.policy == pred::DepPolicy::Oracle && !oracle,
             "the oracle policy needs an OracleDb");

    if (image) {
        // The shared image already validated the program and caches
        // layouts per geometry; skip the per-Processor work.
        fatal_if(&image->program() != &program,
                 "program image does not wrap this program");
    } else {
        _ownImage = std::make_unique<ProgramImage>(program);
        image = _ownImage.get();
    }
    _layout = &image->layout(
        {_cfg.core.rows, _cfg.core.cols, _cfg.core.slotsPerNode});

    _ctx.resize(_cfg.core.numFrames);
    _activeNodes.resize(_layout->maskWords, 0);

    for (const auto &init : program.memImage())
        _dmem.writeBytes(init.base, init.bytes.data(), init.bytes.size());

    if (_cfg.chaos.enabled() ||
        _cfg.chaos.mutation != chaos::Mutation::None) {
        _chaos = std::make_unique<chaos::ChaosEngine>(_cfg.chaos);
    }
    if (_cfg.checkInvariants) {
        _check = std::make_unique<chaos::InvariantChecker>(
            _cfg.core.squashIdenticalValues,
            _cfg.lsq.recovery == lsq::Recovery::Dsre,
            [this](Addr a, unsigned bytes) {
                return _dmem.read(a, bytes);
            });
    }

    _hier =
        std::make_unique<mem::Hierarchy>(_cfg.mem, stats, _chaos.get());

    // The register file is row 0, the LSQ / D-cache banks column 0;
    // node n sits at (n / cols + 1, n % cols + 1).
    const unsigned rows = _cfg.core.rows, cols = _cfg.core.cols;
    for (unsigned n = 0; n < _cfg.core.numNodes(); ++n)
        _nodeCoord.push_back({static_cast<std::uint16_t>(n / cols + 1),
                              static_cast<std::uint16_t>(n % cols + 1)});
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        _regCoord.push_back({0, static_cast<std::uint16_t>(r % cols + 1)});
    for (unsigned b = 0; b < _cfg.mem.numDBanks; ++b)
        _bankCoord.push_back({static_cast<std::uint16_t>(b % rows + 1), 0});

    net::MeshParams mp;
    mp.geom = {_cfg.core.rows + 1, _cfg.core.cols + 1};
    mp.hopLatency = _cfg.core.hopLatency;
    mp.chaos = _chaos.get();
    _mesh = std::make_unique<net::Mesh<Msg>>(mp, stats);
    net::MeshParams gp = mp;
    gp.statPrefix = "gcn";
    _gcn = std::make_unique<net::Mesh<Msg>>(gp, stats);

    _policy = pred::makeDependencePredictor(_cfg.policy, oracle, stats);
    _nbp = std::make_unique<pred::NextBlockPredictor>(_cfg.nbp, stats);

    _regs = std::make_unique<RegUnit>(_cfg.core, program.initRegs(),
                                      stats, &_regOut);

    _lsq = std::make_unique<lsq::LoadStoreQueue>(
        _cfg.lsq, _cfg.core.numFrames, _hier.get(), &_dmem,
        _policy.get(), stats,
        [this](const lsq::LoadReply &r) { routeLoadReply(r); },
        [this](const lsq::Violation &v) { onViolation(v); },
        _chaos.get(), _check.get());

    NodeStats ns{
        stats.counter("core.alu_issues", "ALU issues (all executions)"),
        stats.counter("core.alu_reexecs", "DSRE re-executions"),
        stats.counter("core.upgrades", "commit-wave upgrade sends"),
        stats.counter("core.squashes", "value-identity squashes"),
        stats.histogram("core.wave_depth",
                        "propagation depth of re-executions"),
    };
    _nodes.reserve(_cfg.core.numNodes());
    for (unsigned n = 0; n < _cfg.core.numNodes(); ++n)
        _nodes.emplace_back(_cfg.core, ns, &_nodeOut, _chaos.get(), n);

    for (unsigned f = 0; f < _cfg.core.numFrames; ++f)
        _freeFrames.push_back(_cfg.core.numFrames - 1 - f);
    _nextFetch = program.entry();
}

const std::vector<Word> &
Processor::archRegs() const
{
    return _regs->archRegs();
}

Addr
Processor::codeAddr(BlockId block) const
{
    // Code lives in its own region; a block occupies 512 bytes of
    // instruction storage (128 x 4 bytes) in the I-cache's eyes.
    return 0x40000000ull + static_cast<Addr>(block) * 512;
}

void
Processor::meshSend(Cycle when, net::Coord src, net::Coord dst,
                    const Msg &msg)
{
    if (msg.statusOnly)
        _gcn->send(when, src, dst, msg);
    else
        _mesh->send(when, src, dst, msg);
}

void
Processor::sendToTargets(
    Cycle when, net::Coord src, const BlockCtx &ctx,
    const std::array<isa::Target, isa::kMaxTargets> &targets, Word value,
    ValState state, std::uint32_t wave, std::uint16_t depth,
    bool status_only, bool echo)
{
    for (const isa::Target &t : targets) {
        if (!t.valid())
            continue;
        Msg m;
        m.frame = static_cast<std::uint16_t>(ctx.frame);
        m.seq = ctx.seq;
        m.value = value;
        m.state = state;
        m.wave = wave;
        m.depth = depth;
        m.statusOnly = status_only;
        m.echo = echo;
        if (t.kind == isa::TargetKind::Operand) {
            m.kind = Msg::Kind::Operand;
            m.slot = t.index;
            m.operand = t.operand;
            unsigned node = ctx.nodeOf[t.index];
            meshSend(when, src, gridCoord(node), m);
        } else {
            m.kind = Msg::Kind::WriteVal;
            m.writeIdx = t.index;
            unsigned reg = ctx.block->writes()[t.index].reg;
            meshSend(when, src, rfCoord(reg), m);
        }
    }
}

void
Processor::routeNodeEvent(const NodeEvent &ev, unsigned node)
{
    net::Coord src = gridCoord(node);
    switch (ev.kind) {
      case NodeEvent::Kind::Result: {
        const BlockCtx &ctx = liveCtx(ev.frame, ev.seq);
        sendToTargets(ev.when, src, ctx,
                      ctx.block->insts()[ev.slot].targets, ev.value,
                      ev.state, ev.wave, ev.depth, ev.statusOnly, false);
        return;
      }
      case NodeEvent::Kind::LoadRequest: {
        Msg m;
        m.kind = Msg::Kind::LoadReq;
        m.frame = static_cast<std::uint16_t>(ev.frame);
        m.seq = ev.seq;
        m.slot = ev.slot;
        m.lsid = ev.lsid;
        m.addr = ev.addr;
        m.state = ev.state;
        m.wave = ev.wave;
        m.depth = ev.depth;
        m.statusOnly = ev.statusOnly;
        meshSend(ev.when, src, lsqCoord(ev.addr), m);
        return;
      }
      case NodeEvent::Kind::StoreResolve: {
        Msg m;
        m.kind = Msg::Kind::StoreResolve;
        m.frame = static_cast<std::uint16_t>(ev.frame);
        m.seq = ev.seq;
        m.slot = ev.slot;
        m.lsid = ev.lsid;
        m.addr = ev.addr;
        m.value = ev.value;
        m.state = ev.state;
        m.addrState = ev.addrState;
        m.wave = ev.wave;
        m.depth = ev.depth;
        m.statusOnly = ev.statusOnly;
        meshSend(ev.when, src, lsqCoord(ev.addr), m);
        return;
      }
      case NodeEvent::Kind::Exit: {
        Msg m;
        m.kind = Msg::Kind::ExitVal;
        m.frame = static_cast<std::uint16_t>(ev.frame);
        m.seq = ev.seq;
        m.value = ev.value;
        m.state = ev.state;
        m.wave = ev.wave;
        m.depth = ev.depth;
        m.statusOnly = ev.statusOnly;
        meshSend(ev.when, src, ctrlCoord(), m);
        return;
      }
    }
}

void
Processor::routeLoadReply(const lsq::LoadReply &reply)
{
    const BlockCtx &ctx = liveCtx(reply.frame, reply.seq);
    sendToTargets(reply.when, lsqCoord(reply.addr), ctx,
                  ctx.block->insts()[reply.slot].targets, reply.value,
                  reply.state, reply.wave, reply.depth, reply.statusOnly,
                  reply.echo);
}

void
Processor::routeRegForward(const RegForward &fwd)
{
    const BlockCtx &ctx = liveCtx(fwd.readerFrame, fwd.readerSeq);
    sendToTargets(fwd.when, rfCoord(fwd.reg), ctx,
                  ctx.block->reads()[fwd.readIdx].targets, fwd.value,
                  fwd.state, fwd.wave, fwd.depth, fwd.statusOnly, false);
}

bool
Processor::tickNode(unsigned n, Cycle now)
{
    bool did = _nodes[n].tick(now);
    for (const NodeEvent &ev : _nodeOut)
        routeNodeEvent(ev, n);
    _nodeOut.clear();
    return did;
}

void
Processor::routeRegForwards()
{
    for (const RegForward &fwd : _regOut)
        routeRegForward(fwd);
    _regOut.clear();
}

void
Processor::releaseFrame(const BlockCtx &ctx)
{
    const std::uint64_t *mask = _layout->nodeMask(ctx.blockId);
    for (unsigned w = 0; w < _layout->maskWords; ++w) {
        for (std::uint64_t bits = mask[w]; bits; bits &= bits - 1) {
            unsigned n = w * 64 +
                         static_cast<unsigned>(__builtin_ctzll(bits));
            _nodes[n].clearFrame(ctx.frame);
        }
    }
}

void
Processor::deliverMsg(Cycle now, const Msg &msg)
{
    _trace.push({now, chaos::TraceEvent::Kind::Deliver, msg.seq,
                 msg.slot, msg.wave, msg.value,
                 msg.state == ValState::Final});
    if (_check && findCtx(msg.frame, msg.seq)) {
        using Site = chaos::InvariantChecker::Delivery::Site;
        chaos::InvariantChecker::Delivery d;
        d.seq = msg.seq;
        d.value = msg.value;
        d.addr = msg.addr;
        d.state = msg.state;
        d.addrState = msg.addrState;
        d.wave = msg.wave;
        d.statusOnly = msg.statusOnly;
        d.echo = msg.echo;
        d.cycle = now;
        switch (msg.kind) {
          case Msg::Kind::Operand:
            d.site = Site::NodeOperand;
            d.a = msg.slot;
            d.b = msg.operand;
            break;
          case Msg::Kind::WriteVal:
            d.site = Site::RegWrite;
            d.a = msg.writeIdx;
            break;
          case Msg::Kind::LoadReq:
            d.site = Site::LsqLoad;
            d.a = msg.lsid;
            break;
          case Msg::Kind::StoreResolve:
            d.site = Site::LsqStore;
            d.a = msg.lsid;
            break;
          case Msg::Kind::ExitVal:
            d.site = Site::Exit;
            break;
        }
        _check->onDelivery(d);
    }
    switch (msg.kind) {
      case Msg::Kind::Operand: {
        BlockCtx *ctx = findCtx(msg.frame, msg.seq);
        if (!ctx)
            return; // flushed
        unsigned node = ctx->nodeOf[msg.slot];
        _nodes[node].deliver(ctx->frame, ctx->localIdx[msg.slot],
                              msg.operand, msg.value, msg.state,
                              msg.wave, msg.depth);
        markActive(node);
        return;
      }
      case Msg::Kind::WriteVal:
        _regs->writeArrived(now, msg.frame, msg.seq, msg.writeIdx,
                            msg.value, msg.state, msg.wave, msg.depth);
        routeRegForwards();
        return;
      case Msg::Kind::LoadReq:
        _lsq->loadRequest(now, msg.frame, msg.seq, msg.lsid, msg.addr,
                          msg.state, msg.wave, msg.depth);
        return;
      case Msg::Kind::StoreResolve:
        _lsq->storeResolve(now, msg.frame, msg.seq, msg.lsid, msg.addr,
                           msg.value, msg.addrState, msg.state,
                           msg.wave, msg.depth);
        return;
      case Msg::Kind::ExitVal:
        handleExit(now, msg);
        return;
    }
}

void
Processor::handleExit(Cycle now, const Msg &msg)
{
    BlockCtx *ctx = findCtx(msg.frame, msg.seq);
    if (!ctx)
        return; // flushed
    if (msg.wave <= ctx->exitWave)
        return; // stale wave
    ctx->exitWave = msg.wave;

    bool value_changed = !ctx->exitSeen || ctx->exitValue != msg.value;
    panic_if(ctx->exitSeen && ctx->exitState == ValState::Final &&
                 value_changed,
             "protocol violation: Final exit changed value");
    ctx->exitSeen = true;
    ctx->exitValue = msg.value;
    if (msg.state == ValState::Final)
        ctx->exitState = ValState::Final;

    unsigned actual = static_cast<unsigned>(
        ctx->exitValue % ctx->block->exits().size());
    if (actual == ctx->fetchedExit)
        return; // the fetch chain already follows this exit

    // Control misspeculation: the DSRE protocol cannot selectively
    // re-execute across a wrong control edge, so flush younger.
    ++_statCtrlFlushes;
    DynBlockSeq seq = ctx->seq;
    std::uint64_t arch_idx = ctx->archIdx;
    std::uint64_t snapshot = ctx->historySnapshot;
    BlockId succ = ctx->block->exits()[actual];

    flushFrom(seq + 1);
    // flushFrom squashes strictly younger blocks: ctx's frame slot
    // still holds this block.
    ctx->fetchedExit = actual;

    _nbp->restoreHistory(snapshot);
    _nbp->pushSpeculativeHistory(actual);
    redirectFetch(succ, arch_idx + 1);
}

void
Processor::onViolation(const lsq::Violation &violation)
{
    // Only flush recovery routes violations here (DSRE re-sends).
    BlockCtx *ctx = findCtx(violation.loadFrame, violation.loadSeq);
    if (!ctx)
        return; // already squashed by an earlier violation
    _trace.push({_cycle, chaos::TraceEvent::Kind::Violation,
                 violation.loadSeq, violation.loadLsid});
    ++_statViolFlushes;
    BlockId blk = ctx->blockId;
    std::uint64_t arch_idx = ctx->archIdx;
    _nbp->restoreHistory(ctx->historySnapshot);
    flushFrom(violation.loadSeq);
    redirectFetch(blk, arch_idx);
}

void
Processor::flushFrom(DynBlockSeq from_seq)
{
    _trace.push({_cycle, chaos::TraceEvent::Kind::Flush, from_seq});
    while (!_inflight.empty() &&
           _ctx[_inflight.back()].seq >= from_seq) {
        BlockCtx &ctx = _ctx[_inflight.back()];
        releaseFrame(ctx);
        _freeFrames.push_back(ctx.frame);
        ctx.seq = 0;
        _inflight.pop_back();
    }
    _lsq->flushFrom(from_seq);
    _regs->flushFrom(from_seq);
    _fetchBusy = false; // cancel any in-progress fetch
    _fetchHalted = false;
}

void
Processor::redirectFetch(BlockId next, std::uint64_t arch_idx)
{
    if (next == isa::kHaltBlock) {
        _fetchHalted = true;
        return;
    }
    _nextFetch = next;
    _nextArchIdx = arch_idx;
    _fetchHalted = false;
}

bool
Processor::fetchTick(Cycle now)
{
    if (_halted)
        return false;
    if (_fetchBusy) {
        if (now >= _fetchReady && !_freeFrames.empty()) {
            mapFetchedBlock(now);
            return true;
        }
        return false;
    }
    if (_fetchHalted || _freeFrames.empty())
        return false;
    _fetchBlock = _nextFetch;
    _fetchBusy = true;
    Cycle ic = _hier->instFetch(now, codeAddr(_fetchBlock));
    auto n = static_cast<unsigned>(
        _prog.block(_fetchBlock).insts().size());
    _fetchReady =
        ic + (n + _cfg.core.fetchWidth - 1) / _cfg.core.fetchWidth;
    return true;
}

void
Processor::mapFetchedBlock(Cycle now)
{
    unsigned frame = _freeFrames.back();
    _freeFrames.pop_back();

    BlockId bid = _fetchBlock;
    const isa::Block &b = _prog.block(bid);

    BlockCtx &ctx = _ctx[frame];
    ctx = BlockCtx{};
    ctx.seq = _nextSeq++;
    ctx.blockId = bid;
    ctx.archIdx = _nextArchIdx++;
    ctx.frame = frame;
    ctx.block = &b;
    ctx.nodeOf = _layout->placements[bid].nodeOf.data();
    ctx.localIdx = _layout->localOf[bid].data();

    for (std::size_t s = 0; s < b.insts().size(); ++s) {
        _nodes[ctx.nodeOf[s]].mapInst(
            frame, ctx.localIdx[s], ctx.seq, static_cast<SlotId>(s),
            b.insts()[s]);
    }
    const std::uint64_t *mask = _layout->nodeMask(bid);
    for (unsigned w = 0; w < _layout->maskWords; ++w)
        _activeNodes[w] |= mask[w];

    unsigned e = std::min<unsigned>(
        _nbp->predict(bid),
        static_cast<unsigned>(b.exits().size()) - 1);
    ctx.predictedExit = ctx.fetchedExit = e;
    ctx.historySnapshot = _nbp->pushSpeculativeHistory(e);

    BlockId succ = b.exits()[e];
    // The context must be visible before the LSQ / register unit
    // map the block: register reads can forward immediately.
    _inflight.push_back(frame);
    ++_statFetchedBlocks;
    _lsq->mapBlock(frame, ctx.seq, ctx.archIdx, bid, b);
    _regs->mapBlock(now, frame, ctx.seq, b);
    routeRegForwards();

    if (succ == isa::kHaltBlock)
        _fetchHalted = true;
    else
        _nextFetch = succ;
    _fetchBusy = false;
}

bool
Processor::commitTick(Cycle now)
{
    if (_inflight.empty())
        return false;
    BlockCtx &ctx = _ctx[_inflight.front()];
    bool need_final = _cfg.lsq.recovery == lsq::Recovery::Dsre;

    bool exit_ok = ctx.exitSeen &&
                   (!need_final || ctx.exitState == ValState::Final);
    bool writes_ok = _regs->blockWritesFinal(ctx.frame, need_final);
    bool mem_ok = _lsq->blockMemFinal(ctx.frame);
    if (!exit_ok || !writes_ok || !mem_ok)
        return false;

    auto actual = static_cast<unsigned>(
        ctx.exitValue % ctx.block->exits().size());
    panic_if(actual != ctx.fetchedExit,
             "committing block whose exit disagrees with the fetch "
             "chain (exit %u vs %u)", actual, ctx.fetchedExit);

    if (_cfg.checkCommittedPath && _oracle &&
        ctx.archIdx < _oracle->numBlocks()) {
        panic_if(_oracle->blockAt(ctx.archIdx) != ctx.blockId,
                 "committed path diverges from the reference at "
                 "architectural block %llu",
                 static_cast<unsigned long long>(ctx.archIdx));
        panic_if(_oracle->exitAt(ctx.archIdx) != actual,
                 "committed exit diverges from the reference at "
                 "architectural block %llu",
                 static_cast<unsigned long long>(ctx.archIdx));
    }

    _nbp->update(ctx.blockId, actual, ctx.historySnapshot);
    _nbp->recordOutcome(actual == ctx.predictedExit);

    _regs->commitBlock(ctx.frame);
    _lsq->commitBlock(now, ctx.frame);
    releaseFrame(ctx);
    _freeFrames.push_back(ctx.frame);

    _trace.push({now, chaos::TraceEvent::Kind::Commit, ctx.seq, 0, 0,
                 ctx.exitValue, true});
    ++_statCommittedBlocks;
    _statCommittedInsts += ctx.block->insts().size();
    ++_committedBlocks;
    _committedInsts += ctx.block->insts().size();
    _lastCommit = now;

    BlockId succ = ctx.block->exits()[actual];
    ctx.seq = 0;
    _inflight.pop_front();

    if (succ == isa::kHaltBlock)
        _halted = true;
    return true;
}

std::string
Processor::machineDump(Cycle now)
{
    std::string dump = strfmt(
        "no commit for %llu cycles (cycle %llu); committed %llu; "
        "fetchBusy=%d fetchHalted=%d halted=%d freeFrames=%zu "
        "nextFetch=%u mesh=%zu; in flight:\n",
        static_cast<unsigned long long>(now - _lastCommit),
        static_cast<unsigned long long>(now),
        static_cast<unsigned long long>(_committedBlocks), _fetchBusy,
        _fetchHalted, _halted, _freeFrames.size(), _nextFetch,
        _mesh->inFlight());
    dump += strfmt("  fetchBlock=%u fetchReady=%llu\n", _fetchBlock,
                   static_cast<unsigned long long>(_fetchReady));
    for (unsigned i = 0; i < _inflight.size(); ++i) {
        const BlockCtx &ctx = _ctx[_inflight[i]];
        dump += strfmt(
            "  seq %llu block %u (%s) frame %u exitSeen=%d\n",
            static_cast<unsigned long long>(ctx.seq), ctx.blockId,
            ctx.block->name().c_str(), ctx.frame, ctx.exitSeen);
    }
    if (!_inflight.empty()) {
        const BlockCtx &o = _ctx[_inflight.front()];
        bool nf = _cfg.lsq.recovery == lsq::Recovery::Dsre;
        dump += strfmt(
            "oldest: exitSeen=%d exitFinal=%d writesOk=%d memOk=%d\n",
            o.exitSeen, o.exitState == ValState::Final,
            _regs->blockWritesFinal(o.frame, nf),
            _lsq->blockMemFinal(o.frame));
    }
    dump += strfmt("lsq non-final entries:\n%s",
                   _lsq->debugState().c_str());
    for (unsigned n = 0; n < _nodes.size(); ++n) {
        std::string s = _nodes[n].debugState();
        if (!s.empty())
            dump += strfmt("node %u:\n%s", n, s.c_str());
    }
    return dump;
}

chaos::SimError
Processor::watchdogDump(Cycle now)
{
    chaos::SimError err;
    err.reason = chaos::SimError::Reason::Watchdog;
    err.invariant = "commit-progress";
    err.message = "commit watchdog fired:\n" + machineDump(now);
    err.cycle = now;
    if (!_inflight.empty())
        err.seq = _ctx[_inflight.front()].seq;
    err.trace = _trace.snapshot();
    return err;
}

bool
Processor::wallDeadlineHit(Result &res)
{
    if (_cfg.wallDeadlineMs == 0)
        return false;
    // The clock read is amortised over 4096 *loop iterations*, not a
    // cycle-number mask: the loop skips cycle numbers, so a
    // `(_cycle & 0xfff) == 0` gate could be stepped over forever.
    if ((_wallPoll++ & 0xfff) != 0)
        return false;
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - _wallStart)
                       .count();
    if (static_cast<std::uint64_t>(elapsed) < _cfg.wallDeadlineMs)
        return false;
    res.error.reason = chaos::SimError::Reason::HostDeadline;
    res.error.message = strfmt(
        "host wall-clock deadline of %llu ms exceeded after %lld ms "
        "at cycle %llu",
        static_cast<unsigned long long>(_cfg.wallDeadlineMs),
        static_cast<long long>(elapsed),
        static_cast<unsigned long long>(_cycle));
    res.error.cycle = _cycle;
    res.error.trace = _trace.snapshot();
    return true;
}

Cycle
Processor::nextDeadline(Cycle next) const
{
    Cycle wake = ~Cycle{0};
    auto consider = [&](Cycle at) {
        if (at >= next)
            wake = std::min(wake, at);
    };
    // The watchdog fires the first cycle where now - lastCommit
    // exceeds the budget.
    consider(_lastCommit + _cfg.core.watchdogCycles + 1);
    if (_fetchBusy)
        consider(_fetchReady);
    return wake;
}

void
Processor::runCycles(Cycle max_cycles, Result &res)
{
    // Every cycle in which something can happen is either (a) a
    // mesh/GCN arrival cycle, (b) the cycle after an active one
    // (local state changed, so fetch/commit/nodes may act), or (c) one
    // of two deadlines: fetch completion or the watchdog fire. Every
    // other cycle is provably inert —
    // node ticks with no want-bits, fetch with no state change, commit
    // with unchanged finality have zero side effects — so jumping
    // over those cycles is observably identical to visiting each one
    // (see DESIGN.md "Cycle loop").
    while (!_halted && _cycle < max_cycles) {
        bool active = false;
        _mesh->deliver(_cycle, [this, &active](net::Coord, Msg &&m) {
            active = true;
            deliverMsg(_cycle, m);
        });
        _gcn->deliver(_cycle, [this, &active](net::Coord, Msg &&m) {
            active = true;
            deliverMsg(_cycle, m);
        });
        for (unsigned w = 0; w < _activeNodes.size(); ++w) {
            for (std::uint64_t bits = _activeNodes[w]; bits;
                 bits &= bits - 1) {
                unsigned n = w * 64 +
                             static_cast<unsigned>(__builtin_ctzll(bits));
                if (_nodes[n].hasWork())
                    active |= tickNode(n, _cycle);
                if (!_nodes[n].hasWork())
                    _activeNodes[w] &= ~(std::uint64_t{1} << (n & 63));
            }
        }
        if (fetchTick(_cycle))
            active = true;
        if (commitTick(_cycle))
            active = true;
        if (_cycle - _lastCommit > _cfg.core.watchdogCycles) {
            res.error = watchdogDump(_cycle);
            break;
        }
        if (wallDeadlineHit(res))
            break;

        Cycle next = _cycle + 1;
        if (!active) {
            Cycle wake = std::min(
                nextDeadline(next),
                std::min(_mesh->nextArrival(), _gcn->nextArrival()));
            next = std::max(next, std::min(wake, max_cycles));
        }
        _cycle = next;
    }
}

Processor::Result
Processor::run(Cycle max_cycles)
{
    Result res;
    _wallStart = std::chrono::steady_clock::now();
    _wallPoll = 0;
    // Graceful degradation: a watchdog timeout, a missed
    // wall-clock deadline, a protocol panic or an invariant-checker
    // failure stops the run and surfaces as a structured report
    // instead of aborting the process.
    try {
        runCycles(max_cycles, res);
    } catch (const chaos::InvariantFailure &f) {
        res.error.reason = chaos::SimError::Reason::InvariantViolation;
        res.error.invariant = f.invariant();
        res.error.message = f.what();
        res.error.cycle = f.cycle();
        res.error.seq = f.seq();
        res.error.trace = _trace.snapshot();
    } catch (const SimFailure &f) {
        res.error.reason = chaos::SimError::Reason::ProtocolPanic;
        res.error.message = f.what();
        res.error.cycle = _cycle;
        res.error.trace = _trace.snapshot();
    }
    res.cycles = _cycle;
    res.committedBlocks = _committedBlocks;
    res.committedInsts = _committedInsts;
    res.halted = _halted && res.error.ok();
    return res;
}

} // namespace edge::core
