#include "serve/fabric.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "serve/proto.hh"
#include "triage/repro.hh"
#include "triage/result_json.hh"

namespace edge::serve {

using super::CellOutcome;
using super::CellSpec;
using triage::JsonValue;

struct Fabric::Peer
{
    std::uint64_t id = 0;
    std::unique_ptr<Stream> conn;
    enum class Kind : std::uint8_t
    {
        Unknown,
        Agent,
        Client,
    } kind = Kind::Unknown;

    // --- agent state ------------------------------------------------
    std::string name;
    unsigned slots = 1;
    bool live = false; ///< registered and heartbeating
    unsigned inFlight = 0;
    Clock::time_point lastHeard;

    // --- health -----------------------------------------------------
    double ewmaMs = 0; ///< EWMA cell latency (0 = no samples yet)
    std::uint64_t okResults = 0;
    std::uint64_t crashes = 0;     ///< worker-failure results
    std::uint64_t timeouts = 0;    ///< expired leases
    std::uint64_t leaseLosses = 0; ///< leases revoked by a death
    std::uint64_t loadInflight = 0; ///< agent-reported, via heartbeat
    std::uint64_t loadQueued = 0;
    /** Audit caught this agent returning corrupt bytes: it never
     *  gets another lease of any kind. */
    bool quarantined = false;
    bool demotionLogged = false;

    std::uint64_t
    badEvents() const
    {
        return crashes + timeouts + leaseLosses;
    }
    double
    failRate() const
    {
        std::uint64_t total = okResults + badEvents();
        return total ? static_cast<double>(badEvents()) /
                           static_cast<double>(total)
                     : 0.0;
    }
    /** Demoted agents are placed last (and never hedged onto): a
     *  majority-failure record past a minimum sample count. */
    bool
    demoted() const
    {
        return badEvents() >= 3 && failRate() > 0.5;
    }
};

namespace {

/** Structured result for a cell the fabric lost rather than ran. */
sim::RunResult
lostResult(const CellSpec &cell, chaos::SimError::Reason reason,
           std::string message)
{
    sim::RunResult r;
    r.error.reason = reason;
    r.error.message = std::move(message);
    r.rngSeed = cell.config.rngSeed;
    r.chaosSeed = cell.config.chaos.seed;
    return r;
}

} // namespace

Fabric::Fabric(FabricOptions opts)
    : _opts(std::move(opts))
{
    _clk = _opts.clock ? _opts.clock : &Clock::real();
    if (_opts.transport) {
        _net = _opts.transport;
    } else {
        _ownedNet = std::make_unique<TcpTransport>();
        _net = _ownedNet.get();
    }
    // Writes to an agent that vanished mid-send must come back as
    // errors, not process-fatal SIGPIPEs.
    std::signal(SIGPIPE, SIG_IGN);
}

Fabric::~Fabric() = default;

bool
Fabric::start(std::string *err)
{
    if (!_net->listen(_opts.listenPort, err))
        return false;
    _port = _net->port();
    _started = true;
    return true;
}

void
Fabric::requestStop()
{
    _stop.store(true, std::memory_order_relaxed);
    if (super::Supervisor *local =
            _activeLocal.load(std::memory_order_relaxed))
        local->requestStop();
}

bool
Fabric::stopRequested() const
{
    return _stop.load(std::memory_order_relaxed) ||
           super::stopSignal() != 0;
}

std::string
Fabric::resumeHint() const
{
    if (!_journal.isOpen())
        return "";
    return strfmt("add --resume %s to the same command line to "
                  "continue this campaign",
                  _journal.path().c_str());
}

std::size_t
Fabric::liveAgents() const
{
    std::size_t n = 0;
    for (const auto &kv : _peers)
        if (kv.second->kind == Peer::Kind::Agent &&
            kv.second->live && !kv.second->quarantined)
            ++n;
    return n;
}

bool
Fabric::popSubmission(Submission *out)
{
    if (_submissions.empty())
        return false;
    // Fair service: prefer the oldest submission from a client other
    // than the one just served, so one chatty client queueing many
    // campaigns cannot FIFO-starve everyone else.
    auto pick = _submissions.begin();
    if (_lastServedClient != 0) {
        for (auto it = _submissions.begin(); it != _submissions.end();
             ++it) {
            if (it->client != _lastServedClient) {
                pick = it;
                break;
            }
        }
    }
    _lastServedClient = pick->client;
    *out = std::move(*pick);
    _submissions.erase(pick);
    return true;
}

bool
Fabric::sendToClient(std::uint64_t client, const std::string &line)
{
    auto it = _peers.find(client);
    if (it == _peers.end() || it->second->conn->dead())
        return false;
    it->second->conn->send(line);
    return true;
}

bool
Fabric::clientFlushed(std::uint64_t client) const
{
    auto it = _peers.find(client);
    if (it == _peers.end() || it->second->conn->dead())
        return true;
    return !it->second->conn->wantWrite();
}

void
Fabric::ensureJournal()
{
    if (_journalReady || _opts.journalPath.empty())
        return;
    super::JournalSetup setup;
    setup.log = _opts.logOptions;
    setup.resumeThreads = _opts.resumeThreads;
    setup.announceResume = _opts.resume;
    std::string err;
    if (_journal.open(_opts.journalPath, setup, &err))
        _journalReady = true;
    else
        warn("fabric: %s — continuing without a journal", err.c_str());
}

// --- network turn ---------------------------------------------------

void
Fabric::pump(int timeoutMs)
{
    std::vector<Stream *> streams;
    streams.reserve(_peers.size());
    for (auto &kv : _peers)
        if (!kv.second->conn->dead())
            streams.push_back(kv.second->conn.get());

    std::vector<std::unique_ptr<Stream>> accepted;
    _net->pump(timeoutMs, streams, &accepted);

    for (auto &s : accepted) {
        auto peer = std::make_unique<Peer>();
        peer->id = ++_peerIds;
        peer->conn = std::move(s);
        peer->lastHeard = _clk->now();
        _peers.emplace(peer->id, std::move(peer));
    }

    // Peel complete lines from every peer — the transport's pump
    // already moved the bytes, whatever the wire was.
    std::vector<std::uint64_t> ids;
    ids.reserve(_peers.size());
    for (auto &kv : _peers)
        ids.push_back(kv.first);
    for (std::uint64_t id : ids) {
        auto it = _peers.find(id);
        if (it == _peers.end())
            continue;
        Peer &p = *it->second;
        std::string line;
        while (!p.conn->dead() && p.conn->nextLine(&line))
            handleLine(p, line);
    }

    // Dead-connection sweep: a closed agent socket is an immediate
    // death (leases revoked, cells reassigned); a silent-but-open one
    // is handled by the heartbeat sweep below.
    for (auto it = _peers.begin(); it != _peers.end();) {
        if (!it->second->conn->dead()) {
            ++it;
            continue;
        }
        if (it->second->kind == Peer::Kind::Agent)
            agentLost(*it->second, "connection closed");
        it = _peers.erase(it);
    }

    sweepDeadlines(_clk->now());
}

void
Fabric::sweepDeadlines(Clock::time_point now)
{
    for (auto &kv : _peers) {
        Peer &p = *kv.second;
        if (p.kind != Peer::Kind::Agent || !p.live)
            continue;
        auto silent =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - p.lastHeard)
                .count();
        if (silent >= 0 && static_cast<std::uint64_t>(silent) >
                               _opts.heartbeatTimeoutMs)
            // The connection stays open: a partitioned agent heals by
            // speaking again, and its stale results hit the dedup
            // path.
            agentLost(p, "missed heartbeats");
    }

    for (auto &kv : _leases) {
        Lease &l = kv.second;
        if (l.revoked || l.answered || now < l.expiry)
            continue;
        l.revoked = true;
        auto pit = _peers.find(l.peer);
        if (pit != _peers.end()) {
            if (pit->second->inFlight > 0)
                --pit->second->inFlight;
            ++pit->second->timeouts;
        }
        leaseLost(kv.first, l, "lease expired");
    }
}

void
Fabric::handleLine(Peer &peer, const std::string &line)
{
    JsonValue doc;
    std::string type, err;
    if (!proto::parse(line, &doc, &type, &err)) {
        if (peer.kind == Peer::Kind::Unknown) {
            peer.conn->send(proto::error("bad message: " + err));
            peer.conn->markDead();
        } else {
            warn("fabric: ignoring malformed message from peer %llu: "
                 "%s",
                 static_cast<unsigned long long>(peer.id),
                 err.c_str());
        }
        return;
    }

    if (peer.kind == Peer::Kind::Unknown) {
        if (type == "hello") {
            peer.kind = Peer::Kind::Agent;
            peer.name = doc.getString("name", "agent");
            peer.slots = static_cast<unsigned>(
                std::max<std::uint64_t>(1, doc.getU64("slots", 1)));
            peer.live = true;
            peer.lastHeard = _clk->now();
            peer.conn->send(proto::welcome(peer.id, _opts.heartbeatMs));
            inform("fabric: agent '%s' connected (%u slot%s)",
                   peer.name.c_str(), peer.slots,
                   peer.slots == 1 ? "" : "s");
        } else if (type == "submit") {
            peer.kind = Peer::Kind::Client;
            admitSubmission(peer, doc);
        } else {
            peer.conn->send(proto::error(
                "expected hello or submit, got '" + type + "'"));
            peer.conn->markDead();
        }
        return;
    }

    if (peer.kind == Peer::Kind::Client) {
        if (type == "submit")
            admitSubmission(peer, doc);
        return;
    }

    handleAgentMessage(peer, doc, type);
}

void
Fabric::admitSubmission(Peer &peer, const JsonValue &doc)
{
    const JsonValue *c = doc.get("campaign");
    if (!c) {
        peer.conn->send(proto::error("submit without a campaign"));
        return;
    }
    if (_opts.maxQueued != 0 &&
        _submissions.size() >= _opts.maxQueued) {
        // Admission control: shed rather than queue without bound.
        // The retry hint scales with the backlog the client would
        // have been stuck behind.
        ++_shedSubmissions;
        std::uint64_t retry =
            1000 *
            static_cast<std::uint64_t>(
                std::max<std::size_t>(1, _submissions.size()));
        peer.conn->send(proto::retryAfter(
            strfmt("submission queue full (%zu campaign(s) queued)",
                   _submissions.size()),
            retry));
        return;
    }
    _submissions.push_back({peer.id, *c});
}

void
Fabric::handleAgentMessage(Peer &peer, const JsonValue &doc,
                           const std::string &type)
{
    if (!peer.live) {
        // A partition healed: the agent was declared dead but the
        // socket stayed up. It re-enters the pool; anything it
        // answers for a revoked lease is deduped or, if the cell is
        // still unfinished, accepted (same bits either way).
        peer.live = true;
        inform("fabric: agent '%s' healed after a partition",
               peer.name.c_str());
    }
    peer.lastHeard = _clk->now();

    if (type == "heartbeat") {
        peer.loadInflight = doc.getU64("inflight");
        peer.loadQueued = doc.getU64("queued");
        return;
    }
    if (type == "result") {
        handleResult(peer, doc);
        return;
    }
    warn("fabric: agent '%s' sent unexpected '%s'",
         peer.name.c_str(), type.c_str());
}

// --- lease state machine --------------------------------------------

void
Fabric::agentLost(Peer &peer, const char *why)
{
    if (!peer.live)
        return;
    peer.live = false;
    peer.inFlight = 0;
    ++_agentDeaths;
    warn("fabric: agent '%s' lost (%s) — revoking its leases",
         peer.name.c_str(), why);
    for (auto &kv : _leases) {
        Lease &l = kv.second;
        if (l.peer != peer.id || l.revoked || l.answered)
            continue;
        l.revoked = true;
        ++peer.leaseLosses;
        leaseLost(kv.first, l, why);
    }
}

/**
 * A lease died without an answer (expiry, agent death, quarantine).
 * Audit leases hand the audit back to pumpAudits for a re-cut;
 * Normal/Hedge leases only revert the cell to Pending when the LAST
 * live lease on it is gone — a surviving hedge (or original) keeps
 * the cell covered, so losing one duplicate is not a reassignment.
 */
void
Fabric::leaseLost(std::uint64_t id, Lease &l, const char *why)
{
    if (!_run)
        return;
    if (l.kind == LeaseKind::Audit) {
        auto it = _run->audits.find(l.cell);
        if (it != _run->audits.end() &&
            it->second.pendingLease == id) {
            it->second.pendingLease = 0;
            ++it->second.execFailures;
        }
        return;
    }
    std::size_t i = l.cell;
    if (i < _run->activeLeases.size() && _run->activeLeases[i] > 0)
        --_run->activeLeases[i];
    if (_run->st[i] == CState::Leased && _run->activeLeases[i] > 0)
        return; // a sibling lease still covers the cell
    reassignCell(i, id, why);
}

void
Fabric::reassignCell(std::size_t i, std::uint64_t leaseId,
                     const char *why)
{
    if (!_run || _run->st[i] != CState::Leased)
        return;
    ++_reassignments;
    if (++_run->reassigns[i] > _opts.maxReassign) {
        sim::RunResult r = lostResult(
            (*_run->cells)[i], chaos::SimError::Reason::AgentLost,
            strfmt("cell lost %u leases (last: %s) — quarantined",
                   _run->reassigns[i], why));
        r.retries = _run->attempt[i] - 1;
        r.backoffMs = _run->backoffAccum[i];
        finalizeCell(i, std::move(r), "", leaseId, _run->attempt[i]);
        return;
    }
    // Same doubling backoff shape as transient retries, so a flapping
    // agent can't spin the scheduler; the budget cap keeps a lost
    // cell from stalling the grid.
    std::uint64_t backoff = _opts.retry.delayMs(_run->reassigns[i], 0);
    _run->st[i] = CState::Pending;
    _run->notBefore[i] =
        _clk->now() + std::chrono::milliseconds(backoff);
}

void
Fabric::handleResult(Peer &peer, const JsonValue &doc)
{
    std::uint64_t leaseId = doc.getU64("lease");
    auto it = _leases.find(leaseId);
    if (it == _leases.end()) {
        ++_staleIgnored; // lease from a previous batch or unknown
        return;
    }
    Lease &l = it->second;
    if (l.answered) {
        ++_dupDeduped;
        return;
    }
    l.answered = true;
    if (!l.revoked && peer.inFlight > 0)
        --peer.inFlight;
    recordLatency(peer, l, _clk->now());

    if (!_run)
        return;
    std::size_t i = l.cell;
    if (l.kind == LeaseKind::Audit) {
        handleAuditResult(peer, l, leaseId, doc);
        return;
    }
    if (!l.revoked && i < _run->activeLeases.size() &&
        _run->activeLeases[i] > 0)
        --_run->activeLeases[i];
    if (_run->st[i] == CState::Done ||
        _run->st[i] == CState::WaitDurable ||
        _run->st[i] == CState::Auditing) {
        // The cell already finished elsewhere (reassigned after a
        // partition, a hedge raced this lease and won, or the local
        // fallback got it first) or is being audited. Same cell,
        // same bits — drop the copy.
        ++_dupDeduped;
        return;
    }

    std::uint64_t cellId = doc.getU64("cell");
    if (cellId != 0 && cellId != _run->hash[i]) {
        warn("fabric: agent '%s' answered lease %llu with the wrong "
             "cell identity — ignoring",
             peer.name.c_str(),
             static_cast<unsigned long long>(leaseId));
        ++_staleIgnored;
        return;
    }

    sim::RunResult r;
    std::string err;
    const JsonValue *body = doc.get("result");
    if (!body || !triage::resultFromJson(*body, &r, &err))
        r = lostResult((*_run->cells)[i],
                       chaos::SimError::Reason::WorkerProtocol,
                       "agent returned an invalid result document (" +
                           err + ")");

    if (chaos::isWorkerFailure(r.error.reason))
        ++peer.crashes;
    else
        ++peer.okResults;

    unsigned attempt = _run->attempt[i];
    if (!l.revoked && _opts.retry.shouldRetry(r, attempt) &&
        !stopRequested()) {
        // Transient failure: same backoff math as the supervisor,
        // scheduled on the fabric's clock. Any hedge siblings would
        // hit the same transient; revoke them so the retry starts
        // clean.
        revokeSiblings(i);
        std::uint64_t backoff =
            _opts.retry.delayMs(attempt, _run->backoffAccum[i]);
        _run->attempt[i] = attempt + 1;
        _run->backoffAccum[i] += backoff;
        _run->notBefore[i] =
            _clk->now() + std::chrono::milliseconds(backoff);
        _run->st[i] = CState::Pending;
        return;
    }
    if (l.revoked && chaos::isTransient(r.error.reason)) {
        // A stale transient death from a revoked lease: the
        // reassignment already in flight IS the retry; recording this
        // one would double-count.
        ++_staleIgnored;
        return;
    }

    // Deterministic content (or an exhausted retry budget): accept.
    // The stamps mirror Supervisor::runAll exactly — a clean first-
    // attempt result gets retries=0/backoffMs=0, identical to the
    // single-host bytes.
    r.retries = attempt - 1;
    r.backoffMs = _run->backoffAccum[i];
    if (r.error.ok() && auditSelected(_run->hash[i])) {
        beginAudit(i, std::move(r), peer, leaseId, attempt);
        return;
    }
    finalizeCell(i, std::move(r), peer.name, leaseId, attempt);
}

/** EWMA + sample-ring update from an answered lease's wall time. */
void
Fabric::recordLatency(Peer &p, const Lease &l, Clock::time_point now)
{
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - l.cutAt)
                  .count();
    if (ms < 0)
        ms = 0;
    double s = static_cast<double>(ms);
    p.ewmaMs = p.ewmaMs == 0 ? s : 0.8 * p.ewmaMs + 0.2 * s;
    _latSamples.push_back(static_cast<std::uint64_t>(ms));
    if (_latSamples.size() > 512)
        _latSamples.pop_front();
}

/**
 * Proactively revoke every un-answered Normal/Hedge lease still out
 * for cell `i` (hedge losers, or the original when a hedge won):
 * their slots free immediately instead of waiting for lease expiry,
 * and their late results land on the dedup path as counted no-ops.
 */
void
Fabric::revokeSiblings(std::size_t i)
{
    if (!_run)
        return;
    for (auto &kv : _leases) {
        Lease &l = kv.second;
        if (l.cell != i || l.revoked || l.answered ||
            l.kind == LeaseKind::Audit)
            continue;
#ifdef EDGE_MUTATIONS
        // Planted regression for the simulation explorer: skip hedge
        // siblings, leaking their leases past campaign completion.
        if (_opts.mutateNoHedgeRevoke && l.kind == LeaseKind::Hedge)
            continue;
#endif
        l.revoked = true;
        auto pit = _peers.find(l.peer);
        if (pit != _peers.end() && pit->second->inFlight > 0)
            --pit->second->inFlight;
        if (i < _run->activeLeases.size() &&
            _run->activeLeases[i] > 0)
            --_run->activeLeases[i];
    }
}

// --- result-integrity audits ----------------------------------------

std::string
Fabric::canonicalBytes(const sim::RunResult &r)
{
    // Retry stamps are coordinator-side scheduling history, not
    // simulation output; zero them so executions from different
    // attempts compare equal exactly when the simulated bits agree.
    sim::RunResult c = r;
    c.retries = 0;
    c.backoffMs = 0;
    return triage::resultToJson(c).dumpCompact();
}

bool
Fabric::auditSelected(std::uint64_t cellHash) const
{
    if (_opts.auditFrac <= 0)
        return false;
    if (_opts.auditFrac >= 1)
        return true;
    Fnv1a f;
    f.mix64(0xa7d17u); // audit domain separator
    f.mix64(0); // fixed salt: simnet schedules depend on these picks
    f.mix64(cellHash);
    std::uint64_t h = f.state;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<double>(h % 1000000) < _opts.auditFrac * 1e6;
}

void
Fabric::beginAudit(std::size_t i, sim::RunResult r, Peer &peer,
                   std::uint64_t leaseId, unsigned attempt)
{
    revokeSiblings(i);
    AuditCtx a;
    a.cell = i;
    a.attempt = attempt;
    a.origPeer = peer.id;
    a.origLease = leaseId;
    a.origAgent = peer.name;
    a.origBytes = canonicalBytes(r);
    a.original = std::move(r);
    _run->st[i] = CState::Auditing;
    _run->audits.emplace(i, std::move(a));
    ++_auditsRun;
    // pumpAudits cuts the verification lease on the next turn.
}

void
Fabric::pumpAudits(Clock::time_point now)
{
    if (!_run || _run->audits.empty())
        return;
    std::vector<std::size_t> cells;
    cells.reserve(_run->audits.size());
    for (const auto &kv : _run->audits)
        cells.push_back(kv.first);
    for (std::size_t i : cells) {
        auto it = _run->audits.find(i);
        if (it == _run->audits.end())
            continue;
        AuditCtx &a = it->second;
        if (a.pendingLease != 0)
            continue; // a verification execution is outstanding
        if (a.execFailures > 2) {
            // The fleet cannot produce a clean verification run;
            // trust the original rather than stall the campaign.
            warn("fabric: audit of cell %zu inconclusive after %u "
                 "failed verification runs — accepting the original",
                 i, a.execFailures);
            sim::RunResult orig = a.original;
            std::string agent = a.origAgent;
            finalizeAudit(i, std::move(orig), agent, "inconclusive");
            continue;
        }
        std::vector<std::uint64_t> exclude{a.origPeer};
        if (a.round == 1)
            exclude.push_back(a.secondPeer);
        if (Peer *target = pickAgent(exclude, false)) {
            a.pendingLease =
                cutLease(*target, i, LeaseKind::Audit, a.attempt,
                         now);
            continue;
        }
        // No distinct live agent: the embedded local runner is the
        // verification executor (and, for a tie-break, its vote
        // counts like any other).
        sim::RunResult r = runOneLocal((*_run->cells)[i]);
        if (!r.error.ok()) {
            ++a.execFailures;
            continue;
        }
        std::string bytes = canonicalBytes(r);
        auditVote(i, bytes, 0, "local", std::move(r));
    }
}

void
Fabric::handleAuditResult(Peer &peer, Lease &l,
                          std::uint64_t leaseId,
                          const JsonValue &doc)
{
    auto it = _run->audits.find(l.cell);
    if (it == _run->audits.end() ||
        it->second.pendingLease != leaseId) {
        ++_staleIgnored;
        return;
    }
    AuditCtx &a = it->second;
    a.pendingLease = 0;

    sim::RunResult r;
    std::string err;
    const JsonValue *body = doc.get("result");
    if (!body || !triage::resultFromJson(*body, &r, &err) ||
        !r.error.ok()) {
        // The verification run itself failed (crash, timeout, bad
        // document): not a vote either way. Try again elsewhere.
        ++peer.crashes;
        ++a.execFailures;
        return;
    }
    ++peer.okResults;
    std::string bytes = canonicalBytes(r);
    auditVote(l.cell, bytes, peer.id, peer.name, std::move(r));
}

void
Fabric::auditVote(std::size_t cell, const std::string &bytes,
                  std::uint64_t peerId, const std::string &agentName,
                  sim::RunResult r)
{
    auto it = _run->audits.find(cell);
    if (it == _run->audits.end())
        return;
    AuditCtx &a = it->second;

    if (a.round == 0) {
        if (bytes == a.origBytes) {
            ++_auditsPassed;
            sim::RunResult orig = a.original;
            std::string agent = a.origAgent;
            finalizeAudit(cell, std::move(orig), agent, "match");
            return;
        }
        // Divergence: somebody computed the wrong bits for a
        // deterministic cell. Escalate; majority of three wins.
        ++_auditsDiverged;
        warn("fabric: audit divergence on cell %zu: '%s' vs '%s' — "
             "cutting a tie-breaking third execution",
             cell, a.origAgent.c_str(), agentName.c_str());
        a.round = 1;
        a.secondPeer = peerId;
        a.secondAgent = agentName;
        a.secondBytes = bytes;
        a.second = std::move(r);
        return;
    }

    // Third vote: quarantine the minority executor and finalize the
    // majority bytes — corrupt output never reaches the report.
    if (bytes == a.origBytes) {
        std::uint64_t minority = a.secondPeer;
        std::string minorityName = a.secondAgent;
        sim::RunResult majority = a.original;
        std::string agent = a.origAgent;
        std::string verdict = "diverged:" + minorityName;
        quarantine(minority, minorityName,
                   "audit minority: returned corrupt result bytes");
        finalizeAudit(cell, std::move(majority), agent, verdict);
        return;
    }
    if (bytes == a.secondBytes) {
        std::uint64_t minority = a.origPeer;
        std::string minorityName = a.origAgent;
        sim::RunResult majority = a.second;
        majority.retries = a.attempt - 1;
        majority.backoffMs = _run->backoffAccum[cell];
        std::string agent = a.secondAgent;
        std::string verdict = "diverged:" + minorityName;
        quarantine(minority, minorityName,
                   "audit minority: returned corrupt result bytes");
        finalizeAudit(cell, std::move(majority), agent, verdict);
        return;
    }
    // Three executions, three answers: no majority to trust. The
    // cell fails as a structured agent-corrupt row instead of the
    // fabric guessing which bytes are real.
    warn("fabric: audit of cell %zu unresolved — three independent "
         "executions disagree",
         cell);
    sim::RunResult bad =
        lostResult((*_run->cells)[cell],
                   chaos::SimError::Reason::AgentCorrupt,
                   "result audit unresolved: three independent "
                   "executions returned three different results");
    bad.retries = a.attempt - 1;
    bad.backoffMs = _run->backoffAccum[cell];
    finalizeAudit(cell, std::move(bad), "", "unresolved");
}

void
Fabric::finalizeAudit(std::size_t cell, sim::RunResult result,
                      const std::string &agent,
                      const std::string &verdict)
{
    std::uint64_t lease = 0;
    unsigned attempt = 1;
    auto it = _run->audits.find(cell);
    if (it != _run->audits.end()) {
        lease = it->second.origLease;
        attempt = it->second.attempt;
        _run->audits.erase(it);
    }
    finalizeCell(cell, std::move(result), agent, lease, attempt,
                 verdict);
}

void
Fabric::quarantine(std::uint64_t peerId, const std::string &name,
                   const char *why)
{
    if (peerId == 0)
        return; // the local executor is trusted by construction
    auto it = _peers.find(peerId);
    // Concurrent audits can convict the same agent more than once;
    // the verdict is idempotent.
    if (it != _peers.end() && it->second->quarantined)
        return;
    ++_agentsQuarantined;
    warn("fabric: QUARANTINE agent '%s' (agent-corrupt: %s) — it "
         "gets no further leases",
         name.c_str(), why);
    if (it == _peers.end())
        return;
    Peer &p = *it->second;
    p.quarantined = true;
    for (auto &kv : _leases) {
        Lease &l = kv.second;
        if (l.peer != peerId || l.revoked || l.answered)
            continue;
        l.revoked = true;
        ++p.leaseLosses;
        leaseLost(kv.first, l, "agent quarantined");
    }
    p.inFlight = 0;
}

/** One blocking fork/exec execution of `cell` for audits and
 *  tie-breaks when no distinct agent is available. */
sim::RunResult
Fabric::runOneLocal(const CellSpec &cell)
{
    if (_opts.localExec)
        return _opts.localExec(cell);
    super::SupervisorOptions so;
    so.jobs = 1;
    so.cellTimeoutMs = _opts.cellTimeoutMs;
    so.rlimitAsMb = _opts.rlimitAsMb;
    so.rlimitCpuSec = _opts.rlimitCpuSec;
    so.workerPath = _opts.workerPath;
    so.retry.maxAttempts = 1;
    super::Supervisor sup(so);
    _activeLocal.store(&sup, std::memory_order_relaxed);
    if (_stop.load(std::memory_order_relaxed))
        sup.requestStop();
    std::vector<CellOutcome> outs = sup.runAll({cell});
    _activeLocal.store(nullptr, std::memory_order_relaxed);
    if (!outs.empty() && outs[0].ran)
        return outs[0].result;
    return lostResult(cell, chaos::SimError::Reason::AgentLost,
                      "local verification run did not complete");
}

void
Fabric::finalizeCell(std::size_t i, sim::RunResult result,
                     const std::string &agent, std::uint64_t lease,
                     unsigned attempt, const std::string &audit)
{
    revokeSiblings(i);
    CellOutcome &o = (*_run->out)[i];
    const CellSpec &cell = (*_run->cells)[i];
    o.ran = true;
    o.fromJournal = false;

    const chaos::SimError::Reason reason = result.error.reason;
    const bool worker_death = chaos::isWorkerFailure(reason);
    if (worker_death && !_opts.reproDir.empty()) {
        triage::ReproSpec spec = triage::captureFromResult(
            cell.program, cell.config, cell.maxCycles, result);
        o.reproPath = triage::captureToFile(spec, _opts.reproDir);
    }
    o.result = std::move(result);

    ++_completed;
    if (!(o.result.error.ok() && o.result.halted &&
          o.result.archMatch))
        ++_failures;

    if (_journalReady) {
        super::JournalRecord rec;
        rec.cell = _run->hash[i];
        rec.final = !worker_death && !chaos::isTransient(reason);
        rec.result = o.result;
        rec.reproPath = o.reproPath;
        rec.agent = agent;
        rec.lease = lease;
        rec.attempt = attempt;
        rec.audit = audit;
        std::string err;
        if (_journal.append(rec, &err)) {
            // Durable-ack: the cell parks in WaitDurable until the
            // group-commit flusher's watermark passes its record. A
            // coordinator killed in this window never marked the cell
            // Done, so a resumed campaign re-leases it.
            _run->st[i] = CState::WaitDurable;
            _run->waitDurable.emplace_back(i, _journal.lastLsn());
            return;
        }
        warn("fabric: journal append failed: %s", err.c_str());
    }

    _run->st[i] = CState::Done;
    --_run->remaining;
}

void
Fabric::promoteDurable(bool force)
{
    if (!_run || _run->waitDurable.empty())
        return;
    if (!force && _journal.logFailed()) {
        // Sticky log failure: the watermark will never reach these
        // records. The results are already in the report, so finish
        // the campaign; the lost records simply re-run on --resume.
        warn("fabric: result log failed — completing %zu cell(s) "
             "without a durable ack (they will re-run on --resume)",
             _run->waitDurable.size());
        force = true;
    }
    const std::uint64_t durable = _journal.durableLsn();
    while (!_run->waitDurable.empty() &&
           (force || _run->waitDurable.front().second <= durable)) {
        _run->st[_run->waitDurable.front().first] = CState::Done;
        --_run->remaining;
        _run->waitDurable.pop_front();
    }
}

// --- scheduling -----------------------------------------------------

/** Live, schedulable agents in placement order: healthy before
 *  demoted, then by failure rate, load, latency, id. */
std::vector<Fabric::Peer *>
Fabric::orderedAgents()
{
    std::vector<Peer *> order;
    for (auto &kv : _peers) {
        Peer &p = *kv.second;
        if (p.kind != Peer::Kind::Agent || !p.live ||
            p.conn->dead() || p.quarantined)
            continue;
        if (p.demoted() && !p.demotionLogged) {
            p.demotionLogged = true;
            warn("fabric: agent '%s' demoted (%llu bad of %llu "
                 "events) — deprioritized for placement",
                 p.name.c_str(),
                 static_cast<unsigned long long>(p.badEvents()),
                 static_cast<unsigned long long>(p.okResults +
                                                 p.badEvents()));
        }
        order.push_back(&p);
    }
    std::sort(order.begin(), order.end(), [](Peer *a, Peer *b) {
        if (a->demoted() != b->demoted())
            return !a->demoted();
        double fa = a->failRate(), fb = b->failRate();
        if (fa != fb)
            return fa < fb;
        std::uint64_t la = a->inFlight + a->loadQueued;
        std::uint64_t lb = b->inFlight + b->loadQueued;
        if (la != lb)
            return la < lb;
        if (a->ewmaMs != b->ewmaMs)
            return a->ewmaMs < b->ewmaMs;
        return a->id < b->id;
    });
    return order;
}

/** Best agent with a free slot, excluding `exclude`; requireHealthy
 *  additionally skips demoted agents (hedge targets must be good). */
Fabric::Peer *
Fabric::pickAgent(const std::vector<std::uint64_t> &exclude,
                  bool requireHealthy)
{
    for (Peer *p : orderedAgents()) {
        if (p->inFlight >= p->slots)
            continue;
        if (requireHealthy && p->demoted())
            continue;
        bool excluded = false;
        for (std::uint64_t id : exclude)
            if (p->id == id)
                excluded = true;
        if (!excluded)
            return p;
    }
    return nullptr;
}

std::uint64_t
Fabric::cutLease(Peer &p, std::size_t cell, LeaseKind kind,
                 unsigned attempt, Clock::time_point now)
{
    std::uint64_t id = ++_leaseIds;
    Lease l;
    l.cell = cell;
    l.peer = p.id;
    l.attempt = attempt;
    l.kind = kind;
    l.cutAt = now;
    l.expiry = now + std::chrono::milliseconds(_opts.leaseMs);
    _leases.emplace(id, l);
    ++p.inFlight;
    if (kind != LeaseKind::Audit && cell < _run->activeLeases.size())
        ++_run->activeLeases[cell];

    p.conn->send(proto::assign(id, (*_run->cells)[cell],
                               _opts.cellTimeoutMs, _opts.rlimitAsMb,
                               _opts.rlimitCpuSec));
    return id;
}

void
Fabric::assignReady(Clock::time_point now)
{
    for (Peer *pp : orderedAgents()) {
        Peer &p = *pp;
        while (p.inFlight < p.slots && !p.conn->dead()) {
            std::size_t pick = _run->st.size();
            for (std::size_t i = 0; i < _run->st.size(); ++i)
                if (_run->st[i] == CState::Pending &&
                    _run->notBefore[i] <= now) {
                    pick = i;
                    break;
                }
            if (pick == _run->st.size())
                return;
            _run->st[pick] = CState::Leased;
            cutLease(p, pick, LeaseKind::Normal,
                     _run->attempt[pick], now);
        }
    }
}

/** The hedge threshold: the explicit flag, or 2x the fleet's
 *  observed p95 cell latency (floored) once 8 samples exist. */
std::uint64_t
Fabric::hedgeThresholdMs() const
{
    if (_opts.hedgeAfterMs != 0)
        return _opts.hedgeAfterMs;
    if (_latSamples.size() < 8)
        return 0; // not enough signal to call anything a straggler
    std::vector<std::uint64_t> s(_latSamples.begin(),
                                 _latSamples.end());
    std::size_t k = (s.size() * 95) / 100;
    if (k >= s.size())
        k = s.size() - 1;
    std::nth_element(s.begin(), s.begin() + k, s.end());
    // 2x p95 with a floor: honest jitter is not a straggler, and a
    // fast fleet must not hedge on scheduling noise.
    return std::max<std::uint64_t>(2 * s[k], 200);
}

void
Fabric::maybeHedge(Clock::time_point now)
{
    if (!_run || _opts.hedgeMax == 0)
        return;
    std::uint64_t thresh = hedgeThresholdMs();
    if (thresh == 0)
        return;
    for (auto &kv : _leases) {
        Lease &l = kv.second;
        if (l.revoked || l.answered || l.kind == LeaseKind::Audit)
            continue;
        std::size_t i = l.cell;
        if (_run->st[i] != CState::Leased)
            continue;
        if (_run->hedgesCut[i] >= _opts.hedgeMax)
            continue;
        auto age =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - l.cutAt)
                .count();
        if (age < 0 || static_cast<std::uint64_t>(age) < thresh)
            continue;
        // Straggler: cut one speculative duplicate on a healthy
        // agent not already holding a lease on this cell. First
        // result wins; the loser is revoked on finalize and its late
        // answer is a counted dedup no-op.
        std::vector<std::uint64_t> exclude;
        for (const auto &lkv : _leases)
            if (lkv.second.cell == i && !lkv.second.revoked &&
                !lkv.second.answered)
                exclude.push_back(lkv.second.peer);
        Peer *target = pickAgent(exclude, true);
        if (!target)
            continue;
        ++_run->hedgesCut[i];
        ++_hedges;
        inform("fabric: hedging cell %zu (leased %lld ms > %llu ms "
               "threshold) onto agent '%s'",
               i, static_cast<long long>(age),
               static_cast<unsigned long long>(thresh),
               target->name.c_str());
        cutLease(*target, i, LeaseKind::Hedge, l.attempt, now);
    }
}

void
Fabric::runLocalBatch()
{
    unsigned jobs = _opts.localJobs;
    if (jobs == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw ? hw : 1;
    }

    Clock::time_point now = _clk->now();
    std::vector<std::size_t> idx;
    std::vector<CellSpec> batch;
    for (std::size_t i = 0;
         i < _run->st.size() && idx.size() < jobs; ++i) {
        if (_run->st[i] == CState::Pending &&
            _run->notBefore[i] <= now) {
            idx.push_back(i);
            batch.push_back((*_run->cells)[i]);
        }
    }
    if (idx.empty())
        return;

    if (_opts.localExec) {
        // Simulation: the injected executor IS the local runner —
        // deterministic, no child processes.
        for (std::size_t i : idx) {
            if (_run->st[i] == CState::Done ||
                _run->st[i] == CState::WaitDurable) {
                ++_dupDeduped;
                continue;
            }
            ++_localCells;
            sim::RunResult r = _opts.localExec((*_run->cells)[i]);
            r.retries = _run->attempt[i] - 1;
            r.backoffMs = _run->backoffAccum[i];
            finalizeCell(i, std::move(r), "", 0, _run->attempt[i]);
        }
        return;
    }

    if (!_downgradeLogged) {
        warn("fabric: no live agents — downgrading to local "
             "fork/exec workers (campaign continues single-host)");
        _downgradeLogged = true;
    }

    // The embedded local runner owns retries and stamps results the
    // same way a single-host --isolate run would; the fabric journals
    // and tallies, so no journal/repro dir is given to it. Batches
    // are at most `jobs` cells so newly connected agents get picked
    // up between batches.
    super::SupervisorOptions so;
    so.jobs = jobs;
    so.cellTimeoutMs = _opts.cellTimeoutMs;
    so.rlimitAsMb = _opts.rlimitAsMb;
    so.rlimitCpuSec = _opts.rlimitCpuSec;
    so.workerPath = _opts.workerPath;
    so.retry = _opts.retry;
    super::Supervisor sup(so);
    _activeLocal.store(&sup, std::memory_order_relaxed);
    if (_stop.load(std::memory_order_relaxed))
        sup.requestStop();
    std::vector<CellOutcome> outs = sup.runAll(batch);
    _activeLocal.store(nullptr, std::memory_order_relaxed);

    for (std::size_t k = 0; k < idx.size(); ++k) {
        if (!outs[k].ran)
            continue; // stop hit mid-batch; still pending, resumable
        if (_run->st[idx[k]] == CState::Done ||
            _run->st[idx[k]] == CState::WaitDurable) {
            ++_dupDeduped; // a healed agent raced us to it
            continue;
        }
        ++_localCells;
        // Local results arrive fully stamped; pass them through
        // verbatim for byte-identity with a pure single-host run.
        finalizeCell(idx[k], std::move(outs[k].result), "", 0,
                     _run->attempt[idx[k]]);
    }
}

std::size_t
Fabric::outstandingLeases() const
{
    std::size_t n = 0;
    for (const auto &kv : _leases)
        if (!kv.second.revoked && !kv.second.answered)
            ++n;
    return n;
}

bool
Fabric::anyReady(Clock::time_point now) const
{
    for (std::size_t i = 0; i < _run->st.size(); ++i)
        if (_run->st[i] == CState::Pending &&
            _run->notBefore[i] <= now)
            return true;
    return false;
}

int
Fabric::pollTimeout(Clock::time_point now, int base) const
{
    int t = base;
    for (std::size_t i = 0; i < _run->st.size(); ++i) {
        if (_run->st[i] != CState::Pending)
            continue;
        auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                _run->notBefore[i] - now)
                .count();
        if (left > 0)
            t = std::min<int>(t, static_cast<int>(left));
    }
    return std::max(t, 1);
}

// --- the campaign slice ---------------------------------------------

std::vector<CellOutcome>
Fabric::runAll(const std::vector<CellSpec> &cells)
{
    panic_if(!_started, "Fabric::runAll before start()");
    ensureJournal();

    std::map<std::uint64_t, const super::JournalRecord *> replayable;
    if (_opts.resume && _journalReady)
        replayable = super::Journal::resumeIndex(_journal.loaded());

    std::vector<CellOutcome> out(cells.size());
    RunCtx ctx;
    ctx.cells = &cells;
    ctx.out = &out;
    ctx.st.assign(cells.size(), CState::Pending);
    ctx.attempt.assign(cells.size(), 1);
    ctx.reassigns.assign(cells.size(), 0);
    ctx.backoffAccum.assign(cells.size(), 0);
    ctx.notBefore.assign(cells.size(), _clk->now());
    ctx.hash.resize(cells.size());
    ctx.activeLeases.assign(cells.size(), 0);
    ctx.hedgesCut.assign(cells.size(), 0);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        ctx.hash[i] = super::cellHash(cells[i]);
        if (!replayable.empty()) {
            auto it = replayable.find(ctx.hash[i]);
            if (it != replayable.end()) {
                out[i].ran = true;
                out[i].fromJournal = true;
                out[i].result = it->second->result;
                out[i].reproPath = it->second->reproPath;
                ctx.st[i] = CState::Done;
                ++_skipped;
                if (!(out[i].result.error.ok() &&
                      out[i].result.halted &&
                      out[i].result.archMatch))
                    ++_failures;
                continue;
            }
        }
        ++ctx.remaining;
    }

    _run = &ctx;
    while (ctx.remaining > 0) {
        // requestStop() and SIGINT stop now (un-run cells resume
        // later); SIGTERM drains what is already leased first.
        if (_stop.load(std::memory_order_relaxed) ||
            super::stopSignal() == SIGINT)
            break;
        const bool drain = super::stopSignal() == SIGTERM;

        promoteDurable(false);
        if (_opts.localExec && _journalReady &&
            !ctx.waitDurable.empty()) {
            // Simulation determinism: the group-commit flusher runs
            // on wall time, which a virtual-time world must not
            // observe. Force the watermark forward synchronously so
            // durable-ack promotion is a pure function of the event
            // schedule.
            std::string ferr;
            if (!_journal.flush(&ferr))
                warn("fabric: journal flush failed: %s",
                     ferr.c_str());
            promoteDurable(false);
        }
        if (ctx.remaining == 0)
            break;

        Clock::time_point now = _clk->now();
        if (!drain) {
            assignReady(now);
            maybeHedge(now);
            pumpAudits(now);
            if (ctx.remaining == 0)
                break;
            if (liveAgents() == 0 && _opts.localFallback &&
                anyReady(now)) {
                runLocalBatch();
                // Re-enter the loop so a just-connected agent (or a
                // stop) is noticed before the next batch.
                pump(0);
                continue;
            }
        } else if (outstandingLeases() == 0) {
            break; // drained: everything in flight has landed
        }

        pump(pollTimeout(now, 50));
    }
    // End of slice: make everything appended durable (one fsync at
    // most), then promote the stragglers. On a stop/drain exit this
    // is what makes the partial campaign safely resumable.
    if (_journalReady) {
        std::string err;
        if (!_journal.flush(&err))
            warn("fabric: journal flush failed: %s — unflushed "
                 "results will re-run on --resume", err.c_str());
    }
    promoteDurable(true);
    // Invariant audit: when a campaign finished on its own, every
    // Normal/Hedge lease must have been answered or revoked — a live
    // one here means a revocation path leaked it (and its agent slot).
    if (!stopRequested() && ctx.remaining == 0) {
        for (const auto &kv : _leases) {
            const Lease &l = kv.second;
            if (!l.revoked && !l.answered &&
                l.kind != LeaseKind::Audit)
                ++_leasesLeaked;
        }
    }
    _run = nullptr;
    _leases.clear();
    return out;
}

} // namespace edge::serve
