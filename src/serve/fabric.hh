/**
 * @file
 * The campaign fabric coordinator: a super::CellRunner that schedules
 * cells across remote agents instead of local child processes. One
 * Fabric owns the listening socket, the registered-agent table, and
 * the lease state machine; campaign code (chaosSweepIsolated, the
 * fuzz batch runner, the bench harness) drives it through the same
 * CellRunner interface as the local Supervisor, so WHERE cells run is
 * invisible to WHAT the campaign reports.
 *
 * The robustness contract, enforced by tests/test_serve.cc:
 *
 *  - Leases. A cell assigned to an agent carries a lease id and a
 *    deadline. Missed heartbeats (or a closed connection) mark the
 *    agent dead, revoke its leases, and put the cells back in the
 *    pending queue; an expired lease does the same for a single cell.
 *    Reassignment reuses the supervisor's transient-retry backoff
 *    shape, and a cell that outlives `maxReassign` lost leases is
 *    quarantined as a structured AgentLost failure row.
 *
 *  - Dedup. Results are keyed by lease and cell identity; a result
 *    for an answered lease or a completed cell (an agent that healed
 *    from a partition, a duplicated message) is counted and dropped.
 *    First result wins; because every worker computes the same bits
 *    for the same cell, which copy wins is unobservable in the
 *    report.
 *
 *  - Degradation. With zero live agents and ready cells, the
 *    coordinator logs the downgrade once and runs cells through an
 *    embedded local fork/exec Supervisor, in small batches so newly
 *    connected agents are picked up between batches. A campaign with
 *    no agents at all is exactly a single-host `--isolate` run.
 *
 *  - Byte-identity. Successful results pass through verbatim and
 *    fabric-level reassignments are never stamped into them, so the
 *    merged report is byte-identical to a clean single-host run
 *    regardless of agent count, kill schedule, or reassignment
 *    history. (Lease provenance goes to the journal, not the
 *    report.)
 *
 * SIGTERM drains: in-flight leases are pumped to completion, nothing
 * new is assigned, and un-run cells come back !ran (resumable).
 * SIGINT and requestStop() stop immediately.
 */

#ifndef EDGE_SERVE_FABRIC_HH
#define EDGE_SERVE_FABRIC_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/clock.hh"
#include "serve/net.hh"
#include "super/supervisor.hh"
#include "triage/jsonio.hh"

namespace edge::serve {

struct FabricOptions
{
    /** Listening port for agents and clients (0 = ephemeral; see
     *  Fabric::port). */
    std::uint16_t listenPort = 0;
    /** Worker processes for the zero-agent local fallback
     *  (0 = all hardware threads). */
    unsigned localJobs = 0;
    /** Run cells locally when no agents are live (the graceful-
     *  degradation path). Disabled only by tests that need to
     *  observe pure fabric behaviour. */
    bool localFallback = true;

    /** Interval agents are told to heartbeat at. */
    std::uint64_t heartbeatMs = 1000;
    /** Silence past this marks an agent dead and revokes its
     *  leases. */
    std::uint64_t heartbeatTimeoutMs = 5000;
    /** Per-lease deadline; an unanswered lease past it is revoked
     *  and its cell reassigned. */
    std::uint64_t leaseMs = 60000;
    /** Lost-lease reassignment budget per cell before the cell is
     *  quarantined as an AgentLost failure. */
    unsigned maxReassign = 16;

    // --- per-cell execution knobs, forwarded to executors ----------
    std::uint64_t cellTimeoutMs = 0;
    std::uint64_t rlimitAsMb = 0;
    std::uint64_t rlimitCpuSec = 0;
    /** Worker image for the LOCAL fallback ("" = /proc/self/exe);
     *  agents choose their own. */
    std::string workerPath;

    // --- campaign durability (same semantics as SupervisorOptions) -
    std::string journalPath;
    bool resume = false;
    std::string reproDir;
    /** Group-commit result-log tuning + crash-fault injection. */
    log::LogOptions logOptions;
    /** Redo workers for `--resume` journal recovery (0 = auto). */
    unsigned resumeThreads = 0;
    /** Transient-failure retry policy, applied coordinator-side to
     *  remote results (agents run each cell exactly once). */
    sim::RetryPolicy retry;

    // --- self-defence ----------------------------------------------
    /** Straggler hedge: a leased cell older than this gets a
     *  speculative duplicate lease on a different healthy agent.
     *  First result wins; the loser lands on the dedup path as a
     *  counted no-op, so reports stay byte-identical by
     *  construction. 0 derives the threshold from the fleet's
     *  observed p95 cell latency (armed once 8 samples exist). */
    std::uint64_t hedgeAfterMs = 0;
    /** Speculative duplicate leases per cell (0 disables hedging). */
    unsigned hedgeMax = 1;
    /** Fraction [0,1] of remotely executed clean results re-run on a
     *  second executor and byte-compared before the cell is allowed
     *  to complete; divergence escalates to a tie-breaking third
     *  execution and quarantines the minority agent. */
    double auditFrac = 0.0;
    /** Bound on queued client submissions; past it, submits are shed
     *  with a structured retry-after error (0 = unbounded). */
    std::size_t maxQueued = 64;

    // --- seams for the deterministic simulation ---------------------
    /** Network to run on (nullptr = a TcpTransport the Fabric owns).
     *  The simulation passes a simnet::SimTransport; borrowed, must
     *  outlive the Fabric. */
    Transport *transport = nullptr;
    /** Time source (nullptr = Clock::real()). Borrowed. */
    Clock *clock = nullptr;
    /** When set, replaces the embedded fork/exec Supervisor for BOTH
     *  the zero-agent local fallback and local audit executions —
     *  the simulation's synthetic truth oracle. */
    std::function<sim::RunResult(const super::CellSpec &)> localExec;
    /** Planted regression (compiled only under EDGE_MUTATIONS, armed
     *  only by the explorer's --mutate flag): finalize skips revoking
     *  hedge siblings, leaking their leases — the bug the simulation
     *  explorer must find and minimize. */
    bool mutateNoHedgeRevoke = false;
};

class Fabric : public super::CellRunner
{
  public:
    explicit Fabric(FabricOptions opts);
    ~Fabric() override;

    /** Bind the listening socket. Must succeed before runAll/pump. */
    bool start(std::string *err);
    /** The bound port (after start). */
    std::uint16_t port() const { return _port; }

    std::vector<super::CellOutcome>
    runAll(const std::vector<super::CellSpec> &cells) override;

    void requestStop() override;
    bool stopRequested() const override;

    std::size_t completed() const override { return _completed; }
    std::size_t skipped() const override { return _skipped; }
    std::size_t failures() const override { return _failures; }
    std::string resumeHint() const override;

    /**
     * One network turn: accept connections, read/dispatch messages,
     * flush queued writes, sweep heartbeat and lease deadlines.
     * runAll pumps internally; the serve daemon pumps between
     * campaigns to keep registrations and heartbeats flowing.
     */
    void pump(int timeoutMs);

    /** A client campaign submission, surfaced to the daemon. */
    struct Submission
    {
        std::uint64_t client = 0; ///< connection to answer on
        triage::JsonValue campaign;
    };
    bool popSubmission(Submission *out);
    /** Answer a client (false if it disconnected meanwhile). */
    bool sendToClient(std::uint64_t client, const std::string &line);
    /** Has the client's output queue drained (or the client gone)? */
    bool clientFlushed(std::uint64_t client) const;

    // --- observability (tests and the daemon's log lines) ----------
    std::size_t liveAgents() const;
    std::uint64_t duplicatesDeduped() const { return _dupDeduped; }
    std::uint64_t reassignments() const { return _reassignments; }
    std::uint64_t agentDeaths() const { return _agentDeaths; }
    std::uint64_t staleResultsIgnored() const { return _staleIgnored; }
    std::uint64_t localCellsRun() const { return _localCells; }
    std::uint64_t hedges() const { return _hedges; }
    std::uint64_t auditsRun() const { return _auditsRun; }
    std::uint64_t auditsPassed() const { return _auditsPassed; }
    std::uint64_t auditsDiverged() const { return _auditsDiverged; }
    std::uint64_t agentsQuarantined() const
    {
        return _agentsQuarantined;
    }
    std::uint64_t shedSubmissions() const { return _shedSubmissions; }
    /** Leases still live (un-answered, un-revoked) when a campaign
     *  completed — always 0 unless a revocation path is broken. */
    std::uint64_t leasesLeaked() const { return _leasesLeaked; }

  private:
    struct Peer;
    enum class CState : std::uint8_t
    {
        Pending,
        Leased,
        /** An accepted remote result is being re-executed by the
         *  integrity audit; the cell cannot complete (and corrupt
         *  bytes cannot reach the report) until the audit verdict
         *  lands. */
        Auditing,
        /** Result accepted and journaled, but the journal's durable
         *  watermark has not reached its record yet: the cell is not
         *  Done (and the campaign cannot complete) until it is. A
         *  coordinator killed in this window never acknowledged the
         *  cell, so a resumed campaign re-leases it. */
        WaitDurable,
        Done,
    };
    enum class LeaseKind : std::uint8_t
    {
        Normal,
        Hedge, ///< speculative duplicate on a straggling cell
        Audit, ///< integrity re-execution of an accepted result
    };
    struct Lease
    {
        std::size_t cell = 0;
        std::uint64_t peer = 0;
        unsigned attempt = 1; ///< scheduling attempt it was cut on
        LeaseKind kind = LeaseKind::Normal;
        Clock::time_point cutAt;
        Clock::time_point expiry;
        bool revoked = false;
        bool answered = false;
    };
    /** One in-flight result-integrity audit: the accepted original
     *  plus up to two more independent executions of the same cell,
     *  compared byte-for-byte in canonical (stamp-free) form. */
    struct AuditCtx
    {
        std::size_t cell = 0;
        unsigned attempt = 1;
        /** 0 = awaiting the second execution, 1 = diverged and
         *  awaiting the tie-breaking third. */
        unsigned round = 0;
        unsigned execFailures = 0;
        std::uint64_t pendingLease = 0; ///< outstanding audit lease
        std::uint64_t origLease = 0;    ///< lease the original answered
        std::uint64_t origPeer = 0;
        std::uint64_t secondPeer = 0;
        std::string origAgent, secondAgent;
        std::string origBytes, secondBytes;
        sim::RunResult original, second;
    };
    /** Per-cell scheduling state for the active runAll. */
    struct RunCtx
    {
        const std::vector<super::CellSpec> *cells = nullptr;
        std::vector<super::CellOutcome> *out = nullptr;
        std::vector<CState> st;
        std::vector<unsigned> attempt;
        std::vector<unsigned> reassigns;
        std::vector<std::uint64_t> backoffAccum;
        std::vector<Clock::time_point> notBefore;
        std::vector<std::uint64_t> hash;
        /** Live (un-revoked, un-answered) Normal+Hedge leases per
         *  cell; a cell only reverts to Pending when the last one is
         *  lost. */
        std::vector<unsigned> activeLeases;
        std::vector<unsigned> hedgesCut;
        std::map<std::size_t, AuditCtx> audits; ///< by cell index
        std::size_t remaining = 0;
        /** Cells in WaitDurable with the journal LSN they ack at,
         *  in append (and therefore LSN) order. */
        std::deque<std::pair<std::size_t, std::uint64_t>> waitDurable;
    };

    void handleLine(Peer &peer, const std::string &line);
    void admitSubmission(Peer &peer, const triage::JsonValue &doc);
    void handleAgentMessage(Peer &peer, const triage::JsonValue &doc,
                            const std::string &type);
    void handleResult(Peer &peer, const triage::JsonValue &doc);
    void agentLost(Peer &peer, const char *why);
    void leaseLost(std::uint64_t id, Lease &l, const char *why);
    void reassignCell(std::size_t i, std::uint64_t leaseId,
                      const char *why);
    void finalizeCell(std::size_t i, sim::RunResult result,
                      const std::string &agent, std::uint64_t lease,
                      unsigned attempt,
                      const std::string &audit = std::string());
    void assignReady(Clock::time_point now);
    std::uint64_t cutLease(Peer &p, std::size_t cell, LeaseKind kind,
                           unsigned attempt, Clock::time_point now);
    std::vector<Peer *> orderedAgents();
    Peer *pickAgent(const std::vector<std::uint64_t> &exclude,
                    bool requireHealthy);
    std::uint64_t hedgeThresholdMs() const;
    void maybeHedge(Clock::time_point now);
    void recordLatency(Peer &p, const Lease &l,
                       Clock::time_point now);
    void revokeSiblings(std::size_t i);
    bool auditSelected(std::uint64_t cellHash) const;
    void beginAudit(std::size_t i, sim::RunResult r, Peer &peer,
                    std::uint64_t leaseId, unsigned attempt);
    void pumpAudits(Clock::time_point now);
    void handleAuditResult(Peer &peer, Lease &l,
                           std::uint64_t leaseId,
                           const triage::JsonValue &doc);
    void auditVote(std::size_t cell, const std::string &bytes,
                   std::uint64_t peerId, const std::string &agentName,
                   sim::RunResult r);
    void finalizeAudit(std::size_t cell, sim::RunResult result,
                       const std::string &agent,
                       const std::string &verdict);
    void quarantine(std::uint64_t peerId, const std::string &name,
                    const char *why);
    sim::RunResult runOneLocal(const super::CellSpec &cell);
    static std::string canonicalBytes(const sim::RunResult &r);
    void promoteDurable(bool force);
    void runLocalBatch();
    void sweepDeadlines(Clock::time_point now);
    std::size_t outstandingLeases() const;
    bool anyReady(Clock::time_point now) const;
    int pollTimeout(Clock::time_point now, int base) const;
    void ensureJournal();

    FabricOptions _opts;
    Clock *_clk = nullptr;
    Transport *_net = nullptr;
    std::unique_ptr<Transport> _ownedNet; ///< when none was injected
    bool _started = false;
    std::uint16_t _port = 0;

    std::map<std::uint64_t, std::unique_ptr<Peer>> _peers;
    std::uint64_t _peerIds = 0;
    std::map<std::uint64_t, Lease> _leases;
    std::uint64_t _leaseIds = 0;
    std::deque<Submission> _submissions;

    super::Journal _journal;
    bool _journalReady = false;
    RunCtx *_run = nullptr;

    std::atomic<bool> _stop{false};
    std::atomic<super::Supervisor *> _activeLocal{nullptr};

    std::size_t _completed = 0;
    std::size_t _skipped = 0;
    std::size_t _failures = 0;
    std::uint64_t _dupDeduped = 0;
    std::uint64_t _reassignments = 0;
    std::uint64_t _agentDeaths = 0;
    std::uint64_t _staleIgnored = 0;
    std::uint64_t _localCells = 0;
    std::uint64_t _hedges = 0;
    std::uint64_t _auditsRun = 0;
    std::uint64_t _auditsPassed = 0;
    std::uint64_t _auditsDiverged = 0;
    std::uint64_t _agentsQuarantined = 0;
    std::uint64_t _shedSubmissions = 0;
    std::uint64_t _leasesLeaked = 0;
    std::uint64_t _lastServedClient = 0;
    /** Recent per-cell wall latencies (ms), the p95 source for the
     *  auto hedge threshold. Bounded ring. */
    std::deque<std::uint64_t> _latSamples;
    bool _downgradeLogged = false;
};

} // namespace edge::serve

#endif // EDGE_SERVE_FABRIC_HH
