/**
 * @file
 * Implementation of the fabric-simulation explorer: world derivation,
 * the simulated agent/client actors, the campaign loop with its
 * invariant checks, `.fabsim.json` capture serialization, and the
 * replay / ddmin drivers. See explorer.hh for the contract.
 */

#include "serve/simnet/explorer.hh"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>

#include "chaos/sim_error.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "serve/fabric.hh"
#include "serve/proto.hh"
#include "super/cell.hh"
#include "triage/minimize.hh"
#include "triage/result_json.hh"

namespace edge::serve::simnet {

namespace {

namespace fs = std::filesystem;
using super::CellOutcome;
using super::CellSpec;
using triage::enumFromJson;
using triage::JsonValue;

/** World-derivation draw, seeded like SimNet's wire draws but in its
 *  own domains so world shape and wire chaos never alias. */
std::uint64_t
wdraw(std::uint64_t seed, const char *domain, std::uint64_t a = 0,
      std::uint64_t b = 0)
{
    Fnv1a f;
    f.mix64(seed);
    f.mix(domain, std::strlen(domain));
    f.mix64(a);
    f.mix64(b);
    std::uint64_t h = f.state;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

std::vector<CellSpec>
makeCampaign(const WorldParams &p, unsigned k)
{
    std::vector<CellSpec> cells;
    cells.reserve(p.cells);
    for (unsigned i = 0; i < p.cells; ++i) {
        CellSpec c;
        c.program.kernel = "parserish";
        c.program.params.iterations = 64;
        c.program.params.seed = 1 + k;
        c.programHash = kSimProgramHash;
        c.config.rngSeed = p.seed * 1000003ull + k * 101ull + i;
        c.maxCycles = 100000;
        cells.push_back(std::move(c));
    }
    return cells;
}

/** The synthetic truth oracle: a clean, fully deterministic result
 *  derived from the cell's identity. Cells are never executed. */
sim::RunResult
synthResult(const CellSpec &c)
{
    std::uint64_t h = super::cellHash(c);
    sim::RunResult r;
    r.cycles = 1000 + h % 100000;
    r.committedBlocks = 10 + h % 1000;
    r.committedInsts = 500 + h % 50000;
    r.halted = true;
    r.archMatch = true;
    r.rngSeed = c.config.rngSeed;
    r.chaosSeed = c.config.chaos.seed;
    r.counters = {{"core.alu_issues", h % 1009},
                  {"lsq.loads", h % 97},
                  {"lsq.stores", h % 89}};
    return r;
}

std::string
lineFromRows(const std::vector<sim::RunResult> &rows)
{
    JsonValue body = JsonValue::array();
    for (const sim::RunResult &r : rows)
        body.push(triage::resultToJson(r));
    return proto::report(std::move(body));
}

struct World;

/** A simulated execution agent: connects, heartbeats, answers assign
 *  messages out of the oracle after a seeded virtual "execution". */
struct SimAgent
{
    World *w = nullptr;
    unsigned idx = 0;
    unsigned slots = 1;
    std::unique_ptr<SimStream> conn;
    std::uint64_t gen = 0; ///< connection generation (stale-timer guard)
    std::uint64_t connCount = 0;
    std::uint64_t execOrd = 0; ///< stable across reconnects
    std::uint64_t heartbeatMs = 200;
    bool welcomed = false;
    bool down = false; ///< crashed, awaiting restart
    unsigned inflight = 0;

    void connect();
    void lost(std::uint64_t retryMs);
    void onWake();
    void beatTick(std::uint64_t myGen);
    void handleAssign(const JsonValue &doc);
    void crash(std::uint64_t restartMs);
};

/** A simulated submit client: submits its campaign index, waits for
 *  the report, honors retry-after sheds, reconnects on severed
 *  connections (e.g. across a coordinator crash). */
struct SimClient
{
    World *w = nullptr;
    unsigned idx = 0;
    std::unique_ptr<SimStream> conn;
    std::uint64_t gen = 0;
    std::uint64_t connCount = 0;
    bool done = false;
    bool gaveUp = false;
    unsigned attempts = 0;
    unsigned shedRetries = 0;
    std::string report;

    void connect();
    void onWake();
};

struct World
{
    WorldParams p;
    SimNet net; ///< declared before every stream owner: dies last
    std::vector<std::vector<CellSpec>> campaigns;
    std::map<std::uint64_t, sim::RunResult> oracle;
    std::vector<std::string> truth;  ///< expected report line per campaign
    std::vector<std::string> served; ///< line actually sent ("" = not yet)
    std::vector<std::unique_ptr<SimAgent>> agents;
    std::vector<std::unique_ptr<SimClient>> clients;
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<Fabric> fabric;
    std::uint64_t restartDelayMs = 0; ///< set by a CoordCrash event
    Violation violation;

    explicit World(const WorldParams &wp)
        : p(wp), net(wp.seed, wp.profile)
    {
    }

    void
    fail(const char *invariant, std::string detail)
    {
        if (violation.invariant.empty())
            violation = {invariant, std::move(detail)};
    }
};

// --- SimAgent -------------------------------------------------------

void
SimAgent::connect()
{
    if (down)
        return;
    std::string base =
        "a" + std::to_string(idx) + "." + std::to_string(connCount++);
    ++gen;
    std::uint64_t myGen = gen;
    welcomed = false;
    inflight = 0;
    conn = w->net.connect(base, /*chaosArmed=*/true, [this, myGen] {
        if (gen == myGen)
            onWake();
    });
    if (!conn) {
        // No coordinator listening (it crashed); retry shortly.
        w->net.after(73, [this, myGen] {
            if (gen == myGen && !down)
                connect();
        });
        return;
    }
    conn->send(proto::hello("sim-a" + std::to_string(idx), slots));
    // Welcome timeout: the hello (or the welcome) may have been
    // dropped by wire chaos — reconnect rather than wedge.
    w->net.after(1000, [this, myGen] {
        if (gen == myGen && conn && !welcomed)
            lost(47);
    });
}

void
SimAgent::lost(std::uint64_t retryMs)
{
    conn.reset();
    ++gen; // invalidate timers and in-flight executions
    std::uint64_t myGen = gen;
    w->net.after(retryMs, [this, myGen] {
        if (gen == myGen && !down)
            connect();
    });
}

void
SimAgent::onWake()
{
    if (!conn)
        return;
    if (conn->dead()) {
        lost(61);
        return;
    }
    std::string line;
    while (conn && !conn->dead() && conn->nextLine(&line)) {
        JsonValue doc;
        std::string type, err;
        if (!proto::parse(line, &doc, &type, &err))
            continue;
        if (type == "welcome") {
            welcomed = true;
            heartbeatMs = doc.getU64("heartbeat_ms", 200);
            std::uint64_t myGen = gen;
            w->net.after(heartbeatMs, [this, myGen] {
                beatTick(myGen);
            });
        } else if (type == "assign") {
            handleAssign(doc);
        }
        // shutdown: ignore; the explorer tears worlds down itself.
    }
}

void
SimAgent::beatTick(std::uint64_t myGen)
{
    if (gen != myGen || !conn || conn->dead())
        return;
    conn->send(proto::heartbeat(inflight, 0));
    w->net.after(heartbeatMs, [this, myGen] { beatTick(myGen); });
}

void
SimAgent::handleAssign(const JsonValue &doc)
{
    std::uint64_t lease = doc.getU64("lease");
    const JsonValue *cj = doc.get("cell");
    CellSpec cell;
    std::string err;
    if (!cj || !super::cellFromJson(*cj, &cell, &err))
        return;
    // cellToJson doesn't carry the program hash; restore the sim
    // constant so cellHash() stays a cheap pure function (a zero hash
    // would make it build the program).
    cell.programHash = kSimProgramHash;
    std::uint64_t h = super::cellHash(cell);
    std::string aedge = "a" + std::to_string(idx);
    std::uint64_t ord = execOrd++;
    std::uint64_t ms = 5 + wdraw(w->p.seed, "execbase", idx, ord) % 25;
    ms += w->net.execExtraMs(aedge, ord);
    bool lie = w->net.execLie(aedge, ord);
    ++inflight;
    std::uint64_t myGen = gen;
    w->net.after(ms, [this, myGen, lease, h, lie] {
        if (gen != myGen || !conn || conn->dead())
            return;
        if (inflight > 0)
            --inflight;
        sim::RunResult r;
        auto it = w->oracle.find(h);
        if (it != w->oracle.end())
            r = it->second;
        if (lie)
            r.cycles ^= 1; // one corrupt bit: the audit's whole job
        conn->send(proto::result(lease, h, r));
    });
}

void
SimAgent::crash(std::uint64_t restartMs)
{
    conn.reset();
    ++gen;
    down = true;
    std::uint64_t myGen = gen;
    w->net.after(restartMs, [this, myGen] {
        if (gen == myGen) {
            down = false;
            connect();
        }
    });
}

// --- SimClient ------------------------------------------------------

void
SimClient::connect()
{
    if (done || gaveUp)
        return;
    if (++attempts > 200) {
        gaveUp = true;
        return;
    }
    std::string base =
        "c" + std::to_string(idx) + "." + std::to_string(connCount++);
    ++gen;
    std::uint64_t myGen = gen;
    conn = w->net.connect(base, /*chaosArmed=*/false, [this, myGen] {
        if (gen == myGen)
            onWake();
    });
    if (!conn) {
        w->net.after(97, [this, myGen] {
            if (gen == myGen)
                connect();
        });
        return;
    }
    JsonValue c = JsonValue::object();
    c.set("kind", JsonValue::str("fabsim"));
    c.set("index", JsonValue::u64(idx));
    conn->send(proto::submit(c));
}

void
SimClient::onWake()
{
    if (done || gaveUp || !conn)
        return;
    if (conn->dead()) {
        conn.reset();
        ++gen;
        std::uint64_t myGen = gen;
        w->net.after(89, [this, myGen] {
            if (gen == myGen)
                connect();
        });
        return;
    }
    std::string line;
    while (conn && conn->nextLine(&line)) {
        JsonValue doc;
        std::string type, err;
        if (!proto::parse(line, &doc, &type, &err))
            continue;
        if (type == "report") {
            report = line;
            done = true;
            conn.reset();
            ++gen;
            return;
        }
        if (type == "error") {
            std::uint64_t ra = doc.getU64("retry_after_ms");
            conn.reset();
            ++gen;
            std::uint64_t myGen = gen;
            if (ra != 0 && shedRetries < 10) {
                // Shed by admission control: honor the hint.
                ++shedRetries;
                std::uint64_t waitMs =
                    ra < 50 ? 50 : (ra > 5000 ? 5000 : ra);
                w->net.after(waitMs, [this, myGen] {
                    if (gen == myGen)
                        connect();
                });
            } else {
                gaveUp = true;
            }
            return;
        }
    }
}

// --- coordinator lifecycle ------------------------------------------

void
buildFabric(World &w, bool resume)
{
    w.transport = std::make_unique<SimTransport>(&w.net);
    FabricOptions fo;
    fo.transport = w.transport.get();
    fo.clock = &w.net.clock();
    fo.heartbeatMs = 200;
    fo.heartbeatTimeoutMs = 900;
    fo.leaseMs = 3000;
    fo.maxReassign = 8;
    fo.localJobs = 2;
    fo.localFallback = true;
    fo.hedgeAfterMs = w.p.hedgeAfterMs;
    fo.hedgeMax = 1;
    fo.auditFrac = w.p.auditFrac;
    fo.maxQueued = w.p.maxQueued;
    fo.journalPath = w.p.journalPath;
    fo.resume = resume && !w.p.journalPath.empty();
    fo.mutateNoHedgeRevoke = w.p.mutateNoHedgeRevoke;
    World *wp = &w;
    fo.localExec = [wp](const CellSpec &cell) {
        CellSpec c = cell;
        c.programHash = kSimProgramHash;
        auto it = wp->oracle.find(super::cellHash(c));
        return it != wp->oracle.end() ? it->second : sim::RunResult{};
    };
    w.fabric = std::make_unique<Fabric>(std::move(fo));
    std::string err;
    if (!w.fabric->start(&err))
        panic("simnet: fabric start failed: %s", err.c_str());
}

/** Rebuild the coordinator after a SimCrash unwound out of it:
 *  whatever the journal's group commit had flushed is what restart
 *  sees — exactly the durable-ack contract under test. */
void
coordRestart(World &w)
{
    w.fabric.reset();
    w.transport.reset(); // agents/clients see severed connections
    std::uint64_t delay = w.restartDelayMs ? w.restartDelayMs : 300;
    w.restartDelayMs = 0;
    try {
        w.net.runFor(delay); // the outage window
    } catch (const SimCrash &) {
        // A second crash while down is a no-op: already down.
    }
    buildFabric(w, /*resume=*/true);
}

void
checkCampaign(World &w, std::uint64_t k,
              const std::vector<CellOutcome> &outs,
              std::uint64_t preDone, std::uint64_t preLeak,
              std::uint64_t preQuar)
{
    const std::size_t n = w.campaigns[k].size();
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (!outs[i].ran) {
            w.fail("cell-lost",
                   strfmt("campaign %llu cell %zu never completed",
                          (unsigned long long)k, i));
            return;
        }
    }
    std::uint64_t done =
        w.fabric->completed() + w.fabric->skipped();
    if (done - preDone != n) {
        w.fail("double-completion",
               strfmt("campaign %llu: %llu completions for %zu cells",
                      (unsigned long long)k,
                      (unsigned long long)(done - preDone), n));
        return;
    }
    std::uint64_t leaked = w.fabric->leasesLeaked();
    if (leaked > preLeak) {
        w.fail("lease-leak",
               strfmt("campaign %llu ended with %llu live lease(s)",
                      (unsigned long long)k,
                      (unsigned long long)(leaked - preLeak)));
        return;
    }
    std::vector<sim::RunResult> rows;
    rows.reserve(outs.size());
    for (const CellOutcome &o : outs)
        rows.push_back(o.result);
    std::string line = lineFromRows(rows);
    if (line != w.truth[k]) {
        w.fail("report-identity",
               strfmt("campaign %llu report differs from the "
                      "single-host truth",
                      (unsigned long long)k));
        return;
    }
    if (w.p.profile != SimProfile::Liar) {
        // No agent in a non-Liar world is corrupt; quarantining one
        // would be a false positive.
        std::uint64_t q = w.fabric->agentsQuarantined();
        if (q > preQuar) {
            w.fail("false-quarantine",
                   strfmt("campaign %llu quarantined %llu honest "
                          "agent(s)",
                          (unsigned long long)k,
                          (unsigned long long)(q - preQuar)));
            return;
        }
    }
    w.served[k] = std::move(line);
}

} // namespace

// --- public API -----------------------------------------------------

WorldParams
deriveWorld(std::uint64_t seed, const ExplorerOptions &opts)
{
    WorldParams p;
    p.seed = seed;
    p.profile = opts.profile;
    p.agents =
        opts.agents ? opts.agents : 1 + (unsigned)(wdraw(seed, "nagents") % 3);
    p.cells =
        opts.cells ? opts.cells : 3 + (unsigned)(wdraw(seed, "ncells") % 8);
    p.clients = opts.clients
                    ? opts.clients
                    : 1 + (unsigned)(wdraw(seed, "nclients") % 3);
    if (opts.hedgeAfterMs != 0) {
        p.hedgeAfterMs = opts.hedgeAfterMs;
    } else {
        bool straggly = p.profile == SimProfile::Drop ||
                        p.profile == SimProfile::Delay ||
                        p.profile == SimProfile::Heavy;
        p.hedgeAfterMs = straggly ? 400 : 0;
    }
    if (opts.auditFrac >= 0.0)
        p.auditFrac = opts.auditFrac;
    else if (p.profile == SimProfile::Liar)
        p.auditFrac = 1.0; // a liar world must audit to catch it
    else
        p.auditFrac = wdraw(seed, "audit") % 4 == 0 ? 0.25 : 0.0;
    p.maxQueued = opts.maxQueued
                      ? opts.maxQueued
                      : (wdraw(seed, "shed") % 4 == 0 ? 1 : 64);
    p.mutateNoHedgeRevoke = opts.mutateNoHedgeRevoke;
    if (p.profile == SimProfile::CrashRestart ||
        p.profile == SimProfile::Heavy)
        p.journalPath = opts.fabsimDir + "/journal-" +
                        enumName(p.profile) + "-" +
                        std::to_string(seed);
    return p;
}

WorldResult
runWorld(const WorldParams &params,
         const std::vector<ChaosEvent> *script)
{
    if (!params.journalPath.empty()) {
        std::error_code ec;
        fs::remove_all(params.journalPath, ec);
    }

    World w(params);
    if (script)
        w.net.setScript(*script);

    // Campaigns, oracle, and the single-host truth reports.
    w.campaigns.resize(w.p.clients);
    w.truth.resize(w.p.clients);
    w.served.resize(w.p.clients);
    for (unsigned k = 0; k < w.p.clients; ++k) {
        w.campaigns[k] = makeCampaign(w.p, k);
        std::vector<sim::RunResult> rows;
        rows.reserve(w.campaigns[k].size());
        for (const CellSpec &c : w.campaigns[k]) {
            sim::RunResult r = synthResult(c);
            w.oracle[super::cellHash(c)] = r;
            rows.push_back(r);
        }
        w.truth[k] = lineFromRows(rows);
    }

    // Actors, staggered so their first messages interleave.
    for (unsigned i = 0; i < w.p.agents; ++i) {
        auto a = std::make_unique<SimAgent>();
        a->w = &w;
        a->idx = i;
        a->slots = 1 + (unsigned)(wdraw(w.p.seed, "slots", i) % 2);
        SimAgent *ap = a.get();
        w.agents.push_back(std::move(a));
        w.net.at(1 + i * 3, [ap] { ap->connect(); });
    }
    for (unsigned i = 0; i < w.p.clients; ++i) {
        auto c = std::make_unique<SimClient>();
        c->w = &w;
        c->idx = i;
        SimClient *cp = c.get();
        w.clients.push_back(std::move(c));
        w.net.at(5 + i * 7, [cp] { cp->connect(); });
    }

    // Arm the crash schedule as timers. Coordinator crashes throw
    // SimCrash through the fabric's own pump into the loop below.
    for (const ChaosEvent &ev :
         w.net.crashPlan(w.p.agents, kHorizonMs)) {
        if (ev.kind == EvKind::CoordCrash) {
            ChaosEvent e = ev;
            World *wp = &w;
            w.net.at(e.param, [wp, e] {
                if (!wp->fabric)
                    return; // already down
                wp->net.recordFired(e);
                wp->restartDelayMs = e.param2;
                throw SimCrash{};
            });
        } else if (ev.kind == EvKind::AgentCrash) {
            if (ev.edge.size() < 2 || ev.edge[0] != 'a')
                continue;
            unsigned ai =
                (unsigned)std::strtoul(ev.edge.c_str() + 1, nullptr,
                                       10);
            if (ai >= w.agents.size())
                continue;
            SimAgent *ap = w.agents[ai].get();
            ChaosEvent e = ev;
            w.net.at(e.param, [ap, e] {
                if (ap->down)
                    return;
                ap->w->net.recordFired(e);
                ap->crash(e.param2);
            });
        }
    }

    buildFabric(w, /*resume=*/false);

    auto allDone = [&w] {
        for (const auto &c : w.clients)
            if (!c->done && !c->gaveUp)
                return false;
        return true;
    };

    while (!allDone()) {
        if (w.net.livelocked()) {
            w.fail("livelock",
                   "event schedule exceeded the global fire cap");
            break;
        }
        if (w.net.nowMs() > kHorizonMs) {
            w.fail("client-starved",
                   strfmt("campaigns incomplete after %llu virtual ms",
                          (unsigned long long)kHorizonMs));
            break;
        }
        try {
            w.fabric->pump(10);
        } catch (const SimCrash &) {
            coordRestart(w);
            continue;
        }
        Fabric::Submission sub;
        while (w.fabric->popSubmission(&sub)) {
            std::uint64_t k = sub.campaign.getU64("index", ~0ull);
            if (k >= w.campaigns.size()) {
                w.fabric->sendToClient(
                    sub.client, proto::error("unknown campaign"));
                continue;
            }
            if (!w.served[k].empty()) {
                // Resubmission (client reconnected across a crash):
                // serve the already-verified bytes.
                w.fabric->sendToClient(sub.client, w.served[k]);
                continue;
            }
            std::uint64_t preDone =
                w.fabric->completed() + w.fabric->skipped();
            std::uint64_t preLeak = w.fabric->leasesLeaked();
            std::uint64_t preQuar = w.fabric->agentsQuarantined();
            std::vector<CellOutcome> outs;
            try {
                outs = w.fabric->runAll(w.campaigns[k]);
            } catch (const SimCrash &) {
                coordRestart(w);
                break; // the client will reconnect and resubmit
            }
            checkCampaign(w, k, outs, preDone, preLeak, preQuar);
            if (!w.violation.invariant.empty())
                break;
            w.fabric->sendToClient(sub.client, w.served[k]);
        }
        if (!w.violation.invariant.empty())
            break;
    }

    if (w.violation.invariant.empty()) {
        for (const auto &c : w.clients) {
            if (c->gaveUp) {
                w.fail("client-starved",
                       strfmt("client %u gave up after %u attempts",
                              c->idx, c->attempts));
                break;
            }
        }
    }

    WorldResult result;
    result.violation = w.violation;
    result.schedule = w.net.fired();

    // Tear the coordinator down before removing its journal scratch.
    w.fabric.reset();
    w.transport.reset();
    if (!params.journalPath.empty()) {
        std::error_code ec;
        fs::remove_all(params.journalPath, ec);
    }
    return result;
}

JsonValue
fabsimToJson(const WorldParams &params, const Violation &violation,
             const std::vector<ChaosEvent> &sched)
{
    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::str("edgesim-fabsim"));
    doc.set("version", JsonValue::u64(1));
    doc.set("seed", JsonValue::u64(params.seed));
    doc.set("profile",
            JsonValue::str(enumName(params.profile)));
    JsonValue pj = JsonValue::object();
    pj.set("agents", JsonValue::u64(params.agents));
    pj.set("cells", JsonValue::u64(params.cells));
    pj.set("clients", JsonValue::u64(params.clients));
    pj.set("hedge_after_ms", JsonValue::u64(params.hedgeAfterMs));
    pj.set("audit_frac", JsonValue::number(params.auditFrac));
    pj.set("max_queued", JsonValue::u64(params.maxQueued));
    pj.set("journal",
           JsonValue::boolean(!params.journalPath.empty()));
    pj.set("mutate_no_hedge_revoke",
           JsonValue::boolean(params.mutateNoHedgeRevoke));
    doc.set("params", std::move(pj));
    JsonValue vj = JsonValue::object();
    vj.set("invariant", JsonValue::str(violation.invariant));
    vj.set("detail", JsonValue::str(violation.detail));
    doc.set("violation", std::move(vj));
    JsonValue arr = JsonValue::array();
    for (std::size_t i = 0; i < sched.size(); ++i) {
        const ChaosEvent &e = sched[i];
        JsonValue ej = JsonValue::object();
        ej.set("ordinal", JsonValue::u64(i));
        ej.set("kind", JsonValue::str(enumName(e.kind)));
        ej.set("edge", JsonValue::str(e.edge));
        ej.set("ord", JsonValue::u64(e.ord));
        ej.set("param", JsonValue::u64(e.param));
        ej.set("param2", JsonValue::u64(e.param2));
        arr.push(std::move(ej));
    }
    doc.set("schedule", std::move(arr));
    return doc;
}

bool
fabsimFromJson(const JsonValue &doc, WorldParams *params,
               Violation *violation, std::vector<ChaosEvent> *sched,
               std::string *err)
{
    if (doc.getString("format") != "edgesim-fabsim") {
        *err = "not an edgesim-fabsim document";
        return false;
    }
    params->seed = doc.getU64("seed");
    params->profile = SimProfile::None;
    if (!enumFromJson(doc, "profile", &params->profile, err))
        return false;
    const JsonValue *pj = doc.get("params");
    if (!pj) {
        *err = "missing params";
        return false;
    }
    params->agents = (unsigned)pj->getU64("agents", 1);
    params->cells = (unsigned)pj->getU64("cells", 3);
    params->clients = (unsigned)pj->getU64("clients", 1);
    params->hedgeAfterMs = pj->getU64("hedge_after_ms");
    const JsonValue *af = pj->get("audit_frac");
    params->auditFrac = af ? af->asDouble(0.0) : 0.0;
    params->maxQueued = pj->getU64("max_queued", 64);
    params->mutateNoHedgeRevoke =
        pj->getBool("mutate_no_hedge_revoke");
    // journalPath is environment-specific; the caller re-derives it
    // from the "journal" flag (see replayMain).
    params->journalPath.clear();
    const JsonValue *vj = doc.get("violation");
    if (vj) {
        violation->invariant = vj->getString("invariant");
        violation->detail = vj->getString("detail");
    }
    sched->clear();
    const JsonValue *arr = doc.get("schedule");
    if (arr) {
        for (const JsonValue &ej : arr->items()) {
            ChaosEvent e;
            if (!enumFromJson(ej, "kind", &e.kind, err))
                return false;
            e.edge = ej.getString("edge");
            e.ord = ej.getU64("ord");
            e.param = ej.getU64("param");
            e.param2 = ej.getU64("param2");
            sched->push_back(std::move(e));
        }
    }
    return true;
}

int
exploreMain(const ExplorerOptions &opts)
{
    std::error_code ec;
    fs::create_directories(opts.fabsimDir, ec);
    std::uint64_t explored = 0, violations = 0;
    for (std::uint64_t s = opts.seedLo; s <= opts.seedHi; ++s) {
        WorldParams p = deriveWorld(s, opts);
        WorldResult r = runWorld(p, nullptr);
        ++explored;
        if (r.violation.invariant.empty())
            continue;
        ++violations;
        std::string path =
            opts.fabsimDir + "/" +
            strfmt("seed-%llu-%s.fabsim.json", (unsigned long long)s,
                   enumName(opts.profile));
        std::ofstream out(path, std::ios::trunc);
        out << fabsimToJson(p, r.violation, r.schedule).dump()
            << "\n";
        out.close();
        warn("simnet: seed %llu violated [%s] %s -> %s (%zu events)",
             (unsigned long long)s, r.violation.invariant.c_str(),
             r.violation.detail.c_str(), path.c_str(),
             r.schedule.size());
    }
    inform("simnet: explored %llu seed(s) on profile '%s': "
           "%llu violation(s)",
           (unsigned long long)explored,
           enumName(opts.profile),
           (unsigned long long)violations);
    return violations
               ? chaos::exitCodeFor(
                     chaos::SimError::Reason::FabricSimViolation)
               : 0;
}

int
replayMain(const std::string &file, bool minimize,
           const std::string &fabsimDir)
{
    std::ifstream in(file);
    if (!in) {
        warn("simnet: cannot open %s", file.c_str());
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    JsonValue doc;
    if (!JsonValue::parse(buf.str(), &doc, &err)) {
        warn("simnet: %s: %s", file.c_str(), err.c_str());
        return 1;
    }
    WorldParams params;
    Violation recorded;
    std::vector<ChaosEvent> schedule;
    if (!fabsimFromJson(doc, &params, &recorded, &schedule, &err)) {
        warn("simnet: %s: %s", file.c_str(), err.c_str());
        return 1;
    }
    const JsonValue *pj = doc.get("params");
    if (pj && pj->getBool("journal")) {
        std::error_code ec;
        fs::create_directories(fabsimDir, ec);
        params.journalPath =
            fabsimDir + "/journal-replay-" +
            std::to_string(params.seed);
    }

    WorldResult r = runWorld(params, &schedule);
    bool reproduced = !recorded.invariant.empty() &&
                      r.violation.invariant == recorded.invariant;
    inform("simnet: replay of %s (seed %llu, %s, %zu events): "
           "violation [%s] %s",
           file.c_str(), (unsigned long long)params.seed,
           enumName(params.profile), schedule.size(),
           r.violation.invariant.empty()
               ? "none"
               : r.violation.invariant.c_str(),
           reproduced ? "(reproduced)" : "(MISMATCH)");
    if (!minimize)
        return reproduced ? 0 : 1;
    if (!reproduced) {
        warn("simnet: refusing to minimize: the recorded violation "
             "did not reproduce");
        return 1;
    }

    // ddmin over event ordinals: a candidate subset passes when the
    // world, scripted to inject ONLY those events, still trips the
    // same invariant.
    std::vector<std::uint64_t> initial(schedule.size());
    std::iota(initial.begin(), initial.end(), 0);
    triage::BatchTest test =
        [&](const std::vector<std::vector<std::uint64_t>> &cands) {
            std::vector<char> verdicts;
            verdicts.reserve(cands.size());
            for (const auto &cand : cands) {
                std::vector<ChaosEvent> sub;
                sub.reserve(cand.size());
                for (std::uint64_t ord : cand)
                    sub.push_back(schedule[ord]);
                WorldResult rr = runWorld(params, &sub);
                verdicts.push_back(
                    rr.violation.invariant == recorded.invariant
                        ? 1
                        : 0);
            }
            return verdicts;
        };
    triage::MinimizeOptions mo;
    mo.threads = 1; // worlds share journal scratch; keep it serial
    triage::MinimizeResult min =
        triage::minimizeOrdinals(initial, test, mo);
    std::vector<ChaosEvent> minimal;
    minimal.reserve(min.ordinals.size());
    for (std::uint64_t ord : min.ordinals)
        minimal.push_back(schedule[ord]);
    WorldResult conf = runWorld(params, &minimal);
    bool holds = conf.violation.invariant == recorded.invariant;
    std::string minPath = file + ".min.json";
    std::ofstream out(minPath, std::ios::trunc);
    out << fabsimToJson(params, conf.violation, minimal).dump()
        << "\n";
    out.close();
    inform("simnet: minimized %zu -> %zu event(s) in %zu test "
           "run(s) / %u round(s)%s -> %s",
           schedule.size(), minimal.size(), min.testsRun, min.rounds,
           min.converged ? "" : " (round budget hit)",
           minPath.c_str());
    if (!holds)
        warn("simnet: minimized schedule no longer reproduces "
             "[%s]",
             recorded.invariant.c_str());
    return holds ? 0 : 1;
}

} // namespace edge::serve::simnet
