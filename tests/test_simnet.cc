/**
 * @file
 * The deterministic fabric simulation, tested at three layers:
 *
 *  - VirtualClock units: deadline math, sleep-as-jump, monotonicity.
 *  - SimNet semantics: event ordering, no-wait fast-forward, stream
 *    delivery, close notification, scripted chaos.
 *  - Whole worlds: clean multi-profile seed sweeps with zero
 *    invariant violations, a scripted duplicated result,
 *    generative-run determinism, fabsim
 *    capture round-trips, and (under EDGE_MUTATIONS) the planted
 *    hedge-revocation regression — found by the explorer in a
 *    bounded seed range and ddmin'd to a handful of events.
 */

#include <filesystem>
#include <numeric>

#include <gtest/gtest.h>

#include "serve/clock.hh"
#include "serve/simnet/explorer.hh"
#include "serve/simnet/simnet.hh"
#include "triage/minimize.hh"

using namespace edge;
using namespace edge::serve;
using namespace edge::serve::simnet;

namespace {

/** Per-suite scratch dir for crash-profile journal files. */
std::string
scratchDir()
{
    std::string dir = "test-fabsim-scratch";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

} // namespace

// --- VirtualClock ---------------------------------------------------

TEST(VirtualClock, StartsAtEpochAndJumps)
{
    VirtualClock c;
    EXPECT_EQ(c.nowMs(), 0u);
    c.advanceMs(5);
    EXPECT_EQ(c.nowMs(), 5u);
    // A virtual sleep is a pure jump: no wall time, exact amount.
    c.sleepFor(100);
    EXPECT_EQ(c.nowMs(), 105u);
}

TEST(VirtualClock, DeadlineMathClampsAtZero)
{
    VirtualClock c;
    Clock::time_point start = c.now();
    Clock::time_point deadline =
        start + std::chrono::milliseconds(50);
    EXPECT_EQ(c.msUntil(deadline), 50);
    c.advanceMs(20);
    EXPECT_EQ(c.msUntil(deadline), 30);
    c.advanceMs(100);
    EXPECT_EQ(c.msUntil(deadline), 0); // past deadlines clamp
}

TEST(VirtualClock, Monotonic)
{
    VirtualClock c;
    c.advanceMs(100);
    Clock::time_point past =
        c.now() - std::chrono::milliseconds(50);
    c.advanceTo(past); // backwards target is a no-op
    EXPECT_EQ(c.nowMs(), 100u);
    c.advanceTo(c.now() + std::chrono::milliseconds(7));
    EXPECT_EQ(c.nowMs(), 107u);
}

// --- SimNet event queue ---------------------------------------------

TEST(SimNet, FiresInTimeThenSchedulingOrder)
{
    SimNet net(7, SimProfile::None);
    std::vector<int> order;
    net.at(10, [&] { order.push_back(1); });
    net.at(10, [&] { order.push_back(2); }); // same time: FIFO
    net.at(5, [&] { order.push_back(0); });
    net.after(20, [&] { order.push_back(3); });
    net.runFor(15);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    // No-wait fast-forward: the clock lands on the window end even
    // though the last event was at t=10.
    EXPECT_EQ(net.nowMs(), 15u);
    net.runFor(100);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[3], 3);
    EXPECT_EQ(net.nowMs(), 115u);
}

TEST(SimNet, PastScheduleClampsToNow)
{
    SimNet net(7, SimProfile::None);
    net.runFor(50);
    bool fired = false;
    net.at(10, [&] { fired = true; }); // in the past: fires "now"
    net.runFor(1);
    EXPECT_TRUE(fired);
}

// --- SimStream / SimTransport ---------------------------------------

TEST(SimStream, ConnectRequiresAListener)
{
    SimNet net(1, SimProfile::None);
    EXPECT_EQ(net.connect("a0.0", false, [] {}), nullptr);
}

TEST(SimStream, DeliversBothWaysAndWakes)
{
    SimNet net(1, SimProfile::None);
    SimTransport tr(&net);
    std::string err;
    ASSERT_TRUE(tr.listen(0, &err));
    int wakes = 0;
    auto s = net.connect("a0.0", false, [&] { ++wakes; });
    ASSERT_NE(s, nullptr);
    s->send("hello");
    std::vector<std::unique_ptr<Stream>> accepted;
    tr.pump(10, {}, &accepted);
    ASSERT_EQ(accepted.size(), 1u);
    std::string line;
    ASSERT_TRUE(accepted[0]->nextLine(&line));
    EXPECT_EQ(line, "hello");
    EXPECT_FALSE(accepted[0]->nextLine(&line));

    accepted[0]->send("welcome");
    net.runFor(10);
    EXPECT_GE(wakes, 1);
    ASSERT_TRUE(s->nextLine(&line));
    EXPECT_EQ(line, "welcome");
}

TEST(SimStream, ClosingKillsThePeer)
{
    SimNet net(2, SimProfile::None);
    SimTransport tr(&net);
    std::string err;
    ASSERT_TRUE(tr.listen(0, &err));
    int wakes = 0;
    auto s = net.connect("a0.0", false, [&] { ++wakes; });
    ASSERT_NE(s, nullptr);
    std::vector<std::unique_ptr<Stream>> accepted;
    tr.pump(10, {}, &accepted);
    ASSERT_EQ(accepted.size(), 1u);

    accepted[0].reset();
    EXPECT_FALSE(s->dead());
    net.runFor(5); // the kill notification is an event, never inline
    EXPECT_TRUE(s->dead());
    EXPECT_GE(wakes, 1);
}

TEST(SimStream, ScriptedDropRemovesExactlyThatMessage)
{
    SimNet net(3, SimProfile::None);
    net.setScript({ChaosEvent{EvKind::Drop, "a0.0>c", 1, 0, 0}});
    SimTransport tr(&net);
    std::string err;
    ASSERT_TRUE(tr.listen(0, &err));
    auto s = net.connect("a0.0", /*chaosArmed=*/true, [] {});
    ASSERT_NE(s, nullptr);
    s->send("m0"); // ord 0: delivered
    s->send("m1"); // ord 1: scripted drop
    s->send("m2"); // ord 2: delivered
    std::vector<std::unique_ptr<Stream>> accepted;
    tr.pump(20, {}, &accepted);
    ASSERT_EQ(accepted.size(), 1u);
    std::vector<std::string> got;
    std::string line;
    while (accepted[0]->nextLine(&line))
        got.push_back(line);
    ASSERT_EQ(got.size(), 2u); // base latency may reorder m0/m2
    EXPECT_TRUE((got[0] == "m0" && got[1] == "m2") ||
                (got[0] == "m2" && got[1] == "m0"));
    // The drop was recorded as a fired event.
    ASSERT_EQ(net.fired().size(), 1u);
    EXPECT_EQ(net.fired()[0].kind, EvKind::Drop);
    EXPECT_EQ(net.fired()[0].edge, "a0.0>c");
    EXPECT_EQ(net.fired()[0].ord, 1u);
}

// --- whole worlds ---------------------------------------------------

TEST(SimWorld, CleanSeedsAcrossProfiles)
{
    ExplorerOptions xo;
    xo.fabsimDir = scratchDir();
    for (SimProfile p :
         {SimProfile::None, SimProfile::Drop, SimProfile::Partition,
          SimProfile::CrashRestart, SimProfile::Liar}) {
        xo.profile = p;
        for (std::uint64_t s = 0; s < 8; ++s) {
            WorldParams wp = deriveWorld(s, xo);
            WorldResult r = runWorld(wp, nullptr);
            EXPECT_EQ(r.violation.invariant, "")
                << enumName(p) << " seed " << s << ": "
                << r.violation.detail;
        }
    }
}

TEST(SimWorld, ScriptedDuplicateResultIsDeduped)
{
    // One agent, one client, no generative chaos: on agent 0's first
    // connection, message 0 is its hello and message 1 its first
    // result (cells execute in 5-30 virtual ms; the first heartbeat
    // is 200 ms out). Delivering that result twice must land on the
    // coordinator's dedup path and leave the report byte-identical.
    WorldParams wp;
    wp.seed = 1;
    wp.agents = 1;
    wp.cells = 4;
    wp.clients = 1;
    const ChaosEvent dup{EvKind::Dup, "a0.0>c", 1, 0, 0};
    std::vector<ChaosEvent> script{dup};
    WorldResult r = runWorld(wp, &script);
    EXPECT_EQ(r.violation.invariant, "") << r.violation.detail;
    ASSERT_EQ(r.schedule.size(), 1u);
    EXPECT_EQ(r.schedule[0].kind, dup.kind);
    EXPECT_EQ(r.schedule[0].edge, dup.edge);
    EXPECT_EQ(r.schedule[0].ord, dup.ord);
}

TEST(SimWorld, GenerativeRunsAreDeterministic)
{
    ExplorerOptions xo;
    xo.profile = SimProfile::Heavy;
    xo.fabsimDir = scratchDir();
    WorldParams wp = deriveWorld(4, xo);
    WorldResult a = runWorld(wp, nullptr);
    WorldResult b = runWorld(wp, nullptr);
    // Same seed, same world: bit-identical outcome and schedule.
    EXPECT_EQ(fabsimToJson(wp, a.violation, a.schedule).dump(),
              fabsimToJson(wp, b.violation, b.schedule).dump());
}

TEST(SimWorld, FabsimJsonRoundTrips)
{
    WorldParams wp;
    wp.seed = 42;
    wp.profile = SimProfile::Partition;
    wp.agents = 3;
    wp.cells = 7;
    wp.clients = 2;
    wp.hedgeAfterMs = 400;
    wp.auditFrac = 0.25;
    wp.maxQueued = 1;
    wp.mutateNoHedgeRevoke = true;
    Violation v{"lease-leak", "campaign 0 ended with 1 live lease(s)"};
    std::vector<ChaosEvent> sched{
        {EvKind::Drop, "a0.0>c", 3, 0, 0},
        {EvKind::Delay, "a1.0<c", 5, 312, 0},
        {EvKind::SlowExec, "a2", 1, 450, 0},
        {EvKind::AgentCrash, "a1", 0, 2100, 700},
        {EvKind::CoordCrash, "coord", 0, 3300, 450},
    };
    triage::JsonValue doc = fabsimToJson(wp, v, sched);

    WorldParams wp2;
    Violation v2;
    std::vector<ChaosEvent> sched2;
    std::string err;
    ASSERT_TRUE(fabsimFromJson(doc, &wp2, &v2, &sched2, &err))
        << err;
    EXPECT_EQ(wp2.seed, wp.seed);
    EXPECT_EQ(wp2.profile, wp.profile);
    EXPECT_EQ(wp2.agents, wp.agents);
    EXPECT_EQ(wp2.cells, wp.cells);
    EXPECT_EQ(wp2.clients, wp.clients);
    EXPECT_EQ(wp2.hedgeAfterMs, wp.hedgeAfterMs);
    EXPECT_DOUBLE_EQ(wp2.auditFrac, wp.auditFrac);
    EXPECT_EQ(wp2.maxQueued, wp.maxQueued);
    EXPECT_TRUE(wp2.mutateNoHedgeRevoke);
    EXPECT_EQ(v2.invariant, v.invariant);
    EXPECT_EQ(v2.detail, v.detail);
    ASSERT_EQ(sched2.size(), sched.size());
    for (std::size_t i = 0; i < sched.size(); ++i) {
        EXPECT_EQ(sched2[i].kind, sched[i].kind);
        EXPECT_EQ(sched2[i].edge, sched[i].edge);
        EXPECT_EQ(sched2[i].ord, sched[i].ord);
        EXPECT_EQ(sched2[i].param, sched[i].param);
        EXPECT_EQ(sched2[i].param2, sched[i].param2);
    }
    // Round-trip is a fixed point.
    EXPECT_EQ(fabsimToJson(wp2, v2, sched2).dump(), doc.dump());
}

TEST(SimWorld, ProfileAndKindNamesRoundTrip)
{
    for (SimProfile p :
         {SimProfile::None, SimProfile::Drop, SimProfile::Delay,
          SimProfile::Partition, SimProfile::CrashRestart,
          SimProfile::Liar, SimProfile::Heavy})
        EXPECT_EQ(enumLookup<SimProfile>(enumName(p)), p);
    for (EvKind k : {EvKind::Drop, EvKind::Dup, EvKind::Delay,
                     EvKind::SlowExec, EvKind::Lie,
                     EvKind::AgentCrash, EvKind::CoordCrash})
        EXPECT_EQ(enumLookup<EvKind>(enumName(k)), k);
}

#ifdef EDGE_MUTATIONS
/** The acceptance loop of the whole subsystem: with the planted
 *  mutation armed (finalize skips revoking hedge siblings), the
 *  explorer must FIND a lease leak within a bounded seed range,
 *  the capture must REPLAY, and ddmin must shrink the schedule to
 *  at most 5 events that still reproduce it. */
TEST(SimRegression, PlantedHedgeLeakFoundReplayedMinimized)
{
    ExplorerOptions xo;
    xo.profile = SimProfile::Delay; // slow wires arm the hedger
    xo.mutateNoHedgeRevoke = true;
    xo.fabsimDir = scratchDir();

    WorldParams found;
    WorldResult capture;
    bool hit = false;
    for (std::uint64_t s = 0; s <= 9 && !hit; ++s) {
        WorldParams wp = deriveWorld(s, xo);
        WorldResult r = runWorld(wp, nullptr);
        if (r.violation.invariant == "lease-leak") {
            found = wp;
            capture = r;
            hit = true;
        }
    }
    ASSERT_TRUE(hit)
        << "planted regression not found in seeds 0..9";
    ASSERT_FALSE(capture.schedule.empty());

    // Scripted replay of the recorded schedule reproduces the leak.
    WorldResult replay = runWorld(found, &capture.schedule);
    ASSERT_EQ(replay.violation.invariant, "lease-leak");

    // ddmin the event ordinals down to a minimal reproducer.
    std::vector<std::uint64_t> initial(capture.schedule.size());
    std::iota(initial.begin(), initial.end(), 0);
    triage::BatchTest test =
        [&](const std::vector<std::vector<std::uint64_t>> &cands) {
            std::vector<char> verdicts;
            for (const auto &cand : cands) {
                std::vector<ChaosEvent> sub;
                for (std::uint64_t ord : cand)
                    sub.push_back(capture.schedule[ord]);
                WorldResult rr = runWorld(found, &sub);
                verdicts.push_back(
                    rr.violation.invariant == "lease-leak" ? 1 : 0);
            }
            return verdicts;
        };
    triage::MinimizeOptions mo;
    mo.threads = 1;
    triage::MinimizeResult min =
        triage::minimizeOrdinals(initial, test, mo);
    EXPECT_TRUE(min.converged);
    EXPECT_LE(min.ordinals.size(), 5u)
        << "minimal schedule larger than the acceptance bound";

    std::vector<ChaosEvent> minimal;
    for (std::uint64_t ord : min.ordinals)
        minimal.push_back(capture.schedule[ord]);
    WorldResult conf = runWorld(found, &minimal);
    EXPECT_EQ(conf.violation.invariant, "lease-leak");

    // With the mutation disarmed the same minimal schedule is clean:
    // the violation is the bug's, not the harness's.
    WorldParams fixed = found;
    fixed.mutateNoHedgeRevoke = false;
    WorldResult clean = runWorld(fixed, &minimal);
    EXPECT_EQ(clean.violation.invariant, "");
}
#endif // EDGE_MUTATIONS
