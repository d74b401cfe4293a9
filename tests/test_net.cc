/**
 * @file
 * Unit tests for the operand micronetwork: X-Y routing properties
 * (checked exhaustively over all coordinate pairs), hop counting,
 * mesh delivery latency, local bypass, link contention, delivery
 * determinism and reset, and a randomized differential of the mesh
 * (route table + calendar queue) against the reference heap mesh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "chaos/chaos.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "net/mesh.hh"
#include "net/route.hh"

namespace edge::net {
namespace {

using CoordPair = std::tuple<int, int, int, int>;

class RouteAllPairs : public ::testing::TestWithParam<CoordPair>
{
};

TEST_P(RouteAllPairs, PathLengthEqualsManhattanDistance)
{
    auto [r0, c0, r1, c1] = GetParam();
    MeshGeom geom{5, 5};
    Coord src{static_cast<std::uint16_t>(r0),
              static_cast<std::uint16_t>(c0)};
    Coord dst{static_cast<std::uint16_t>(r1),
              static_cast<std::uint16_t>(c1)};
    auto path = routeXY(geom, src, dst);
    EXPECT_EQ(path.size(), hopCount(src, dst));
    // Links must be distinct (no loops under dimension order).
    std::set<LinkId> unique(path.begin(), path.end());
    EXPECT_EQ(unique.size(), path.size());
    for (LinkId l : path)
        EXPECT_LT(l, numLinks(geom));
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, RouteAllPairs,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 5),
                       ::testing::Range(0, 5), ::testing::Range(0, 5)));

TEST(Route, HopCountIsSymmetric)
{
    Coord a{0, 4}, b{3, 1};
    EXPECT_EQ(hopCount(a, b), hopCount(b, a));
    EXPECT_EQ(hopCount(a, b), 6u);
    EXPECT_EQ(hopCount(a, a), 0u);
}

TEST(Route, SharedPrefixForSameColumnTargets)
{
    // X-then-Y: routes to the same column share the X leg.
    MeshGeom geom{5, 5};
    auto p1 = routeXY(geom, {0, 0}, {3, 2});
    auto p2 = routeXY(geom, {0, 0}, {4, 2});
    ASSERT_GE(p1.size(), 2u);
    EXPECT_EQ(p1[0], p2[0]);
    EXPECT_EQ(p1[1], p2[1]);
}

TEST(Route, TableIsSharedPerGeometryAndHoldsEveryRoute)
{
    MeshGeom geom{3, 4};
    const RouteTable &t = routeTable(geom);
    EXPECT_EQ(&t, &routeTable(MeshGeom{3, 4})); // one per geometry
    EXPECT_NE(&t, &routeTable(MeshGeom{4, 3}));
    unsigned n = geom.rows * geom.cols;
    ASSERT_EQ(t.off.size(), std::size_t{n} * n + 1);
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            Coord cs{static_cast<std::uint16_t>(s / geom.cols),
                     static_cast<std::uint16_t>(s % geom.cols)};
            Coord cd{static_cast<std::uint16_t>(d / geom.cols),
                     static_cast<std::uint16_t>(d % geom.cols)};
            std::size_t pair = std::size_t{s} * n + d;
            std::vector<LinkId> row(t.links.begin() + t.off[pair],
                                    t.links.begin() + t.off[pair + 1]);
            EXPECT_EQ(row, routeXY(geom, cs, cd));
        }
    }
}

TEST(Mesh, DeliversAfterHopLatency)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 1;
    Mesh<int> mesh(p, stats);
    Cycle arrival = mesh.send(10, {0, 0}, {0, 3}, 42);
    EXPECT_EQ(arrival, 13u); // 3 hops x 1 cycle

    int got = -1;
    mesh.deliver(12, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, -1); // not yet
    mesh.deliver(13, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, 42);
    EXPECT_TRUE(mesh.empty());
}

TEST(Mesh, LocalBypassIsFree)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    EXPECT_EQ(mesh.send(7, {2, 2}, {2, 2}, 1), 7u);
    EXPECT_EQ(stats.counterValue("net.hops"), 0u);
}

TEST(Mesh, HopLatencyScales)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 3;
    Mesh<int> mesh(p, stats);
    EXPECT_EQ(mesh.send(0, {0, 0}, {2, 2}, 0), 12u); // 4 hops x 3
}

TEST(Mesh, LinkContentionSerialises)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    // Two messages wanting the same first link in the same cycle.
    Cycle a = mesh.send(0, {0, 0}, {0, 1}, 1);
    Cycle b = mesh.send(0, {0, 0}, {0, 1}, 2);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u); // waited one cycle for the link
    EXPECT_EQ(stats.counterValue("net.queue_cycles"), 1u);
}

TEST(Mesh, DisjointPathsDoNotContend)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    Cycle a = mesh.send(0, {0, 0}, {0, 1}, 1);
    Cycle b = mesh.send(0, {1, 0}, {1, 1}, 2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(stats.counterValue("net.queue_cycles"), 0u);
}

TEST(Mesh, DeliveryOrderIsArrivalThenSendOrder)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(0, {0, 0}, {0, 2}, 1); // 2 hops -> arrives 2
    mesh.send(0, {4, 1}, {4, 2}, 2); // 1 hop  -> arrives 1
    mesh.send(1, {3, 1}, {3, 2}, 3); // 1 hop  -> arrives 2
    std::vector<int> order;
    mesh.deliver(10, [&](Coord, int &&v) { order.push_back(v); });
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(Mesh, StatPrefixSeparatesInstances)
{
    StatSet stats("t");
    MeshParams p1;
    MeshParams p2;
    p2.statPrefix = "gcn";
    Mesh<int> a(p1, stats), b(p2, stats);
    a.send(0, {0, 0}, {0, 1}, 1);
    EXPECT_EQ(stats.counterValue("net.messages"), 1u);
    EXPECT_EQ(stats.counterValue("gcn.messages"), 0u);
}

TEST(Mesh, ResetDropsTraffic)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(0, {0, 0}, {4, 4}, 9);
    EXPECT_EQ(mesh.inFlight(), 1u);
    mesh.reset();
    EXPECT_TRUE(mesh.empty());
    int got = -1;
    mesh.deliver(100, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, -1);
}

/**
 * The reference mesh: the same timing model with a fresh routeXY per
 * send and a binary heap on (arrival, seq), which is what Mesh was
 * before its route table and calendar queue.
 */
class RefMesh
{
  public:
    explicit RefMesh(const MeshParams &p)
        : _p(p), _linkFree(numLinks(p.geom), 0)
    {
    }

    Cycle
    send(Cycle now, Coord src, Coord dst, int payload)
    {
        Cycle t = now;
        for (LinkId link : routeXY(_p.geom, src, dst)) {
            Cycle start = std::max(t, _linkFree[link]);
            _linkFree[link] = start + 1;
            t = start + _p.hopLatency;
        }
        if (_p.chaos) {
            t += _p.chaos->hopJitter();
            if (_p.chaos->duplicate())
                push(t + _p.chaos->duplicateSkew(), dst, payload);
        }
        push(t, dst, payload);
        return t;
    }

    template <typename Fn>
    void
    deliver(Cycle now, Fn &&fn)
    {
        while (!_heap.empty() && _heap.front().arrival <= now) {
            std::pop_heap(_heap.begin(), _heap.end(), laterThan);
            Event ev = _heap.back();
            _heap.pop_back();
            fn(ev.dst, std::move(ev.payload));
        }
    }

    Cycle
    nextArrival() const
    {
        return _heap.empty() ? ~Cycle{0} : _heap.front().arrival;
    }

    std::size_t inFlight() const { return _heap.size(); }

    void
    reset()
    {
        _heap.clear();
        std::fill(_linkFree.begin(), _linkFree.end(), 0);
    }

  private:
    struct Event
    {
        Cycle arrival;
        std::uint64_t seq;
        Coord dst;
        int payload;
    };

    /** Min-heap on (arrival, seq). */
    static bool
    laterThan(const Event &a, const Event &b)
    {
        return a.arrival != b.arrival ? a.arrival > b.arrival
                                      : a.seq > b.seq;
    }

    void
    push(Cycle arrival, Coord dst, int payload)
    {
        _heap.push_back(Event{arrival, _seq++, dst, payload});
        std::push_heap(_heap.begin(), _heap.end(), laterThan);
    }

    MeshParams _p;
    std::vector<Cycle> _linkFree;
    std::vector<Event> _heap;
    std::uint64_t _seq = 0;
};

TEST(MeshQueue, MatchesTheReferenceHeapUnderRandomTraffic)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        MeshParams p;
        p.hopLatency = static_cast<unsigned>(seed); // 1..8
        // Net-profile jitter and duplicates, stretched so that some
        // messages land past the 64-cycle ring horizon.
        chaos::ChaosParams cp =
            chaos::ChaosParams::byProfile(chaos::Profile::Net, seed);
        cp.hopDelayMax = 100;
        cp.duplicateSkewMax = 80;
        chaos::ChaosEngine chaos_mesh(cp), chaos_ref(cp);
        MeshParams pm = p, pr = p;
        pm.chaos = &chaos_mesh;
        pr.chaos = &chaos_ref;
        StatSet stats("t");
        Mesh<int> mesh(pm, stats);
        RefMesh ref(pr);

        using Got = std::tuple<int, int, int>; // dst row, dst col, id
        std::vector<Got> got, want;
        Cycle now = 0;
        // Positive ids divisible by 5 send a follow-up from inside the
        // delivery callback, due up to 2 cycles before the cycle being
        // delivered: re-entrant sends, some behind the delivered cycle.
        auto on = [&now](auto &m, std::vector<Got> &log) {
            return [&m, &log, &now](Coord dst, int &&id) {
                log.emplace_back(dst.row, dst.col, id);
                if (id > 0 && id % 5 == 0)
                    m.send(now - std::min<Cycle>(now, id % 3), dst, dst,
                           -id);
            };
        };
        auto coord = [&rng] {
            return Coord{static_cast<std::uint16_t>(rng.below(5)),
                         static_cast<std::uint16_t>(rng.below(5))};
        };

        int id = 0;
        for (int op = 0; op < 10000; ++op) {
            std::uint64_t r = rng.below(100);
            if (r < 55) {
                Cycle at = now + rng.below(4);
                if (r < 10)
                    at = now - std::min<Cycle>(now, rng.below(6));
                else if (r < 15)
                    at = now + rng.range(60, 400); // past the horizon
                Coord src = coord();
                Coord dst = rng.chance(1, 4) ? src : coord();
                ++id;
                ASSERT_EQ(mesh.send(at, src, dst, id),
                          ref.send(at, src, dst, id));
            } else if (r < 95) {
                now += rng.chance(1, 8) ? rng.range(20, 300)
                                        : rng.below(3);
                mesh.deliver(now, on(mesh, got));
                ref.deliver(now, on(ref, want));
                ASSERT_EQ(got, want) << "op " << op;
            } else if (r < 99) {
                // A delivery call behind the last one (only late
                // arrivals can be due).
                Cycle back = now;
                now -= std::min<Cycle>(now, rng.below(4));
                mesh.deliver(now, on(mesh, got));
                ref.deliver(now, on(ref, want));
                now = back;
                ASSERT_EQ(got, want) << "op " << op;
            } else {
                mesh.reset();
                ref.reset();
            }
            ASSERT_EQ(mesh.nextArrival(), ref.nextArrival()) << "op " << op;
            ASSERT_EQ(mesh.inFlight(), ref.inFlight()) << "op " << op;
        }
        // Drain; a follow-up sent while draining can be jittered past
        // the drain cycle, hence the loop.
        while (!mesh.empty() || ref.inFlight()) {
            now += 1000;
            mesh.deliver(now, on(mesh, got));
            ref.deliver(now, on(ref, want));
        }
        EXPECT_EQ(got, want);
        EXPECT_TRUE(mesh.empty());
        EXPECT_EQ(ref.inFlight(), 0u);
        EXPECT_GT(got.size(), 5000u);
    }
}

} // namespace
} // namespace edge::net
