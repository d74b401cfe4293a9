/**
 * @file
 * The operand micronetwork: a 2-D mesh carrying single-flit operand
 * messages between execution nodes, the register-file row and the
 * LSQ/D-cache column. Timing model: X-Y routing, one message per
 * link per cycle (greedy reservation in send order, which is
 * deterministic because the core ticks components in a fixed order),
 * `hopLatency` cycles per traversed link, zero-cost local bypass
 * when source == destination.
 *
 * Every (src, dst) route is computed once per mesh geometry into a
 * flat link table that all meshes of that geometry share (see
 * net::routeTable); a send walks its row of the table. In-flight
 * messages wait in a CalendarQueue (net/calendar_queue.hh), which
 * delivers them in (arrival, send order) order.
 *
 * Mesh is a class template over the payload so the network layer
 * stays independent of core message formats.
 */

#ifndef EDGE_NET_MESH_HH
#define EDGE_NET_MESH_HH

#include <algorithm>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "net/calendar_queue.hh"
#include "net/route.hh"

namespace edge::net {

struct MeshParams
{
    MeshGeom geom;
    unsigned hopLatency = 1; ///< cycles per link traversal
    std::string statPrefix = "net"; ///< counter namespace
    /**
     * Optional fault injector (not owned): adds extra hop delay to
     * some messages and delivers duplicates of others. Safe for any
     * payload whose consumers drop stale waves — which is exactly
     * the protocol property the chaos harness exercises.
     */
    chaos::ChaosEngine *chaos = nullptr;
};

template <typename Payload>
class Mesh
{
  public:
    Mesh(const MeshParams &params, StatSet &stats)
        : _p(params),
          _numRouters(_p.geom.rows * _p.geom.cols),
          _linkFree(numLinks(_p.geom), 0),
          _routes(&routeTable(_p.geom)),
          _sent(stats.counter(_p.statPrefix + ".messages",
                              "messages sent")),
          _delivered(stats.counter(_p.statPrefix + ".delivered",
                                   "messages delivered")),
          _hops(stats.counter(_p.statPrefix + ".hops",
                              "total link traversals")),
          _queued(stats.counter(_p.statPrefix + ".queue_cycles",
                                "cycles spent waiting for links"))
    {
    }

    /**
     * Inject a message at cycle `now`; it becomes visible to the
     * destination's deliver phase at the returned cycle. The payload
     * is copied once, into the in-flight queue.
     */
    Cycle
    send(Cycle now, Coord src, Coord dst, const Payload &payload)
    {
        ++_sent;
        Cycle t = now;
        if (!(src == dst)) {
            std::size_t pair =
                std::size_t{routerOf(src)} * _numRouters + routerOf(dst);
            std::uint32_t first = _routes->off[pair];
            std::uint32_t last = _routes->off[pair + 1];
            // Locals, not the counters: the link stores below could
            // alias them and force a reload every hop.
            const unsigned hop = _p.hopLatency;
            Cycle waited = 0;
            for (std::uint32_t i = first; i < last; ++i) {
                Cycle &link_free = _linkFree[_routes->links[i]];
                Cycle start = std::max(t, link_free);
                waited += start - t;
                link_free = start + 1;
                t = start + hop;
            }
            _queued += waited;
            _hops += last - first;
        }
        if (_p.chaos) {
            // Chaos: hold this message on a congested virtual channel
            // for a few extra cycles, and sometimes deliver a second,
            // bit-identical copy later. Consumers drop the copy as a
            // stale wave — duplicate delivery is idempotent.
            t += _p.chaos->hopJitter();
            if (_p.chaos->duplicate())
                _queue.emplace(t + _p.chaos->duplicateSkew(), dst, payload);
        }
        _queue.emplace(t, dst, payload);
        return t;
    }

    /**
     * Deliver every message that has arrived by cycle `now`.
     * @param fn invoked as fn(Coord dst, Payload &&msg) in a
     *        deterministic (arrival time, send order) order
     */
    template <typename Fn>
    void
    deliver(Cycle now, Fn &&fn)
    {
        _queue.deliver(now, [&](Event &&ev) {
            ++_delivered;
            fn(ev.dst, std::move(ev.payload));
        });
    }

    bool empty() const { return _queue.empty(); }
    std::size_t inFlight() const { return _queue.size(); }

    /**
     * Arrival cycle of the earliest in-flight message, or ~Cycle{0}
     * when the network is empty. The cycle loop uses this
     * to jump straight to the next delivery instead of polling.
     */
    Cycle nextArrival() const { return _queue.nextArrival(); }

    /** Drop all in-flight traffic and link state (machine reset). */
    void
    reset()
    {
        _queue.clear();
        std::fill(_linkFree.begin(), _linkFree.end(), 0);
    }

    const MeshParams &params() const { return _p; }

  private:
    struct Event
    {
        Coord dst;
        Payload payload;
    };

    unsigned
    routerOf(Coord c) const
    {
        panic_if(c.row >= _p.geom.rows || c.col >= _p.geom.cols,
                 "coordinate outside the %ux%u mesh", _p.geom.rows,
                 _p.geom.cols);
        return c.row * _p.geom.cols + c.col;
    }

    MeshParams _p;
    unsigned _numRouters;
    std::vector<Cycle> _linkFree;
    const RouteTable *_routes; ///< shared per geometry, never null
    CalendarQueue<Event> _queue;

    Counter &_sent;
    Counter &_delivered;
    Counter &_hops;
    Counter &_queued;
};

} // namespace edge::net

#endif // EDGE_NET_MESH_HH
