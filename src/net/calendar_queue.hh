/**
 * @file
 * The operand network's in-flight message queue: a calendar ring of
 * small integer arrival cycles. Delivery order is exactly (arrival,
 * send order), the order a binary heap keyed on (arrival, seq) gives,
 * without a heap push/pop per message.
 *
 * Events live in one pooled store linked by index, so capacity tracks
 * peak in-flight traffic and delivery never copies a payload. An
 * event goes to one of three places:
 *
 *  - the ring, a FIFO per cycle for arrivals in [base, base + 64),
 *    where base is the next undelivered cycle; one occupancy word
 *    finds the earliest non-empty cycle with a rotate and a ctz;
 *  - the overflow heap, for arrivals at or past the ring's horizon
 *    (DRAM-latency load replies); when base advances, every overflow
 *    event that enters the horizon moves into its ring FIFO at once,
 *    before anything sent later can land on the same cycle, so each
 *    FIFO stays in send order;
 *  - the late list, for arrivals before base (the local bypass sends
 *    at the cycle just delivered). Those are due before anything in
 *    the ring; the list is kept sorted by arrival, stable in send
 *    order.
 */

#ifndef EDGE_NET_CALENDAR_QUEUE_HH
#define EDGE_NET_CALENDAR_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace edge::net {

template <typename Payload>
class CalendarQueue
{
  public:
    /** Returned by nextArrival() when the queue is empty. */
    static constexpr Cycle kNone = ~Cycle{0};

    /** Enqueue a copy of `payload` for delivery at cycle `arrival`. */
    void
    push(Cycle arrival, const Payload &payload)
    {
        emplace(arrival, payload);
    }

    /**
     * Enqueue Payload{args...} for delivery at cycle `arrival`, built
     * straight into its pool slot: a send copies its message once.
     */
    template <typename... Args>
    void
    emplace(Cycle arrival, Args &&...args)
    {
        std::uint32_t idx = alloc(arrival);
        _pool[idx].payload = Payload{std::forward<Args>(args)...};
        ++_count;
        if (arrival < _base)
            linkLate(idx);
        else if (arrival - _base < kRingSize)
            linkRing(idx);
        else
            pushFar(idx);
    }

    /**
     * Deliver, in (arrival, send order) order, every event whose
     * arrival is at or before `now`. `fn(Payload &&)` may push new
     * events, including ones due at or before `now`: they are
     * delivered in this same call, in the order a heap would pop them.
     */
    template <typename Fn>
    void
    deliver(Cycle now, Fn &&fn)
    {
        for (;;) {
            std::uint32_t idx;
            if (_lateHead != kNil && _pool[_lateHead].arrival <= now) {
                idx = _lateHead;
                _lateHead = _pool[idx].next;
                if (_lateHead == kNil)
                    _lateTail = kNil;
            } else {
                Cycle c = firstQueued();
                if (c > now)
                    break;
                advanceTo(c);
                idx = popRing(c);
            }
            --_count;
            Payload payload = std::move(_pool[idx].payload);
            release(idx);
            fn(std::move(payload));
        }
        if (now >= _base)
            advanceTo(now + 1);
    }

    /** Arrival of the earliest queued event, or kNone. */
    Cycle
    nextArrival() const
    {
        return _lateHead != kNil ? _pool[_lateHead].arrival : firstQueued();
    }

    std::size_t size() const { return _count; }
    bool empty() const { return _count == 0; }

    /** Drop every queued event (machine reset). */
    void clear() { *this = CalendarQueue(); }

  private:
    static constexpr unsigned kRingSize = 64; ///< one occupancy word
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    using Fifos = std::array<std::uint32_t, kRingSize>;
    static constexpr Fifos kNoFifos = [] {
        Fifos f{};
        f.fill(kNil);
        return f;
    }();

    struct Event
    {
        Cycle arrival = 0;
        std::uint32_t next = kNil; ///< FIFO / late-list / free-list link
        Payload payload{};
    };

    /** An overflow entry; seq keeps equal arrivals in send order. */
    struct Far
    {
        Cycle arrival;
        std::uint64_t seq;
        std::uint32_t idx;

        bool
        operator>(const Far &o) const
        {
            return arrival != o.arrival ? arrival > o.arrival
                                        : seq > o.seq;
        }
    };

    /** A pool slot for an event at `arrival`; the caller fills it. */
    std::uint32_t
    alloc(Cycle arrival)
    {
        if (_free == kNil) {
            _pool.emplace_back();
            _pool.back().arrival = arrival;
            _pool.back().next = kNil;
            return static_cast<std::uint32_t>(_pool.size() - 1);
        }
        std::uint32_t idx = _free;
        _free = _pool[idx].next;
        _pool[idx].arrival = arrival;
        _pool[idx].next = kNil;
        return idx;
    }

    void
    release(std::uint32_t idx)
    {
        _pool[idx].next = _free;
        _free = idx;
    }

    static unsigned slotOf(Cycle c) { return c & (kRingSize - 1); }

    void
    linkRing(std::uint32_t idx)
    {
        unsigned s = slotOf(_pool[idx].arrival);
        if (_tail[s] == kNil)
            _head[s] = idx;
        else
            _pool[_tail[s]].next = idx;
        _tail[s] = idx;
        _occupied |= std::uint64_t{1} << s;
    }

    std::uint32_t
    popRing(Cycle c)
    {
        unsigned s = slotOf(c);
        std::uint32_t idx = _head[s];
        _head[s] = _pool[idx].next;
        if (_head[s] == kNil) {
            _tail[s] = kNil;
            _occupied &= ~(std::uint64_t{1} << s);
        }
        return idx;
    }

    /** Insert after every late event arriving at or before this one. */
    void
    linkLate(std::uint32_t idx)
    {
        Cycle a = _pool[idx].arrival;
        if (_lateTail == kNil) {
            _lateHead = _lateTail = idx;
        } else if (_pool[_lateTail].arrival <= a) {
            _pool[_lateTail].next = idx;
            _lateTail = idx;
        } else if (a < _pool[_lateHead].arrival) {
            _pool[idx].next = _lateHead;
            _lateHead = idx;
        } else {
            std::uint32_t prev = _lateHead;
            while (_pool[_pool[prev].next].arrival <= a)
                prev = _pool[prev].next;
            _pool[idx].next = _pool[prev].next;
            _pool[prev].next = idx;
        }
    }

    void
    pushFar(std::uint32_t idx)
    {
        _far.push_back(Far{_pool[idx].arrival, _farSeq++, idx});
        std::push_heap(_far.begin(), _far.end(), std::greater<Far>{});
    }

    /** Earliest arrival in the ring or the overflow heap, or kNone. */
    Cycle
    firstQueued() const
    {
        if (_occupied) {
            unsigned rot = slotOf(_base);
            std::uint64_t w = (_occupied >> rot) |
                              (rot ? _occupied << (kRingSize - rot) : 0);
            return _base + static_cast<unsigned>(__builtin_ctzll(w));
        }
        return _far.empty() ? kNone : _far.front().arrival;
    }

    /**
     * Move base forward to `c` (every ring cycle before it is empty)
     * and pull the overflow events that now fall inside the horizon
     * into their FIFOs, in (arrival, seq) order.
     */
    void
    advanceTo(Cycle c)
    {
        if (c <= _base)
            return;
        _base = c;
        while (!_far.empty() && _far.front().arrival < _base + kRingSize) {
            std::uint32_t idx = _far.front().idx;
            std::pop_heap(_far.begin(), _far.end(), std::greater<Far>{});
            _far.pop_back();
            _pool[idx].next = kNil;
            linkRing(idx);
        }
    }

    std::vector<Event> _pool;
    std::uint32_t _free = kNil; ///< free-list head in _pool
    Fifos _head = kNoFifos;     ///< per ring slot, first event
    Fifos _tail = kNoFifos;     ///< per ring slot, last event
    std::uint64_t _occupied = 0; ///< bit s: ring FIFO s is non-empty
    Cycle _base = 0;            ///< next undelivered cycle
    std::uint32_t _lateHead = kNil;
    std::uint32_t _lateTail = kNil;
    std::vector<Far> _far;      ///< min-heap of beyond-horizon events
    std::uint64_t _farSeq = 0;
    std::size_t _count = 0;
};

} // namespace edge::net

#endif // EDGE_NET_CALENDAR_QUEUE_HH
