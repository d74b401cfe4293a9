/**
 * @file
 * Fixed-depth ring buffer of recent machine events. The processor
 * records one TraceEvent per interesting protocol action (operand
 * delivery, wave send, store resolve, commit, flush, injection); when
 * a run fails, the last N events ship with the SimError so a deadlock
 * or invariant violation is diagnosable without rerunning under a
 * debugger.
 */

#ifndef EDGE_CHAOS_TRACE_RING_HH
#define EDGE_CHAOS_TRACE_RING_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/enum_names.hh"
#include "common/strutil.hh"
#include "common/types.hh"

namespace edge::chaos {

struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        Deliver,      ///< operand/status message accepted at a consumer
        Send,         ///< node fired and sent a result wave
        Squash,       ///< identical re-fire squashed at a node
        LoadReply,    ///< LSQ replied to a load
        StoreResolve, ///< store address/data resolved at the LSQ
        Violation,    ///< memory-order violation detected
        Commit,       ///< block committed
        Flush,        ///< pipeline flush
        Inject,       ///< chaos injection applied
    };

    Cycle cycle = 0;
    Kind kind = Kind::Deliver;
    DynBlockSeq seq = 0;
    std::uint32_t node = 0; ///< grid node or LSID, site-dependent
    std::uint32_t wave = 0;
    std::uint64_t value = 0;
    bool final = false;
};

inline constexpr EnumName<TraceEvent::Kind> kTraceKindNames[] = {
    {TraceEvent::Kind::Deliver, "deliver"},
    {TraceEvent::Kind::Send, "send"},
    {TraceEvent::Kind::Squash, "squash"},
    {TraceEvent::Kind::LoadReply, "load-reply"},
    {TraceEvent::Kind::StoreResolve, "store-resolve"},
    {TraceEvent::Kind::Violation, "violation"},
    {TraceEvent::Kind::Commit, "commit"},
    {TraceEvent::Kind::Flush, "flush"},
    {TraceEvent::Kind::Inject, "inject"},
};
constexpr auto &enumNames(TraceEvent::Kind) { return kTraceKindNames; }
static_assert(enumTableCovers(kTraceKindNames, TraceEvent::Kind::Inject));

class TraceRing
{
  public:
    explicit TraceRing(std::size_t depth) : _buf(depth) {}

    void
    push(const TraceEvent &ev)
    {
        if (_buf.empty())
            return;
        _buf[_next] = ev;
        if (++_next == _buf.size())
            _next = 0;
        if (_count < _buf.size())
            ++_count;
    }

    std::size_t size() const { return _count; }

    /**
     * The retained events, oldest first, rendered one per line. Only
     * the populated prefix is dumped: with fewer than `depth` events
     * recorded this is exactly the events pushed so far, in insertion
     * order, never padded with empty slots (and a depth-0 ring must
     * not divide by its zero capacity).
     */
    std::vector<std::string>
    snapshot() const
    {
        std::vector<std::string> out;
        if (_buf.empty() || _count == 0)
            return out;
        out.reserve(_count);
        std::size_t start = (_next + _buf.size() - _count) % _buf.size();
        for (std::size_t i = 0; i < _count; ++i) {
            const TraceEvent &ev = _buf[(start + i) % _buf.size()];
            out.push_back(strfmt(
                "cycle %llu %-13s seq=%llu node=%u wave=%u value=%#llx%s",
                (unsigned long long)ev.cycle, enumName(ev.kind),
                (unsigned long long)ev.seq, ev.node, (unsigned)ev.wave,
                (unsigned long long)ev.value, ev.final ? " final" : ""));
        }
        return out;
    }

  private:
    std::vector<TraceEvent> _buf;
    std::size_t _next = 0;
    std::size_t _count = 0;
};

} // namespace edge::chaos

#endif // EDGE_CHAOS_TRACE_RING_HH
