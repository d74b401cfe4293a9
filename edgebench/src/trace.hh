/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans wrap
 * the benchmark's own calls into each layer's public API (workload
 * build, Simulator::prepare/runShared, RunPool::runAll,
 * resultToJson/resultFromJson, Supervisor::runAll, ResultLog
 * append/waitDurable, Fabric::runAll); nothing inside the program is
 * instrumented. A span's layer is its name up to the first '.', and
 * its self time is its duration minus the part its direct children
 * cover. Spans stay in memory until the run ends and are then written
 * as a Chrome trace-event file.
 *
 * Every span is opened and closed on the benchmark's main thread, so
 * the recorder needs no locking.
 */

#ifndef EDGEBENCH_TRACE_HH
#define EDGEBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace edgebench {

using SteadyClock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(SteadyClock::time_point a, SteadyClock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    std::string name;
    SteadyClock::time_point start;
    SteadyClock::time_point end;
    int parent = -1; ///< index of the enclosing open span
    long cell = -1;  ///< grid cell the call worked on (-1 = none)

    double ms() const { return secondsBetween(start, end) * 1e3; }
};

/** Per-layer totals derived from the spans. */
struct LayerTime
{
    std::string layer;
    std::size_t calls = 0;
    double totalMs = 0;
    double selfMs = 0;
};

class Tracer
{
  public:
    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, int index) : _tracer(tracer), _index(index)
        {
        }
        ~Scope()
        {
            if (_tracer)
                _tracer->close(_index);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *_tracer;
        int _index;
    };

    /** Recording is off until enabled; a disabled span costs one
     *  branch. */
    void setEnabled(bool on) { _enabled = on; }

    /** Open a span that lasts as long as the returned scope. */
    Scope span(const char *name, long cell = -1);

    const std::vector<Span> &spans() const { return _spans; }

    /** Durations (ms) of every span called `name` opened at or after
     *  `since`, in recording order. */
    std::vector<double> durationsMs(const std::string &name,
                                    SteadyClock::time_point since) const;

    /** Total, self time and call count per layer, sorted by layer. */
    std::vector<LayerTime> layerTimes() const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path,
                          SteadyClock::time_point origin,
                          std::string *err) const;

  private:
    void close(int index);

    bool _enabled = false;
    std::vector<Span> _spans;
    int _open = -1; ///< innermost open span
};

} // namespace edgebench

#endif // EDGEBENCH_TRACE_HH
