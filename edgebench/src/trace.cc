#include "trace.hh"

#include <cstdio>
#include <map>

#include "triage/jsonio.hh"

namespace edgebench {

namespace {

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

Tracer::Scope
Tracer::span(const char *name, long cell)
{
    if (!_enabled)
        return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.parent = _open;
    s.cell = cell;
    s.start = SteadyClock::now();
    _spans.push_back(std::move(s));
    _open = static_cast<int>(_spans.size()) - 1;
    return Scope(this, _open);
}

void
Tracer::close(int index)
{
    Span &s = _spans[static_cast<std::size_t>(index)];
    s.end = SteadyClock::now();
    _open = s.parent;
}

std::vector<double>
Tracer::durationsMs(const std::string &name,
                    SteadyClock::time_point since) const
{
    std::vector<double> out;
    for (const Span &s : _spans)
        if (s.name == name && s.start >= since)
            out.push_back(s.ms());
    return out;
}

std::vector<LayerTime>
Tracer::layerTimes() const
{
    std::vector<double> childMs(_spans.size(), 0.0);
    for (const Span &s : _spans)
        if (s.parent >= 0)
            childMs[static_cast<std::size_t>(s.parent)] += s.ms();

    std::map<std::string, LayerTime> byLayer;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        LayerTime &lt = byLayer[layerOf(s.name)];
        lt.layer = layerOf(s.name);
        ++lt.calls;
        // A layer's total counts only its outermost spans, so a span
        // nested in one of its own layer is not counted twice.
        if (s.parent < 0 ||
            layerOf(_spans[static_cast<std::size_t>(s.parent)].name) !=
                lt.layer)
            lt.totalMs += s.ms();
        lt.selfMs += s.ms() - childMs[i];
    }
    std::vector<LayerTime> out;
    for (auto &kv : byLayer)
        out.push_back(kv.second);
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         SteadyClock::time_point origin,
                         std::string *err) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        *err = "cannot write " + path;
        return false;
    }
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::fprintf(
            f,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
            "\"args\":{\"parent\":%d,\"cell\":%ld}}\n",
            i == 0 ? "" : ",",
            edge::triage::JsonValue::escape(s.name).c_str(),
            edge::triage::JsonValue::escape(layerOf(s.name)).c_str(),
            secondsBetween(origin, s.start) * 1e6, s.ms() * 1e3, s.parent,
            s.cell);
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0) {
        *err = "cannot write " + path;
        return false;
    }
    return true;
}

} // namespace edgebench
