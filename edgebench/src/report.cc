#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/hash.hh"
#include "common/strutil.hh"

namespace edgebench {

using edge::sim::RunResult;

double
quantile(std::vector<double> values, double frac)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = frac * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double logSum = 0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

Tail
tailOf(std::vector<double> values, std::size_t beyond)
{
    Tail t;
    t.samples = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    std::size_t i = n > beyond ? n - 1 - beyond : n - 1;
    t.value = values[i];
    t.beyond = n - 1 - i;
    t.percentile = 100.0 * static_cast<double>(i + 1) /
                   static_cast<double>(n);
    return t;
}

std::string
describe(const Tail &t)
{
    return edge::strfmt("p%.1f of %zu samples, %zu beyond", t.percentile,
                        t.samples, t.beyond);
}

bool
cellOk(const RunResult &r)
{
    return r.halted && r.archMatch && r.error.ok();
}

std::uint64_t
resultDigest(const std::vector<RunResult> &cells)
{
    edge::Fnv1a f;
    for (const RunResult &r : cells) {
        f.mix64(r.cycles);
        f.mix64(r.committedInsts);
        for (const auto &[name, value] : r.counters) {
            f.mix(name);
            f.mix64(value);
        }
        for (const auto &[name, h] : r.histograms) {
            f.mix(name);
            f.mix64(h.samples());
            f.mix64(h.sum());
            f.mix64(h.maxValue());
            for (std::uint64_t b : h.buckets())
                f.mix64(b);
        }
    }
    return f.state;
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    _metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
MetricSet::print() const
{
    for (const Metric &m : _metrics)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
MetricSet::json(bool correct, std::uint64_t attempted,
                std::uint64_t failed) const
{
    std::string out = edge::strfmt(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < _metrics.size(); ++i) {
        const Metric &m = _metrics[i];
        out += edge::strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            i ? ", " : "", m.name.c_str(), m.value,
                            m.unit.c_str());
    }
    return out + "}}";
}

namespace {

/** Sum of `counter` over every cell. */
double
total(const std::vector<RunResult> &cells, const std::string &counter)
{
    double sum = 0;
    for (const RunResult &r : cells)
        sum += static_cast<double>(r.counter(counter));
    return sum;
}

/** Sum over every cell of `suffix` across the four L1D banks. */
double
l1dTotal(const std::vector<RunResult> &cells, const std::string &suffix)
{
    double sum = 0;
    for (int bank = 0; bank < 4; ++bank)
        sum += total(cells, edge::strfmt("l1d%d.%s", bank, suffix.c_str()));
    return sum;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

} // namespace

void
addSimulatedCounts(MetricSet &m, const std::vector<RunResult> &cells)
{
    double cycles = 0, insts = 0;
    for (const RunResult &r : cells) {
        cycles += static_cast<double>(r.cycles);
        insts += static_cast<double>(r.committedInsts);
    }
    const double alu = total(cells, "core.alu_issues");
    m.add("core.cycles", cycles, "count");
    m.add("core.committed_insts", insts, "count");
    m.add("core.alu_issues", alu, "count");
    m.add("core.alu_reexecs", total(cells, "core.alu_reexecs"), "count");
    m.add("core.useful_issue_frac", ratio(insts, alu), "ratio");
    const double fetched = total(cells, "core.fetched_blocks");
    m.add("core.fetched_blocks", fetched, "count");
    m.add("core.block_commit_frac",
          ratio(total(cells, "core.committed_blocks"), fetched), "ratio");
    m.add("core.ctrl_flushes", total(cells, "core.ctrl_flushes"), "count");
    m.add("core.viol_flushes", total(cells, "core.viol_flushes"), "count");

    m.add("net.messages", total(cells, "net.messages"), "count");
    m.add("net.hops", total(cells, "net.hops"), "count");
    m.add("net.queue_cycles", total(cells, "net.queue_cycles"), "count");
    m.add("gcn.messages", total(cells, "gcn.messages"), "count");

    for (const char *c :
         {"loads", "violations", "resends", "deferrals", "forwards"})
        m.add(std::string("lsq.") + c,
              total(cells, std::string("lsq.") + c), "count");

    const double l1dMisses = l1dTotal(cells, "misses");
    m.add("mem.l1d_misses", l1dMisses, "count");
    m.add("mem.l1d_hit_frac",
          ratio(l1dTotal(cells, "hits"),
                l1dTotal(cells, "hits") + l1dMisses),
          "ratio");
    m.add("mem.l2_misses", total(cells, "l2.misses"), "count");
    m.add("mem.dram_reads", total(cells, "dram.reads"), "count");
    m.add("mem.mshr_stalls",
          l1dTotal(cells, "mshr_stalls") + total(cells, "l1i.mshr_stalls") +
              total(cells, "l2.mshr_stalls"),
          "count");

    const double nbpRight = total(cells, "nbp.correct");
    m.add("predictor.nbp_accuracy",
          ratio(nbpRight, nbpRight + total(cells, "nbp.wrong")), "ratio");
    m.add("storesets.waits", total(cells, "storesets.waits"), "count");
}

} // namespace edgebench
