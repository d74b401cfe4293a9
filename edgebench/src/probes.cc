#include "probes.hh"

#include <cstdio>
#include <filesystem>
#include <map>

#include "common/build_info.hh"
#include "common/strutil.hh"
#include "fabric_host.hh"
#include "log/result_log.hh"
#include "triage/result_json.hh"

namespace edgebench {

using edge::sim::RunResult;

namespace {

/** Records per batch in the log throughput probe. */
constexpr std::size_t kLogBatch = 256;

/** (cell, ms) of every span called `name` opened at or after `since`. */
std::vector<std::pair<long, double>>
cellSpans(const Tracer &t, const std::string &name,
          SteadyClock::time_point since)
{
    std::vector<std::pair<long, double>> out;
    for (const Span &s : t.spans())
        if (s.name == name && s.start >= since)
            out.emplace_back(s.cell, s.ms());
    return out;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

void
addTail(MetricSet &m, const std::string &stem,
        const std::vector<double> &ms)
{
    const Tail tail = tailOf(ms);
    m.add(stem + "_p50", median(ms), "ms");
    m.add(stem + "_tail", tail.value, "ms");
    std::printf("%s_tail: %s\n", stem.c_str(), describe(tail).c_str());
}

void
tallyOutcomes(const Campaign &c, std::size_t i,
              const std::vector<edge::super::CellOutcome> &outs,
              ProbeTally &tally)
{
    ++tally.attempted;
    if (outs.size() != 1 || !outs[0].ran ||
        !c.matchesReference(i, outs[0].result))
        ++tally.failed;
}

/** The whole-grid phase: pool, in-process runs, JSON both ways. */
std::size_t
probeGrid(Campaign &c, const RunOptions &opts, Tracer &t,
          SteadyClock::time_point simEnd, ProbeTally &tally)
{
    std::size_t rounds = 0;
    do {
        edge::sim::RunPool pool(opts.slots);
        std::vector<RunResult> pooled;
        {
            auto s = t.span("sim.RunPool.runAll");
            pooled = pool.runAll(c.poolJobs());
        }
        for (std::size_t i = 0; i < c.cellCount(); ++i) {
            const long cell = static_cast<long>(i);
            RunResult r;
            {
                auto s = t.span("core.runShared", cell);
                r = c.simulatorFor(i).runShared(c.config(i));
            }
            std::string text;
            {
                auto s = t.span("triage.resultToJson", cell);
                text = resultBytes(r);
            }
            RunResult back;
            bool parsed = false;
            {
                auto s = t.span("triage.resultFromJson", cell);
                edge::triage::JsonValue doc;
                std::string perr;
                parsed = edge::triage::JsonValue::parse(text, &doc, &perr) &&
                         edge::triage::resultFromJson(doc, &back, &perr);
            }
            tally.attempted += 2;
            if (!c.matchesReference(i, pooled[i]))
                ++tally.failed;
            if (!parsed || !c.matchesReference(i, r) ||
                resultBytes(back) != text)
                ++tally.failed;
        }
        ++rounds;
    } while (SteadyClock::now() < simEnd);
    return rounds;
}

} // namespace

bool
probeLayers(Campaign &c, const RunOptions &opts, Tracer &t,
            SteadyClock::time_point simEnd, SteadyClock::time_point end,
            std::size_t minSamples, MetricSet &m, ProbeTally &tally,
            std::string *err)
{
    const auto since = SteadyClock::now();
    const std::size_t rounds = probeGrid(c, opts, t, simEnd, tally);

    // --- single-cell phase: supervisor, fabric, log -------------------
    const std::string superJournal = opts.workDir + "/probe-super-journal";
    const std::string fabricJournal = opts.workDir + "/probe-fabric-journal";
    const std::string logDir = opts.workDir + "/probe-log";
    std::error_code ec;
    for (const std::string &dir : {superJournal, fabricJournal, logDir})
        std::filesystem::remove_all(dir, ec);

    std::unique_ptr<edge::super::Supervisor> sup;
    auto fabric = std::make_unique<FabricHost>(opts.slots, fabricJournal);
    edge::log::ResultLog log;
    {
        auto s = t.span("bench.probe_setup");
        edge::super::SupervisorOptions so;
        so.jobs = 1;
        so.journalPath = superJournal;
        sup = std::make_unique<edge::super::Supervisor>(so);
        if (!fabric->fabric().start(err) || !fabric->registerAgents(err))
            return false;
        if (!log.open(logDir, edge::buildInfoLine(), edge::log::LogOptions{},
                      1, err))
            return false;
    }

    const std::size_t n = c.cellCount();
    std::vector<double> durableMs;
    for (std::size_t probe = 0;
         probe < minSamples || SteadyClock::now() < end; ++probe) {
        const std::size_t i = probe % n;
        const long cell = static_cast<long>(i);
        const edge::super::CellSpec &spec = c.cellSpecs()[i];
        {
            std::vector<edge::super::CellOutcome> outs;
            {
                auto s = t.span("super.Supervisor.runAll", cell);
                outs = sup->runAll({spec});
            }
            tallyOutcomes(c, i, outs, tally);
        }
        {
            std::vector<edge::super::CellOutcome> outs;
            {
                auto s = t.span("serve.Fabric.runAll", cell);
                outs = fabric->fabric().runAll({spec});
            }
            tallyOutcomes(c, i, outs, tally);
        }

        const std::uint64_t key = edge::super::cellHash(spec);
        const auto a0 = SteadyClock::now();
        std::uint64_t lsn = 0;
        {
            auto s = t.span("log.ResultLog.append", cell);
            lsn = log.append(key, c.referenceJson(i));
        }
        bool durable = false;
        {
            auto s = t.span("log.ResultLog.waitDurable", cell);
            durable = lsn != 0 && log.waitDurable(lsn);
        }
        durableMs.push_back(secondsBetween(a0, SteadyClock::now()) * 1e3);
        bool flushed = false;
        {
            auto s = t.span("log.ResultLog.batch");
            for (std::size_t j = 0; j < kLogBatch; ++j)
                log.append(key, c.referenceJson(j % n));
            flushed = log.flush();
        }
        tally.attempted += 2;
        tally.failed += (durable ? 0 : 1) + (flushed ? 0 : 1);
    }

    // --- metrics from the spans ----------------------------------------
    const std::vector<double> coreMs = t.durationsMs("core.runShared", since);
    const double poolMs = sum(t.durationsMs("sim.RunPool.runAll", since));
    m.add("sim.pool_efficiency", sum(coreMs) / (opts.slots * poolMs),
          "ratio");
    addTail(m, "core.run_ms", coreMs);
    double gridCycles = 0;
    for (const RunResult &r : c.reference())
        gridCycles += static_cast<double>(r.cycles);
    m.add("core.ns_per_cycle",
          sum(coreMs) * 1e6 / (gridCycles * static_cast<double>(rounds)),
          "ns/cycle");
    m.add("triage.result_json_us",
          median(t.durationsMs("triage.resultToJson", since)) * 1e3, "us");
    m.add("triage.result_parse_us",
          median(t.durationsMs("triage.resultFromJson", since)) * 1e3, "us");

    std::map<long, std::vector<double>> corePerCell;
    for (const auto &[cell, ms] : cellSpans(t, "core.runShared", since))
        corePerCell[cell].push_back(ms);
    const auto superSpans = cellSpans(t, "super.Supervisor.runAll", since);
    const auto serveSpans = cellSpans(t, "serve.Fabric.runAll", since);
    std::vector<double> superMs, superOver, serveMs, leaseOver;
    for (std::size_t k = 0; k < superSpans.size(); ++k) {
        const auto &[cell, ms] = superSpans[k];
        superMs.push_back(ms);
        superOver.push_back(ms - median(corePerCell[cell]));
        serveMs.push_back(serveSpans[k].second);
        leaseOver.push_back(serveSpans[k].second - ms);
    }
    addTail(m, "super.cell_ms", superMs);
    m.add("super.overhead_ms", median(superOver), "ms");

    m.add("log.append_us",
          median(t.durationsMs("log.ResultLog.append", since)) * 1e3, "us");
    m.add("log.durable_ms_p50", median(durableMs), "ms");
    std::vector<double> rates;
    for (double ms : t.durationsMs("log.ResultLog.batch", since))
        rates.push_back(static_cast<double>(kLogBatch) / (ms / 1e3));
    m.add("log.records_per_s", median(rates), "records/s");

    addTail(m, "serve.cell_ms", serveMs);
    m.add("serve.lease_overhead_ms", median(leaseOver), "ms");
    const edge::serve::Fabric &f = fabric->fabric();
    const double cells = static_cast<double>(f.completed());
    const double hedges = static_cast<double>(f.hedges());
    const double reassigned = static_cast<double>(f.reassignments());
    m.add("serve.hedges", hedges, "count");
    m.add("serve.reassignments", reassigned, "count");
    m.add("serve.local_cells", static_cast<double>(f.localCellsRun()),
          "count");
    m.add("serve.useful_lease_frac", cells / (cells + hedges + reassigned),
          "ratio");
    tally.failed += f.localCellsRun();

    log.close();
    sup.reset();
    fabric.reset();
    for (const std::string &dir : {superJournal, fabricJournal, logDir})
        std::filesystem::remove_all(dir, ec);
    return true;
}

} // namespace edgebench
