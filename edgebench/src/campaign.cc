#include "campaign.hh"

#include "report.hh"
#include "triage/repro.hh"
#include "triage/result_json.hh"
#include "workloads/workloads.hh"

namespace edgebench {

using edge::sim::RunResult;

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> kSpecs = {
        {"dsre-waves",
         {"parserish", "swimish", "bzip2ish"},
         {"blind-flush", "storesets-flush", "dsre", "storesets-dsre",
          "dsre-vp"},
         1500, 20, Entry::Pool},
        {"mem-stall",
         {"mcfish", "equakeish", "artish", "gccish"},
         {"conservative", "storesets-flush", "dsre", "oracle"},
         300, 20, Entry::Serial},
    };
    return kSpecs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloadSpecs())
        if (w.name == name)
            return &w;
    return nullptr;
}

const char *
entryName(Entry e)
{
    switch (e) {
    case Entry::Pool:
        return "in-process sim::RunPool::runAll";
    case Entry::Serial:
        return "serial sim::Simulator::runShared";
    }
    return "?";
}

std::string
resultBytes(const RunResult &r)
{
    return edge::triage::resultToJson(r).dumpCompact();
}

Campaign::Campaign(const WorkloadSpec &spec, const RunOptions &opts,
                   Tracer &tracer)
    : _spec(spec), _opts(opts), _tracer(tracer)
{
}

const edge::sim::Simulator &
Campaign::simulatorFor(std::size_t cell) const
{
    return *_sims[_cellKernel[cell]];
}

bool
Campaign::setUp(std::string *err)
{
    auto setupSpan = _tracer.span("bench.setup");
    edge::wl::KernelParams kp;
    kp.iterations = _opts.iterations(_spec);
    kp.seed = _opts.seed;
    for (const std::string &kernel : _spec.kernels) {
        auto s = _tracer.span("workloads.build");
        _programs.push_back(std::make_unique<edge::isa::Program>(
            edge::wl::build(kernel, kp)));
    }
    for (const auto &program : _programs) {
        _sims.push_back(std::make_unique<edge::sim::Simulator>(
            *program, edge::sim::Configs::conservative()));
        auto s = _tracer.span("sim.prepare");
        _sims.back()->prepare();
    }

    for (std::size_t k = 0; k < _spec.kernels.size(); ++k) {
        const std::uint64_t hash =
            edge::triage::programHash(*_programs[k]);
        for (const std::string &mech : _spec.mechanisms) {
            edge::core::MachineConfig cfg =
                edge::sim::Configs::byName(mech);
            cfg.rngSeed = _opts.seed;
            _cellKernel.push_back(k);
            _configs.push_back(cfg);

            edge::sim::RunJob job;
            job.program = _programs[k].get();
            job.config = cfg;
            _jobs.push_back(job);

            edge::super::CellSpec cell;
            cell.program.kernel = _spec.kernels[k];
            cell.program.params = kp;
            cell.programHash = hash;
            cell.config = cfg;
            _cellSpecs.push_back(std::move(cell));
        }
    }

    // The warm-up grid is the reference every later grid and probe is
    // compared with, byte for byte; the digest check pins it down.
    GridRun warmup;
    {
        auto s = _tracer.span("bench.warmup");
        warmup = runGrid();
    }
    for (const RunResult &r : warmup.results)
        if (!cellOk(r))
            ++_warmupFailures;
    _reference = std::move(warmup.results);
    for (const RunResult &r : _reference)
        _referenceJson.push_back(resultBytes(r));
    return true;
}

GridRun
Campaign::runGrid()
{
    GridRun g;
    const auto t0 = SteadyClock::now();
    switch (_spec.entry) {
    case Entry::Pool: {
        edge::sim::RunPool pool(_opts.slots);
        auto s = _tracer.span("sim.RunPool.runAll");
        g.results = pool.runAll(_jobs);
        break;
    }
    case Entry::Serial:
        for (std::size_t i = 0; i < cellCount(); ++i) {
            auto s = _tracer.span("core.runShared", static_cast<long>(i));
            g.results.push_back(simulatorFor(i).runShared(_configs[i]));
        }
        break;
    }
    g.seconds = secondsBetween(t0, SteadyClock::now());
    return g;
}

bool
Campaign::matchesReference(std::size_t i, const RunResult &result) const
{
    return cellOk(result) && resultBytes(result) == _referenceJson[i];
}

std::size_t
Campaign::check(const GridRun &grid) const
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < cellCount(); ++i)
        if (i >= grid.results.size() ||
            !matchesReference(i, grid.results[i]))
            ++failed;
    return failed;
}

} // namespace edgebench
