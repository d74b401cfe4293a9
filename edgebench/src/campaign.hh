/**
 * @file
 * The benchmark's workloads and the campaign that runs one of them.
 * A workload is a grid of kernel x mechanism cells at one iteration
 * count, driven through one entry point: in-process RunPool::runAll or
 * serial Simulator::runShared. (The super::Supervisor and serve::Fabric
 * are driven only by the layer probes, see probes.hh.) All load comes
 * from the benchmark: a closed loop of at most `slots` concurrent cells.
 * Every cell starts with cold modelled caches (a fresh Processor).
 */

#ifndef EDGEBENCH_CAMPAIGN_HH
#define EDGEBENCH_CAMPAIGN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/run_pool.hh"
#include "super/supervisor.hh"
#include "trace.hh"

namespace edgebench {

enum class Entry
{
    Pool,   ///< sim::RunPool::runAll at `slots` threads
    Serial, ///< one Simulator::runShared at a time
};

struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> kernels;
    std::vector<std::string> mechanisms;
    std::uint64_t iterations = 0;
    std::uint64_t tinyIterations = 0; ///< self-test size
    Entry entry = Entry::Pool;
};

const std::vector<WorkloadSpec> &workloadSpecs();
const WorkloadSpec *findWorkload(const std::string &name);
const char *entryName(Entry e);

struct RunOptions
{
    /** Feeds wl::KernelParams::seed and MachineConfig::rngSeed. */
    std::uint64_t seed = 1;
    unsigned slots = 4;
    bool tiny = false;
    /** Scratch directory for journals and span files. */
    std::string workDir;

    std::uint64_t
    iterations(const WorkloadSpec &w) const
    {
        return tiny ? w.tinyIterations : w.iterations;
    }
};

/** One grid through the workload's entry point. */
struct GridRun
{
    std::vector<edge::sim::RunResult> results;
    double seconds = 0; ///< wall time of the entry-point call alone
};

/**
 * One set-up of a workload: built programs, prepared simulators and a
 * warm-up grid, whose results are the per-cell references.
 */
class Campaign
{
  public:
    Campaign(const WorkloadSpec &spec, const RunOptions &opts,
             Tracer &tracer);
    Campaign(const Campaign &) = delete;
    Campaign &operator=(const Campaign &) = delete;

    /** Build, prepare, run the warm-up grid. */
    bool setUp(std::string *err);

    /** One grid through the entry point (spanned when tracing). */
    GridRun runGrid();

    /** Cells that failed or differ byte for byte from the reference
     *  result. */
    std::size_t check(const GridRun &grid) const;

    /** Is `result` cell i's reference result, byte for byte? */
    bool matchesReference(std::size_t i,
                          const edge::sim::RunResult &result) const;

    std::size_t cellCount() const { return _configs.size(); }
    std::size_t warmupFailures() const { return _warmupFailures; }
    const std::vector<edge::sim::RunResult> &reference() const
    {
        return _reference;
    }
    const std::string &referenceJson(std::size_t i) const
    {
        return _referenceJson[i];
    }

    // --- what the layer probes drive ---------------------------------
    const edge::sim::Simulator &simulatorFor(std::size_t cell) const;
    const edge::core::MachineConfig &config(std::size_t cell) const
    {
        return _configs[cell];
    }
    const std::vector<edge::sim::RunJob> &poolJobs() const
    {
        return _jobs;
    }
    const std::vector<edge::super::CellSpec> &cellSpecs() const
    {
        return _cellSpecs;
    }

  private:
    const WorkloadSpec &_spec;
    RunOptions _opts;
    Tracer &_tracer;

    std::vector<std::unique_ptr<edge::isa::Program>> _programs;
    std::vector<std::unique_ptr<edge::sim::Simulator>> _sims;
    std::vector<std::size_t> _cellKernel;
    std::vector<edge::core::MachineConfig> _configs;
    std::vector<edge::sim::RunJob> _jobs;
    std::vector<edge::super::CellSpec> _cellSpecs;

    std::vector<edge::sim::RunResult> _reference;
    std::vector<std::string> _referenceJson;
    std::size_t _warmupFailures = 0;
};

/** The result document a cell's worker would send, as bytes. */
std::string resultBytes(const edge::sim::RunResult &r);

} // namespace edgebench

#endif // EDGEBENCH_CAMPAIGN_HH
