/**
 * @file
 * Chaos convergence sweeps: run one program under many fault
 * schedules (seed x mechanism grid) and verify the DSRE convergence
 * claim — every perturbed schedule must still halt, pass the runtime
 * invariant checker, and commit architectural state bit-identical to
 * the functional reference. The reference execution is computed once
 * per program and shared across all runs.
 */

#ifndef EDGE_SIM_SWEEP_HH
#define EDGE_SIM_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/run_pool.hh"
#include "sim/simulator.hh"

namespace edge::sim {

struct ChaosSweepParams
{
    /** Run-level seeds; each derives a full fault schedule. */
    std::vector<std::uint64_t> seeds;
    /** Mechanism names (Configs::byName) to cross with the seeds. */
    std::vector<std::string> configs;
    chaos::Profile profile = chaos::Profile::Light;
    bool checkInvariants = true;
    Cycle maxCycles = 500'000'000;
    /**
     * Worker threads for the grid (0 = all hardware threads). Cells
     * are independent deterministic runs, so any thread count
     * produces bit-identical results — see sim::RunPool.
     */
    unsigned threads = 0;
    /**
     * Compile-time protocol mutation to plant in every cell (for
     * triage testing and CI smoke — requires EDGE_MUTATIONS builds).
     */
    chaos::Mutation mutation = chaos::Mutation::None;
    /** Node the planted mutation applies to. */
    unsigned mutationNode = 0;
    /** Transient-failure retry policy applied to every cell. */
    RetryPolicy retry;
    /**
     * Applied last to every cell's machine, after the preset and the
     * chaos fields (the CLI's --set overrides). Runs in-process and
     * under --isolate; a fabric submission does not carry it.
     */
    std::function<void(core::MachineConfig &)> tweak;
};

/** One (seed, config) cell of the sweep grid. */
struct ChaosSweepOutcome
{
    std::uint64_t seed = 0;
    std::string config;
    /** The exact resolved MachineConfig the cell ran (replay handle:
     *  triage repro capture serializes this, not the config name). */
    core::MachineConfig machine;
    RunResult result;
    /** Path of a captured .repro.json for this cell, if any
     *  (filled by triage::captureSweepFailures, empty otherwise). */
    std::string reproPath;

    bool
    converged() const
    {
        return result.halted && result.archMatch && result.error.ok();
    }
};

struct ChaosSweepReport
{
    std::vector<ChaosSweepOutcome> runs;
    std::size_t failures = 0; ///< runs that did not converge
    std::uint64_t totalInjections = 0;
    std::uint64_t totalChecks = 0;

    bool allConverged() const { return failures == 0; }

    /** One line per failing run plus a grid-level tally. */
    std::string summary() const;
};

/**
 * Run the full seed x config grid over one program. Failing cells
 * carry their structured SimError in the report; nothing aborts.
 */
ChaosSweepReport chaosSweep(const isa::Program &program,
                            const ChaosSweepParams &params);

/** One cell of the grid before it runs: identity plus the fully
 *  resolved config. */
struct SweepCell
{
    std::uint64_t seed = 0;
    std::string config;
    core::MachineConfig machine;
};

/**
 * Materialize the seed x config grid (config-major, seed-minor — the
 * historical serial order). Shared by the in-process chaosSweep and
 * the process-isolated campaign supervisor so both run the exact
 * same cells in the exact same order.
 */
std::vector<SweepCell> sweepCells(const ChaosSweepParams &params);

/**
 * Tally a report from per-cell outcomes (in grid order). The other
 * shared half of the chaosSweep path: a report assembled from
 * supervised worker results is byte-identical to the in-process one.
 */
ChaosSweepReport
assembleSweepReport(std::vector<ChaosSweepOutcome> runs);

} // namespace edge::sim

#endif // EDGE_SIM_SWEEP_HH
