#include "super/campaign.hh"

namespace edge::super {

sim::ChaosSweepReport
chaosSweepIsolated(const sim::ChaosSweepParams &params,
                   const triage::ProgramRef &program,
                   CellRunner &runner, bool *interrupted)
{
    std::vector<sim::SweepCell> grid = sim::sweepCells(params);

    // An unknown kernel hashes as 0; every cell then fails in its
    // worker with a WorkerProtocol error.
    std::optional<isa::Program> prog = triage::buildProgram(program);
    const std::uint64_t phash = prog ? triage::programHash(*prog) : 0;
    std::vector<CellSpec> cells;
    cells.reserve(grid.size());
    for (const sim::SweepCell &gc : grid) {
        CellSpec cell;
        cell.program = program;
        cell.programHash = phash;
        cell.config = gc.machine;
        cell.maxCycles = params.maxCycles;
        cells.push_back(std::move(cell));
    }

    std::vector<CellOutcome> outs = runner.runAll(cells);

    // Assemble through the same tally code as the in-process sweep.
    // On interruption the un-run cells are simply absent — they have
    // no journal record either, so --resume re-runs exactly them.
    std::vector<sim::ChaosSweepOutcome> runs;
    runs.reserve(outs.size());
    bool partial = false;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (!outs[i].ran) {
            partial = true;
            continue;
        }
        sim::ChaosSweepOutcome o;
        o.seed = grid[i].seed;
        o.config = grid[i].config;
        o.machine = grid[i].machine;
        o.result = std::move(outs[i].result);
        o.reproPath = std::move(outs[i].reproPath);
        runs.push_back(std::move(o));
    }
    if (interrupted)
        *interrupted = partial;
    return sim::assembleSweepReport(std::move(runs));
}

std::function<std::vector<std::optional<sim::RunResult>>(
    const std::vector<sim::RunJob> &)>
fuzzBatchRunner(CellRunner &runner)
{
    return [&runner](const std::vector<sim::RunJob> &jobs) {
        std::vector<CellSpec> cells;
        cells.reserve(jobs.size());
        for (const sim::RunJob &job : jobs) {
            CellSpec cell;
            // The generator seed is the per-case rngSeed (see
            // fuzz::configFor), so the embedded ref labels the cell
            // the same way the corpus does.
            cell.program = triage::embeddedRef("fuzz", *job.program,
                                               job.config.rngSeed);
            cell.programHash = triage::programHash(*job.program);
            cell.config = job.config;
            cell.maxCycles = job.maxCycles;
            cells.push_back(std::move(cell));
        }
        std::vector<CellOutcome> outs = runner.runAll(cells);
        std::vector<std::optional<sim::RunResult>> results;
        results.reserve(outs.size());
        for (CellOutcome &o : outs) {
            if (o.ran)
                results.emplace_back(std::move(o.result));
            else
                results.emplace_back(std::nullopt);
        }
        return results;
    };
}

} // namespace edge::super
