#include "triage/minimize.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/run_pool.hh"

namespace edge::triage {

namespace {

using Ordinals = std::vector<std::uint64_t>;

/** Split `set` into `n` contiguous chunks (none empty; n <= size). */
std::vector<Ordinals>
partition(const Ordinals &set, std::size_t n)
{
    std::vector<Ordinals> chunks;
    chunks.reserve(n);
    std::size_t base = set.size() / n;
    std::size_t extra = set.size() % n;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t len = base + (i < extra ? 1 : 0);
        chunks.emplace_back(set.begin() + pos, set.begin() + pos + len);
        pos += len;
    }
    return chunks;
}

Ordinals
complementOf(const Ordinals &set, const Ordinals &chunk)
{
    Ordinals out;
    out.reserve(set.size() - chunk.size());
    std::set_difference(set.begin(), set.end(), chunk.begin(),
                        chunk.end(), std::back_inserter(out));
    return out;
}

} // namespace

MinimizeResult
minimizeOrdinals(Ordinals initial, const BatchTest &test,
                 const MinimizeOptions &opts)
{
    std::sort(initial.begin(), initial.end());
    initial.erase(std::unique(initial.begin(), initial.end()),
                  initial.end());

    MinimizeResult res;

    // Degenerate cases first: a failure that reproduces with every
    // fault masked does not depend on the schedule at all, and an
    // "initial" set that does not fail violates the ddmin
    // precondition (report it unconverged rather than looping).
    {
        std::vector<char> verdicts = test({Ordinals{}, initial});
        res.testsRun += 2;
        if (verdicts[0]) {
            res.converged = true;
            return res;
        }
        if (!verdicts[1]) {
            warn("minimize: the full schedule does not reproduce the "
                 "failure; nothing to minimize");
            res.ordinals = std::move(initial);
            return res;
        }
    }

    Ordinals cur = std::move(initial);
    std::size_t n = 2;
    while (cur.size() >= 2 && res.rounds < opts.maxRounds) {
        ++res.rounds;
        n = std::min(n, cur.size());
        std::vector<Ordinals> chunks = partition(cur, n);

        // One batch per round: all n subsets, then (for n > 2) all n
        // complements. Evaluated concurrently; the LOWEST-index
        // failing candidate wins so the reduction path is
        // deterministic at any thread count.
        std::vector<Ordinals> candidates = chunks;
        if (n > 2)
            for (const Ordinals &chunk : chunks)
                candidates.push_back(complementOf(cur, chunk));

        std::vector<char> verdicts = test(candidates);
        res.testsRun += candidates.size();

        std::size_t hit = candidates.size();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (verdicts[i]) {
                hit = i;
                break;
            }
        }

        if (hit < n) {
            // Reduce to the failing subset; restart at binary split.
            cur = std::move(candidates[hit]);
            n = 2;
        } else if (hit < candidates.size()) {
            // Reduce to a failing complement; refine the granularity.
            cur = std::move(candidates[hit]);
            n = std::max<std::size_t>(n - 1, 2);
        } else if (n >= cur.size()) {
            // Every single-event removal makes the failure vanish:
            // the set is 1-minimal.
            res.converged = true;
            break;
        } else {
            n = std::min(n * 2, cur.size());
        }
    }
    if (cur.size() < 2)
        res.converged = true;
    res.ordinals = std::move(cur);
    return res;
}

MinimizeResult
minimizeSchedule(const std::vector<chaos::FaultEvent> &schedule,
                 const SubsetTest &test, const MinimizeOptions &opts)
{
    Ordinals initial;
    initial.reserve(schedule.size());
    for (const chaos::FaultEvent &e : schedule)
        initial.push_back(e.ordinal);

    ThreadPool pool(opts.threads == 0 ? ThreadPool::defaultThreads()
                                      : opts.threads);
    BatchTest batch = [&](const std::vector<Ordinals> &candidates) {
        return parallelIndex(pool, candidates.size(),
                             [&](std::size_t i) {
                                 return static_cast<char>(
                                     test(candidates[i]));
                             });
    };

    MinimizeResult res = minimizeOrdinals(initial, batch, opts);
    for (const chaos::FaultEvent &e : schedule)
        if (std::binary_search(res.ordinals.begin(), res.ordinals.end(),
                               e.ordinal))
            res.schedule.push_back(e);
    return res;
}

MinimizeResult
minimizeRepro(const ReproSpec &spec, const MinimizeOptions &opts)
{
    // One Simulator; every candidate run shares its reference
    // execution read-only (the expensive part of a run for the small
    // kernels triage deals with).
    std::string err;
    std::optional<isa::Program> prog = buildProgram(spec.program, &err);
    fatal_if(!prog, "minimize: %s", err.c_str());
    sim::Simulator simulator(std::move(*prog), spec.config);
    simulator.prepare();
    sim::RunPool pool(opts.threads);

    BatchTest batch = [&](const std::vector<Ordinals> &candidates) {
        std::vector<core::MachineConfig> configs;
        configs.reserve(candidates.size());
        for (const Ordinals &subset : candidates) {
            core::MachineConfig cfg = spec.config;
            cfg.chaos.filterSchedule = true;
            cfg.chaos.allowedEvents = subset; // already sorted
            configs.push_back(std::move(cfg));
        }
        std::vector<sim::RunResult> results =
            pool.runConfigs(simulator, configs, spec.maxCycles);
        std::vector<char> verdicts(results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            verdicts[i] =
                static_cast<char>(sameFailureKind(spec, results[i]));
        return verdicts;
    };

    Ordinals initial;
    initial.reserve(spec.schedule.size());
    for (const chaos::FaultEvent &e : spec.schedule)
        initial.push_back(e.ordinal);

    MinimizeResult res = minimizeOrdinals(initial, batch, opts);
    for (const chaos::FaultEvent &e : spec.schedule)
        if (std::binary_search(res.ordinals.begin(), res.ordinals.end(),
                               e.ordinal))
            res.schedule.push_back(e);
    return res;
}

ReproSpec
applySchedule(const ReproSpec &spec, const MinimizeResult &minimized)
{
    ReproSpec out = spec;
    out.config.chaos.filterSchedule = true;
    out.config.chaos.allowedEvents = minimized.ordinals;
    out.schedule = minimized.schedule;
    return out;
}

} // namespace edge::triage
