#include "fuzz/diff.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "compiler/ref_executor.hh"
#include "triage/repro.hh"

namespace edge::fuzz {

const std::vector<std::string> &
defaultConfigs()
{
    static const std::vector<std::string> kFour = {
        "conservative", "blind-flush", "storesets-flush", "dsre"};
    return kFour;
}

Outcome
classify(const sim::RunResult &result)
{
    using Reason = chaos::SimError::Reason;
    switch (result.error.reason) {
      case Reason::Watchdog:
        return Outcome::Hang;
      case Reason::InvariantViolation:
      case Reason::ProtocolPanic:
      case Reason::HostDeadline:
        return Outcome::Crash;
      case Reason::WorkerCrash:
      case Reason::WorkerKilled:
      case Reason::WorkerTimeout:
      case Reason::WorkerProtocol:
      case Reason::AgentLost:
      case Reason::AgentCorrupt:
      case Reason::ProvenanceMismatch:
      case Reason::FabricSimViolation:
        // Cells lost to the host rather than the simulated machine (a
        // dead worker process, dead or corrupt fabric agents, a
        // refused journal, a fabric-simulation violation): the crash
        // bucket, with the reason carrying the detail.
        return Outcome::Crash;
      case Reason::None:
        break;
    }
    if (!result.halted)
        return Outcome::Hang; // cycle budget expired
    return result.archMatch ? Outcome::Pass : Outcome::Divergence;
}

namespace {

/** The dedup key of a failure: mechanism + kind + verdict. */
std::string
signatureOf(const std::string &config, const sim::RunResult &r)
{
    return strfmt("%s|%s|%s|h%d|a%d", config.c_str(),
                  enumName(r.error.reason),
                  r.error.invariant.c_str(), r.halted, r.archMatch);
}

core::MachineConfig
configFor(const std::string &name, std::uint64_t case_seed,
          const FuzzOptions &opts)
{
    core::MachineConfig cfg = sim::Configs::byName(name);
    cfg.rngSeed = case_seed;
    // The committed-path cross-check is the "committed block/exit
    // sequence" leg of the differential oracle; archMatch covers
    // registers and the memory image.
    cfg.checkCommittedPath = true;
    cfg.checkInvariants = opts.checkInvariants;
    if (opts.chaosProfile != chaos::Profile::None)
        cfg.chaos = chaos::ChaosParams::byProfile(opts.chaosProfile, 0);
    cfg.chaos.mutation = opts.mutation;
    cfg.chaos.mutationNode = opts.mutationNode;
    return cfg;
}

} // namespace

FuzzReport
runCampaign(const FuzzOptions &opts)
{
    fatal_if(opts.batch < 1, "fuzz: batch must be positive");
    const std::vector<std::string> &configs =
        opts.configs.empty() ? defaultConfigs() : opts.configs;

    FuzzReport report;
    sim::RunPool pool(opts.threads);
    std::set<std::string> seen;

    const std::uint64_t ref_budget = dynBlockBound(opts.gen);

    for (std::uint64_t base = 0; base < opts.count;
         base += opts.batch) {
        const std::uint64_t n =
            std::min<std::uint64_t>(opts.batch, opts.count - base);

        // Generate the batch and pre-check termination on the golden
        // model: the Simulator treats a non-halting reference as a
        // fatal configuration error, so a fuel-accounting bug in the
        // generator must be caught here and reported, not crash the
        // campaign.
        std::vector<isa::Program> programs;
        std::vector<std::uint64_t> seeds;
        programs.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t case_seed = opts.seed + base + i;
            isa::Program prog = generate(case_seed, opts.gen);
            compiler::RefExecutor ref(prog);
            if (!ref.run(ref_budget).halted) {
                ++report.refHangs;
                FuzzFailure f;
                f.seed = case_seed;
                f.config = "ref";
                f.outcome = Outcome::RefHang;
                f.signature = "ref|hang";
                f.unique = seen.insert(f.signature).second;
                report.failures.push_back(std::move(f));
                continue;
            }
            programs.push_back(std::move(prog));
            seeds.push_back(case_seed);
        }
        report.programs += programs.size();

        // One RunPool grid: |programs| x |configs| cells. Results
        // come back in submission order, so everything downstream
        // (classification, dedup, corpus capture) is deterministic
        // at any -j.
        std::vector<sim::RunJob> jobs;
        jobs.reserve(programs.size() * configs.size());
        for (std::size_t p = 0; p < programs.size(); ++p) {
            for (const std::string &cname : configs) {
                sim::RunJob job;
                job.program = &programs[p];
                job.config = configFor(cname, seeds[p], opts);
                job.maxCycles = opts.maxCycles;
                jobs.push_back(std::move(job));
            }
        }
        std::vector<std::optional<sim::RunResult>> results;
        if (opts.batchRunner) {
            results = opts.batchRunner(jobs);
            fatal_if(results.size() != jobs.size(),
                     "fuzz: batch runner returned %zu results for "
                     "%zu jobs",
                     results.size(), jobs.size());
        } else {
            results.reserve(jobs.size());
            for (sim::RunResult &r : pool.runAll(jobs))
                results.emplace_back(std::move(r));
        }

        for (std::size_t j = 0; j < results.size(); ++j) {
            if (!results[j]) {
                report.interrupted = true;
                continue;
            }
            ++report.runs;
            const std::size_t p = j / configs.size();
            const std::string &cname = configs[j % configs.size()];
            Outcome outcome = classify(*results[j]);
            if (outcome == Outcome::Pass) {
                ++report.passes;
                continue;
            }
            FuzzFailure f;
            f.seed = seeds[p];
            f.config = cname;
            f.outcome = outcome;
            f.result = *results[j];
            f.signature = signatureOf(cname, *results[j]);
            f.unique = seen.insert(f.signature).second;
            if (!f.unique)
                ++report.duplicates;
            if (f.unique && !opts.corpusDir.empty()) {
                triage::ReproSpec spec = triage::captureFromResult(
                    triage::embeddedRef("fuzz", programs[p], f.seed),
                    jobs[j].config, opts.maxCycles, *results[j]);
                f.reproPath =
                    triage::captureToFile(spec, opts.corpusDir);
            }
            report.failures.push_back(std::move(f));
        }
        if (report.interrupted)
            break;
    }
    return report;
}

} // namespace edge::fuzz
