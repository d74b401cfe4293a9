/**
 * @file
 * edgesim — command-line driver for the simulator. Runs any workload
 * kernel under any mechanism with ad-hoc parameter overrides and
 * prints the result plus (optionally) the full statistics dump.
 *
 *   edgesim --list
 *   edgesim --kernel bzip2ish --config dsre --iterations 5000
 *   edgesim --kernel twolfish --config storesets-flush \
 *           --set core.num_frames=16 --set core.hop_latency=2 \
 *           --set mem.dram_latency=200 --stats
 *   edgesim --kernel parserish --chaos-profile heavy --chaos-seed 7 \
 *           --check-invariants
 *   edgesim --kernel mcfish --chaos-profile light --chaos-sweep 20
 *   edgesim --replay failures/parserish-...-seed5.repro.json
 *
 * --set takes a config field by its repro-JSON path; `edgesim
 * --help` lists every key, generated from the config field table.
 *
 * Exit codes (see docs/PROTOCOL.md, "Failure triage"):
 *    0  clean run / convergent sweep / replay reproduced
 *    1  usage or configuration error
 *    2  architectural divergence (state differs from the reference)
 *    3  one or more sweep cells failed
 *    4  replay did NOT reproduce the recorded failure signature
 *   10  deadlock watchdog        11  invariant violation
 *   12  protocol panic           13  livelock
 *   14  host wall-clock deadline
 *   15  worker crash             16  worker killed
 *   17  worker timeout           18  worker protocol
 *   19  agent lost (campaign fabric)
 *   20  journal provenance mismatch (--strict-provenance)
 *   21  agent corrupt (result audit caught divergent bytes)
 *   128+N  supervised campaign interrupted by signal N
 *
 * Campaign fabric (docs/PROTOCOL.md, "Campaign fabric"):
 *   edgesim serve --listen 7733            # coordinator
 *   edgesim serve --agent host:7733        # executor agent
 *   edgesim --fuzz 200 --submit host:7733  # client submission
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/build_info.hh"
#include "common/enum_names.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"
#include "fuzz/diff.hh"
#include "serve/agent.hh"
#include "serve/daemon.hh"
#include "serve/simnet/explorer.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "super/campaign.hh"
#include "super/worker.hh"
#include "triage/minimize.hh"
#include "triage/repro.hh"
#include "triage/result_json.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

void
usage()
{
    std::printf(
        "usage: edgesim [--list] --kernel <name> [--config <name>]\n"
        "               [--iterations N] [--seed N] [--stats]\n"
        "               [--chaos-profile <name>] [--chaos-seed N]\n"
        "               [--check-invariants] [--chaos-sweep N]\n"
        "               [--mutate <name>] [--mutate-node N]\n"
        "               [--capture-repro <dir>] [--minimize]\n"
        "               [-j N] [--set key=value ...]\n"
        "       edgesim --replay <file.repro.json> [--minimize] [-j N]\n"
        "       edgesim --fuzz N [--fuzz-seed S] [--fuzz-chaos <name>]\n"
        "               [--corpus-dir <dir>] [--minimize] [-j N]\n"
        "       edgesim serve --listen <port> [fabric options]\n"
        "       edgesim serve --agent <host:port> [--slots N] [--name S]\n"
        "       edgesim --fuzz N --submit <host:port>\n"
        "       edgesim --kernel K --chaos-sweep N --submit <host:port>\n"
        "       edgesim serve --simulate [--seeds A..B|N]\n"
        "               [--sim-profile <name>] [--fabsim-dir <dir>]\n"
        "       edgesim serve --replay <file.fabsim.json> [--minimize]\n"
        "\n"
        "  --fuzz N  differential fuzzing: N random hyperblock\n"
        "         programs, each run under every mechanism and\n"
        "         cross-checked against the reference executor\n"
        "  --fuzz-seed S  base generator seed (program i uses S+i)\n"
        "  --fuzz-chaos <name>  layer a chaos profile onto every run\n"
        "  --corpus-dir <dir>  one .repro.json per unique failure\n"
        "         signature, program embedded (with --minimize, also\n"
        "         a ddmin-shrunk .min.repro.json)\n"
        "  --list-kernels  print the kernel names, one per line\n"
        "\n"
        "  -j N   run grids / minimization on N worker threads\n"
        "         (default: hardware concurrency; results are\n"
        "         bit-identical to -j 1)\n"
        "\n"
        "supervised campaigns (sweeps and fuzzing):\n"
        "  --isolate  run every grid cell in a sandboxed child\n"
        "         process; a segfaulting/OOM-killed/hung cell becomes\n"
        "         a structured failure row, never a dead campaign\n"
        "  --journal-dir <dir>  durable group-commit result log of\n"
        "         completed cells (implies --isolate)\n"
        "  --resume <journal>  skip cells the journal marks final,\n"
        "         re-execute the rest, merge (implies --isolate)\n"
        "  --resume-threads N  redo workers for the recovery scan\n"
        "         (default: hardware threads; merge is identical at\n"
        "         any count)\n"
        "  --strict-provenance  refuse to resume a journal written\n"
        "         by a different build (exit 20) instead of warning\n"
        "  --log-group-ms N  group-commit window: max ms a record\n"
        "         waits for its batch fsync (default 5)\n"
        "  --log-segment-mb N  segment rotation size (default 64)\n"
        "  --log-chaos <point> / --log-chaos-seed N  deterministic\n"
        "         crash/IO-fault injection into the result log\n"
        "  --cell-timeout-ms N  SIGKILL a cell past this deadline\n"
        "  --rlimit-as-mb N / --rlimit-cpu-sec N  child sandbox caps\n"
        "\n"
        "campaign fabric (multi-host; docs/PROTOCOL.md):\n"
        "  serve --listen <port>  coordinator: accepts agents and\n"
        "         campaign submissions, leases cells out, reassigns\n"
        "         on agent death, falls back to local workers\n"
        "  serve --agent <host:port>  executor agent: runs leased\n"
        "         cells via the --worker-cell isolation path\n"
        "  --submit <host:port>  run this --fuzz / --chaos-sweep\n"
        "         campaign on a coordinator instead of locally\n"
        "  --submit-timeout-ms N  client inactivity deadline: fail\n"
        "         the submit if the coordinator sends nothing for N\n"
        "         ms (must exceed the campaign duration; 0 = wait\n"
        "         forever)\n"
        "  coordinator knobs: --heartbeat-ms N, --heartbeat-timeout-ms\n"
        "         N, --lease-ms N, --max-reassign N, --once,\n"
        "         --no-local-fallback, --journal <file>, --resume\n"
        "         <file>\n"
        "  self-defence knobs: --hedge-after-ms N (straggler hedge\n"
        "         threshold; 0 = auto from fleet p95), --hedge-max N\n"
        "         (speculative leases per cell, 0 = off),\n"
        "         --audit-frac F (re-execute fraction F of clean\n"
        "         remote results on a second agent and byte-compare;\n"
        "         divergence quarantines the corrupt agent),\n"
        "         --max-queued N (shed submissions past N queued,\n"
        "         structured retry-after error; 0 = unbounded)\n"
        "  --submit-retries N  resubmissions after an admission-\n"
        "         control shed (honoring its retry_after_ms hint;\n"
        "         default 3)\n"
        "  agent knobs: --slots N, --name S, --die-after N,\n"
        "         --reconnect-max N (re-dial attempts after a dropped\n"
        "         coordinator connection, capped+jittered backoff;\n"
        "         in-flight cells keep running and finished results\n"
        "         are re-offered after re-registration; default 5)\n"
        "\n"
        "deterministic fabric simulation (docs/PROTOCOL.md):\n"
        "  serve --simulate  run whole simulated fabrics (coordinator,\n"
        "         agents, clients) on virtual time, one world per\n"
        "         seed, checking fabric invariants; failing seeds are\n"
        "         captured as self-contained .fabsim.json files\n"
        "  --seeds A..B | N  seed range (inclusive) or first-N\n"
        "  --sim-profile <name>  world fault mix\n"
        "  --sim-agents/--sim-cells/--sim-clients N  fix the world\n"
        "         shape (default: derived per seed)\n"
        "  --fabsim-dir <dir>  capture directory (default fabsim/)\n"
        "  --mutate no-hedge-revoke  arm the planted regression\n"
        "         (EDGE_MUTATIONS builds)\n"
        "  serve --replay <file.fabsim.json>  re-run a captured world\n"
        "         from its recorded event schedule; exits 0 iff the\n"
        "         violation reproduces (--minimize: ddmin the schedule\n"
        "         first, writing <file>.min.json)\n"
        "  --version  print the build provenance line\n"
        "  --capture-repro <dir>  write a .repro.json for every\n"
        "         failing run / sweep cell into <dir>\n"
        "  --replay <file>  re-run a captured failure; exits 0 iff\n"
        "         the failure signature reproduces exactly\n"
        "  --minimize  delta-debug the fault schedule of the failure\n"
        "         down to a locally minimal event set\n"
        "\n"
        "exit codes: 0 ok, 1 usage/config, 2 divergence, 3 sweep\n"
        "  failures, 4 replay mismatch, 10 watchdog, 11 invariant\n"
        "  violation, 12 protocol panic, 13 livelock, 14 host\n"
        "  deadline, 15-18 worker crash/kill/timeout/protocol,\n"
        "  19 agent lost, 20 provenance mismatch, 21 agent corrupt,\n"
        "  22 fabric-sim violation, 128+N interrupted by signal N\n"
        "\n");
    std::printf("configs: %s\n"
                "chaos profiles: %s\n"
                "mutations: %s\n"
                "log crash points: %s\n"
                "sim profiles: %s\n",
                join(sim::Configs::allNames(), " ").c_str(),
                enumNameList<chaos::Profile>().c_str(),
                enumNameList<chaos::Mutation>().c_str(),
                enumNameList<log::LogCrashPoint>().c_str(),
                enumNameList<serve::simnet::SimProfile>().c_str());
    std::printf("\nset keys (--set <key>=<value>; default in "
                "brackets):\n");
    for (const triage::ConfigKey &k : triage::configKeys()) {
        if (k.value.empty())
            std::printf("  %s.*  %s\n", k.path.c_str(), k.doc);
        else
            std::printf("  %-32s %s [%s]\n", k.path.c_str(), k.doc,
                        k.value.c_str());
    }
}

/** The enumerator a flag names; exits listing the valid names. */
template <typename E>
E
parseName(const char *what, const std::string &name)
{
    std::optional<E> e = enumLookup<E>(name);
    fatal_if(!e, "unknown %s '%s' (try: %s)", what, name.c_str(),
             enumNameList<E>().c_str());
    return *e;
}

/**
 * A count, seed, port or millisecond flag's value: the whole of `text`
 * as a decimal no greater than `max` (by default, the most `T` holds).
 * Junk, a sign or an out-of-range value is a usage error naming the
 * flag.
 */
template <typename T = std::uint64_t>
T
countArg(const std::string &flag, const char *text,
         std::uint64_t max = std::numeric_limits<T>::max())
{
    std::optional<std::uint64_t> n = parseCount(text, max);
    fatal_if(!n, "%s wants a count from 0 to %llu, got '%s'", flag.c_str(),
             static_cast<unsigned long long>(max), text);
    return static_cast<T>(*n);
}

/** The largest --log-segment-mb whose byte count fits 64 bits. */
constexpr std::uint64_t kMaxSegmentMb = ~std::uint64_t{0} >> 20;

/** A worker count flag's value (0 = hardware threads); exits on junk. */
unsigned
threadCount(const std::string &flag, const char *text)
{
    return countArg<unsigned>(flag, text, ThreadPool::kMaxThreads);
}

/** The documented exit status for one finished run. */
int
runExitCode(const sim::RunResult &r)
{
    if (!r.error.ok()) {
        std::fprintf(stderr, "edgesim: %s\n",
                     enumName(r.error.reason));
        return chaos::exitCodeFor(r.error.reason);
    }
    if (!(r.archMatch && r.halted)) {
        std::fprintf(stderr, "edgesim: divergence\n");
        return 2;
    }
    return 0;
}

void
printMinimized(const triage::MinimizeResult &m)
{
    std::printf("minimized schedule: %zu event(s) (from %zu tests, "
                "%u rounds%s):\n",
                m.schedule.size(), m.testsRun, m.rounds,
                m.converged ? "" : ", round cap hit");
    for (const chaos::FaultEvent &e : m.schedule)
        std::printf("  #%llu %s magnitude=%llu\n",
                    static_cast<unsigned long long>(e.ordinal),
                    enumName(e.site),
                    static_cast<unsigned long long>(e.magnitude));
}

/**
 * Full minimization of one captured failure: program-level ddmin
 * first (for embedded programs), then the chaos-schedule ddmin on
 * the shrunk spec. Returns the minimized spec.
 */
triage::ReproSpec
minimizeSpec(const triage::ReproSpec &spec, unsigned threads)
{
    triage::MinimizeOptions mo;
    mo.threads = threads;
    triage::ReproSpec cur = spec;
    if (spec.program.hasEmbedded) {
        triage::ProgramMinimizeResult pm =
            triage::minimizeProgram(spec, mo);
        std::printf("minimized program: %zu block(s) (from %zu), "
                    "%zu effect(s) (from %zu); %zu tests, %u "
                    "rounds%s\n",
                    pm.blocksAfter, pm.blocksBefore, pm.effectsAfter,
                    pm.effectsBefore, pm.testsRun, pm.rounds,
                    pm.converged ? "" : ", round cap hit");
        cur = triage::applyProgram(cur, pm.program);
    }
    if (!cur.schedule.empty()) {
        triage::MinimizeResult sm = triage::minimizeRepro(cur, mo);
        printMinimized(sm);
        cur = triage::applySchedule(cur, sm);
    }
    return cur;
}

/** `foo.repro.json` -> `foo.min.repro.json` (or append `.min`). */
std::string
minimizedPath(const std::string &path)
{
    const std::string suffix = ".repro.json";
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        return path.substr(0, path.size() - suffix.size()) +
               ".min.repro.json";
    return path + ".min";
}

int
replayMain(const std::string &path, bool minimize, unsigned threads)
{
    triage::ReproSpec spec;
    std::string err;
    if (!triage::load(path, &spec, &err))
        fatal("--replay: %s", err.c_str());

    std::printf("replaying %s\n  recorded: %s\n", path.c_str(),
                triage::signatureLine(spec).c_str());
    sim::RunResult r = triage::replay(spec);

    triage::ReproSpec observed = triage::captureFromResult(
        spec.program, spec.config, spec.maxCycles, r);
    std::printf("  observed: %s\n",
                triage::signatureLine(observed).c_str());

    bool match = triage::sameSignature(spec, r);
    std::printf("replay %s the recorded failure\n",
                match ? "reproduced" : "DID NOT reproduce");
    if (match && minimize) {
        triage::ReproSpec min_spec = minimizeSpec(spec, threads);
        std::string out = minimizedPath(path);
        if (triage::save(min_spec, out, &err))
            std::printf("minimized repro: %s\n", out.c_str());
        else
            warn("could not save minimized repro: %s", err.c_str());
    }
    return match ? 0 : 4;
}

/** Partial-campaign banner + resume hint, shared by the interrupted
 *  sweep and fuzz paths (local Supervisor or serve Fabric — any
 *  CellRunner). Returns the 128+signal exit status. */
int
interruptedExit(const super::CellRunner &sup)
{
    int sig = super::stopSignal() ? super::stopSignal() : SIGINT;
    std::printf("campaign interrupted (%s): %zu cell(s) journaled "
                "this session, %zu replayed from the journal, %zu "
                "failure(s)\n",
                strsignal(sig), sup.completed(), sup.skipped(),
                sup.failures());
    std::string hint = sup.resumeHint();
    if (!hint.empty())
        std::printf("  %s\n", hint.c_str());
    return 128 + sig;
}

/** The fuzz banner, shared by the local and --submit paths so a
 *  remote campaign's stdout is byte-identical to a local one. */
void
fuzzHeader(const fuzz::FuzzOptions &opts)
{
    const std::vector<std::string> &configs =
        opts.configs.empty() ? fuzz::defaultConfigs() : opts.configs;
    std::printf("fuzz: %llu program(s) x %zu mechanism(s), base seed "
                "%llu%s\n",
                static_cast<unsigned long long>(opts.count),
                configs.size(),
                static_cast<unsigned long long>(opts.seed),
                opts.chaosProfile != chaos::Profile::None
                    ? ", chaos layered on"
                    : "");
}

/** Print a fuzz report (wherever it ran) and map it to an exit
 *  status. */
int
fuzzReportExit(const fuzz::FuzzReport &rep, bool minimize,
               unsigned threads, const super::CellRunner *sup)
{
    std::printf("fuzz: %llu run(s), %llu pass(es), %zu failure(s) "
                "(%llu duplicate(s)), %llu ref-hang(s)\n",
                static_cast<unsigned long long>(rep.runs),
                static_cast<unsigned long long>(rep.passes),
                rep.failures.size(),
                static_cast<unsigned long long>(rep.duplicates),
                static_cast<unsigned long long>(rep.refHangs));
    for (const fuzz::FuzzFailure &f : rep.failures) {
        if (!f.unique)
            continue;
        std::printf("  seed %llu / %s: %s [%s]\n",
                    static_cast<unsigned long long>(f.seed),
                    f.config.c_str(), enumName(f.outcome),
                    f.signature.c_str());
        if (f.reproPath.empty())
            continue;
        std::printf("  to reproduce: edgesim --replay %s\n",
                    f.reproPath.c_str());
        if (minimize && f.outcome != fuzz::Outcome::RefHang) {
            triage::ReproSpec spec;
            std::string err;
            if (!triage::load(f.reproPath, &spec, &err)) {
                warn("cannot minimize %s: %s", f.reproPath.c_str(),
                     err.c_str());
                continue;
            }
            triage::ReproSpec min_spec = minimizeSpec(spec, threads);
            std::string out = minimizedPath(f.reproPath);
            if (triage::save(min_spec, out, &err))
                std::printf("  minimized repro: %s\n", out.c_str());
            else
                warn("could not save minimized repro: %s",
                     err.c_str());
        }
    }
    if (rep.interrupted && sup)
        return interruptedExit(*sup);
    if (rep.clean())
        std::printf("fuzz: all mechanisms agree with the reference\n");
    return rep.clean() ? 0 : 2;
}

int
fuzzMain(const fuzz::FuzzOptions &opts, bool minimize,
         unsigned threads, const super::CellRunner *sup = nullptr)
{
    fatal_if(minimize && opts.corpusDir.empty(),
             "--fuzz --minimize needs --corpus-dir (minimization "
             "starts from the captured .repro.json)");
    fuzzHeader(opts);
    fuzz::FuzzReport rep = fuzz::runCampaign(opts);
    return fuzzReportExit(rep, minimize, threads, sup);
}

/** `edgesim serve ...`: the coordinator daemon or an agent. */
int
serveCliMain(int argc, char **argv)
{
    serve::ServeOptions so;
    serve::AgentOptions ao;
    serve::simnet::ExplorerOptions xo;
    bool isAgent = false;
    bool haveListen = false;
    bool simulate = false;
    bool simMinimize = false;
    std::string simReplay;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "%s needs an argument",
                     arg.c_str());
            return argv[++i];
        };
        if (arg == "--listen") {
            so.fabric.listenPort = countArg<std::uint16_t>(arg, next());
            haveListen = true;
        } else if (arg == "--agent") {
            ao.coordinator = next();
            isAgent = true;
        } else if (arg == "--slots") {
            ao.slots = threadCount(arg, next());
        } else if (arg == "--name") {
            ao.name = next();
        } else if (arg == "--die-after") {
            ao.dieAfterResults = countArg(arg, next());
        } else if (arg == "--reconnect-max") {
            ao.reconnectMax = countArg<unsigned>(arg, next());
        } else if (arg == "--worker-path") {
            ao.workerPath = next();
            so.fabric.workerPath = ao.workerPath;
        } else if (arg == "-j" || arg == "--jobs") {
            so.fabric.localJobs = threadCount(arg, next());
        } else if (arg == "--heartbeat-ms") {
            so.fabric.heartbeatMs = countArg(arg, next());
        } else if (arg == "--heartbeat-timeout-ms") {
            so.fabric.heartbeatTimeoutMs = countArg(arg, next());
        } else if (arg == "--lease-ms") {
            so.fabric.leaseMs = countArg(arg, next());
        } else if (arg == "--max-reassign") {
            so.fabric.maxReassign = countArg<unsigned>(arg, next());
        } else if (arg == "--hedge-after-ms") {
            so.fabric.hedgeAfterMs = countArg(arg, next());
            xo.hedgeAfterMs = so.fabric.hedgeAfterMs;
        } else if (arg == "--hedge-max") {
            so.fabric.hedgeMax = countArg<unsigned>(arg, next());
        } else if (arg == "--audit-frac") {
            so.fabric.auditFrac = std::strtod(next(), nullptr);
            fatal_if(so.fabric.auditFrac < 0 ||
                         so.fabric.auditFrac > 1,
                     "--audit-frac expects a fraction in [0,1]");
            xo.auditFrac = so.fabric.auditFrac;
        } else if (arg == "--max-queued") {
            so.fabric.maxQueued = countArg<std::size_t>(arg, next());
            xo.maxQueued = so.fabric.maxQueued;
        } else if (arg == "--simulate") {
            simulate = true;
        } else if (arg == "--seeds") {
            std::string spec = next();
            auto dots = spec.find("..");
            if (dots == std::string::npos) {
                // "--seeds N" = the first N seeds.
                std::uint64_t n = countArg(arg, spec.c_str());
                fatal_if(n == 0, "--seeds expects N or A..B");
                xo.seedLo = 0;
                xo.seedHi = n - 1;
            } else {
                xo.seedLo = countArg(arg, spec.substr(0, dots).c_str());
                xo.seedHi = countArg(arg, spec.c_str() + dots + 2);
                fatal_if(xo.seedHi < xo.seedLo,
                         "--seeds range is backwards");
            }
        } else if (arg == "--sim-profile") {
            xo.profile =
                parseName<serve::simnet::SimProfile>("sim profile", next());
        } else if (arg == "--sim-agents") {
            xo.agents = countArg<unsigned>(arg, next());
        } else if (arg == "--sim-cells") {
            xo.cells = countArg<unsigned>(arg, next());
        } else if (arg == "--sim-clients") {
            xo.clients = countArg<unsigned>(arg, next());
        } else if (arg == "--fabsim-dir") {
            xo.fabsimDir = next();
        } else if (arg == "--replay") {
            simReplay = next();
        } else if (arg == "--minimize") {
            simMinimize = true;
        } else if (arg == "--mutate") {
            std::string m = next();
            fatal_if(m != "no-hedge-revoke",
                     "unknown fabric mutation '%s'", m.c_str());
            xo.mutateNoHedgeRevoke = true;
        } else if (arg == "--cell-timeout-ms") {
            so.fabric.cellTimeoutMs = countArg(arg, next());
        } else if (arg == "--rlimit-as-mb") {
            so.fabric.rlimitAsMb = countArg(arg, next());
        } else if (arg == "--rlimit-cpu-sec") {
            so.fabric.rlimitCpuSec = countArg(arg, next());
        } else if (arg == "--journal") {
            so.fabric.journalPath = next();
        } else if (arg == "--resume") {
            so.fabric.journalPath = next();
            so.fabric.resume = true;
        } else if (arg == "--log-group-ms") {
            so.fabric.logOptions.groupCommitMs = countArg(arg, next());
        } else if (arg == "--log-segment-mb") {
            so.fabric.logOptions.segmentBytes =
                countArg(arg, next(), kMaxSegmentMb) << 20;
        } else if (arg == "--log-chaos") {
            so.fabric.logOptions.chaos.point =
                parseName<log::LogCrashPoint>("log crash point", next());
        } else if (arg == "--log-chaos-seed") {
            so.fabric.logOptions.chaos.seed = countArg(arg, next());
        } else if (arg == "--resume-threads") {
            so.fabric.resumeThreads = threadCount(arg, next());
        } else if (arg == "--strict-provenance") {
            so.strictProvenance = true;
        } else if (arg == "--capture-repro") {
            so.fabric.reproDir = next();
        } else if (arg == "--no-local-fallback") {
            so.fabric.localFallback = false;
        } else if (arg == "--once") {
            so.once = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("serve: unknown argument '%s'", arg.c_str());
        }
    }

    if (!simReplay.empty())
        return serve::simnet::replayMain(simReplay, simMinimize,
                                         xo.fabsimDir);
    if (simulate)
        return serve::simnet::exploreMain(xo);
    fatal_if(isAgent && haveListen,
             "serve: --agent and --listen are mutually exclusive");
    fatal_if(!isAgent && !haveListen,
             "serve: need --listen <port> (coordinator) or --agent "
             "<host:port>");
    if (isAgent)
        return serve::agentMain(ao);
    return serve::serveMain(so);
}

} // namespace

int
main(int argc, char **argv)
{
    // The worker half of the supervised-campaign protocol: re-entered
    // via fork/exec of /proc/self/exe. Dispatch before any other
    // argument handling — the spec arrives on stdin, the result
    // leaves on stdout, and nothing else may write there.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        return super::workerCellMain(std::cin, std::cout);

    // The campaign fabric: coordinator daemon or executor agent.
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0)
        return serveCliMain(argc, argv);

    std::string kernel;
    std::string config = "dsre";
    wl::KernelParams kp;
    bool dump_stats = false;
    std::uint64_t run_seed = 1;
    std::uint64_t chaos_seed = 0;
    chaos::Profile chaos_profile = chaos::Profile::None;
    bool check_invariants = false;
    std::uint64_t sweep_seeds = 0;
    unsigned threads = 0;
    chaos::Mutation mutation = chaos::Mutation::None;
    unsigned mutation_node = 0;
    std::string repro_dir;
    std::string replay_path;
    bool minimize = false;
    std::uint64_t fuzz_count = 0;
    std::uint64_t fuzz_seed = 1;
    std::string corpus_dir;
    bool isolate = false;
    std::string submit_to;
    std::uint64_t submit_timeout_ms = 0;
    unsigned submit_retries = 3;
    std::string journal_dir;
    std::string resume_path;
    std::uint64_t cell_timeout_ms = 0;
    std::uint64_t rlimit_as_mb = 0;
    std::uint64_t rlimit_cpu_sec = 0;
    log::LogOptions log_opts;
    unsigned resume_threads = 0;
    bool strict_provenance = false;
    std::vector<std::pair<std::string, std::string>> overrides;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "%s needs an argument",
                     arg.c_str());
            return argv[++i];
        };
        if (arg == "--list") {
            std::printf("%-12s %-12s %s\n", "kernel", "models",
                        "behaviour");
            for (const auto &info : wl::kernels())
                std::printf("%-12s %-12s %s\n", info.name.c_str(),
                            info.specAnalog.c_str(),
                            info.description.c_str());
            return 0;
        } else if (arg == "--list-kernels") {
            for (const auto &name : wl::kernelNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--kernel") {
            kernel = next();
        } else if (arg == "--fuzz") {
            fuzz_count = countArg(arg, next());
        } else if (arg == "--fuzz-seed") {
            fuzz_seed = countArg(arg, next());
        } else if (arg == "--fuzz-chaos") {
            chaos_profile =
                parseName<chaos::Profile>("chaos profile", next());
        } else if (arg == "--corpus-dir") {
            corpus_dir = next();
        } else if (arg == "--config") {
            config = next();
        } else if (arg == "--iterations") {
            kp.iterations = countArg(arg, next());
        } else if (arg == "--seed") {
            // One run-level seed: the workload generator and (unless
            // --chaos-seed overrides) the fault schedule derive from
            // it.
            run_seed = countArg(arg, next());
            kp.seed = run_seed;
        } else if (arg == "--chaos-seed") {
            chaos_seed = countArg(arg, next());
        } else if (arg == "--chaos-profile") {
            chaos_profile =
                parseName<chaos::Profile>("chaos profile", next());
        } else if (arg == "--check-invariants") {
            check_invariants = true;
        } else if (arg == "--chaos-sweep") {
            sweep_seeds = countArg(arg, next());
        } else if (arg == "--mutate") {
            mutation = parseName<chaos::Mutation>("mutation", next());
#ifndef EDGE_MUTATIONS
            fatal_if(mutation != chaos::Mutation::None,
                     "--mutate requires a build with EDGE_MUTATIONS=ON");
#endif
        } else if (arg == "--mutate-node") {
            mutation_node = countArg<unsigned>(arg, next());
        } else if (arg == "--capture-repro") {
            repro_dir = next();
        } else if (arg == "--isolate") {
            isolate = true;
        } else if (arg == "--submit") {
            submit_to = next();
        } else if (arg == "--submit-timeout-ms") {
            submit_timeout_ms = countArg(arg, next());
        } else if (arg == "--submit-retries") {
            submit_retries = countArg<unsigned>(arg, next());
        } else if (arg == "--journal-dir") {
            journal_dir = next();
            isolate = true;
        } else if (arg == "--resume") {
            resume_path = next();
            isolate = true;
        } else if (arg == "--cell-timeout-ms") {
            cell_timeout_ms = countArg(arg, next());
        } else if (arg == "--rlimit-as-mb") {
            rlimit_as_mb = countArg(arg, next());
        } else if (arg == "--rlimit-cpu-sec") {
            rlimit_cpu_sec = countArg(arg, next());
        } else if (arg == "--log-group-ms") {
            log_opts.groupCommitMs = countArg(arg, next());
        } else if (arg == "--log-segment-mb") {
            log_opts.segmentBytes = countArg(arg, next(), kMaxSegmentMb)
                                    << 20;
        } else if (arg == "--log-chaos") {
            log_opts.chaos.point =
                parseName<log::LogCrashPoint>("log crash point", next());
        } else if (arg == "--log-chaos-seed") {
            log_opts.chaos.seed = countArg(arg, next());
        } else if (arg == "--resume-threads") {
            resume_threads = threadCount(arg, next());
        } else if (arg == "--strict-provenance") {
            strict_provenance = true;
        } else if (arg == "--version") {
            std::printf("edgesim %s\n", buildInfoLine().c_str());
            return 0;
        } else if (arg == "--replay") {
            replay_path = next();
        } else if (arg == "--minimize") {
            minimize = true;
        } else if (arg == "-j") {
            threads = threadCount(arg, next());
        } else if (arg.size() > 2 && arg.compare(0, 2, "-j") == 0) {
            threads = threadCount("-j", arg.c_str() + 2);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--set") {
            std::string kv = next();
            auto eq = kv.find('=');
            fatal_if(eq == std::string::npos,
                     "--set expects key=value");
            overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument '%s'", arg.c_str());
        }
    }

    if (!replay_path.empty())
        return replayMain(replay_path, minimize, threads);

    // --strict-provenance turns the resume build-mismatch warning
    // into a refusal, before any cell runs.
    if (strict_provenance && !resume_path.empty()) {
        std::string desc;
        if (super::Journal::provenanceMismatch(resume_path, &desc)) {
            std::fprintf(
                stderr,
                "edgesim: journal %s: %s; refusing to resume "
                "under --strict-provenance\n",
                resume_path.c_str(), desc.c_str());
            return chaos::exitCodeFor(
                chaos::SimError::Reason::ProvenanceMismatch);
        }
    }

    // Shared supervisor setup for the --isolate campaign paths.
    auto supervisorOptions =
        [&](const std::string &campaign) -> super::SupervisorOptions {
        super::SupervisorOptions so;
        so.jobs = threads;
        so.cellTimeoutMs = cell_timeout_ms;
        so.rlimitAsMb = rlimit_as_mb;
        so.rlimitCpuSec = rlimit_cpu_sec;
        if (!resume_path.empty())
            so.journalPath = resume_path;
        else if (!journal_dir.empty())
            so.journalPath =
                journal_dir + "/" + campaign + ".journal";
        so.resume = !resume_path.empty();
        so.logOptions = log_opts;
        so.resumeThreads = resume_threads;
        return so;
    };

    if (fuzz_count > 0) {
        fuzz::FuzzOptions fo;
        fo.count = fuzz_count;
        fo.seed = fuzz_seed;
        fo.chaosProfile = chaos_profile;
        fo.mutation = mutation;
        fo.mutationNode = mutation_node;
        fo.checkInvariants = check_invariants;
        fo.threads = threads;
        fo.corpusDir = corpus_dir;
        if (!submit_to.empty()) {
            // Remote campaign: same banner, same report printer —
            // stdout is byte-identical to the local run. Corpus
            // capture and minimization are local-only features.
            fatal_if(!corpus_dir.empty() || minimize,
                     "--submit campaigns cannot use --corpus-dir or "
                     "--minimize (they need local repro files)");
            fuzzHeader(fo);
            fuzz::FuzzReport rep;
            std::string err;
            if (!serve::submitFuzz(submit_to, fo, &rep, &err,
                                   submit_timeout_ms,
                                   submit_retries))
                fatal("--submit: %s", err.c_str());
            if (rep.interrupted)
                warn("campaign was interrupted on the coordinator; "
                     "the report is partial");
            return fuzzReportExit(rep, false, threads, nullptr);
        }
        if (isolate) {
            super::installStopHandlers();
            super::Supervisor sup(supervisorOptions(strfmt(
                "fuzz-seed%llu-n%llu",
                static_cast<unsigned long long>(fuzz_seed),
                static_cast<unsigned long long>(fuzz_count))));
            fo.batchRunner = super::fuzzBatchRunner(sup);
            return fuzzMain(fo, minimize, threads, &sup);
        }
        return fuzzMain(fo, minimize, threads);
    }

    if (kernel.empty()) {
        usage();
        return 1;
    }
    if (!wl::exists(kernel)) {
        std::fprintf(stderr,
                     "edgesim: unknown kernel '%s'; valid kernels:\n",
                     kernel.c_str());
        for (const auto &name : wl::kernelNames())
            std::fprintf(stderr, "  %s\n", name.c_str());
        return 2;
    }

    std::optional<core::MachineConfig> base = sim::Configs::lookup(config);
    fatal_if(!base, "unknown config '%s' (try: %s)", config.c_str(),
             join(sim::Configs::allNames(), " ").c_str());
    core::MachineConfig cfg = *base;
    cfg.rngSeed = run_seed;
    cfg.chaos = chaos::ChaosParams::byProfile(chaos_profile, chaos_seed);
    cfg.chaos.mutation = mutation;
    cfg.chaos.mutationNode = mutation_node;
    cfg.checkInvariants = check_invariants;
    // --set goes last so it overrides the flags above.
    for (const auto &[k, v] : overrides) {
        std::string err;
        fatal_if(!triage::applyConfigOverride(&cfg, k, v, &err), "%s",
                 err.c_str());
    }

    triage::ProgramRef prog_ref{kernel, kp};

    if (sweep_seeds > 0) {
        sim::ChaosSweepParams sp;
        for (std::uint64_t s = 0; s < sweep_seeds; ++s)
            sp.seeds.push_back(run_seed + s);
        sp.configs = {config};
        sp.profile = chaos_profile == chaos::Profile::None
                         ? chaos::Profile::Light
                         : chaos_profile;
        sp.threads = threads;
        sp.mutation = mutation;
        sp.mutationNode = mutation_node;
        if (!overrides.empty()) {
            fatal_if(!submit_to.empty(),
                     "--set cannot be combined with --submit");
            // Checked against cfg above, so every override applies.
            sp.tweak = [&overrides](core::MachineConfig &m) {
                for (const auto &[k, v] : overrides)
                    triage::applyConfigOverride(&m, k, v, nullptr);
            };
        }
        if (!submit_to.empty()) {
            sim::ChaosSweepReport rep;
            bool interrupted = false;
            std::string err;
            if (!serve::submitSweep(submit_to, sp, prog_ref, &rep,
                                    &interrupted, &err,
                                    submit_timeout_ms,
                                    submit_retries))
                fatal("--submit: %s", err.c_str());
            if (!repro_dir.empty())
                triage::captureSweepFailures(rep, prog_ref,
                                             sp.maxCycles, repro_dir);
            std::printf("%s / %s chaos sweep (%s):\n%s",
                        kernel.c_str(), config.c_str(),
                        enumName(sp.profile),
                        rep.summary().c_str());
            if (interrupted) {
                warn("campaign was interrupted on the coordinator; "
                     "the report is partial");
                return 130;
            }
            return rep.allConverged() ? 0 : 3;
        }
        if (isolate) {
            super::installStopHandlers();
            super::Supervisor sup(supervisorOptions(
                strfmt("sweep-%s-%s", kernel.c_str(),
                       config.c_str())));
            bool interrupted = false;
            sim::ChaosSweepReport rep = super::chaosSweepIsolated(
                sp, prog_ref, sup, &interrupted);
            if (!repro_dir.empty())
                triage::captureSweepFailures(rep, prog_ref,
                                             sp.maxCycles, repro_dir);
            // Same banner as the in-process path on purpose: an
            // uninterrupted --isolate sweep's stdout is byte-
            // identical to the default one.
            std::printf("%s / %s chaos sweep (%s):\n%s",
                        kernel.c_str(), config.c_str(),
                        enumName(sp.profile),
                        rep.summary().c_str());
            if (interrupted)
                return interruptedExit(sup);
            return rep.allConverged() ? 0 : 3;
        }
        isa::Program prog = wl::build(kernel, kp);
        sim::ChaosSweepReport rep = sim::chaosSweep(prog, sp);
        if (!repro_dir.empty())
            triage::captureSweepFailures(rep, prog_ref, sp.maxCycles,
                                         repro_dir);
        std::printf("%s / %s chaos sweep (%s):\n%s", kernel.c_str(),
                    config.c_str(), enumName(sp.profile),
                    rep.summary().c_str());
        return rep.allConverged() ? 0 : 3;
    }

    sim::Simulator sim(wl::build(kernel, kp), cfg);
    sim::RunResult r = sim.run();

    std::printf("%s / %s: %llu cycles, %llu insts, IPC %.3f\n",
                kernel.c_str(), config.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.committedInsts),
                r.ipc());
    std::printf("violations %llu, flushes %llu (+%llu ctrl), "
                "resends %llu, upgrades %llu, holds %llu\n",
                static_cast<unsigned long long>(r.violations),
                static_cast<unsigned long long>(r.violFlushes),
                static_cast<unsigned long long>(r.ctrlFlushes),
                static_cast<unsigned long long>(r.resends),
                static_cast<unsigned long long>(r.upgrades),
                static_cast<unsigned long long>(r.policyHolds));
    if (r.chaosSeed || r.injections.total() || r.invariantChecks) {
        std::printf(
            "chaos seed %llu: %llu injections (%llu hop, %llu dup, "
            "%llu mem, %llu store, %llu spurious); %llu invariant "
            "checks\n",
            static_cast<unsigned long long>(r.chaosSeed),
            static_cast<unsigned long long>(r.injections.total()),
            static_cast<unsigned long long>(r.injections.hopDelays),
            static_cast<unsigned long long>(r.injections.duplicates),
            static_cast<unsigned long long>(r.injections.memJitters),
            static_cast<unsigned long long>(r.injections.storeDelays),
            static_cast<unsigned long long>(
                r.injections.spuriousWaves),
            static_cast<unsigned long long>(r.invariantChecks));
    }
    std::printf("architectural state verified against the reference: "
                "%s\n",
                r.archMatch ? "PASS" : "FAIL");
    if (!r.error.ok())
        std::printf("run failed gracefully:\n%s\n",
                    r.error.format().c_str());
    if (dump_stats)
        std::printf("\n%s", sim.stats().dump().c_str());

    bool failed = !r.error.ok() || !(r.archMatch && r.halted);
    if (failed && !repro_dir.empty()) {
        triage::ReproSpec spec =
            triage::captureFromResult(prog_ref, cfg, 500'000'000, r);
        std::string path = triage::captureToFile(spec, repro_dir);
        if (!path.empty()) {
            std::printf("to reproduce: edgesim --replay %s\n",
                        path.c_str());
            if (minimize) {
                triage::MinimizeOptions mo;
                mo.threads = threads;
                printMinimized(triage::minimizeRepro(spec, mo));
            }
        }
    }
    return runExitCode(r);
}
