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
 * Campaign fabric (docs/PROTOCOL.md, "Campaign fabric"):
 *   edgesim serve --listen 7733            # coordinator
 *   edgesim serve --agent host:7733        # executor agent
 *   edgesim --fuzz 200 --submit host:7733  # client submission
 *
 * Every flag is one row of a table below, read by both the parse loop
 * and `--help`. `--help` also lists the exit codes, from the failure
 * reasons, and every `--set` key, from the config field table.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
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

// ---------------------------------------------------------------------
// The flag tables. A row holds a flag's spellings, its value's
// placeholder, its help section and text, and a setter. Main mode
// reads Flags<MainCli>, `edgesim serve` reads Flags<ServeCli>, and
// both read CampaignFlags<O>, so each flag is spelled once per mode.
// ---------------------------------------------------------------------

/** A 64-bit count as printf's %llu wants it. */
constexpr unsigned long long
ull(std::uint64_t v)
{
    return v;
}

/**
 * A flag as typed and its value's text (null for a switch). Each
 * reader takes the whole text as one kind of value; junk is a usage
 * error (exit 1) that names the flag.
 */
struct Arg
{
    std::string flag;
    const char *text;

    /** A decimal no greater than `max`. */
    template <typename T = std::uint64_t>
    T
    count(std::uint64_t max = std::numeric_limits<T>::max()) const
    {
        std::optional<std::uint64_t> n = parseCount(text, max);
        fatal_if(!n, "%s wants a count from 0 to %llu, got '%s'",
                 flag.c_str(), ull(max), text);
        return static_cast<T>(*n);
    }

    /** A worker count (0 = all hardware threads). */
    unsigned
    threads() const
    {
        return count<unsigned>(ThreadPool::kMaxThreads);
    }

    double
    fraction() const
    {
        std::optional<double> f = parseFraction(text);
        fatal_if(!f, "%s wants a fraction from 0 to 1, got '%s'",
                 flag.c_str(), text);
        return *f;
    }

    template <typename E>
    E
    name() const
    {
        std::optional<E> e = enumLookup<E>(text);
        fatal_if(!e, "%s wants one of: %s; got '%s'", flag.c_str(),
                 enumNameList<E>().c_str(), text);
        return *e;
    }
};

template <typename O>
struct Flag
{
    const char *names;   ///< spellings, '|'-separated ("-j|--jobs")
    const char *metavar; ///< the value's placeholder; null for a switch
    const char *section; ///< help heading ("" = under the synopsis)
    const char *doc;     ///< help text; '\n' breaks its line
    void (*set)(O &, const Arg &);
    /** The value may also follow the first spelling directly (-j4). */
    bool glued = false;
    /** Set for a flag that ends the run (--help): its exit status. */
    int (*act)() = nullptr;
};

/** The row of a flag that ends the run with `act()`'s status. */
template <typename O>
constexpr Flag<O>
action(const char *names, const char *doc, int (*act)())
{
    return {names, nullptr, "", doc, nullptr, false, act};
}

/**
 * The row of a flag that sets the member of O at the path P... (&O::kp,
 * &wl::KernelParams::iterations). The member's type picks the value
 * kind: a bool is a switch (metavar null), an enum takes a name, an
 * integer a count no greater than it holds, a string the text itself.
 * A row that sets two members, or reads a value of another shape
 * (a fraction, a seed range), writes its setter out.
 */
template <typename O, auto... P>
constexpr Flag<O>
field(const char *names, const char *metavar, const char *section,
      const char *doc)
{
    return {names, metavar, section, doc, [](O &o, const Arg &a) {
                auto &m = (o .* ... .* P);
                using T = std::remove_reference_t<decltype(m)>;
                if constexpr (std::is_same_v<T, bool>)
                    m = true;
                else if constexpr (std::is_enum_v<T>)
                    m = a.name<T>();
                else if constexpr (std::is_integral_v<T>)
                    m = a.count<T>();
                else
                    m = a.text;
            }};
}

/** Specialised per mode with `static constexpr Flag<O> rows[]`. */
template <typename O>
struct Flags;

template <typename O>
void usage();

/** -h|--help, first in each mode's table. */
template <typename O>
constexpr Flag<O> kHelpRow = action<O>("-h|--help", "print this help", [] {
    usage<O>();
    return 0;
});

constexpr char kCampaign[] = "supervised campaigns: sandbox and result log";

/**
 * The campaign flags of both modes. They set the same-named fields of
 * the options at O::kCampaignOptions: the super::SupervisorOptions of
 * an --isolate run in main mode, the serve::FabricOptions of a
 * coordinator in serve mode.
 */
template <typename O>
struct CampaignFlags
{
    static constexpr auto C = O::kCampaignOptions;
    using S = std::remove_reference_t<decltype(std::declval<O &>().*C)>;
    using L = log::LogOptions;
    using LC = log::LogChaosOptions;
    static constexpr Flag<O> rows[] = {
        field<O, C, &S::cellTimeoutMs>("--cell-timeout-ms", "N", kCampaign,
                                       "SIGKILL a cell past this (0 = never)"),
        field<O, C, &S::rlimitAsMb>("--rlimit-as-mb", "N", kCampaign,
                                    "address-space cap of a cell (0 = none)"),
        field<O, C, &S::rlimitCpuSec>("--rlimit-cpu-sec", "N", kCampaign,
                                      "CPU-time cap of a cell (0 = none)"),
        {"--resume", "<journal>", kCampaign, "re-run what the journal lacks",
         [](O &o, const Arg &a) {
             (o.*C).journalPath = a.text;
             (o.*C).resume = true;
         }},
        {"--resume-threads", "N", kCampaign, "workers of the recovery scan",
         [](O &o, const Arg &a) { (o.*C).resumeThreads = a.threads(); }},
        field<O, &O::strictProvenance>(
            "--strict-provenance", nullptr, kCampaign,
            "refuse a journal from another build (exit 20)"),
        field<O, C, &S::logOptions, &L::groupCommitMs>(
            "--log-group-ms", "N", kCampaign, "group-commit ms (default 5)"),
        {"--log-segment-mb", "N", kCampaign, "log segment size (default 64)",
         [](O &o, const Arg &a) {
             // The most MiB whose byte count fits 64 bits.
             (o.*C).logOptions.segmentBytes = a.count(~0ull >> 20) << 20;
         }},
        field<O, C, &S::logOptions, &L::chaos, &LC::point>(
            "--log-chaos", "<point>", kCampaign, "inject a log fault (below)"),
        field<O, C, &S::logOptions, &L::chaos, &LC::seed>(
            "--log-chaos-seed", "N", kCampaign, "seed of the log faults"),
    };
};

// --- main mode -------------------------------------------------------

struct MainCli
{
    std::string kernel;
    std::string config = "dsre";
    wl::KernelParams kp;
    std::uint64_t seed = 1;
    bool stats = false;
    std::vector<std::pair<std::string, std::string>> overrides;
    chaos::Profile chaosProfile = chaos::Profile::None;
    std::uint64_t chaosSeed = 0;
    bool checkInvariants = false;
    std::uint64_t sweepSeeds = 0;
    chaos::Mutation mutation = chaos::Mutation::None;
    unsigned mutationNode = 0;
    std::string reproDir;
    std::string replay;
    bool minimize = false;
    std::uint64_t fuzzCount = 0;
    std::uint64_t fuzzSeed = 1;
    std::string corpusDir;
    std::string submitTo;
    std::uint64_t submitTimeoutMs = 0;
    unsigned submitRetries = 3;
    bool isolate = false;
    std::string journalDir;
    bool strictProvenance = false;
    /** The --isolate supervisor's options, set by the flags. Its
     *  `jobs` is -j, which sizes every local grid too. */
    super::SupervisorOptions sup;

    static constexpr auto kCampaignOptions = &MainCli::sup;
    static constexpr char kUsage[] =
        "usage: edgesim --kernel <name> [options]  one run or chaos sweep\n"
        "       edgesim --fuzz N [options]         differential fuzzing\n"
        "       edgesim --replay <file> [--minimize] [-j N]\n"
        "       edgesim serve ...    the campaign fabric (serve --help)\n";

    static void
    printNames()
    {
        std::printf("configs: %s\nchaos profiles: %s\nmutations: %s\n",
                    join(sim::Configs::allNames(), " ").c_str(),
                    enumNameList<chaos::Profile>().c_str(),
                    enumNameList<chaos::Mutation>().c_str());
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
};

constexpr char kChaos[] = "chaos and failure triage";
constexpr char kFuzz[] = "differential fuzzing";
constexpr char kSubmit[] = "campaign fabric client";

template <>
struct Flags<MainCli>
{
    using O = MainCli;
    static constexpr Flag<O> rows[] = {
        kHelpRow<O>,
        field<O, &O::kernel>("--kernel", "<name>", "", "kernel (see --list)"),
        field<O, &O::config>("--config", "<name>", "",
                             "mechanism (configs below; default dsre)"),
        field<O, &O::kp, &wl::KernelParams::iterations>(
            "--iterations", "N", "", "workload trip count (default 2000)"),
        {"--seed", "N", "", "workload seed, and fault seed if no --chaos-seed",
         [](O &o, const Arg &a) { o.kp.seed = o.seed = a.count(); }},
        {"--set", "key=value", "", "set a config field (keys below), last",
         [](O &o, const Arg &a) {
             const std::string kv = a.text;
             const std::size_t eq = kv.find('=');
             fatal_if(eq == std::string::npos, "%s expects key=value",
                      a.flag.c_str());
             o.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
         }},
        field<O, &O::stats>("--stats", nullptr, "", "dump every statistic"),
        action<O>("--list", "print the kernels and what they model", [] {
            std::printf("%-12s %-12s %s\n", "kernel", "models", "behaviour");
            for (const auto &info : wl::kernels())
                std::printf("%-12s %-12s %s\n", info.name.c_str(),
                            info.specAnalog.c_str(), info.description.c_str());
            return 0;
        }),
        action<O>("--list-kernels", "print the kernel names, one a line", [] {
            for (const auto &name : wl::kernelNames())
                std::printf("%s\n", name.c_str());
            return 0;
        }),
        action<O>("--version", "print the build provenance line", [] {
            std::printf("edgesim %s\n", buildInfoLine().c_str());
            return 0;
        }),

        field<O, &O::chaosProfile>("--chaos-profile", "<name>", kChaos,
                                   "fault mix (chaos profiles below)"),
        field<O, &O::chaosSeed>("--chaos-seed", "N", kChaos,
                                "fault-schedule seed"),
        field<O, &O::checkInvariants>("--check-invariants", nullptr, kChaos,
                                      "run the invariant checker"),
        field<O, &O::sweepSeeds>("--chaos-sweep", "N", kChaos,
                                 "run N seeds from --seed on (light faults)"),
        {"--mutate", "<name>", kChaos, "plant a mutation (mutations below)",
         [](O &o, const Arg &a) {
             o.mutation = a.name<chaos::Mutation>();
#ifndef EDGE_MUTATIONS
             fatal_if(o.mutation != chaos::Mutation::None,
                      "%s requires a build with EDGE_MUTATIONS=ON",
                      a.flag.c_str());
#endif
         }},
        field<O, &O::mutationNode>("--mutate-node", "N", kChaos,
                                   "the grid node the mutation sits on"),
        field<O, &O::reproDir>("--capture-repro", "<dir>", kChaos,
                               "write a .repro.json per failing run or cell"),
        field<O, &O::replay>("--replay", "<file>", kChaos,
                             "re-run a .repro.json; exit 0 iff it reproduces"),
        field<O, &O::minimize>("--minimize", nullptr, kChaos,
                               "ddmin a failure's program and fault schedule"),
        {"-j", "N", kChaos, "threads, also -jN (0 = all; same results)",
         [](O &o, const Arg &a) { o.sup.jobs = a.threads(); }, true},

        field<O, &O::fuzzCount>("--fuzz", "N", kFuzz,
                                "N random programs checked on every mechanism"),
        field<O, &O::fuzzSeed>("--fuzz-seed", "N", kFuzz,
                               "generator seed (program i uses N+i)"),
        field<O, &O::chaosProfile>("--fuzz-chaos", "<name>", kFuzz,
                                   "layer a chaos profile onto each run"),
        field<O, &O::corpusDir>("--corpus-dir", "<dir>", kFuzz,
                                "a .repro.json per unique failure"),

        field<O, &O::submitTo>("--submit", "<host:port>", kSubmit,
                               "run the campaign on a coordinator"),
        field<O, &O::submitTimeoutMs>("--submit-timeout-ms", "N", kSubmit,
                                      "give up after N silent ms (0 = never)"),
        field<O, &O::submitRetries>("--submit-retries", "N", kSubmit,
                                    "resubmits after a shed (default 3)"),

        field<O, &O::isolate>("--isolate", nullptr, kCampaign,
                              "run each cell in a sandboxed child process"),
        field<O, &O::journalDir>("--journal-dir", "<dir>", kCampaign,
                                 "log finished cells (implies --isolate, as\n"
                                 "--resume does)"),
    };
};

// --- serve mode ------------------------------------------------------

struct ServeCli : serve::ServeOptions
{
    serve::AgentOptions agent;
    serve::simnet::ExplorerOptions explorer;
    bool listen = false; ///< --listen given (port 0 is ephemeral)
    bool isAgent = false;
    bool simulate = false;
    std::string replay; ///< a .fabsim.json capture
    bool minimize = false;

    static constexpr auto kCampaignOptions = &ServeCli::fabric;
    static constexpr char kUsage[] =
        "usage: edgesim serve --listen N [options]           coordinator\n"
        "       edgesim serve --agent <host:port> [options]  executor agent\n"
        "       edgesim serve --simulate [--seeds A..B|N] [options]\n"
        "       edgesim serve --replay <file> [--minimize]\n";

    static void
    printNames()
    {
        std::printf("sim profiles: %s\n",
                    enumNameList<serve::simnet::SimProfile>().c_str());
    }
};

constexpr char kCoordinator[] = "coordinator (serve --listen)";
constexpr char kAgent[] = "executor agent (serve --agent)";
constexpr char kSimulate[] = "fabric simulation (serve --simulate, --replay)";

template <>
struct Flags<ServeCli>
{
    using O = ServeCli;
    using F = serve::FabricOptions;
    using A = serve::AgentOptions;
    using X = serve::simnet::ExplorerOptions;
    static constexpr Flag<O> rows[] = {
        kHelpRow<O>,

        {"--listen", "N", kCoordinator, "serve on TCP port N (0 = ephemeral)",
         [](O &o, const Arg &a) {
             o.fabric.listenPort = a.count<std::uint16_t>();
             o.listen = true;
         }},
        {"-j|--jobs", "N", kCoordinator, "local workers while no agent is live",
         [](O &o, const Arg &a) { o.fabric.localJobs = a.threads(); }},
        {"--no-local-fallback", nullptr, kCoordinator, "run no cell locally",
         [](O &o, const Arg &) { o.fabric.localFallback = false; }},
        {"--worker-path", "<path>", kCoordinator, "worker image of the cells",
         [](O &o, const Arg &a) {
             o.agent.workerPath = o.fabric.workerPath = a.text;
         }},
        field<O, &O::fabric, &F::heartbeatMs>(
            "--heartbeat-ms", "N", kCoordinator, "agent heartbeat interval"),
        field<O, &O::fabric, &F::heartbeatTimeoutMs>(
            "--heartbeat-timeout-ms", "N", kCoordinator,
            "silence that marks an agent dead"),
        field<O, &O::fabric, &F::leaseMs>("--lease-ms", "N", kCoordinator,
                                          "lease deadline before reassignment"),
        field<O, &O::fabric, &F::maxReassign>(
            "--max-reassign", "N", kCoordinator, "lost leases a cell may take"),
        {"--hedge-after-ms", "N", kCoordinator,
         "straggler hedge threshold (0 = fleet p95)", [](O &o, const Arg &a) {
             o.explorer.hedgeAfterMs = o.fabric.hedgeAfterMs = a.count();
         }},
        field<O, &O::fabric, &F::hedgeMax>("--hedge-max", "N", kCoordinator,
                                           "speculative leases per cell"),
        {"--audit-frac", "F", kCoordinator,
         "re-run fraction F of remote results", [](O &o, const Arg &a) {
             o.explorer.auditFrac = o.fabric.auditFrac = a.fraction();
         }},
        {"--max-queued", "N", kCoordinator, "shed past N queued (0 = never)",
         [](O &o, const Arg &a) {
             o.explorer.maxQueued = o.fabric.maxQueued = a.count<std::size_t>();
         }},
        field<O, &O::fabric, &F::journalPath>(
            "--journal", "<file>", kCoordinator, "durable log of the results"),
        field<O, &O::fabric, &F::reproDir>("--capture-repro", "<dir>",
                                           kCoordinator,
                                           "a .repro.json per failing cell"),
        field<O, &O::once>("--once", nullptr, kCoordinator,
                           "exit after serving one campaign"),

        {"--agent", "<host:port>", kAgent, "run a coordinator's leased cells",
         [](O &o, const Arg &a) {
             o.agent.coordinator = a.text;
             o.isAgent = true;
         }},
        {"--slots", "N", kAgent, "cells run at once (0 = all threads)",
         [](O &o, const Arg &a) { o.agent.slots = a.threads(); }},
        field<O, &O::agent, &A::name>("--name", "<name>", kAgent,
                                      "name given to the coordinator"),
        field<O, &O::agent, &A::reconnectMax>(
            "--reconnect-max", "N", kAgent, "re-dials after a lost connection"),
        field<O, &O::agent, &A::dieAfterResults>(
            "--die-after", "N", kAgent, "test hook: SIGKILL after N results"),

        field<O, &O::simulate>("--simulate", nullptr, kSimulate,
                               "run a simulated fabric a seed, capturing\n"
                               "seeds that break an invariant"),
        {"--seeds", "A..B|N", kSimulate, "seed range, or the first N seeds",
         [](O &o, const Arg &a) {
             X &x = o.explorer;
             const std::string spec = a.text;
             const std::size_t dots = spec.find("..");
             if (dots == std::string::npos) {
                 const std::uint64_t n = a.count();
                 fatal_if(n == 0, "%s expects N or A..B", a.flag.c_str());
                 x.seedLo = 0;
                 x.seedHi = n - 1;
                 return;
             }
             x.seedLo = Arg{a.flag, spec.substr(0, dots).c_str()}.count();
             x.seedHi = Arg{a.flag, spec.c_str() + dots + 2}.count();
             fatal_if(x.seedHi < x.seedLo, "%s range is backwards",
                      a.flag.c_str());
         }},
        field<O, &O::explorer, &X::profile>("--sim-profile", "<name>",
                                            kSimulate, "world fault mix"),
        field<O, &O::explorer, &X::agents>("--sim-agents", "N", kSimulate,
                                           "agents a world (0 = per seed)"),
        field<O, &O::explorer, &X::cells>("--sim-cells", "N", kSimulate,
                                          "cells a world (0 = per seed)"),
        field<O, &O::explorer, &X::clients>("--sim-clients", "N", kSimulate,
                                            "clients a world (0 = per seed)"),
        field<O, &O::explorer, &X::fabsimDir>(
            "--fabsim-dir", "<dir>", kSimulate, "captures (default fabsim)"),
        {"--mutate", "no-hedge-revoke", kSimulate,
         "arm the planted hedge-revoke regression", [](O &o, const Arg &a) {
             fatal_if(std::strcmp(a.text, "no-hedge-revoke") != 0,
                      "unknown fabric mutation '%s'", a.text);
             o.explorer.mutateNoHedgeRevoke = true;
         }},
        field<O, &O::replay>("--replay", "<file>", kSimulate,
                             "re-run a capture; exit 0 iff it reproduces"),
        field<O, &O::minimize>("--minimize", nullptr, kSimulate,
                               "with --replay, ddmin the schedule first"),
    };
};

// --- reading the tables ----------------------------------------------

/** Every row of mode O: its own table, then the campaign rows. */
template <typename O>
std::vector<const Flag<O> *>
allFlags()
{
    std::vector<const Flag<O> *> all;
    for (const Flag<O> &f : Flags<O>::rows)
        all.push_back(&f);
    for (const Flag<O> &f : CampaignFlags<O>::rows)
        all.push_back(&f);
    return all;
}

/**
 * Apply argv[from..] to `o` through mode O's rows. Returns the exit
 * status of a flag that ends the run (--help, --list, ...), or
 * nullopt once every argument is applied.
 */
template <typename O>
std::optional<int>
parseFlags(int argc, char **argv, int from, O &o)
{
    const std::vector<const Flag<O> *> flags = allFlags<O>();
    for (int i = from; i < argc; ++i) {
        Arg a{argv[i], nullptr};
        const Flag<O> *row = nullptr;
        for (auto f = flags.begin(); !row && f != flags.end(); ++f) {
            const std::vector<std::string> names = split((*f)->names, '|');
            const std::string &lead = names[0];
            if (std::find(names.begin(), names.end(), a.flag) != names.end())
                row = *f;
            // -jN: the first spelling with the value glued on.
            if (!row && (*f)->glued && a.flag.size() > lead.size() &&
                a.flag.compare(0, lead.size(), lead) == 0) {
                row = *f;
                a = {lead, argv[i] + lead.size()};
            }
        }
        fatal_if(!row, "unknown argument '%s' (see --help)", argv[i]);
        if (row->act)
            return row->act();
        if (row->metavar && !a.text) {
            fatal_if(i + 1 >= argc, "%s needs an argument", argv[i]);
            a.text = argv[++i];
        }
        row->set(o, a);
    }
    return std::nullopt;
}

template <typename O>
void
usage()
{
    std::printf("%s", O::kUsage);
    const char *section = "";
    for (const Flag<O> *f : allFlags<O>()) {
        if (std::strcmp(f->section, section) != 0) {
            section = f->section;
            std::printf("\n%s:\n", section);
        }
        std::string head = join(split(f->names, '|'), ", ");
        if (f->metavar)
            head += std::string(" ") + f->metavar;
        // The text starts in column 26, below a longer head.
        const std::string indent = "\n" + std::string(26, ' ');
        std::printf("  %-22s%s%s\n", head.c_str(),
                    head.size() > 22 ? indent.c_str() : "  ",
                    join(split(f->doc, '\n'), indent).c_str());
    }

    // The CLI's own statuses, then one per failure reason.
    std::vector<std::pair<int, const char *>> exits = {
        {0, "clean run, convergent sweep, or replay reproduced"},
        {1, "usage or configuration error"},
        {2, "architectural divergence from the reference"},
        {3, "one or more sweep cells failed"},
        {4, "replay did not reproduce the recorded failure"},
    };
    for (const EnumName<chaos::SimError::Reason> &r : chaos::kReasonNames)
        if (r.value != chaos::SimError::Reason::None)
            exits.emplace_back(chaos::exitCodeFor(r.value), r.name);
    std::sort(exits.begin(), exits.end());
    std::printf("\nexit codes (docs/PROTOCOL.md, \"Failure triage\"):\n");
    for (const auto &[code, what] : exits)
        std::printf("  %-6d %s\n", code, what);
    std::printf("  128+N  campaign interrupted by signal N\n");
    std::printf("\nlog crash points: %s\n",
                enumNameList<log::LogCrashPoint>().c_str());
    O::printNames();
}

void
printMinimized(const triage::MinimizeResult &m)
{
    std::printf("minimized schedule: %zu event(s) (from %zu tests, "
                "%u rounds%s):\n",
                m.schedule.size(), m.testsRun, m.rounds,
                m.converged ? "" : ", round cap hit");
    for (const chaos::FaultEvent &e : m.schedule)
        std::printf("  #%llu %s magnitude=%llu\n", ull(e.ordinal),
                    enumName(e.site), ull(e.magnitude));
}

/**
 * Minimize one captured failure (program-level ddmin first for an
 * embedded program, then the chaos-schedule ddmin on the shrunk spec)
 * and save it beside `path`: foo.repro.json -> foo.min.repro.json.
 */
void
minimizeToFile(triage::ReproSpec cur, const std::string &path,
               unsigned threads, const char *indent)
{
    triage::MinimizeOptions mo;
    mo.threads = threads;
    if (cur.program.hasEmbedded) {
        triage::ProgramMinimizeResult pm =
            triage::minimizeProgram(cur, mo);
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
    const std::string suffix = ".repro.json";
    const std::string out =
        path.ends_with(suffix)
            ? path.substr(0, path.size() - suffix.size()) + ".min" + suffix
            : path + ".min";
    std::string err;
    if (triage::save(cur, out, &err))
        std::printf("%sminimized repro: %s\n", indent, out.c_str());
    else
        warn("could not save minimized repro: %s", err.c_str());
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
    if (match && minimize)
        minimizeToFile(spec, path, threads, "");
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

/** Print a fuzz report (wherever it ran) and map it to an exit
 *  status. */
int
fuzzReportExit(const fuzz::FuzzReport &rep, bool minimize,
               unsigned threads, const super::CellRunner *sup)
{
    std::printf("fuzz: %llu run(s), %llu pass(es), %zu failure(s) "
                "(%llu duplicate(s)), %llu ref-hang(s)\n",
                ull(rep.runs), ull(rep.passes), rep.failures.size(),
                ull(rep.duplicates), ull(rep.refHangs));
    for (const fuzz::FuzzFailure &f : rep.failures) {
        if (!f.unique)
            continue;
        std::printf("  seed %llu / %s: %s [%s]\n", ull(f.seed),
                    f.config.c_str(), enumName(f.outcome),
                    f.signature.c_str());
        if (f.reproPath.empty())
            continue;
        std::printf("  to reproduce: edgesim --replay %s\n",
                    f.reproPath.c_str());
        if (!minimize || f.outcome == fuzz::Outcome::RefHang)
            continue;
        triage::ReproSpec spec;
        std::string err;
        if (triage::load(f.reproPath, &spec, &err))
            minimizeToFile(spec, f.reproPath, threads, "  ");
        else
            warn("cannot minimize %s: %s", f.reproPath.c_str(),
                 err.c_str());
    }
    if (rep.interrupted && sup)
        return interruptedExit(*sup);
    if (rep.clean())
        std::printf("fuzz: all mechanisms agree with the reference\n");
    return rep.clean() ? 0 : 2;
}

/** `edgesim serve ...`: the coordinator daemon, an agent, or the
 *  fabric simulation. */
int
serveCliMain(int argc, char **argv)
{
    ServeCli o;
    if (std::optional<int> rc = parseFlags(argc, argv, 2, o))
        return *rc;

    if (!o.replay.empty())
        return serve::simnet::replayMain(o.replay, o.minimize,
                                         o.explorer.fabsimDir);
    if (o.simulate)
        return serve::simnet::exploreMain(o.explorer);
    fatal_if(o.isAgent && o.listen,
             "serve: --agent and --listen are mutually exclusive");
    fatal_if(!o.isAgent && !o.listen,
             "serve: need --listen <port> (coordinator) or --agent "
             "<host:port>");
    if (o.isAgent)
        return serve::agentMain(o.agent);
    return serve::serveMain(o);
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

    MainCli o;
    if (std::optional<int> rc = parseFlags(argc, argv, 1, o))
        return *rc;
    const unsigned threads = o.sup.jobs;
    const bool isolate = o.isolate || o.sup.resume || !o.journalDir.empty();

    if (!o.replay.empty())
        return replayMain(o.replay, o.minimize, threads);

    // --strict-provenance turns the resume build-mismatch warning
    // into a refusal, before any cell runs.
    if (o.strictProvenance && o.sup.resume) {
        std::string desc;
        if (super::Journal::provenanceMismatch(o.sup.journalPath, &desc)) {
            std::fprintf(
                stderr,
                "edgesim: journal %s: %s; refusing to resume "
                "under --strict-provenance\n",
                o.sup.journalPath.c_str(), desc.c_str());
            return chaos::exitCodeFor(
                chaos::SimError::Reason::ProvenanceMismatch);
        }
    }

    // An --isolate campaign journals into --journal-dir under its own
    // name, unless --resume named the journal.
    auto supervisorOptions = [&o](const std::string &campaign) {
        if (!o.sup.resume && !o.journalDir.empty())
            o.sup.journalPath = o.journalDir + "/" + campaign + ".journal";
        return o.sup;
    };

    if (o.fuzzCount > 0) {
        fuzz::FuzzOptions fo;
        fo.count = o.fuzzCount;
        fo.seed = o.fuzzSeed;
        fo.chaosProfile = o.chaosProfile;
        fo.mutation = o.mutation;
        fo.mutationNode = o.mutationNode;
        fo.checkInvariants = o.checkInvariants;
        fo.threads = threads;
        fo.corpusDir = o.corpusDir;
        // Corpus capture and minimization need local repro files.
        fatal_if(!o.submitTo.empty() && (!o.corpusDir.empty() || o.minimize),
                 "--submit campaigns cannot use --corpus-dir or "
                 "--minimize (they need local repro files)");
        fatal_if(o.minimize && o.corpusDir.empty(),
                 "--fuzz --minimize needs --corpus-dir (minimization "
                 "starts from the captured .repro.json)");
        // One banner and one report printer: a remote or --isolate
        // campaign's stdout is byte-identical to the in-process one.
        std::printf("fuzz: %llu program(s) x %zu mechanism(s), base seed "
                    "%llu%s\n",
                    ull(fo.count), fuzz::defaultConfigs().size(),
                    ull(fo.seed),
                    fo.chaosProfile != chaos::Profile::None
                        ? ", chaos layered on"
                        : "");
        fuzz::FuzzReport rep;
        std::optional<super::Supervisor> sup;
        if (!o.submitTo.empty()) {
            std::string err;
            if (!serve::submitFuzz(o.submitTo, fo, &rep, &err,
                                   o.submitTimeoutMs, o.submitRetries))
                fatal("--submit: %s", err.c_str());
            if (rep.interrupted)
                warn("campaign was interrupted on the coordinator; "
                     "the report is partial");
        } else {
            if (isolate) {
                super::installStopHandlers();
                sup.emplace(supervisorOptions(
                    strfmt("fuzz-seed%llu-n%llu", ull(o.fuzzSeed),
                           ull(o.fuzzCount))));
                fo.batchRunner = super::fuzzBatchRunner(*sup);
            }
            rep = fuzz::runCampaign(fo);
        }
        return fuzzReportExit(rep, o.minimize, threads,
                              sup ? &*sup : nullptr);
    }

    if (o.kernel.empty()) {
        usage<MainCli>();
        return 1;
    }
    if (!wl::exists(o.kernel)) {
        std::fprintf(stderr,
                     "edgesim: unknown kernel '%s'; valid kernels:\n",
                     o.kernel.c_str());
        for (const auto &name : wl::kernelNames())
            std::fprintf(stderr, "  %s\n", name.c_str());
        return 2;
    }

    const auto base = sim::Configs::lookup(o.config);
    fatal_if(!base, "unknown config '%s' (try: %s)", o.config.c_str(),
             join(sim::Configs::allNames(), " ").c_str());
    core::MachineConfig cfg = *base;
    cfg.rngSeed = o.seed;
    cfg.chaos = chaos::ChaosParams::byProfile(o.chaosProfile, o.chaosSeed);
    cfg.chaos.mutation = o.mutation;
    cfg.chaos.mutationNode = o.mutationNode;
    cfg.checkInvariants = o.checkInvariants;
    // --set goes last so it overrides the flags above.
    for (const auto &[k, v] : o.overrides) {
        std::string err;
        fatal_if(!triage::applyConfigOverride(&cfg, k, v, &err), "%s",
                 err.c_str());
    }

    const triage::ProgramRef prog_ref{o.kernel, o.kp};

    if (o.sweepSeeds > 0) {
        sim::ChaosSweepParams sp;
        for (std::uint64_t s = 0; s < o.sweepSeeds; ++s)
            sp.seeds.push_back(o.seed + s);
        sp.configs = {o.config};
        sp.profile = o.chaosProfile == chaos::Profile::None
                         ? chaos::Profile::Light
                         : o.chaosProfile;
        sp.threads = threads;
        sp.mutation = o.mutation;
        sp.mutationNode = o.mutationNode;
        if (!o.overrides.empty()) {
            fatal_if(!o.submitTo.empty(),
                     "--set cannot be combined with --submit");
            // Checked against cfg above, so every override applies.
            sp.tweak = [&o](core::MachineConfig &m) {
                for (const auto &[k, v] : o.overrides)
                    triage::applyConfigOverride(&m, k, v, nullptr);
            };
        }
        sim::ChaosSweepReport rep;
        bool interrupted = false;
        std::optional<super::Supervisor> sup;
        if (!o.submitTo.empty()) {
            std::string err;
            if (!serve::submitSweep(o.submitTo, sp, prog_ref, &rep,
                                    &interrupted, &err, o.submitTimeoutMs,
                                    o.submitRetries))
                fatal("--submit: %s", err.c_str());
        } else if (isolate) {
            super::installStopHandlers();
            sup.emplace(supervisorOptions(strfmt(
                "sweep-%s-%s", o.kernel.c_str(), o.config.c_str())));
            rep = super::chaosSweepIsolated(sp, prog_ref, *sup,
                                            &interrupted);
        } else {
            rep = sim::chaosSweep(wl::build(o.kernel, o.kp), sp);
        }
        if (!o.reproDir.empty())
            triage::captureSweepFailures(rep, prog_ref, sp.maxCycles,
                                         o.reproDir);
        // One banner on purpose: an uninterrupted remote or --isolate
        // sweep's stdout is byte-identical to the in-process one.
        std::printf("%s / %s chaos sweep (%s):\n%s", o.kernel.c_str(),
                    o.config.c_str(), enumName(sp.profile),
                    rep.summary().c_str());
        if (interrupted && sup)
            return interruptedExit(*sup);
        if (interrupted) {
            warn("campaign was interrupted on the coordinator; "
                 "the report is partial");
            return 130;
        }
        return rep.allConverged() ? 0 : 3;
    }

    sim::Simulator sim(wl::build(o.kernel, o.kp), cfg);
    sim::RunResult r = sim.run();

    std::printf("%s / %s: %llu cycles, %llu insts, IPC %.3f\n",
                o.kernel.c_str(), o.config.c_str(), ull(r.cycles),
                ull(r.committedInsts), r.ipc());
    std::printf("violations %llu, flushes %llu (+%llu ctrl), "
                "resends %llu, upgrades %llu, holds %llu\n",
                ull(r.counter("lsq.violations")),
                ull(r.counter("core.viol_flushes")),
                ull(r.counter("core.ctrl_flushes")),
                ull(r.counter("lsq.resends")), ull(r.counter("core.upgrades")),
                ull(r.counter("lsq.policy_holds")));
    if (r.chaosSeed || r.injections.total() || r.invariantChecks) {
        std::printf(
            "chaos seed %llu: %llu injections (%llu hop, %llu dup, "
            "%llu mem, %llu store, %llu spurious); %llu invariant "
            "checks\n",
            ull(r.chaosSeed), ull(r.injections.total()),
            ull(r.injections.hopDelays), ull(r.injections.duplicates),
            ull(r.injections.memJitters), ull(r.injections.storeDelays),
            ull(r.injections.spuriousWaves), ull(r.invariantChecks));
    }
    std::printf("architectural state verified against the reference: "
                "%s\n",
                r.archMatch ? "PASS" : "FAIL");
    if (!r.error.ok())
        std::printf("run failed gracefully:\n%s\n",
                    r.error.format().c_str());
    if (o.stats)
        std::printf("\n%s", sim.stats().dump().c_str());

    const bool diverged = !(r.archMatch && r.halted);
    if ((!r.error.ok() || diverged) && !o.reproDir.empty()) {
        triage::ReproSpec spec =
            triage::captureFromResult(prog_ref, cfg, 500'000'000, r);
        std::string path = triage::captureToFile(spec, o.reproDir);
        if (!path.empty()) {
            std::printf("to reproduce: edgesim --replay %s\n",
                        path.c_str());
            if (o.minimize) {
                triage::MinimizeOptions mo;
                mo.threads = threads;
                printMinimized(triage::minimizeRepro(spec, mo));
            }
        }
    }
    // The documented exit status of one finished run.
    if (!r.error.ok()) {
        std::fprintf(stderr, "edgesim: %s\n", enumName(r.error.reason));
        return chaos::exitCodeFor(r.error.reason);
    }
    if (diverged)
        std::fprintf(stderr, "edgesim: divergence\n");
    return diverged ? 2 : 0;
}
