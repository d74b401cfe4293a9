/**
 * @file
 * Tests for the campaign fabric (src/serve/): coordinator leases,
 * heartbeat-timeout reassignment, the zero-agent local fallback, and
 * the self-defence layer — hedged straggler re-execution against an
 * agent whose worker sleeps, result-integrity audits and liar
 * quarantine against an agent whose worker rewrites its result,
 * admission-control shedding, fair submission ordering, and
 * client-side submit deadlines. Every scenario asserts
 * the robustness contract: the merged report is byte-identical to a
 * clean single-host run regardless of agent count, kill schedule,
 * reassignment history, hedging, or audit activity.
 *
 * This binary has a custom main(): invoked as `test_serve
 * --worker-cell` it becomes a protocol worker (the default
 * /proc/self/exe worker image), and as `test_serve --serve-agent
 * <host:port> [--worker-path <file>]` it becomes a fabric agent — so
 * the tests fork/exec real agent processes whose cells run through
 * the real isolation path. A slow or lying agent is an honest agent
 * whose --worker-path is a shell wrapper around this binary.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "log/log_chaos.hh"
#include "serve/agent.hh"
#include "serve/daemon.hh"
#include "serve/fabric.hh"
#include "serve/net.hh"
#include "serve/proto.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "super/campaign.hh"
#include "super/cell.hh"
#include "super/supervisor.hh"
#include "super/worker.hh"
#include "triage/repro.hh"
#include "triage/result_json.hh"

namespace edge {
namespace {

/** A small, fast kernel cell: parserish under one named mechanism. */
super::CellSpec
kernelCell(std::uint64_t seed, const std::string &config_name = "dsre",
           std::uint64_t iterations = 60)
{
    super::CellSpec cell;
    cell.program.kernel = "parserish";
    cell.program.params.iterations = iterations;
    cell.config = sim::Configs::byName(config_name);
    cell.config.rngSeed = seed;
    cell.maxCycles = 200'000'000;
    return cell;
}

std::vector<super::CellSpec>
grid(std::size_t n)
{
    std::vector<super::CellSpec> cells;
    for (std::size_t i = 0; i < n; ++i)
        cells.push_back(kernelCell(i + 1));
    return cells;
}

/** What every executor should compute for `cell`, run in-process. */
sim::RunResult
runInProcess(const super::CellSpec &cell)
{
    isa::Program prog = triage::buildProgram(cell.program).value();
    sim::Simulator sim(std::move(prog), cell.config);
    return sim.run(cell.config, cell.maxCycles);
}

std::string
dump(const sim::RunResult &r)
{
    return triage::resultToJson(r).dumpCompact();
}

/** The clean single-host truth for a grid. */
std::vector<std::string>
truth(const std::vector<super::CellSpec> &cells)
{
    std::vector<std::string> want;
    for (const super::CellSpec &c : cells)
        want.push_back(dump(runInProcess(c)));
    return want;
}

void
expectByteIdentical(const std::vector<super::CellOutcome> &out,
                    const std::vector<std::string> &want)
{
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(out[i].ran) << "cell " << i;
        EXPECT_EQ(dump(out[i].result), want[i]) << "cell " << i;
    }
}

/** Fork/exec this binary as a fabric agent against 127.0.0.1:port;
 *  its cells run under `worker` ("" = this binary). */
pid_t
spawnAgent(std::uint16_t port, unsigned slots,
           std::uint64_t die_after = 0, const std::string &worker = "")
{
    std::string target = "127.0.0.1:" + std::to_string(port);
    std::string slots_s = std::to_string(slots);
    std::string die_s = std::to_string(die_after);
    pid_t pid = ::fork();
    if (pid == 0) {
        std::vector<const char *> argv = {
            "/proc/self/exe", "--serve-agent", target.c_str(),
            "--slots",        slots_s.c_str(),
        };
        if (die_after) {
            argv.push_back("--die-after");
            argv.push_back(die_s.c_str());
        }
        if (!worker.empty()) {
            argv.push_back("--worker-path");
            argv.push_back(worker.c_str());
        }
        argv.push_back(nullptr);
        ::execv("/proc/self/exe",
                const_cast<char *const *>(argv.data()));
        _exit(127);
    }
    return pid;
}

void
reapAgent(pid_t pid, int sig = SIGKILL)
{
    if (pid <= 0)
        return;
    ::kill(pid, sig);
    int status = 0;
    ::waitpid(pid, &status, 0);
}

/** Pump the fabric until `n` agents are live (fatal on deadline). */
void
awaitAgents(serve::Fabric &fabric, std::size_t n,
            int deadline_ms = 15000)
{
    auto limit = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(deadline_ms);
    while (fabric.liveAgents() < n) {
        ASSERT_LT(std::chrono::steady_clock::now(), limit)
            << "agents never registered";
        fabric.pump(50);
    }
}

serve::FabricOptions
fastOptions()
{
    serve::FabricOptions fo;
    fo.listenPort = 0; // ephemeral
    fo.localJobs = 2;
    fo.retry.maxAttempts = 1;
    return fo;
}

// --- graceful degradation -------------------------------------------

TEST(ServeFallback, ZeroAgentsRunsLocallyByteIdentical)
{
    std::vector<super::CellSpec> cells = grid(4);
    std::vector<std::string> want = truth(cells);

    serve::Fabric fabric(fastOptions());
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;
    EXPECT_EQ(fabric.liveAgents(), 0u);

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_EQ(fabric.localCellsRun(), cells.size());
    EXPECT_EQ(fabric.completed(), cells.size());
    EXPECT_EQ(fabric.failures(), 0u);
}

TEST(ServeFallback, FabricSweepReportMatchesInProcessSweep)
{
    sim::ChaosSweepParams params;
    params.seeds = {1, 2};
    params.configs = {"dsre"};
    params.maxCycles = 200'000'000;
    params.retry.maxAttempts = 1;

    triage::ProgramRef ref;
    ref.kernel = "parserish";
    ref.params.iterations = 60;
    isa::Program prog = triage::buildProgram(ref).value();
    sim::ChaosSweepReport inproc = sim::chaosSweep(prog, params);

    serve::Fabric fabric(fastOptions());
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;
    bool interrupted = true;
    sim::ChaosSweepReport merged =
        super::chaosSweepIsolated(params, ref, fabric, &interrupted);

    EXPECT_FALSE(interrupted);
    ASSERT_EQ(merged.runs.size(), inproc.runs.size());
    EXPECT_EQ(merged.summary(), inproc.summary());
    for (std::size_t i = 0; i < inproc.runs.size(); ++i)
        EXPECT_EQ(dump(merged.runs[i].result),
                  dump(inproc.runs[i].result))
            << "cell " << i;
}

// --- remote execution through real agent processes ------------------

TEST(ServeAgents, RemoteResultsByteIdentical)
{
    std::vector<super::CellSpec> cells = grid(6);
    std::vector<std::string> want = truth(cells);

    serve::FabricOptions fo = fastOptions();
    // Pure-fabric run: prove the cells went over the wire, not
    // through the degradation path.
    fo.localFallback = false;
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;

    pid_t a = spawnAgent(fabric.port(), 2);
    pid_t b = spawnAgent(fabric.port(), 2);
    awaitAgents(fabric, 2);

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_EQ(fabric.localCellsRun(), 0u);
    EXPECT_EQ(fabric.completed(), cells.size());
    EXPECT_EQ(fabric.failures(), 0u);

    reapAgent(a);
    reapAgent(b);
}

// --- agent killed mid-cell ------------------------------------------

TEST(ServeRobust, AgentSigkilledMidCellIsReassigned)
{
    std::vector<super::CellSpec> cells = grid(6);
    std::vector<std::string> want = truth(cells);

    serve::Fabric fabric(fastOptions());
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;

    // The agent SIGKILLs itself right after its first result, while
    // a second lease is still in flight; the coordinator must revoke
    // and reassign it (here: to the local fallback).
    pid_t a = spawnAgent(fabric.port(), 2, /*die_after=*/1);
    awaitAgents(fabric, 1);

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_GE(fabric.agentDeaths(), 1u);
    EXPECT_GE(fabric.reassignments(), 1u);
    EXPECT_EQ(fabric.failures(), 0u);

    reapAgent(a);
}

// --- heartbeat timeout ----------------------------------------------

TEST(ServeRobust, HeartbeatTimeoutReassignsLeases)
{
    std::vector<super::CellSpec> cells = grid(4);
    std::vector<std::string> want = truth(cells);

    serve::FabricOptions fo = fastOptions();
    fo.heartbeatMs = 100;
    fo.heartbeatTimeoutMs = 500;
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;

    pid_t a = spawnAgent(fabric.port(), 2);
    awaitAgents(fabric, 1);
    // SIGSTOP: the connection stays open but the agent goes silent —
    // only the heartbeat sweep can declare it dead.
    ASSERT_EQ(::kill(a, SIGSTOP), 0);

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_GE(fabric.agentDeaths(), 1u);
    EXPECT_EQ(fabric.failures(), 0u);

    ::kill(a, SIGCONT);
    reapAgent(a);
}

// --- durable-ack leases ---------------------------------------------

class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : _path(std::filesystem::temp_directory_path() /
                ("edge_serve_" + name + "_" +
                 std::to_string(::getpid())))
    {
        std::filesystem::create_directories(_path);
    }
    ~TempDir() { std::filesystem::remove_all(_path); }

    std::string
    file(const std::string &name) const
    {
        return (_path / name).string();
    }

  private:
    std::filesystem::path _path;
};

/**
 * Write an executable `/bin/sh` worker wrapper into `dir`. `body`
 * runs with $WORKER naming this binary and the worker's arguments in
 * "$@" — the test doubles for a slow or lying executor.
 */
std::string
workerWrapper(const TempDir &dir, const std::string &name,
              const std::string &body)
{
    namespace fs = std::filesystem;
    std::string path = dir.file(name);
    {
        std::ofstream f(path);
        f << "#!/bin/sh\nWORKER='"
          << fs::read_symlink("/proc/self/exe").string() << "'\n"
          << body << "\n";
    }
    fs::permissions(path, fs::perms::owner_all, fs::perm_options::add);
    return path;
}

TEST(ServeDurable, CoordinatorKilledBeforeDurableReleasesTheCell)
{
    // A result the coordinator has RECEIVED but not made durable must
    // not be acknowledged: the cell parks in WaitDurable, and a
    // coordinator SIGKILLed in that window leaves a journal without
    // the record, so the resumed campaign re-leases the cell instead
    // of losing it. The final merged report stays byte-identical.
    std::vector<super::CellSpec> cells = grid(4);
    std::vector<std::string> want = truth(cells);

    TempDir tmp("durable");
    std::string path = tmp.file("camp.journal");

    // A seed whose before-write fault fires at flusher write ordinal
    // 0: the coordinator dies at its FIRST journal batch write — at
    // least one result received, nothing durable yet.
    std::uint64_t seed = 1;
    while (!log::LogChaos::wouldFire(log::LogCrashPoint::BeforeWrite,
                                     seed, 0))
        ++seed;

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        serve::FabricOptions fo = fastOptions();
        fo.journalPath = path;
        fo.logOptions.groupCommitMs = 1;
        fo.logOptions.chaos.point = log::LogCrashPoint::BeforeWrite;
        fo.logOptions.chaos.seed = seed;
        serve::Fabric fabric(fo);
        std::string err;
        if (!fabric.start(&err))
            ::_exit(3);
        fabric.runAll(cells);
        ::_exit(0); // the injected kill never fired
    }
    int st = 0;
    ASSERT_EQ(::waitpid(pid, &st, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL)
        << "coordinator should die at its first journal write, "
        << "status " << st;

    // Restart on the same journal: every cell re-leases (nothing was
    // durable), completes, and the report is byte-identical.
    serve::FabricOptions fo = fastOptions();
    fo.journalPath = path;
    fo.resume = true;
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;
    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_EQ(fabric.failures(), 0u);
    EXPECT_LT(fabric.skipped(), cells.size())
        << "the unacknowledged cell must re-execute, not be lost";

    // And the resumed session's journal now holds every cell final:
    // a third run replays everything.
    serve::FabricOptions fo2 = fastOptions();
    fo2.journalPath = path;
    fo2.resume = true;
    serve::Fabric fabric2(fo2);
    ASSERT_TRUE(fabric2.start(&err)) << err;
    std::vector<super::CellOutcome> replay = fabric2.runAll(cells);
    expectByteIdentical(replay, want);
    EXPECT_EQ(fabric2.skipped(), cells.size());
}

// --- hedged straggler re-execution ----------------------------------

TEST(ServeHedge, SlowAgentIsHedgedByteIdentical)
{
    std::vector<super::CellSpec> cells = grid(6);
    std::vector<std::string> want = truth(cells);

    // Agent a's worker sleeps 1.5 s before every cell; an explicit
    // 200 ms hedge threshold guarantees every one of its leases
    // straggles past it.
    TempDir dir("slow");
    std::string slow = workerWrapper(dir, "slow-worker.sh",
                                     "sleep 1.5\nexec \"$WORKER\" \"$@\"");

    serve::FabricOptions fo = fastOptions();
    fo.localFallback = false;
    fo.hedgeAfterMs = 200;
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;

    pid_t a = spawnAgent(fabric.port(), 2, 0, slow);
    pid_t b = spawnAgent(fabric.port(), 2);
    pid_t c = spawnAgent(fabric.port(), 2);
    awaitAgents(fabric, 3);

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_GT(fabric.hedges(), 0u)
        << "the slow agent's leases must be hedged";
    EXPECT_EQ(fabric.failures(), 0u);
    // A hedge loser is a counted no-op, never a reassignment.
    EXPECT_EQ(fabric.completed(), cells.size());

    reapAgent(a);
    reapAgent(b);
    reapAgent(c);
}

TEST(ServeHedge, HedgingDisabledCutsNoHedges)
{
    std::vector<super::CellSpec> cells = grid(3);
    std::vector<std::string> want = truth(cells);

    serve::FabricOptions fo = fastOptions();
    fo.hedgeMax = 0; // hedging off
    fo.hedgeAfterMs = 1;
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_EQ(fabric.hedges(), 0u);
}

// --- result-integrity audits ----------------------------------------

TEST(ServeAudit, CleanFleetAuditsAllMatch)
{
    std::vector<super::CellSpec> cells = grid(4);
    std::vector<std::string> want = truth(cells);

    serve::FabricOptions fo = fastOptions();
    fo.localFallback = false;
    fo.auditFrac = 1.0; // audit every clean remote result
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;

    pid_t a = spawnAgent(fabric.port(), 2);
    pid_t b = spawnAgent(fabric.port(), 2);
    awaitAgents(fabric, 2);

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_EQ(fabric.auditsRun(), cells.size());
    EXPECT_EQ(fabric.auditsPassed(), cells.size());
    EXPECT_EQ(fabric.auditsDiverged(), 0u);
    EXPECT_EQ(fabric.agentsQuarantined(), 0u);
    EXPECT_EQ(fabric.failures(), 0u);

    reapAgent(a);
    reapAgent(b);
}

TEST(ServeAudit, LiarAgentIsQuarantinedReportStaysClean)
{
    std::vector<super::CellSpec> cells = grid(6);
    std::vector<std::string> want = truth(cells);

    // Agent a's worker rewrites `cycles` in every result it returns
    // (valid JSON, wrong bytes); with three agents (plus the local
    // tie-break executor) the audit vote always has an honest
    // majority.
    TempDir dir("liar");
    std::string liar = workerWrapper(
        dir, "liar-worker.sh",
        "\"$WORKER\" \"$@\" | sed 's/\"cycles\":[0-9]*/\"cycles\":1/'");

    serve::FabricOptions fo = fastOptions();
    fo.auditFrac = 1.0;
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;

    pid_t a = spawnAgent(fabric.port(), 2, 0, liar);
    pid_t b = spawnAgent(fabric.port(), 2);
    pid_t c = spawnAgent(fabric.port(), 2);
    awaitAgents(fabric, 3);

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    // The whole point: corrupt bytes never reach the report.
    expectByteIdentical(out, want);
    EXPECT_GE(fabric.auditsDiverged(), 1u);
    EXPECT_EQ(fabric.agentsQuarantined(), 1u)
        << "exactly the liar is quarantined";
    EXPECT_EQ(fabric.failures(), 0u);

    reapAgent(a);
    reapAgent(b);
    reapAgent(c);
}

// --- admission control ----------------------------------------------

/** Parse one JSON line ("" and bad JSON are fatal). */
triage::JsonValue
parseDoc(const std::string &line)
{
    triage::JsonValue doc;
    std::string err;
    EXPECT_TRUE(triage::JsonValue::parse(line, &doc, &err)) << err;
    return doc;
}

/** A syntactically valid submission body (content never executed —
 *  these tests exercise the queue, not the campaign). */
std::string
dummySubmit()
{
    triage::JsonValue campaign;
    std::string err;
    EXPECT_TRUE(
        triage::JsonValue::parse("{\"kind\":\"sweep\"}", &campaign, &err));
    return serve::proto::submit(campaign);
}

TEST(ServeAdmission, QueueFullShedsWithRetryAfter)
{
    serve::FabricOptions fo = fastOptions();
    fo.maxQueued = 1;
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;
    std::string target = "127.0.0.1:" + std::to_string(fabric.port());

    // First client fills the queue (nothing pops it).
    int first = serve::connectTo(target, &err);
    ASSERT_GE(first, 0) << err;
    ASSERT_TRUE(serve::sendLine(first, dummySubmit(), &err)) << err;
    for (int i = 0; i < 20; ++i)
        fabric.pump(10);

    // Second client must be shed with a structured retry hint.
    int second = serve::connectTo(target, &err);
    ASSERT_GE(second, 0) << err;
    ASSERT_TRUE(serve::sendLine(second, dummySubmit(), &err)) << err;

    serve::LineReader reader(second);
    std::string line;
    bool got = false;
    for (int i = 0; i < 100 && !got; ++i) {
        fabric.pump(10);
        struct pollfd p = {second, POLLIN, 0};
        if (::poll(&p, 1, 0) == 1)
            got = reader.next(&line, &err, 1000);
    }
    ASSERT_TRUE(got) << "no shed reply: " << err;
    triage::JsonValue doc = parseDoc(line);
    EXPECT_EQ(doc.getString("type"), "error");
    EXPECT_NE(doc.getU64("retry_after_ms"), 0u)
        << "shed error must carry the retry hint";
    EXPECT_EQ(fabric.shedSubmissions(), 1u);

    ::close(first);
    ::close(second);
}

TEST(ServeAdmission, PopSubmissionAlternatesBetweenClients)
{
    serve::Fabric fabric(fastOptions());
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;
    std::string target = "127.0.0.1:" + std::to_string(fabric.port());

    // Client A queues two campaigns before client B queues one.
    int a = serve::connectTo(target, &err);
    ASSERT_GE(a, 0) << err;
    ASSERT_TRUE(serve::sendLine(a, dummySubmit(), &err)) << err;
    ASSERT_TRUE(serve::sendLine(a, dummySubmit(), &err)) << err;
    for (int i = 0; i < 20; ++i)
        fabric.pump(10);
    int b = serve::connectTo(target, &err);
    ASSERT_GE(b, 0) << err;
    ASSERT_TRUE(serve::sendLine(b, dummySubmit(), &err)) << err;
    for (int i = 0; i < 20; ++i)
        fabric.pump(10); // let B's submission land before popping

    serve::Fabric::Submission s1, s2, s3;
    auto popOne = [&](serve::Fabric::Submission *s) {
        for (int i = 0; i < 200; ++i) {
            if (fabric.popSubmission(s))
                return true;
            fabric.pump(10);
        }
        return false;
    };
    ASSERT_TRUE(popOne(&s1));
    ASSERT_TRUE(popOne(&s2));
    ASSERT_TRUE(popOne(&s3));

    // Fair service: A's first (oldest), then B's (a different
    // client), then back to A's second — not A, A, B.
    EXPECT_EQ(s1.client, s3.client);
    EXPECT_NE(s1.client, s2.client)
        << "the second pop must serve the other client";

    ::close(a);
    ::close(b);
}

// --- client-side submit deadline ------------------------------------

TEST(ServeTimeout, SubmitTimesOutOnSilentCoordinator)
{
    // A listener that accepts but never answers: the classic hung
    // coordinator. The submit helper must fail with a structured
    // timeout instead of wedging forever.
    std::string err;
    int listener = serve::listenOn(0, &err);
    ASSERT_GE(listener, 0) << err;
    std::string target =
        "127.0.0.1:" + std::to_string(serve::boundPort(listener));

    sim::ChaosSweepParams params;
    params.seeds = {1};
    params.configs = {"dsre"};
    triage::ProgramRef ref;
    ref.kernel = "parserish";
    ref.params.iterations = 10;

    sim::ChaosSweepReport report;
    bool interrupted = false;
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(serve::submitSweep(target, params, ref, &report,
                                    &interrupted, &err,
                                    /*timeoutMs=*/400));
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    EXPECT_NE(err.find("timed out"), std::string::npos) << err;
    EXPECT_LT(secs, 10.0) << "deadline did not bound the wait";
    ::close(listener);
}

// --- unknown names in a submission ---------------------------------

/** Send one raw campaign document; the coordinator's reply line. */
triage::JsonValue
submitRaw(const std::string &target, const triage::JsonValue &campaign)
{
    std::string err;
    int fd = -1;
    // The forked coordinator may not be listening yet.
    for (int i = 0; i < 200 && fd < 0; ++i) {
        fd = serve::connectTo(target, &err, 1000);
        if (fd < 0)
            ::usleep(25'000);
    }
    EXPECT_GE(fd, 0) << err;
    std::string line;
    if (fd >= 0) {
        EXPECT_TRUE(
            serve::sendLine(fd, serve::proto::submit(campaign), &err))
            << err;
        serve::LineReader reader(fd);
        EXPECT_TRUE(reader.next(&line, &err, 60000))
            << "no reply (coordinator died?): " << err;
        ::close(fd);
    }
    return line.empty() ? triage::JsonValue() : parseDoc(line);
}

/** A valid sweep submission with `section.key` replaced. */
triage::JsonValue
sweepWith(const char *section, const char *key, triage::JsonValue value)
{
    sim::ChaosSweepParams params;
    params.seeds = {1};
    params.configs = {"dsre"};
    triage::ProgramRef ref;
    ref.kernel = "parserish";
    ref.params.iterations = 10;
    triage::JsonValue doc = serve::sweepSubmission(params, ref);
    triage::JsonValue s = *doc.get(section);
    s.set(key, std::move(value));
    doc.set(section, std::move(s));
    return doc;
}

TEST(ServeRobust, UnknownNamesGetErrorRepliesAndServingContinues)
{
    std::string err;
    int probe = serve::listenOn(0, &err);
    ASSERT_GE(probe, 0) << err;
    const std::uint16_t port = serve::boundPort(probe);
    ::close(probe);

    pid_t coord = ::fork();
    if (coord == 0) {
        serve::ServeOptions so;
        so.fabric = fastOptions();
        so.fabric.listenPort = port;
        _exit(serve::serveMain(so));
    }
    const std::string target = "127.0.0.1:" + std::to_string(port);

    triage::JsonValue configs = triage::JsonValue::array();
    configs.push(triage::JsonValue::str("bogus"));
    triage::JsonValue reply =
        submitRaw(target, sweepWith("params", "configs", configs));
    EXPECT_EQ(reply.getString("type"), "error");
    EXPECT_NE(reply.getString("message").find("unknown mechanism 'bogus'"),
              std::string::npos)
        << reply.getString("message");

    reply = submitRaw(target, sweepWith("params", "profile",
                                        triage::JsonValue::str("bogus")));
    EXPECT_EQ(reply.getString("type"), "error");
    EXPECT_NE(reply.getString("message").find("profile: unknown name 'bogus'"),
              std::string::npos)
        << reply.getString("message");

    reply = submitRaw(target, sweepWith("program", "kernel",
                                        triage::JsonValue::str("bogus")));
    EXPECT_EQ(reply.getString("type"), "error");
    EXPECT_NE(reply.getString("message").find("unknown kernel 'bogus'"),
              std::string::npos)
        << reply.getString("message");

    // The coordinator is still serving: an honest campaign completes.
    sim::ChaosSweepParams params;
    params.seeds = {1, 2};
    params.configs = {"dsre"};
    triage::ProgramRef ref;
    ref.kernel = "parserish";
    ref.params.iterations = 10;
    sim::ChaosSweepReport report;
    bool interrupted = false;
    ASSERT_TRUE(serve::submitSweep(target, params, ref, &report,
                                   &interrupted, &err, 60000))
        << err;
    EXPECT_FALSE(interrupted);
    EXPECT_EQ(report.runs.size(), 2u);
    EXPECT_TRUE(report.allConverged());

    int status = 0;
    EXPECT_EQ(::waitpid(coord, &status, WNOHANG), 0)
        << "coordinator exited";
    reapAgent(coord);
}

// --- durable log fails mid-campaign ---------------------------------

TEST(ServeDurable, FailFsyncMidCampaignStillCompletes)
{
    // The non-lethal log fault: an fsync fails and the log goes
    // sticky-failed, so the durable watermark never reaches the
    // parked WaitDurable cells. The campaign must complete anyway
    // (results are already merged; the lost records re-run on
    // --resume) instead of wedging on an ack that can never come.
    std::vector<super::CellSpec> cells = grid(4);
    std::vector<std::string> want = truth(cells);

    TempDir tmp("failfsync");
    std::uint64_t seed = 1;
    while (!log::LogChaos::wouldFire(log::LogCrashPoint::FailFsync,
                                     seed, 0))
        ++seed;

    serve::FabricOptions fo = fastOptions();
    fo.journalPath = tmp.file("camp.journal");
    fo.logOptions.groupCommitMs = 1;
    fo.logOptions.chaos.point = log::LogCrashPoint::FailFsync;
    fo.logOptions.chaos.seed = seed;
    serve::Fabric fabric(fo);
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;

    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    expectByteIdentical(out, want);
    EXPECT_EQ(fabric.failures(), 0u);
    EXPECT_EQ(fabric.completed(), cells.size())
        << "WaitDurable cells must complete on the failed-log path";
}

// --- stop semantics -------------------------------------------------

TEST(ServeStop, RequestStopLeavesUnrunCellsResumable)
{
    std::vector<super::CellSpec> cells = grid(3);
    serve::Fabric fabric(fastOptions());
    std::string err;
    ASSERT_TRUE(fabric.start(&err)) << err;
    fabric.requestStop();
    std::vector<super::CellOutcome> out = fabric.runAll(cells);
    ASSERT_EQ(out.size(), 3u);
    for (const super::CellOutcome &o : out)
        EXPECT_FALSE(o.ran);
}

} // namespace
} // namespace edge

int
main(int argc, char **argv)
{
    // The default worker image is /proc/self/exe — this binary.
    // Dispatch the worker and agent personalities before gtest sees
    // argv.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        return edge::super::workerCellMain(std::cin, std::cout);
    if (argc >= 3 && std::strcmp(argv[1], "--serve-agent") == 0) {
        edge::serve::AgentOptions ao;
        ao.coordinator = argv[2];
        for (int i = 3; i + 1 < argc; i += 2) {
            if (std::strcmp(argv[i], "--slots") == 0)
                ao.slots = static_cast<unsigned>(
                    std::strtoul(argv[i + 1], nullptr, 10));
            else if (std::strcmp(argv[i], "--die-after") == 0)
                ao.dieAfterResults =
                    std::strtoull(argv[i + 1], nullptr, 10);
            else if (std::strcmp(argv[i], "--worker-path") == 0)
                ao.workerPath = argv[i + 1];
        }
        return edge::serve::agentMain(ao);
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
