/**
 * @file
 * Tests for the campaign supervisor (src/super/): the worker
 * protocol, cell identity, journal durability semantics, wait-status
 * classification of dead children, and the acceptance scenario —
 * a campaign with a SIGKILLed cell, interrupted and resumed, must
 * produce a report bit-identical to the uninterrupted run.
 *
 * This binary has a custom main(): invoked as `test_super
 * --worker-cell` it becomes a protocol worker, so the Supervisor's
 * default /proc/self/exe worker image works inside the tests and the
 * fork/exec path under test is the real one.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "super/campaign.hh"
#include "super/cell.hh"
#include "super/journal.hh"
#include "super/supervisor.hh"
#include "super/worker.hh"
#include "triage/jsonio.hh"
#include "triage/repro.hh"
#include "triage/result_json.hh"

namespace edge {
namespace {

class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : _path(std::filesystem::temp_directory_path() /
                ("edge_super_" + name + "_" +
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

/** What the worker should compute for `cell`, run in-process. */
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

/** Single-attempt options: classification tests must observe the
 *  first death, not a retried timeout. */
super::SupervisorOptions
noRetryOptions()
{
    super::SupervisorOptions so;
    so.jobs = 2;
    so.retry.maxAttempts = 1;
    return so;
}

// --- cell identity and serialization --------------------------------

TEST(SuperCell, JsonRoundTripPreservesIdentity)
{
    super::CellSpec cell = kernelCell(7);
    cell.programHash =
        triage::programHash(triage::buildProgram(cell.program).value());

    std::string doc = super::cellToJson(cell).dump();
    triage::JsonValue root;
    std::string err;
    ASSERT_TRUE(triage::JsonValue::parse(doc, &root, &err)) << err;

    super::CellSpec back;
    ASSERT_TRUE(super::cellFromJson(root, &back, &err)) << err;
    EXPECT_EQ(back.program.kernel, "parserish");
    EXPECT_EQ(back.program.params.iterations, 60u);
    EXPECT_EQ(back.config.rngSeed, 7u);
    EXPECT_EQ(back.maxCycles, cell.maxCycles);
    EXPECT_EQ(super::cellHash(back), super::cellHash(cell));
}

TEST(SuperCell, HashDistinguishesSeedAndBudgetButNotCrashHook)
{
    super::CellSpec a = kernelCell(1);
    super::CellSpec b = kernelCell(2);
    EXPECT_NE(super::cellHash(a), super::cellHash(b));

    super::CellSpec c = kernelCell(1);
    c.maxCycles = a.maxCycles + 1;
    EXPECT_NE(super::cellHash(a), super::cellHash(c));

    // The crash hook is test scaffolding, not identity: a cell that
    // was killed while hooked must resume under the same hash once
    // the hook is removed.
    super::CellSpec d = kernelCell(1);
    d.testCrash = "kill";
    EXPECT_EQ(super::cellHash(a), super::cellHash(d));
}

TEST(SuperCell, EmbeddedProgramRoundTrips)
{
    isa::Program prog =
        triage::buildProgram(kernelCell(1).program).value();
    super::CellSpec cell;
    cell.program = triage::embeddedRef("fuzz", prog, 42);
    cell.config = sim::Configs::byName("dsre");
    cell.config.rngSeed = 3;

    std::string doc = super::cellToJson(cell).dump();
    triage::JsonValue root;
    std::string err;
    ASSERT_TRUE(triage::JsonValue::parse(doc, &root, &err)) << err;
    super::CellSpec back;
    ASSERT_TRUE(super::cellFromJson(root, &back, &err)) << err;
    EXPECT_TRUE(back.program.hasEmbedded);
    EXPECT_EQ(back.program.params.seed, 42u);
    EXPECT_EQ(super::cellHash(back), super::cellHash(cell));
}

// --- the worker protocol, on streams --------------------------------

TEST(SuperWorker, ProducesTheInProcessResultBitIdentically)
{
    super::CellSpec cell = kernelCell(5);
    std::istringstream in(super::cellToJson(cell).dump());
    std::ostringstream out;
    ASSERT_EQ(super::workerCellMain(in, out), 0);

    triage::JsonValue root;
    std::string err;
    std::string line = out.str();
    ASSERT_TRUE(triage::JsonValue::parse(line, &root, &err)) << err;
    sim::RunResult r;
    ASSERT_TRUE(triage::resultFromJson(root, &r, &err)) << err;
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
    EXPECT_EQ(dump(r), dump(runInProcess(cell)));
}

TEST(SuperWorker, RejectsMalformedSpecWithProtocolExit)
{
    std::istringstream in("{\"this is\": \"not a cell\"");
    std::ostringstream out;
    EXPECT_EQ(super::workerCellMain(in, out), 2);
    EXPECT_TRUE(out.str().empty());
}

TEST(SuperWorker, OversizedSpecIsBoundedProtocolError)
{
    // A spec stream past the bound must die with the structured
    // protocol exit while buffering, not buffer without limit.
    std::string big(super::kMaxCellSpecBytes + 4096, '{');
    std::istringstream in(big);
    std::ostringstream out;
    EXPECT_EQ(super::workerCellMain(in, out), 2);
    EXPECT_TRUE(out.str().empty());
}

// --- journal durability and parsing ---------------------------------

TEST(SuperJournal, AppendLoadRoundTripAndLastRecordWins)
{
    TempDir dir("journal");
    std::string path = dir.file("camp.journal");

    super::Journal j;
    std::string err;
    ASSERT_TRUE(j.open(path, &err)) << err;

    super::JournalRecord a;
    a.cell = 0xabcdef;
    a.final = false; // worker death: must be superseded on resume
    a.result.error.reason = chaos::SimError::Reason::WorkerKilled;
    a.result.rngSeed = 9;
    ASSERT_TRUE(j.append(a, &err)) << err;
    EXPECT_GT(j.lastLsn(), 0u);

    super::JournalRecord b;
    b.cell = 0xabcdef;
    b.final = true; // the re-execution that supersedes it
    b.result.halted = true;
    b.result.archMatch = true;
    b.result.rngSeed = 9;
    b.result.cycles = 1234;
    ASSERT_TRUE(j.append(b, &err)) << err;

    // append() only sequences; the group-commit flusher makes it
    // durable. flush() waits on the watermark.
    ASSERT_TRUE(j.flush(&err)) << err;
    EXPECT_GE(j.durableLsn(), j.lastLsn());

    std::vector<super::JournalRecord> recs;
    std::string build;
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_FALSE(build.empty());
    EXPECT_FALSE(recs[0].final);
    EXPECT_TRUE(recs[1].final);
    EXPECT_EQ(recs[1].cell, 0xabcdefu);
    EXPECT_EQ(recs[1].result.cycles, 1234u);
    EXPECT_EQ(dump(recs[1].result), dump(b.result));
}

/** The newest segment file of a log directory. */
std::string
lastSegment(const std::string &dir)
{
    std::string last;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::string p = e.path().string();
        if (p.size() > 5 &&
            p.compare(p.size() - 5, 5, ".elog") == 0 &&
            (last.empty() || p > last))
            last = p;
    }
    return last;
}

TEST(SuperJournal, ToleratesTornTailOnly)
{
    TempDir dir("torn");
    std::string path = dir.file("torn.journal");

    std::string err;
    {
        super::Journal j;
        ASSERT_TRUE(j.open(path, &err)) << err;
        super::JournalRecord rec;
        rec.cell = 1;
        rec.result.halted = true;
        ASSERT_TRUE(j.append(rec, &err)) << err;
        super::JournalRecord rec2 = rec;
        rec2.cell = 2;
        ASSERT_TRUE(j.append(rec2, &err)) << err;
        ASSERT_TRUE(j.flush(&err)) << err;
        // Both records landed in the same group-commit block; close
        // and reopen so each ends up in its own block.
    }
    {
        super::Journal j;
        ASSERT_TRUE(j.open(path, &err)) << err;
        super::JournalRecord rec3;
        rec3.cell = 3;
        rec3.result.halted = true;
        ASSERT_TRUE(j.append(rec3, &err)) << err;
        ASSERT_TRUE(j.flush(&err)) << err;
    }

    // Tear the newest block: chop bytes off the physical end of the
    // newest segment, exactly what a crash mid-write leaves behind.
    // The torn tail is dropped with a warning; the prefix loads.
    std::string seg = lastSegment(path);
    ASSERT_FALSE(seg.empty());
    std::uintmax_t size = std::filesystem::file_size(seg);
    std::filesystem::resize_file(seg, size - 7);

    std::vector<super::JournalRecord> recs;
    std::string build;
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    EXPECT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].cell, 1u);
    EXPECT_EQ(recs[1].cell, 2u);

    // Reopening for append truncates the torn tail and the journal
    // keeps working; the torn record simply re-executes.
    {
        super::Journal j;
        ASSERT_TRUE(j.open(path, &err)) << err;
        EXPECT_EQ(j.loaded().size(), 2u);
        EXPECT_EQ(j.recoveryStats().tornRecords, 1u);
        super::JournalRecord rec3;
        rec3.cell = 3;
        rec3.result.halted = true;
        ASSERT_TRUE(j.append(rec3, &err)) << err;
        ASSERT_TRUE(j.flush(&err)) << err;
    }
    recs.clear();
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    EXPECT_EQ(recs.size(), 3u);
}

TEST(SuperJournal, RejectsBitFlippedBlockNamingTheLsn)
{
    TempDir dir("crc");
    std::string path = dir.file("crc.journal");

    std::string err;
    {
        super::Journal j;
        ASSERT_TRUE(j.open(path, &err)) << err;
        super::JournalRecord a;
        a.cell = 1;
        a.final = true;
        a.result.halted = true;
        a.result.cycles = 987654321; // distinctive digits to corrupt
        ASSERT_TRUE(j.append(a, &err)) << err;
        super::JournalRecord b = a;
        b.cell = 2;
        ASSERT_TRUE(j.append(b, &err)) << err;
        ASSERT_TRUE(j.flush(&err)) << err;
    }

    // Flip one payload byte. The block is physically complete — not
    // a torn append — so even at the tail this is corruption and must
    // be rejected naming the LSN, never silently dropped.
    std::string seg = lastSegment(path);
    ASSERT_FALSE(seg.empty());
    std::string text;
    {
        std::ifstream in(seg, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    std::size_t pos = text.find("987654321");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = '1';
    {
        std::ofstream out(seg, std::ios::trunc | std::ios::binary);
        out << text;
    }

    std::vector<super::JournalRecord> recs;
    std::string build;
    EXPECT_FALSE(super::Journal::load(path, &recs, &build, &err));
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
    EXPECT_NE(err.find("lsn"), std::string::npos) << err;
}

/** A whole file's bytes (binary-exact). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(SuperJournal, RegularFileAtJournalPathIsAnErrorAndUntouched)
{
    // A single-file JSONL journal from an older build is not read or
    // migrated: open() and load() fail naming the path, and the file
    // keeps its exact bytes.
    TempDir dir("jsonl");
    std::string path = dir.file("old.journal");
    sim::RunResult r;
    r.halted = true;
    r.cycles = 4242;
    {
        std::ofstream f(path);
        f << "{\"format\": \"edgesim-journal\", \"version\": 1, "
             "\"build\": \"legacy-build-line\"}\n";
        f << "{\"cell\": 5, \"final\": true, \"result\": "
          << triage::resultToJson(r).dumpCompact() << "}\n";
    }
    const std::string before = slurp(path);

    std::string err;
    super::Journal j;
    EXPECT_FALSE(j.open(path, &err));
    EXPECT_NE(err.find(path), std::string::npos) << err;

    std::vector<super::JournalRecord> recs;
    std::string build;
    err.clear();
    EXPECT_FALSE(super::Journal::load(path, &recs, &build, &err));
    EXPECT_NE(err.find(path), std::string::npos) << err;

    EXPECT_TRUE(std::filesystem::is_regular_file(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".v1"));
    EXPECT_EQ(slurp(path), before);
}

TEST(SuperJournal, RecordWithoutCrcIsRejectedNamingTheLsn)
{
    // Every journal record carries a `crc`; a log record without one
    // is corruption, not an older format.
    TempDir dir("nocrc");
    std::string path = dir.file("nocrc.journal");
    sim::RunResult r;
    r.halted = true;
    r.cycles = 77;
    std::string err;
    {
        log::ResultLog lg;
        ASSERT_TRUE(lg.open(path, "test-build", log::LogOptions{}, 1,
                            &err))
            << err;
        ASSERT_GT(lg.append(5, "{\"cell\":5,\"final\":true,"
                               "\"result\":" +
                                   triage::resultToJson(r).dumpCompact() +
                                   "}"),
                  0u);
        ASSERT_TRUE(lg.flush()) << lg.error();
    }
    std::vector<log::RawRecord> raw;
    ASSERT_TRUE(log::ResultLog::scan(path, 1, &raw, nullptr, nullptr,
                                     &err))
        << err;
    ASSERT_EQ(raw.size(), 1u);

    std::vector<super::JournalRecord> recs;
    std::string build;
    EXPECT_FALSE(super::Journal::load(path, &recs, &build, &err));
    EXPECT_NE(err.find("no crc"), std::string::npos) << err;
    EXPECT_NE(err.find("lsn " + std::to_string(raw[0].lsn)),
              std::string::npos)
        << err;
}

TEST(SuperJournal, RejectsNonJournalFiles)
{
    TempDir dir("notjournal");
    std::string path = dir.file("other.jsonl");
    {
        std::ofstream f(path);
        f << "{\"format\": \"something-else\", \"version\": 1}\n";
    }
    std::vector<super::JournalRecord> recs;
    std::string build;
    std::string err;
    EXPECT_FALSE(super::Journal::load(path, &recs, &build, &err));
    EXPECT_FALSE(err.empty());
}

// --- wait-status classification of dead children --------------------

sim::RunResult
runOneSupervised(const std::string &crash_mode,
                 super::SupervisorOptions so = noRetryOptions())
{
    super::CellSpec cell = kernelCell(1);
    cell.testCrash = crash_mode;
    super::Supervisor sup(std::move(so));
    std::vector<super::CellOutcome> out = sup.runAll({cell});
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ran);
    return out[0].result;
}

TEST(SuperClassify, CleanCellMatchesInProcessRun)
{
    super::CellSpec cell = kernelCell(11);
    super::Supervisor sup(noRetryOptions());
    std::vector<super::CellOutcome> out = sup.runAll({cell});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].ran);
    EXPECT_FALSE(out[0].fromJournal);
    EXPECT_EQ(dump(out[0].result), dump(runInProcess(cell)));
    EXPECT_EQ(sup.completed(), 1u);
    EXPECT_EQ(sup.failures(), 0u);
}

TEST(SuperClassify, SegvIsWorkerCrash)
{
    sim::RunResult r = runOneSupervised("segv");
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerCrash);
    EXPECT_TRUE(chaos::isWorkerFailure(r.error.reason));
    EXPECT_FALSE(chaos::isTransient(r.error.reason));
}

TEST(SuperClassify, AbortIsWorkerCrash)
{
    sim::RunResult r = runOneSupervised("abort");
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerCrash);
}

TEST(SuperClassify, SigkillIsWorkerKilled)
{
    sim::RunResult r = runOneSupervised("kill");
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerKilled);
}

TEST(SuperClassify, HangPastDeadlineIsWorkerTimeout)
{
    super::SupervisorOptions so = noRetryOptions();
    so.cellTimeoutMs = 300;
    sim::RunResult r = runOneSupervised("hang", so);
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerTimeout);
    EXPECT_TRUE(chaos::isTransient(r.error.reason));
}

TEST(SuperClassify, CleanExitWithoutResultIsWorkerProtocol)
{
    sim::RunResult r = runOneSupervised("exit3");
    EXPECT_EQ(r.error.reason,
              chaos::SimError::Reason::WorkerProtocol);
    r = runOneSupervised("garbage");
    EXPECT_EQ(r.error.reason,
              chaos::SimError::Reason::WorkerProtocol);
}

TEST(SuperClassify, WorkerDeathCapturesRepro)
{
    TempDir dir("repro");
    super::SupervisorOptions so = noRetryOptions();
    so.reproDir = dir.file("");
    super::CellSpec cell = kernelCell(1);
    cell.testCrash = "kill";
    super::Supervisor sup(std::move(so));
    std::vector<super::CellOutcome> out = sup.runAll({cell});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_FALSE(out[0].reproPath.empty());

    triage::ReproSpec spec;
    std::string err;
    ASSERT_TRUE(triage::load(out[0].reproPath, &spec, &err)) << err;
    EXPECT_EQ(spec.program.kernel, "parserish");
    EXPECT_FALSE(spec.build.empty());
}

// --- journaled campaigns: resume semantics --------------------------

TEST(SuperResume, FinalRecordsReplayWorkerDeathsReExecute)
{
    TempDir dir("resume");
    std::string journal = dir.file("grid.journal.jsonl");

    std::vector<super::CellSpec> cells = {
        kernelCell(1), kernelCell(2), kernelCell(3)};

    // The uninterrupted truth, straight from the simulator.
    std::vector<std::string> want;
    for (const super::CellSpec &c : cells)
        want.push_back(dump(runInProcess(c)));

    // First session: cell 1 is SIGKILLed mid-campaign.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        std::vector<super::CellSpec> hooked = cells;
        hooked[1].testCrash = "kill";
        super::Supervisor sup(std::move(so));
        std::vector<super::CellOutcome> out = sup.runAll(hooked);
        ASSERT_EQ(out.size(), 3u);
        EXPECT_EQ(out[1].result.error.reason,
                  chaos::SimError::Reason::WorkerKilled);
        EXPECT_EQ(sup.failures(), 1u);
    }

    // Second session: resume. The two clean cells replay from the
    // journal; the killed cell — its record is non-final — is
    // selectively re-executed, now without the crash hook.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        so.resume = true;
        super::Supervisor sup(std::move(so));
        std::vector<super::CellOutcome> out = sup.runAll(cells);
        ASSERT_EQ(out.size(), 3u);
        EXPECT_TRUE(out[0].fromJournal);
        EXPECT_FALSE(out[1].fromJournal);
        EXPECT_TRUE(out[2].fromJournal);
        EXPECT_EQ(sup.skipped(), 2u);
        EXPECT_EQ(sup.failures(), 0u);
        for (std::size_t i = 0; i < cells.size(); ++i)
            EXPECT_EQ(dump(out[i].result), want[i]) << "cell " << i;
    }

    // Third session: everything is final now; nothing re-executes,
    // and the replayed results are still bit-identical.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        so.resume = true;
        super::Supervisor sup(std::move(so));
        std::vector<super::CellOutcome> out = sup.runAll(cells);
        ASSERT_EQ(out.size(), 3u);
        EXPECT_EQ(sup.skipped(), 3u);
        EXPECT_EQ(sup.completed(), 0u);
        for (std::size_t i = 0; i < cells.size(); ++i)
            EXPECT_EQ(dump(out[i].result), want[i]) << "cell " << i;
    }
}

TEST(SuperResume, StopLeavesUnrunCellsResumable)
{
    TempDir dir("stop");
    std::string journal = dir.file("stop.journal.jsonl");
    std::vector<super::CellSpec> cells = {
        kernelCell(1), kernelCell(2), kernelCell(3), kernelCell(4)};

    std::vector<std::string> want;
    for (const super::CellSpec &c : cells)
        want.push_back(dump(runInProcess(c)));

    // A stop requested before the loop starts: nothing runs, the
    // outcome vector is complete but every cell is marked !ran.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        super::Supervisor sup(std::move(so));
        sup.requestStop();
        std::vector<super::CellOutcome> out = sup.runAll(cells);
        ASSERT_EQ(out.size(), 4u);
        for (const super::CellOutcome &o : out)
            EXPECT_FALSE(o.ran);
        EXPECT_FALSE(sup.resumeHint().empty());
    }

    // Resume completes the whole grid bit-identically.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        so.resume = true;
        super::Supervisor sup(std::move(so));
        std::vector<super::CellOutcome> out = sup.runAll(cells);
        ASSERT_EQ(out.size(), 4u);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            EXPECT_TRUE(out[i].ran);
            EXPECT_EQ(dump(out[i].result), want[i]) << "cell " << i;
        }
    }
}

TEST(SuperResume, SignalHandlerSetsGlobalStop)
{
    super::installStopHandlers();
    super::clearStopSignal();
    EXPECT_EQ(super::stopSignal(), 0);
    std::raise(SIGTERM);
    EXPECT_EQ(super::stopSignal(), SIGTERM);

    super::Supervisor sup(noRetryOptions());
    EXPECT_TRUE(sup.stopRequested());
    super::clearStopSignal();
    EXPECT_EQ(super::stopSignal(), 0);
}

// --- the isolated sweep twin ----------------------------------------

TEST(SuperCampaign, IsolatedSweepReportIsByteIdentical)
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

    super::SupervisorOptions so = noRetryOptions();
    super::Supervisor sup(std::move(so));
    bool interrupted = true;
    sim::ChaosSweepReport isolated =
        super::chaosSweepIsolated(params, ref, sup, &interrupted);

    EXPECT_FALSE(interrupted);
    ASSERT_EQ(isolated.runs.size(), inproc.runs.size());
    EXPECT_EQ(isolated.summary(), inproc.summary());
    for (std::size_t i = 0; i < inproc.runs.size(); ++i) {
        EXPECT_EQ(isolated.runs[i].seed, inproc.runs[i].seed);
        EXPECT_EQ(isolated.runs[i].config, inproc.runs[i].config);
        EXPECT_EQ(dump(isolated.runs[i].result),
                  dump(inproc.runs[i].result))
            << "cell " << i;
    }
    EXPECT_EQ(isolated.totalInjections, inproc.totalInjections);
    EXPECT_EQ(isolated.totalChecks, inproc.totalChecks);
}

} // namespace
} // namespace edge

int
main(int argc, char **argv)
{
    // The Supervisor's default worker image is /proc/self/exe — this
    // binary. Dispatch the worker protocol before gtest sees argv.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        return edge::super::workerCellMain(std::cin, std::cout);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
