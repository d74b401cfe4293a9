/**
 * @file
 * Tests for the durable result log (src/log/): block format and LSN
 * arithmetic, group-commit batching, overflow chains, segment
 * rotation, and — the point of the subsystem — the crash-recovery
 * matrix. Every named crash point of the LogChaos injector is fired
 * in a forked child (which dies by real SIGKILL mid-write, mid-fsync
 * or mid-rotation), and the parent must recover the valid prefix,
 * re-append the missing records, and end up with a per-cell record
 * map byte-identical to the uninterrupted run — with the recovery
 * scan itself byte-identical at 1 and 8 redo workers. Variants layer
 * extra damage on the crash: an additionally-torn tail (legal,
 * dropped) and a bit-flipped block (corruption, rejected naming the
 * LSN).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "log/log_chaos.hh"
#include "log/result_log.hh"

namespace edge {
namespace {

namespace fs = std::filesystem;

class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : _path(fs::temp_directory_path() /
                ("edge_log_" + name + "_" + std::to_string(::getpid())))
    {
        fs::create_directories(_path);
    }
    ~TempDir() { fs::remove_all(_path); }

    std::string
    file(const std::string &name) const
    {
        return (_path / name).string();
    }

  private:
    fs::path _path;
};

constexpr std::uint64_t kCells = 10;

std::uint64_t
cellId(std::uint64_t i)
{
    return 0x1000 + i;
}

/** Deterministic, distinctive record payload (~600 bytes so a few
 *  records force a rotation past a 2 KiB segment cap). */
std::string
payloadFor(std::uint64_t i)
{
    std::string p = "{\"cell-" + std::to_string(i) + "\":\"";
    while (p.size() < 600)
        p += static_cast<char>('a' + (i + p.size()) % 26);
    return p + "\"}";
}

std::map<std::uint64_t, std::string>
recordMap(const std::vector<log::RawRecord> &recs)
{
    std::map<std::uint64_t, std::string> m;
    for (const log::RawRecord &r : recs)
        m[r.cell] = r.payload;
    return m;
}

/** A seed whose armed fault fires first at exactly `ordinal`. */
std::uint64_t
seedFiringAt(log::LogCrashPoint point, std::uint64_t ordinal)
{
    for (std::uint64_t seed = 1; seed < 1000000; ++seed) {
        bool earlier = false;
        for (std::uint64_t o = 0; o < ordinal && !earlier; ++o)
            earlier = log::LogChaos::wouldFire(point, seed, o);
        if (!earlier && log::LogChaos::wouldFire(point, seed, ordinal))
            return seed;
    }
    ADD_FAILURE() << "no firing seed found";
    return 1;
}

/** The newest segment file of a log directory ("" if none). */
std::string
lastSegment(const std::string &dir)
{
    std::string last;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string p = e.path().string();
        if (p.size() > 5 &&
            p.compare(p.size() - 5, 5, ".elog") == 0 &&
            (last.empty() || p > last))
            last = p;
    }
    return last;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
}

/** Child body: append the campaign one durable record at a time so
 *  every record is its own write+fsync and the armed fault's ordinal
 *  selects which one dies. Never returns. */
[[noreturn]] void
childAppendLoop(const std::string &dir, log::LogCrashPoint point,
                std::uint64_t seed, std::uint64_t segmentBytes)
{
    log::ResultLog lg;
    log::LogOptions opts;
    opts.groupCommitMs = 1;
    opts.segmentBytes = segmentBytes;
    opts.chaos.point = point;
    opts.chaos.seed = seed;
    std::string err;
    if (!lg.open(dir, "test-build", opts, 1, &err))
        ::_exit(3);
    for (std::uint64_t i = 0; i < kCells; ++i) {
        std::uint64_t lsn = lg.append(cellId(i), payloadFor(i));
        if (lsn == 0)
            ::_exit(4);
        lg.waitDurable(lsn);
    }
    lg.close();
    ::_exit(0); // the fault never fired — the matrix seed is wrong
}

enum class Damage
{
    Clean,   ///< recover exactly what the crash left
    TornTail, ///< additionally chop bytes off the newest segment
    BitFlip, ///< flip one byte in a complete block: must reject
};

void
crashMatrixCase(log::LogCrashPoint point, Damage damage)
{
    SCOPED_TRACE(std::string(enumName(point)) + "/" +
                 (damage == Damage::Clean      ? "clean"
                  : damage == Damage::TornTail ? "torn-tail"
                                               : "bit-flip"));
    TempDir tmp(std::string("crash_") + enumName(point));
    const std::string dir = tmp.file("log");

    // before-rotate needs a tiny segment cap so a rotation happens at
    // all; its ordinal is the new segment number (first rotation = 2).
    const bool rotate = point == log::LogCrashPoint::BeforeRotate;
    const std::uint64_t segBytes = rotate ? 2048 : 64ull << 20;
    const std::uint64_t seed = seedFiringAt(point, rotate ? 2 : 3);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        childAppendLoop(dir, point, seed, segBytes);
    int st = 0;
    ASSERT_EQ(::waitpid(pid, &st, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL)
        << "child should die by its own SIGKILL, status " << st;

    if (damage == Damage::TornTail) {
        std::string seg = lastSegment(dir);
        ASSERT_FALSE(seg.empty());
        std::uintmax_t size = fs::file_size(seg);
        if (size > log::kBlockHeaderBytes + 5)
            fs::resize_file(seg, size - 5);
    }

    if (damage == Damage::BitFlip) {
        // Corrupt a COMPLETE block (record 0 is durable at every
        // matrix seed): recovery must reject the log naming the LSN,
        // never silently drop or "repair" it.
        std::string seg =
            dir + "/" + log::segmentFileName(1);
        std::string bytes = slurp(seg);
        std::size_t pos = bytes.find("cell-0");
        ASSERT_NE(pos, std::string::npos);
        bytes[pos] ^= 0x20;
        spit(seg, bytes);

        std::vector<log::RawRecord> recs;
        std::string build, err;
        log::ReplayStats stats;
        EXPECT_FALSE(log::ResultLog::scan(dir, 1, &recs, &build,
                                          &stats, &err));
        EXPECT_NE(err.find("checksum mismatch"), std::string::npos)
            << err;
        EXPECT_NE(err.find("lsn"), std::string::npos) << err;
        std::string err8;
        EXPECT_FALSE(log::ResultLog::scan(dir, 8, &recs, &build,
                                          &stats, &err8));
        EXPECT_EQ(err, err8); // deterministic at any worker count
        return;
    }

    // Recovery is byte-identical at 1 and 8 redo workers.
    std::vector<log::RawRecord> r1, r8;
    std::string b1, b8, err;
    log::ReplayStats s1, s8;
    ASSERT_TRUE(log::ResultLog::scan(dir, 1, &r1, &b1, &s1, &err))
        << err;
    ASSERT_TRUE(log::ResultLog::scan(dir, 8, &r8, &b8, &s8, &err))
        << err;
    ASSERT_EQ(r1.size(), r8.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].cell, r8[i].cell);
        EXPECT_EQ(r1[i].lsn, r8[i].lsn);
        EXPECT_EQ(r1[i].payload, r8[i].payload);
    }
    EXPECT_EQ(b1, b8);
    EXPECT_LT(r1.size(), kCells); // the crash lost something

    // Resume: open for append (truncates the torn tail), re-execute
    // exactly the missing cells.
    log::ResultLog lg;
    log::LogOptions opts;
    opts.groupCommitMs = 1;
    opts.segmentBytes = segBytes;
    ASSERT_TRUE(lg.open(dir, "test-build", opts, 1, &err)) << err;
    std::map<std::uint64_t, std::string> have = recordMap(lg.loaded());
    for (std::uint64_t i = 0; i < kCells; ++i) {
        if (have.find(cellId(i)) == have.end()) {
            ASSERT_NE(lg.append(cellId(i), payloadFor(i)), 0u);
        }
    }
    ASSERT_TRUE(lg.flush());
    lg.close();

    // The merged per-cell map is byte-identical to an uninterrupted
    // campaign, whichever instant the crash hit.
    std::vector<log::RawRecord> fin;
    std::string build;
    log::ReplayStats stats;
    ASSERT_TRUE(log::ResultLog::scan(dir, 8, &fin, &build, &stats,
                                     &err))
        << err;
    std::map<std::uint64_t, std::string> m = recordMap(fin);
    ASSERT_EQ(m.size(), kCells);
    for (std::uint64_t i = 0; i < kCells; ++i)
        EXPECT_EQ(m[cellId(i)], payloadFor(i)) << "cell " << i;
}

const log::LogCrashPoint kLethalPoints[] = {
    log::LogCrashPoint::BeforeWrite,  log::LogCrashPoint::MidWrite,
    log::LogCrashPoint::AfterWrite,   log::LogCrashPoint::BeforeFsync,
    log::LogCrashPoint::AfterFsync,   log::LogCrashPoint::BeforeRotate,
};

TEST(LogCrashMatrix, EveryCrashPointRecoversClean)
{
    for (log::LogCrashPoint p : kLethalPoints)
        crashMatrixCase(p, Damage::Clean);
}

TEST(LogCrashMatrix, EveryCrashPointRecoversWithExtraTornTail)
{
    for (log::LogCrashPoint p : kLethalPoints)
        crashMatrixCase(p, Damage::TornTail);
}

TEST(LogCrashMatrix, EveryCrashPointRejectsBitFlip)
{
    for (log::LogCrashPoint p : kLethalPoints)
        crashMatrixCase(p, Damage::BitFlip);
}

TEST(LogCrashMatrix, FailedFsyncIsStickyAndResumable)
{
    // The one non-lethal fault: the fsync "fails" (as a real EIO
    // would), the log goes sticky-failed in-process, and a later
    // session recovers and completes the campaign.
    TempDir tmp("failfsync");
    const std::string dir = tmp.file("log");
    const std::uint64_t seed =
        seedFiringAt(log::LogCrashPoint::FailFsync, 1);

    log::ResultLog lg;
    log::LogOptions opts;
    opts.groupCommitMs = 1;
    opts.chaos.point = log::LogCrashPoint::FailFsync;
    opts.chaos.seed = seed;
    std::string err;
    ASSERT_TRUE(lg.open(dir, "test-build", opts, 1, &err)) << err;

    std::uint64_t lsn0 = lg.append(cellId(0), payloadFor(0));
    ASSERT_NE(lsn0, 0u);
    ASSERT_TRUE(lg.waitDurable(lsn0)); // fsync ordinal 0: fine

    std::uint64_t lsn1 = lg.append(cellId(1), payloadFor(1));
    ASSERT_NE(lsn1, 0u);
    EXPECT_FALSE(lg.waitDurable(lsn1)); // ordinal 1: injected failure
    EXPECT_TRUE(lg.failed());
    EXPECT_FALSE(lg.error().empty());
    EXPECT_EQ(lg.append(cellId(2), payloadFor(2)), 0u); // sticky
    EXPECT_LT(lg.durableLsn(), lsn1);
    lg.close();

    // Recovery (no chaos): whatever survived is a valid prefix;
    // re-append the rest and the campaign completes byte-identically.
    log::ResultLog lg2;
    ASSERT_TRUE(lg2.open(dir, "test-build", log::LogOptions{}, 1,
                         &err))
        << err;
    std::map<std::uint64_t, std::string> have =
        recordMap(lg2.loaded());
    EXPECT_GE(have.size(), 1u); // record 0 was acknowledged durable
    EXPECT_EQ(have[cellId(0)], payloadFor(0));
    for (std::uint64_t i = 0; i < kCells; ++i) {
        if (have.find(cellId(i)) == have.end()) {
            ASSERT_NE(lg2.append(cellId(i), payloadFor(i)), 0u);
        }
    }
    ASSERT_TRUE(lg2.flush());
    lg2.close();

    std::vector<log::RawRecord> fin;
    std::string build;
    log::ReplayStats stats;
    ASSERT_TRUE(log::ResultLog::scan(dir, 4, &fin, &build, &stats,
                                     &err))
        << err;
    std::map<std::uint64_t, std::string> m = recordMap(fin);
    ASSERT_EQ(m.size(), kCells);
    for (std::uint64_t i = 0; i < kCells; ++i)
        EXPECT_EQ(m[cellId(i)], payloadFor(i));
}

// --- format and group-commit units ----------------------------------

TEST(ResultLog, AckLsnsAreMonotonicAndDurabilityGates)
{
    TempDir tmp("lsn");
    log::ResultLog lg;
    std::string err;
    ASSERT_TRUE(lg.open(tmp.file("log"), "test-build",
                        log::LogOptions{}, 1, &err))
        << err;

    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < 5; ++i) {
        std::uint64_t lsn = lg.append(cellId(i), payloadFor(i));
        ASSERT_GT(lsn, prev);
        prev = lsn;
    }
    ASSERT_TRUE(lg.waitDurable(prev));
    EXPECT_GE(lg.durableLsn(), prev);
    EXPECT_EQ(lg.appendedRecords(), 5u);
    lg.close();
}

TEST(ResultLog, OverflowChainRoundTripsOversizedRecords)
{
    // A record bigger than the block payload cap splits into an
    // overflow chain and must scan back byte-exactly.
    TempDir tmp("chain");
    const std::string dir = tmp.file("log");
    std::string big(2 * log::kMaxBlockPayload + 12345, 'x');
    for (std::size_t i = 0; i < big.size(); i += 97)
        big[i] = static_cast<char>('A' + i % 26);

    std::string err;
    {
        log::ResultLog lg;
        ASSERT_TRUE(lg.open(dir, "test-build", log::LogOptions{}, 1,
                            &err))
            << err;
        ASSERT_NE(lg.append(7, payloadFor(1)), 0u);
        ASSERT_NE(lg.append(8, big), 0u);
        ASSERT_NE(lg.append(9, payloadFor(2)), 0u);
        ASSERT_TRUE(lg.flush());
        lg.close();
    }

    std::vector<log::RawRecord> recs;
    std::string build;
    log::ReplayStats stats;
    ASSERT_TRUE(log::ResultLog::scan(dir, 1, &recs, &build, &stats,
                                     &err))
        << err;
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].payload, payloadFor(1));
    EXPECT_EQ(recs[1].cell, 8u);
    EXPECT_EQ(recs[1].payload, big);
    EXPECT_EQ(recs[2].payload, payloadFor(2));
    EXPECT_EQ(build, "test-build");
}

TEST(ResultLog, RotationMergesSegmentsAtAnyWorkerCount)
{
    TempDir tmp("rotate");
    const std::string dir = tmp.file("log");
    std::string err;
    {
        log::ResultLog lg;
        log::LogOptions opts;
        opts.segmentBytes = 4096; // force many rotations
        ASSERT_TRUE(lg.open(dir, "test-build", opts, 1, &err)) << err;
        for (std::uint64_t i = 0; i < 40; ++i) {
            ASSERT_NE(lg.append(cellId(i), payloadFor(i)), 0u);
            // Seal a block every few records; rotation happens at
            // block boundaries, so one giant batch would pack all 40
            // records into a single block.
            if (i % 4 == 3) {
                ASSERT_TRUE(lg.flush());
            }
        }
        ASSERT_TRUE(lg.flush());
        lg.close();
    }
    std::size_t segments = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++segments;
    }
    EXPECT_GT(segments, 3u);

    std::vector<log::RawRecord> r1, r8;
    std::string b1, b8;
    log::ReplayStats s1, s8;
    ASSERT_TRUE(log::ResultLog::scan(dir, 1, &r1, &b1, &s1, &err))
        << err;
    ASSERT_TRUE(log::ResultLog::scan(dir, 8, &r8, &b8, &s8, &err))
        << err;
    ASSERT_EQ(r1.size(), 40u);
    ASSERT_EQ(r8.size(), 40u);
    for (std::size_t i = 0; i < 40; ++i) {
        EXPECT_EQ(r1[i].cell, r8[i].cell);
        EXPECT_EQ(r1[i].lsn, r8[i].lsn);
        EXPECT_EQ(r1[i].payload, r8[i].payload);
        EXPECT_EQ(r1[i].cell, cellId(i)); // append order preserved
    }
    EXPECT_EQ(s1.segments, s8.segments);
    EXPECT_GT(s1.segments, 3u);

    // Reopening appends into the NEWEST segment, not a fresh one.
    {
        log::ResultLog lg;
        log::LogOptions opts;
        opts.segmentBytes = 4096;
        ASSERT_TRUE(lg.open(dir, "test-build", opts, 1, &err)) << err;
        EXPECT_EQ(lg.loaded().size(), 40u);
        ASSERT_NE(lg.append(cellId(40), payloadFor(40)), 0u);
        ASSERT_TRUE(lg.flush());
        lg.close();
    }
    r1.clear();
    ASSERT_TRUE(log::ResultLog::scan(dir, 3, &r1, &b1, &s1, &err))
        << err;
    EXPECT_EQ(r1.size(), 41u);
}

TEST(ResultLog, GroupCommitAmortizesFsyncs)
{
    // Concurrent producers inside one commit window share fsyncs:
    // far fewer fsyncs than records is the whole point of the log.
    TempDir tmp("group");
    log::ResultLog lg;
    log::LogOptions opts;
    opts.groupCommitMs = 20;
    std::string err;
    ASSERT_TRUE(lg.open(tmp.file("log"), "test-build", opts, 1, &err))
        << err;

    constexpr int kProducers = 4;
    constexpr int kPer = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kProducers; ++t)
        threads.emplace_back([&lg, t] {
            for (int i = 0; i < kPer; ++i)
                lg.append(cellId(t * kPer + i),
                          payloadFor(t * kPer + i));
        });
    for (std::thread &th : threads)
        th.join();
    ASSERT_TRUE(lg.flush());
    EXPECT_EQ(lg.appendedRecords(),
              static_cast<std::uint64_t>(kProducers * kPer));
    EXPECT_LT(lg.fsyncs(), lg.appendedRecords() / 4);
    lg.close();
}

TEST(ResultLog, MetaBlocksCarrySessionNotesInvisibleToRecords)
{
    TempDir tmp("meta");
    const std::string dir = tmp.file("log");
    std::string err;
    {
        log::ResultLog lg;
        ASSERT_TRUE(lg.open(dir, "test-build", log::LogOptions{}, 1,
                            &err))
            << err;
        ASSERT_NE(lg.append(1, payloadFor(1)), 0u);
        ASSERT_NE(lg.appendMeta("{\"meta\":\"resume\"}"), 0u);
        ASSERT_NE(lg.append(2, payloadFor(2)), 0u);
        ASSERT_TRUE(lg.flush());
        lg.close();
    }
    std::vector<log::RawRecord> recs;
    std::string build;
    log::ReplayStats stats;
    ASSERT_TRUE(log::ResultLog::scan(dir, 1, &recs, &build, &stats,
                                     &err))
        << err;
    ASSERT_EQ(recs.size(), 2u); // meta blocks are not records
    EXPECT_GE(stats.metaBlocks, 2u); // segment header + resume note
}

TEST(ResultLog, ReadBuildLineIsACheapProvenanceProbe)
{
    TempDir tmp("probe");
    const std::string dir = tmp.file("log");
    std::string err;
    {
        log::ResultLog lg;
        ASSERT_TRUE(lg.open(dir, "some build line", log::LogOptions{},
                            1, &err))
            << err;
        lg.close();
    }
    std::string line;
    ASSERT_TRUE(log::ResultLog::readBuildLine(dir, &line, &err))
        << err;
    EXPECT_EQ(line, "some build line");
}

TEST(LogChaos, DecisionsAreDeterministicAndSeedSelective)
{
    using log::LogChaos;
    using log::LogCrashPoint;
    // Pure function of (point, seed, ordinal).
    for (std::uint64_t o = 0; o < 64; ++o)
        EXPECT_EQ(
            LogChaos::wouldFire(LogCrashPoint::BeforeFsync, 42, o),
            LogChaos::wouldFire(LogCrashPoint::BeforeFsync, 42, o));
    // Roughly 1-in-4 fire; over 256 ordinals both extremes are
    // astronomically unlikely.
    int fired = 0;
    for (std::uint64_t o = 0; o < 256; ++o)
        fired +=
            LogChaos::wouldFire(LogCrashPoint::MidWrite, 7, o) ? 1 : 0;
    EXPECT_GT(fired, 16);
    EXPECT_LT(fired, 240);
    // Distinct points decide independently.
    bool differs = false;
    for (std::uint64_t o = 0; o < 256 && !differs; ++o)
        differs = LogChaos::wouldFire(LogCrashPoint::MidWrite, 7, o) !=
                  LogChaos::wouldFire(LogCrashPoint::AfterWrite, 7, o);
    EXPECT_TRUE(differs);

    // Round-trip the CLI names.
    for (LogCrashPoint p :
         {LogCrashPoint::BeforeWrite, LogCrashPoint::MidWrite,
          LogCrashPoint::AfterWrite, LogCrashPoint::BeforeFsync,
          LogCrashPoint::AfterFsync, LogCrashPoint::BeforeRotate,
          LogCrashPoint::FailFsync})
        EXPECT_EQ(enumLookup<LogCrashPoint>(enumName(p)), p);
    EXPECT_FALSE(enumLookup<LogCrashPoint>("no-such-point"));
}

TEST(LogChaos, TearBytesStayInsideTheWrite)
{
    log::LogChaosOptions o;
    o.point = log::LogCrashPoint::MidWrite;
    o.seed = 99;
    log::LogChaos chaos(o);
    for (std::uint64_t ord = 0; ord < 64; ++ord) {
        std::size_t t = chaos.tearBytes(ord, 644);
        EXPECT_GE(t, 1u);
        EXPECT_LT(t, 644u);
    }
    EXPECT_EQ(chaos.tearBytes(0, 1), 0u);
}

} // namespace
} // namespace edge
