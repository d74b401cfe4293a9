/**
 * @file
 * The campaign journal: the durable record of every completed cell of
 * a supervised campaign, now a thin adapter over the group-commit
 * result log (log::ResultLog). Records keep their lossless compact
 * JSON encoding — cell hash, `final` flag, the complete RunResult,
 * repro path and lease provenance, plus a record-level FNV-1a `crc` —
 * but instead of a per-record whole-file durable rewrite they are
 * framed into LSN-addressed, block-checksummed segments and fsynced
 * in batches by the log's flusher thread. `append()` therefore
 * returns before the record is durable; callers that acknowledge
 * completion gate on `durableLsn()` / `waitDurable()` / `flush()`.
 *
 * A journal is always a segment-log directory. A regular file at a
 * journal path (such as a single-file JSONL journal from an older
 * build) is an error naming the path, and the file is left untouched.
 *
 * The `final` flag carries the resume semantics. Clean passes and
 * deterministic simulation failures are final: re-running them would
 * reproduce the same bits, so `--resume` replays them from the
 * journal. Worker-death records (SIGSEGV, OOM kill, timeout) are
 * NOT final: the result describes how the child died, not what the
 * cell computes, so `--resume` selectively re-executes exactly those
 * cells — the DSRE discipline applied to campaign recovery.
 */

#ifndef EDGE_SUPER_JOURNAL_HH
#define EDGE_SUPER_JOURNAL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "log/result_log.hh"
#include "sim/simulator.hh"

namespace edge::super {

/** One completed cell, as journaled. */
struct JournalRecord
{
    std::uint64_t cell = 0; ///< cellHash identity
    /** Replayable from the journal on resume? (False for worker
     *  deaths: those re-execute.) */
    bool final = true;
    sim::RunResult result;
    /** Captured .repro.json for a failing cell, if any. */
    std::string reproPath;

    // --- lease provenance (campaign fabric; empty for local runs) --
    /** Executor that produced the result ("" = local worker). */
    std::string agent;
    /** Fabric lease under which the cell ran (0 = none). */
    std::uint64_t lease = 0;
    /** Scheduling attempt that produced the result (1 = first). */
    unsigned attempt = 1;
    /** Result-integrity audit verdict ("" = not audited; "match",
     *  "diverged:<agent>", "inconclusive", "unresolved"). */
    std::string audit;
};

/** Knobs threaded from the CLI down into the result log. */
struct JournalSetup
{
    log::LogOptions log;
    /** Redo workers for the recovery scan + record decode (0 = one
     *  per hardware thread). */
    unsigned resumeThreads = 0;
    /** Print recovery progress to stderr and stamp the recovery
     *  stats into the log as a resume meta block. */
    bool announceResume = false;
};

class Journal
{
  public:
    /**
     * Open `path` for appending. An existing log directory is
     * recovered first (that is the resume path); a fresh log gets its
     * segment header stamped with this build's provenance. Returns
     * false (with *err) on I/O or format errors, and when `path` is
     * not a directory.
     */
    bool open(const std::string &path, std::string *err);
    bool open(const std::string &path, const JournalSetup &setup,
              std::string *err);

    /**
     * Append one record to the group-commit log. Returns once the
     * record is SEQUENCED (it has an LSN), not once it is durable —
     * gate acknowledgement on durableLsn()/waitDurable()/flush().
     */
    bool append(const JournalRecord &rec, std::string *err);

    /** Ack LSN of the most recent append (0 = nothing appended). */
    std::uint64_t lastLsn() const { return _lastLsn; }

    /** Everything at or below this LSN is fsynced. */
    std::uint64_t durableLsn() const { return _log.durableLsn(); }

    /** Block until `lsn` is durable; false if the log failed. */
    bool waitDurable(std::uint64_t lsn) { return _log.waitDurable(lsn); }

    /** Block until every appended record is durable. */
    bool flush(std::string *err);

    /** Has the log hit a sticky I/O failure? (durableLsn() will
     *  never advance past the failure point.) */
    bool logFailed() const { return _log.failed(); }

    /** Records loaded at open() time (earlier records first). */
    const std::vector<JournalRecord> &loaded() const
    {
        return _loaded;
    }

    /** Build-provenance line of the journal header ("" if new). */
    const std::string &buildLine() const { return _buildLine; }

    /** What recovery saw at open() (zeroed for a fresh journal). */
    const log::ReplayStats &recoveryStats() const { return _recovery; }

    const std::string &path() const { return _path; }
    bool isOpen() const { return !_path.empty(); }

    /**
     * Parse a journal's segment-log directory, scanned with `threads`
     * redo workers partitioned by cell hash (the result is
     * independent of the worker count). A torn tail left by a crash
     * mid-append is dropped with a warning; corruption anywhere else
     * (a bit-flipped block, or a record whose `crc` is missing or
     * wrong) is rejected with a structured error naming the segment
     * and LSN. Records are returned in append order; with
     * duplicate cell hashes the LAST record wins — a resumed
     * campaign appends the re-execution after the worker-death
     * record it supersedes.
     */
    static bool load(const std::string &path,
                     std::vector<JournalRecord> *out,
                     std::string *build_line, std::string *err);
    static bool load(const std::string &path, unsigned threads,
                     std::vector<JournalRecord> *out,
                     std::string *build_line, log::ReplayStats *stats,
                     std::string *err);

    /**
     * The resume index over loaded records: last record per cell
     * hash wins, and only cells whose LAST record is final replay —
     * a non-final record (worker death, lost lease) erases any
     * earlier final one, so `--resume` re-executes exactly those
     * cells. Shared by the Supervisor and the serve Fabric so both
     * runners resume with identical semantics.
     */
    static std::map<std::uint64_t, const JournalRecord *>
    resumeIndex(const std::vector<JournalRecord> &records);

    /**
     * Cheap provenance probe for `--strict-provenance`: true when
     * `path` is a log directory with a build line, and that line
     * differs from the running binary's (with *desc naming the
     * difference).
     */
    static bool provenanceMismatch(const std::string &path,
                                   std::string *desc);

  private:
    std::string _path;
    std::string _buildLine;
    std::vector<JournalRecord> _loaded;
    log::ResultLog _log;
    std::uint64_t _lastLsn = 0;
    log::ReplayStats _recovery;
};

} // namespace edge::super

#endif // EDGE_SUPER_JOURNAL_HH
