#include "super/journal.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/build_info.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"
#include "triage/result_json.hh"

namespace edge::super {

namespace fs = std::filesystem;
using triage::JsonValue;

namespace {

JsonValue
recordToJson(const JournalRecord &rec)
{
    JsonValue o = JsonValue::object();
    o.set("cell", JsonValue::u64(rec.cell));
    o.set("final", JsonValue::boolean(rec.final));
    if (!rec.reproPath.empty())
        o.set("repro", JsonValue::str(rec.reproPath));
    if (!rec.agent.empty())
        o.set("agent", JsonValue::str(rec.agent));
    if (rec.lease != 0)
        o.set("lease", JsonValue::u64(rec.lease));
    if (rec.attempt > 1)
        o.set("attempt", JsonValue::u64(rec.attempt));
    if (!rec.audit.empty())
        o.set("audit", JsonValue::str(rec.audit));
    o.set("result", triage::resultToJson(rec.result));
    // The checksum covers the serialized record exactly as written
    // above — computed last, verified by stripping it again on load.
    o.set("crc", JsonValue::u64(fnv1a64(o.dumpCompact())));
    return o;
}

/**
 * Why a record's `crc` does not vouch for the rest of the record, or
 * nullptr when it does. Every record carries one, so a missing `crc`
 * is corruption too.
 */
const char *
checksumProblem(const JsonValue &o)
{
    const JsonValue *crc = o.get("crc");
    if (!crc)
        return "has no crc";
    JsonValue body = o;
    body.remove("crc");
    return crc->asU64() == fnv1a64(body.dumpCompact())
               ? nullptr
               : "checksum mismatch";
}

bool
recordFromJson(const JsonValue &o, JournalRecord *rec,
               std::string *err)
{
    if (!o.isObject() || !o.get("cell") || !o.get("result")) {
        if (err)
            *err = "journal record missing cell/result";
        return false;
    }
    rec->cell = o.getU64("cell");
    rec->final = o.getBool("final", true);
    rec->reproPath = o.getString("repro");
    rec->agent = o.getString("agent");
    rec->lease = o.getU64("lease");
    rec->attempt = static_cast<unsigned>(o.getU64("attempt", 1));
    rec->audit = o.getString("audit");
    return triage::resultFromJson(*o.get("result"), &rec->result, err);
}

/**
 * Decode raw log records into JournalRecords with redo workers
 * partitioned by cell-identity hash: worker w decodes exactly the
 * records with cell % workers == w, each into its original slot, so
 * the merged order — and therefore last-record-wins resolution — is
 * byte-identical at any worker count.
 */
bool
decodeRaw(const std::string &path, const std::vector<log::RawRecord> &raw,
          unsigned threads, std::vector<JournalRecord> *out,
          std::string *err)
{
    out->assign(raw.size(), JournalRecord{});
    unsigned workers = threads == 0 ? ThreadPool::defaultThreads()
                                    : threads;
    workers = std::max<unsigned>(
        1, std::min<unsigned>(workers,
                              raw.empty() ? 1
                                          : static_cast<unsigned>(
                                                raw.size())));

    // Deterministic error reporting: each worker remembers the
    // lowest-LSN failure it saw; the overall lowest wins.
    std::vector<std::pair<std::uint64_t, std::string>> errs(
        workers, {~0ull, ""});
    auto decodePartition = [&](std::size_t w) -> int {
        for (std::size_t i = 0; i < raw.size(); ++i) {
            if (raw[i].cell % workers != w)
                continue;
            const std::uint64_t lsn = raw[i].lsn;
            if (lsn >= errs[w].first)
                continue;
            JsonValue v;
            std::string perr;
            if (!JsonValue::parse(raw[i].payload, &v, &perr)) {
                errs[w] = {lsn, strfmt("journal '%s': record at lsn "
                                       "%llu is not valid JSON: %s",
                                       path.c_str(),
                                       (unsigned long long)lsn,
                                       perr.c_str())};
                continue;
            }
            if (const char *why = checksumProblem(v)) {
                errs[w] = {lsn, strfmt("journal '%s': record %s at "
                                       "lsn %llu (corrupt record)",
                                       path.c_str(), why,
                                       (unsigned long long)lsn)};
                continue;
            }
            JournalRecord rec;
            std::string rerr;
            if (!recordFromJson(v, &rec, &rerr)) {
                errs[w] = {lsn, strfmt("journal '%s': record at lsn "
                                       "%llu: %s",
                                       path.c_str(),
                                       (unsigned long long)lsn,
                                       rerr.c_str())};
                continue;
            }
            (*out)[i] = std::move(rec);
        }
        return 0;
    };

    if (workers <= 1) {
        decodePartition(0);
    } else {
        ThreadPool pool(workers);
        parallelIndex(pool, workers, decodePartition);
    }

    std::pair<std::uint64_t, std::string> first{~0ull, ""};
    for (const auto &e : errs)
        if (e.first < first.first)
            first = e;
    if (!first.second.empty()) {
        if (err)
            *err = first.second;
        return false;
    }
    return true;
}

/** The error for a journal path that is not a segment-log directory;
 *  whatever sits there is left untouched. */
bool
notALogDirectory(const std::string &path, std::string *err)
{
    if (err)
        *err = "journal '" + path + "': " +
               (fs::exists(path)
                    ? "not a segment-log directory (a single-file "
                      "JSONL journal is no longer read)"
                    : "no such journal");
    return false;
}

void
announceRecovery(const std::string &path, const log::ReplayStats &st,
                 const std::vector<JournalRecord> &records)
{
    std::set<std::uint64_t> cells;
    for (const JournalRecord &rec : records)
        cells.insert(rec.cell);
    const std::size_t final = Journal::resumeIndex(records).size();
    std::fprintf(stderr,
                 "resume: scanned %llu record(s) in %llu block(s) "
                 "across %zu segment(s) (%.1f KiB) in %.0f ms with %u "
                 "worker(s)\n",
                 (unsigned long long)st.records,
                 (unsigned long long)st.blocks, st.segments,
                 st.bytes / 1024.0, st.scanMillis, st.workers);
    std::fprintf(stderr,
                 "resume: %zu cell(s) recovered final, %zu will "
                 "re-execute, %llu torn record(s) rejected\n",
                 final, cells.size() - final,
                 (unsigned long long)st.tornRecords);
    std::fflush(stderr);
}

JsonValue
recoveryMeta(const log::ReplayStats &st,
             const std::vector<JournalRecord> &records)
{
    std::set<std::uint64_t> cells;
    for (const JournalRecord &rec : records)
        cells.insert(rec.cell);
    const std::size_t final = Journal::resumeIndex(records).size();
    JsonValue o = JsonValue::object();
    o.set("meta", JsonValue::str("resume"));
    o.set("build", JsonValue::str(buildInfoLine()));
    o.set("records", JsonValue::u64(st.records));
    o.set("blocks", JsonValue::u64(st.blocks));
    o.set("segments", JsonValue::u64(st.segments));
    o.set("torn_records", JsonValue::u64(st.tornRecords));
    o.set("torn_bytes", JsonValue::u64(st.tornBytes));
    o.set("workers", JsonValue::u64(st.workers));
    o.set("cells_final", JsonValue::u64(final));
    o.set("cells_reexecute", JsonValue::u64(cells.size() - final));
    return o;
}

} // namespace

bool
Journal::load(const std::string &path, std::vector<JournalRecord> *out,
              std::string *build_line, std::string *err)
{
    return load(path, 1, out, build_line, nullptr, err);
}

bool
Journal::load(const std::string &path, unsigned threads,
              std::vector<JournalRecord> *out, std::string *build_line,
              log::ReplayStats *stats, std::string *err)
{
    if (!fs::is_directory(path))
        return notALogDirectory(path, err);
    std::vector<log::RawRecord> raw;
    if (!log::ResultLog::scan(path, threads, &raw, build_line, stats,
                              err))
        return false;
    if (stats && stats->tornBytes > 0)
        warn("journal '%s': dropping torn tail (%llu byte(s), "
             "%llu record(s))",
             path.c_str(), (unsigned long long)stats->tornBytes,
             (unsigned long long)stats->tornRecords);
    return decodeRaw(path, raw, threads, out, err);
}

bool
Journal::open(const std::string &path, std::string *err)
{
    return open(path, JournalSetup{}, err);
}

bool
Journal::open(const std::string &path, const JournalSetup &setup,
              std::string *err)
{
    _path = path;
    _loaded.clear();
    _buildLine.clear();
    _lastLsn = 0;
    _recovery = log::ReplayStats{};

    if (fs::exists(path) && !fs::is_directory(path))
        return notALogDirectory(path, err);
    if (!_log.open(path, buildInfoLine(), setup.log, setup.resumeThreads,
                   err))
        return false;
    _recovery = _log.recoveryStats();
    _buildLine = _log.buildLine().empty() ? buildInfoLine()
                                          : _log.buildLine();
    if (_recovery.tornBytes > 0)
        warn("journal '%s': dropped torn tail (%llu byte(s), "
             "%llu record(s)) left by the crash",
             path.c_str(), (unsigned long long)_recovery.tornBytes,
             (unsigned long long)_recovery.tornRecords);
    if (!decodeRaw(path, _log.loaded(), setup.resumeThreads, &_loaded,
                   err))
        return false;

    if (!_buildLine.empty()) {
        std::string mismatch = buildMismatch(_buildLine);
        if (!mismatch.empty())
            warn("journal '%s': written by a different build "
                 "(%s) — replayed results may not match this "
                 "binary",
                 path.c_str(), mismatch.c_str());
    }

    if (setup.announceResume) {
        announceRecovery(path, _recovery, _loaded);
        // Stamp the recovery stats into the resumed log's header
        // stream so the session's provenance records what was
        // recovered and how.
        _log.appendMeta(recoveryMeta(_recovery, _loaded).dumpCompact());
    }
    return true;
}

std::map<std::uint64_t, const JournalRecord *>
Journal::resumeIndex(const std::vector<JournalRecord> &records)
{
    std::map<std::uint64_t, const JournalRecord *> index;
    for (const JournalRecord &rec : records) {
        if (rec.final)
            index[rec.cell] = &rec;
        else
            index.erase(rec.cell);
    }
    return index;
}

bool
Journal::append(const JournalRecord &rec, std::string *err)
{
    if (_path.empty()) {
        if (err)
            *err = "journal not open";
        return false;
    }
    std::uint64_t lsn = _log.append(rec.cell,
                                    recordToJson(rec).dumpCompact());
    if (lsn == 0) {
        if (err) {
            std::string lerr = _log.error();
            *err = lerr.empty() ? "journal log not accepting appends"
                                : lerr;
        }
        return false;
    }
    _lastLsn = lsn;
    return true;
}

bool
Journal::flush(std::string *err)
{
    if (_path.empty() || !_log.isOpen())
        return true;
    if (!_log.flush()) {
        if (err) {
            std::string lerr = _log.error();
            *err = lerr.empty() ? "journal flush failed" : lerr;
        }
        return false;
    }
    return true;
}

bool
Journal::provenanceMismatch(const std::string &path, std::string *desc)
{
    if (!fs::is_directory(path))
        return false;
    std::string line, err;
    if (!log::ResultLog::readBuildLine(path, &line, &err))
        return false;
    if (line.empty())
        return false;
    std::string m = buildMismatch(line);
    if (m.empty())
        return false;
    if (desc)
        *desc = m;
    return true;
}

} // namespace edge::super
