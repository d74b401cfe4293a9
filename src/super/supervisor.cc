#include "super/supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <thread>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "triage/result_json.hh"

namespace edge::super {

using Clock = std::chrono::steady_clock;

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;
bool g_handlers_installed = false;

void
stopHandler(int sig)
{
    g_stop_signal = sig;
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** Parent-side pipe end: nonblocking. */
void
prepParentFd(int fd)
{
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

} // namespace

void
installStopHandlers()
{
    if (g_handlers_installed)
        return;
    struct sigaction sa = {};
    sa.sa_handler = stopHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: interrupt poll() immediately
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    g_handlers_installed = true;
}

int
stopSignal()
{
    return static_cast<int>(g_stop_signal);
}

void
clearStopSignal()
{
    g_stop_signal = 0;
}

struct Supervisor::Child
{
    pid_t pid = -1;
    std::size_t index = 0;    ///< cell index in the runAll batch
    unsigned attempt = 1;
    std::uint64_t backoffAccum = 0;
    int inFd = -1;            ///< writes the spec to the child
    int outFd = -1;           ///< reads the result document
    std::string inBuf;
    std::size_t inOff = 0;
    std::string outBuf;
    bool hasDeadline = false;
    Clock::time_point deadline;
    bool timedOut = false;
};

Supervisor::Supervisor(SupervisorOptions opts) : _opts(std::move(opts))
{
    // A child that dies before reading its spec turns the parent's
    // pending write into EPIPE, which must be an errno, not a fatal
    // signal to the whole campaign.
    std::signal(SIGPIPE, SIG_IGN);
    if (_opts.jobs == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        _opts.jobs = hw ? hw : 1;
    }
}

bool
Supervisor::stopRequested() const
{
    return _stop.load(std::memory_order_relaxed) || stopSignal() != 0;
}

std::string
Supervisor::resumeHint() const
{
    if (!_journal.isOpen())
        return "";
    return strfmt("add --resume %s to the same command line to "
                  "continue this campaign",
                  _journal.path().c_str());
}

bool
Supervisor::spawn(Child &c, const CellSpec &cell)
{
    int inPipe[2] = {-1, -1};
    int outPipe[2] = {-1, -1};
    // Close-on-exec from creation: an agent spawns from several
    // threads, and a sibling worker forked before a later fcntl would
    // inherit these ends, hold this child's stdin open, and deadlock
    // both workers. dup2 onto stdin/stdout clears the flag.
    if (::pipe2(inPipe, O_CLOEXEC) != 0)
        return false;
    if (::pipe2(outPipe, O_CLOEXEC) != 0) {
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        return false;
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        return false;
    }

    if (pid == 0) {
        // Child. Wire stdin/stdout to the protocol pipes (stderr is
        // inherited: worker diagnostics land in the campaign log),
        // fence the sandbox, and become the worker.
        ::dup2(inPipe[0], STDIN_FILENO);
        ::dup2(outPipe[1], STDOUT_FILENO);
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        if (_opts.rlimitAsMb != 0) {
            struct rlimit rl;
            rl.rlim_cur = rl.rlim_max =
                _opts.rlimitAsMb * 1024ULL * 1024ULL;
            ::setrlimit(RLIMIT_AS, &rl);
        }
        if (_opts.rlimitCpuSec != 0) {
            struct rlimit rl;
            rl.rlim_cur = rl.rlim_max = _opts.rlimitCpuSec;
            ::setrlimit(RLIMIT_CPU, &rl);
        }
        const char *path = _opts.workerPath.empty()
                               ? "/proc/self/exe"
                               : _opts.workerPath.c_str();
        ::execl(path, path, "--worker-cell",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }

    ::close(inPipe[0]);
    ::close(outPipe[1]);
    prepParentFd(inPipe[1]);
    prepParentFd(outPipe[0]);

    c.pid = pid;
    c.inFd = inPipe[1];
    c.outFd = outPipe[0];
    c.inBuf = cellToJson(cell).dumpCompact();
    c.inOff = 0;
    c.outBuf.clear();
    c.timedOut = false;
    c.hasDeadline = _opts.cellTimeoutMs != 0;
    if (c.hasDeadline)
        c.deadline = Clock::now() +
                     std::chrono::milliseconds(_opts.cellTimeoutMs);
    return true;
}

namespace {

/** Synthesize the structured result for a cell whose worker died (or
 *  broke protocol) instead of answering. */
sim::RunResult
deathResult(const CellSpec &cell, chaos::SimError::Reason reason,
            std::string message)
{
    sim::RunResult r;
    r.error.reason = reason;
    r.error.message = std::move(message);
    r.rngSeed = cell.config.rngSeed;
    r.chaosSeed = cell.config.chaos.seed;
    return r;
}

/** Classify a reaped child's wait status (worker-protocol table:
 *  docs/PROTOCOL.md, "Supervised campaigns"). */
sim::RunResult
classifyExit(const CellSpec &cell, int status, bool timed_out,
             std::uint64_t timeout_ms, const std::string &out_buf,
             bool *parsed_ok)
{
    using Reason = chaos::SimError::Reason;
    *parsed_ok = false;

    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        if (timed_out)
            return deathResult(
                cell, Reason::WorkerTimeout,
                strfmt("worker SIGKILLed by supervisor after the "
                       "%llu ms cell deadline",
                       static_cast<unsigned long long>(timeout_ms)));
        if (sig == SIGXCPU)
            return deathResult(cell, Reason::WorkerTimeout,
                               "worker exceeded RLIMIT_CPU");
        if (sig == SIGKILL)
            return deathResult(
                cell, Reason::WorkerKilled,
                "worker SIGKILLed (kernel OOM killer or external "
                "kill)");
        return deathResult(
            cell, Reason::WorkerCrash,
            strfmt("worker died on signal %d (%s)", sig,
                   strsignal(sig)));
    }

    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code != 0)
        return deathResult(
            cell, Reason::WorkerProtocol,
            strfmt("worker exited with status %d without a result",
                   code));

    triage::JsonValue doc;
    std::string err;
    sim::RunResult r;
    if (!triage::JsonValue::parse(out_buf, &doc, &err) ||
        !triage::resultFromJson(doc, &r, &err))
        return deathResult(
            cell, Reason::WorkerProtocol,
            "worker exited 0 but returned no valid result document "
            "(" + err + ")");
    *parsed_ok = true;
    return r;
}

} // namespace

void
Supervisor::finalize(std::size_t index, const CellSpec &cell,
                     sim::RunResult result,
                     std::vector<CellOutcome> &out)
{
    CellOutcome &o = out[index];
    o.ran = true;
    o.fromJournal = false;

    const chaos::SimError::Reason reason = result.error.reason;
    const bool worker_death = chaos::isWorkerFailure(reason);
    if (worker_death && !_opts.reproDir.empty()) {
        triage::ReproSpec spec = triage::captureFromResult(
            cell.program, cell.config, cell.maxCycles, result);
        o.reproPath = triage::captureToFile(spec, _opts.reproDir);
    }
    o.result = std::move(result);

    ++_completed;
    if (!(o.result.error.ok() && o.result.halted && o.result.archMatch))
        ++_failures;

    if (_journalReady) {
        JournalRecord rec;
        rec.cell = cellHash(cell);
        // Worker deaths and transient host failures describe how the
        // attempt ended, not what the cell computes — non-final, so
        // --resume selectively re-executes exactly these cells.
        rec.final = !worker_death && !chaos::isTransient(reason);
        rec.result = o.result;
        rec.reproPath = o.reproPath;
        std::string err;
        if (!_journal.append(rec, &err))
            warn("supervisor: journal append failed: %s", err.c_str());
    }
}

std::vector<CellOutcome>
Supervisor::runAll(const std::vector<CellSpec> &cells)
{
    if (!_journalReady && !_opts.journalPath.empty()) {
        JournalSetup setup;
        setup.log = _opts.logOptions;
        setup.resumeThreads = _opts.resumeThreads;
        setup.announceResume = _opts.resume;
        std::string err;
        if (_journal.open(_opts.journalPath, setup, &err))
            _journalReady = true;
        else
            warn("supervisor: %s — continuing without a journal",
                 err.c_str());
    }

    // Resume index: last journal record per cell hash wins, and only
    // final records short-circuit execution.
    std::map<std::uint64_t, const JournalRecord *> replayable;
    if (_opts.resume && _journalReady)
        replayable = Journal::resumeIndex(_journal.loaded());

    std::vector<CellOutcome> out(cells.size());

    struct Pending
    {
        std::size_t index;
        unsigned attempt = 1;
        std::uint64_t backoffAccum = 0;
        Clock::time_point notBefore;
    };
    std::deque<Pending> pending;

    const Clock::time_point now0 = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!replayable.empty()) {
            auto it = replayable.find(cellHash(cells[i]));
            if (it != replayable.end()) {
                out[i].ran = true;
                out[i].fromJournal = true;
                out[i].result = it->second->result;
                out[i].reproPath = it->second->reproPath;
                ++_skipped;
                if (!(out[i].result.error.ok() &&
                      out[i].result.halted && out[i].result.archMatch))
                    ++_failures;
                continue;
            }
        }
        pending.push_back({i, 1, 0, now0});
    }

    std::vector<Child> active;
    active.reserve(_opts.jobs);

    while (!pending.empty() || !active.empty()) {
        if (stopRequested()) {
            // Kill and reap everything in flight. Their cells have no
            // journal record, so a resume re-runs them — an
            // interrupted campaign loses at most in-flight work,
            // never completed work.
            for (Child &c : active) {
                ::kill(c.pid, SIGKILL);
                int st = 0;
                ::waitpid(c.pid, &st, 0);
                closeFd(c.inFd);
                closeFd(c.outFd);
            }
            active.clear();
            break;
        }

        const Clock::time_point now = Clock::now();

        // Launch every ready pending cell while there is capacity.
        for (auto it = pending.begin();
             active.size() < _opts.jobs && it != pending.end();) {
            if (it->notBefore > now) {
                ++it;
                continue;
            }
            Child c;
            c.index = it->index;
            c.attempt = it->attempt;
            c.backoffAccum = it->backoffAccum;
            if (!spawn(c, cells[it->index])) {
                finalize(it->index, cells[it->index],
                         deathResult(cells[it->index],
                                     chaos::SimError::Reason::
                                         WorkerProtocol,
                                     strfmt("fork/pipe failed: %s",
                                            std::strerror(errno))),
                         out);
            } else {
                active.push_back(std::move(c));
            }
            it = pending.erase(it);
        }

        // Poll every live pipe; wake early for the nearest deadline
        // or backoff expiry, and at least every 100 ms for the stop
        // flag.
        std::vector<pollfd> fds;
        std::vector<std::pair<std::size_t, bool>> fdOwner; // (child, isIn)
        for (std::size_t ci = 0; ci < active.size(); ++ci) {
            Child &c = active[ci];
            if (c.inFd >= 0 && c.inOff < c.inBuf.size()) {
                fds.push_back({c.inFd, POLLOUT, 0});
                fdOwner.emplace_back(ci, true);
            }
            if (c.outFd >= 0) {
                fds.push_back({c.outFd, POLLIN, 0});
                fdOwner.emplace_back(ci, false);
            }
        }
        int timeout_ms = 100;
        for (const Child &c : active)
            if (c.hasDeadline && !c.timedOut) {
                auto left =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        c.deadline - now)
                        .count();
                timeout_ms = std::min<int>(
                    timeout_ms,
                    static_cast<int>(std::max<long long>(0, left)));
            }
        for (const Pending &p : pending) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    p.notBefore - now)
                    .count();
            if (left > 0)
                timeout_ms = std::min<int>(
                    timeout_ms, static_cast<int>(left));
        }
        int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                        static_cast<nfds_t>(fds.size()), timeout_ms);
        if (rc < 0 && errno != EINTR)
            warn("supervisor: poll: %s", std::strerror(errno));

        for (std::size_t fi = 0; fi < fds.size(); ++fi) {
            if (fds[fi].revents == 0)
                continue;
            Child &c = active[fdOwner[fi].first];
            if (fdOwner[fi].second) {
                // Feed the spec; a child that died early gives EPIPE,
                // which the reap below will explain better than we
                // can here.
                ssize_t n = ::write(c.inFd, c.inBuf.data() + c.inOff,
                                    c.inBuf.size() - c.inOff);
                if (n > 0)
                    c.inOff += static_cast<std::size_t>(n);
                else if (n < 0 && errno != EAGAIN && errno != EINTR)
                    closeFd(c.inFd);
                if (c.inOff >= c.inBuf.size())
                    closeFd(c.inFd); // EOF tells the worker "go"
            } else {
                char buf[65536];
                ssize_t n = ::read(c.outFd, buf, sizeof(buf));
                if (n > 0)
                    c.outBuf.append(buf, static_cast<std::size_t>(n));
                else if (n == 0 ||
                         (n < 0 && errno != EAGAIN && errno != EINTR))
                    closeFd(c.outFd);
            }
        }

        // Deadline enforcement: SIGKILL, then let the reap classify.
        const Clock::time_point after = Clock::now();
        for (Child &c : active)
            if (c.hasDeadline && !c.timedOut && after >= c.deadline) {
                c.timedOut = true;
                ::kill(c.pid, SIGKILL);
            }

        // Reap.
        for (auto it = active.begin(); it != active.end();) {
            int st = 0;
            pid_t got = ::waitpid(it->pid, &st, WNOHANG);
            if (got != it->pid) {
                ++it;
                continue;
            }
            // Drain whatever the child managed to write before dying;
            // all writers are gone, so reads terminate at EOF.
            if (it->outFd >= 0) {
                char buf[65536];
                ssize_t n;
                while ((n = ::read(it->outFd, buf, sizeof(buf))) > 0)
                    it->outBuf.append(buf,
                                      static_cast<std::size_t>(n));
            }
            closeFd(it->inFd);
            closeFd(it->outFd);

            const CellSpec &cell = cells[it->index];
            bool parsed = false;
            sim::RunResult r =
                classifyExit(cell, st, it->timedOut,
                             _opts.cellTimeoutMs, it->outBuf, &parsed);

            if (_opts.retry.shouldRetry(r, it->attempt) &&
                !stopRequested()) {
                // Same doubling-with-budget backoff as the in-process
                // pool, but scheduled on the poll loop instead of
                // slept: other cells keep running underneath.
                std::uint64_t backoff =
                    _opts.retry.delayMs(it->attempt, it->backoffAccum);
                Pending p;
                p.index = it->index;
                p.attempt = it->attempt + 1;
                p.backoffAccum = it->backoffAccum + backoff;
                p.notBefore =
                    Clock::now() +
                    std::chrono::milliseconds(backoff);
                pending.push_back(p);
            } else {
                r.retries = it->attempt - 1;
                r.backoffMs = it->backoffAccum;
                finalize(it->index, cell, std::move(r), out);
            }
            it = active.erase(it);
        }
    }

    // Group-commit ack: nothing is reported (or resumed past) until
    // the log's durable watermark covers every record appended above.
    // A crash before this point loses at most the last commit window;
    // --resume re-executes exactly those cells.
    if (_journalReady) {
        std::string err;
        if (!_journal.flush(&err))
            warn("supervisor: journal flush failed: %s — unflushed "
                 "results will re-run on --resume",
                 err.c_str());
    }
    return out;
}

} // namespace edge::super
