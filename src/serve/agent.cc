#include "serve/agent.hh"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "serve/net.hh"
#include "serve/proto.hh"
#include "super/cell.hh"
#include "super/supervisor.hh"

namespace edge::serve {

namespace {

struct Agent
{
    AgentOptions opts;
    std::unique_ptr<Conn> conn;
    int wakeRead = -1;
    int wakeWrite = -1;

    std::uint64_t heartbeatMs = 1000;
    bool draining = false; ///< shutdown received: no new assigns

    struct Running
    {
        std::thread th;
        std::shared_ptr<super::Supervisor> sup;
    };
    std::map<std::uint64_t, Running> active; // by lease (main thread)

    struct Done
    {
        std::uint64_t lease = 0;
        std::uint64_t cell = 0;
        sim::RunResult result;
        bool ran = false;
    };
    std::mutex mu;
    std::deque<Done> done; // cell threads -> main loop

    /** Result lines finished while disconnected, re-offered after
     *  re-registration (the coordinator dedups stale leases). */
    std::deque<std::string> outbox;

    std::uint64_t resultsSent = 0;

    void
    wake()
    {
        char b = 'x';
        (void)!::write(wakeWrite, &b, 1);
    }

    /** Cell thread body: run one cell in a sandboxed child and hand
     *  the result line back to the poll loop. */
    void
    runCell(std::uint64_t lease, super::CellSpec cell,
            std::shared_ptr<super::Supervisor> sup)
    {
        std::vector<super::CellOutcome> outs = sup->runAll({cell});
        Done d;
        d.lease = lease;
        d.cell = super::cellHash(cell);
        if (!outs.empty() && outs[0].ran) {
            d.ran = true;
            d.result = std::move(outs[0].result);
        }
        {
            std::lock_guard<std::mutex> lk(mu);
            done.push_back(std::move(d));
        }
        wake();
    }

    void
    handleAssign(const triage::JsonValue &doc)
    {
        std::uint64_t lease = doc.getU64("lease");
        const triage::JsonValue *cellDoc = doc.get("cell");
        super::CellSpec cell;
        std::string err;
        if (!cellDoc || !super::cellFromJson(*cellDoc, &cell, &err)) {
            warn("agent: unusable assign for lease %llu: %s",
                 static_cast<unsigned long long>(lease), err.c_str());
            return; // the lease expires and is reassigned
        }
        if (draining)
            return;

        // One single-slot, single-attempt Supervisor per cell: the
        // agent executes, the coordinator schedules and retries.
        super::SupervisorOptions so;
        so.jobs = 1;
        so.cellTimeoutMs = doc.getU64("timeout_ms");
        so.rlimitAsMb = doc.getU64("rlimit_as_mb");
        so.rlimitCpuSec = doc.getU64("rlimit_cpu_sec");
        so.workerPath = opts.workerPath;
        so.retry.maxAttempts = 1;
        auto sup = std::make_shared<super::Supervisor>(so);

        Running r;
        r.sup = sup;
        r.th = std::thread(&Agent::runCell, this, lease,
                           std::move(cell), sup);
        active.emplace(lease, std::move(r));
    }

    /** Flush everything queued on the connection (blocking). */
    void
    flushAll()
    {
        while (!conn->dead() && conn->wantWrite()) {
            pollfd p = {conn->fd(), POLLOUT, 0};
            if (::poll(&p, 1, 1000) <= 0)
                break;
            conn->onWritable();
        }
    }

    /** Drain finished cells: join their threads, stream results. */
    void
    pumpDone()
    {
        for (;;) {
            Done d;
            {
                std::lock_guard<std::mutex> lk(mu);
                if (done.empty())
                    return;
                d = std::move(done.front());
                done.pop_front();
            }
            auto it = active.find(d.lease);
            if (it != active.end()) {
                it->second.th.join();
                active.erase(it);
            }
            if (!d.ran)
                continue; // stopped cell: the lease will be revoked
            std::string line =
                proto::result(d.lease, d.cell, d.result);
            if (conn && !conn->dead())
                conn->send(line);
            else
                outbox.push_back(std::move(line));
            ++resultsSent;
            if (opts.dieAfterResults != 0 &&
                resultsSent >= opts.dieAfterResults) {
                // Test hook: die the hard way, leases still held.
                flushAll();
                std::raise(SIGKILL);
            }
        }
    }

    void
    stopAll()
    {
        for (auto &kv : active)
            kv.second.sup->requestStop();
        for (auto &kv : active)
            if (kv.second.th.joinable())
                kv.second.th.join();
        active.clear();
    }

    /**
     * Re-dial the coordinator after a dropped connection: up to
     * reconnectMax attempts with the supervisor's capped-exponential
     * backoff shape plus deterministic jitter, then re-register with
     * a fresh hello and re-offer buffered results. In-flight cells
     * keep running the whole time. False = give up (budget spent or
     * a stop signal arrived).
     */
    bool
    reconnect()
    {
        Clock &clk = Clock::real();
        for (unsigned attempt = 1; attempt <= opts.reconnectMax;
             ++attempt) {
            std::uint64_t backoff = std::min<std::uint64_t>(
                250ull << (attempt - 1), 8000);
            Fnv1a f;
            f.mix(opts.name.data(), opts.name.size());
            f.mix64(attempt);
            std::uint64_t waitMs = backoff + f.state % 250;
            inform("agent '%s': reconnect %u/%u in %llu ms",
                   opts.name.c_str(), attempt, opts.reconnectMax,
                   static_cast<unsigned long long>(waitMs));
            clk.sleepFor(waitMs);
            if (super::stopSignal() != 0)
                return false;
            std::string err;
            int fd = connectTo(opts.coordinator, &err, 2000);
            if (fd < 0) {
                warn("agent '%s': reconnect failed: %s",
                     opts.name.c_str(), err.c_str());
                continue;
            }
            conn = std::make_unique<Conn>(fd);
            draining = false;
            conn->send(proto::hello(opts.name, opts.slots));
            while (!outbox.empty()) {
                conn->send(outbox.front());
                outbox.pop_front();
            }
            inform("agent '%s': re-registered with %s",
                   opts.name.c_str(), opts.coordinator.c_str());
            return true;
        }
        return false;
    }
};

} // namespace

int
agentMain(const AgentOptions &opts)
{
    std::signal(SIGPIPE, SIG_IGN);
    super::installStopHandlers();

    Agent a;
    a.opts = opts;
    if (a.opts.slots == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        a.opts.slots = hw ? hw : 1;
    }
    if (a.opts.name.empty()) {
        char host[256] = "agent";
        ::gethostname(host, sizeof(host) - 1);
        a.opts.name =
            strfmt("%s/%d", host, static_cast<int>(::getpid()));
    }

    std::string err;
    int fd = connectTo(opts.coordinator, &err);
    if (fd < 0) {
        fprintf(stderr, "edgesim: agent: %s\n", err.c_str());
        return 1;
    }
    a.conn = std::make_unique<Conn>(fd);

    int wakePipe[2];
    if (::pipe(wakePipe) != 0) {
        fprintf(stderr, "edgesim: agent: pipe: %s\n",
                std::strerror(errno));
        return 1;
    }
    a.wakeRead = wakePipe[0];
    a.wakeWrite = wakePipe[1];
    ::fcntl(a.wakeRead, F_SETFL,
            ::fcntl(a.wakeRead, F_GETFL, 0) | O_NONBLOCK);

    a.conn->send(proto::hello(a.opts.name, a.opts.slots));
    inform("agent '%s': connected to %s (%u slot%s)",
           a.opts.name.c_str(), opts.coordinator.c_str(),
           a.opts.slots, a.opts.slots == 1 ? "" : "s");

    Clock &clk = Clock::real();
    // Heartbeats run on an absolute deadline, re-armed by addition,
    // so a slow turn (or a long reconnect) never stretches the
    // interval the coordinator's liveness sweep assumes.
    Clock::time_point nextBeat =
        clk.now() + std::chrono::milliseconds(a.heartbeatMs);
    int exitCode = 0;
    bool shuttingDown = false;

    for (;;) {
        if (super::stopSignal() != 0) {
            // Host-initiated stop: stop cells and leave; the
            // coordinator reassigns the leases.
            a.stopAll();
            exitCode = 1;
            break;
        }

        pollfd fds[2];
        fds[0] = {a.conn->fd(), POLLIN, 0};
        if (a.conn->wantWrite())
            fds[0].events |= POLLOUT;
        fds[1] = {a.wakeRead, POLLIN, 0};

        int timeout = clk.msUntil(nextBeat);
        int rc;
        do {
            rc = ::poll(fds, 2, std::max(timeout, 1));
        } while (rc < 0 && errno == EINTR &&
                 super::stopSignal() == 0);
        (void)rc;

        if (fds[1].revents & POLLIN) {
            char buf[64];
            while (::read(a.wakeRead, buf, sizeof(buf)) > 0)
                ;
        }
        if (fds[0].revents & POLLOUT)
            a.conn->onWritable();
        if (fds[0].revents & (POLLIN | POLLHUP | POLLERR))
            a.conn->onReadable();

        std::string line;
        while (!a.conn->dead() && a.conn->nextLine(&line)) {
            triage::JsonValue doc;
            std::string type, perr;
            if (!proto::parse(line, &doc, &type, &perr)) {
                warn("agent: malformed message: %s", perr.c_str());
                continue;
            }
            if (type == "welcome") {
                a.heartbeatMs =
                    std::max<std::uint64_t>(
                        10, doc.getU64("heartbeat_ms", 1000));
                nextBeat = clk.now() +
                           std::chrono::milliseconds(a.heartbeatMs);
            } else if (type == "assign") {
                a.handleAssign(doc);
            } else if (type == "shutdown") {
                a.draining = true;
                shuttingDown = true;
            }
        }

        a.pumpDone();

        if (a.conn->dead()) {
            if (shuttingDown) {
                // Shutdown drain cut short: nothing left to flush to.
                a.stopAll();
                exitCode = 1;
                break;
            }
            inform("agent '%s': coordinator connection closed",
                   a.opts.name.c_str());
            // Keep in-flight cells running and try to re-register:
            // results finished during the outage queue in the outbox
            // and are re-offered after the fresh hello (the
            // coordinator keeps the ones whose leases survived).
            if (!a.reconnect()) {
                inform("agent '%s': giving up after %u reconnect "
                       "attempt(s)",
                       a.opts.name.c_str(), a.opts.reconnectMax);
                a.stopAll();
                exitCode = 1;
                break;
            }
            nextBeat = clk.now() +
                       std::chrono::milliseconds(a.heartbeatMs);
            continue;
        }

        if (shuttingDown && a.active.empty()) {
            bool queued;
            {
                std::lock_guard<std::mutex> lk(a.mu);
                queued = !a.done.empty();
            }
            if (!queued) {
                a.flushAll();
                break;
            }
        }

        Clock::time_point now = clk.now();
        if (now >= nextBeat) {
            std::uint64_t queued;
            {
                std::lock_guard<std::mutex> lk(a.mu);
                queued = a.done.size();
            }
            a.conn->send(
                proto::heartbeat(a.active.size(), queued));
            nextBeat += std::chrono::milliseconds(a.heartbeatMs);
            if (nextBeat <= now)
                nextBeat =
                    now + std::chrono::milliseconds(a.heartbeatMs);
        }
    }

    ::close(a.wakeRead);
    ::close(a.wakeWrite);
    return exitCode;
}

} // namespace edge::serve
