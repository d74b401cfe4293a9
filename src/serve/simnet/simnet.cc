#include "serve/simnet/simnet.hh"

#include <cstring>

#include "common/hash.hh"

namespace edge::serve::simnet {

namespace {

/** Global fired-event cap: any legitimate world is far below this;
 *  past it the schedule is livelocked and the run is abandoned. */
constexpr std::uint64_t kMaxFires = 2'000'000;

bool
peel(std::string &buf, std::size_t &off, std::string *line)
{
    std::size_t nl = buf.find('\n', off);
    if (nl == std::string::npos) {
        if (off > 0 && off >= buf.size()) {
            buf.clear();
            off = 0;
        }
        return false;
    }
    line->assign(buf, off, nl - off);
    off = nl + 1;
    if (off > 256 * 1024) {
        buf.erase(0, off);
        off = 0;
    }
    return true;
}

Clock::time_point
atMsToTp(std::uint64_t atMs)
{
    return Clock::time_point{} + std::chrono::milliseconds(atMs);
}

} // namespace

// --- SimNet ---------------------------------------------------------

SimNet::SimNet(std::uint64_t seed, SimProfile profile)
    : _seed(seed), _profile(profile)
{
}

SimNet::~SimNet() = default;

namespace {
std::string
scriptKey(EvKind kind, const std::string &edge, std::uint64_t ord)
{
    return std::string(enumName(kind)) + "|" + edge + "|" +
           std::to_string(ord);
}
} // namespace

void
SimNet::setScript(const std::vector<ChaosEvent> &events)
{
    _scripted = true;
    _script.clear();
    for (const ChaosEvent &e : events)
        _script.emplace(scriptKey(e.kind, e.edge, e.ord), e);
}

const ChaosEvent *
SimNet::scriptMatch(EvKind kind, const std::string &edge,
                    std::uint64_t ord) const
{
    auto it = _script.find(scriptKey(kind, edge, ord));
    return it == _script.end() ? nullptr : &it->second;
}

void
SimNet::at(std::uint64_t atMs, std::function<void()> fn)
{
    std::uint64_t now = _clock.nowMs();
    _queue.push({atMs < now ? now : atMs, _seq++, std::move(fn)});
}

void
SimNet::after(std::uint64_t delayMs, std::function<void()> fn)
{
    at(_clock.nowMs() + delayMs, std::move(fn));
}

void
SimNet::runFor(std::uint64_t ms)
{
    const std::uint64_t end = _clock.nowMs() + ms;
    while (!_queue.empty() && _queue.top().atMs <= end) {
        if (++_firesTotal > kMaxFires) {
            _livelock = true;
            while (!_queue.empty())
                _queue.pop();
            break;
        }
        QEv ev = _queue.top();
        _queue.pop();
        _clock.advanceTo(atMsToTp(ev.atMs));
        ev.fn(); // may throw SimCrash (queue already consistent)
    }
    // No-wait fast-forward: idle simulated time costs nothing real.
    _clock.advanceTo(atMsToTp(end));
}

void
SimNet::recordFired(ChaosEvent ev)
{
    _fired.push_back(std::move(ev));
}

std::uint64_t
SimNet::registerStream(SimStream *s)
{
    std::uint64_t id = ++_streamIds;
    _streams.emplace(id, s);
    return id;
}

void
SimNet::unregisterStream(std::uint64_t id)
{
    _streams.erase(id);
}

void
SimNet::killStream(std::uint64_t id)
{
    auto it = _streams.find(id);
    if (it == _streams.end() || it->second->_dead)
        return;
    SimStream *s = it->second;
    s->_dead = true;
    if (s->_onWake)
        s->_onWake();
}

std::unique_ptr<SimStream>
SimNet::connect(const std::string &edgeBase, bool chaosArmed,
                std::function<void()> onWake)
{
    if (!_acceptor || _acceptor->port() == 0)
        return nullptr; // nobody listening (coordinator down)
    std::unique_ptr<SimStream> near(new SimStream);
    std::unique_ptr<SimStream> far(new SimStream);
    near->_net = this;
    far->_net = this;
    near->_edge = edgeBase + ">c";
    far->_edge = edgeBase + "<c";
    near->_chaos = chaosArmed;
    far->_chaos = chaosArmed;
    near->_id = registerStream(near.get());
    far->_id = registerStream(far.get());
    near->_peerId = far->_id;
    far->_peerId = near->_id;
    near->_onWake = std::move(onWake);
    _acceptor->enqueue(std::move(far));
    return near;
}

std::uint64_t
SimNet::draw(const char *domain, const std::string &edge,
             std::uint64_t ord) const
{
    Fnv1a f;
    f.mix64(_seed);
    f.mix(domain, std::strlen(domain));
    f.mix(edge);
    f.mix64(ord);
    std::uint64_t h = f.state;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

std::uint64_t
SimNet::baseLatencyMs(const std::string &edge, std::uint64_t ord)
{
    return 1 + draw("lat", edge, ord) % 4;
}

MsgFate
SimNet::msgFate(const std::string &edge, std::uint64_t ord,
                bool chaosArmed)
{
    MsgFate fate;
    if (!chaosArmed)
        return fate;

    if (_scripted) {
        if (scriptMatch(EvKind::Drop, edge, ord)) {
            fate.drop = true;
            recordFired({EvKind::Drop, edge, ord, 0, 0});
            return fate;
        }
        if (scriptMatch(EvKind::Dup, edge, ord)) {
            fate.dup = true;
            recordFired({EvKind::Dup, edge, ord, 0, 0});
        }
        if (const ChaosEvent *e =
                scriptMatch(EvKind::Delay, edge, ord)) {
            fate.extraMs = e->param;
            recordFired(*e);
        }
        return fate;
    }

    const bool partitioned = _profile == SimProfile::Partition ||
                             _profile == SimProfile::Heavy;
    if (partitioned) {
        // One blackout window per edge direction, derived from the
        // seed; every message inside it is recorded as an individual
        // Drop so ddmin can thin a partition message by message.
        std::uint64_t ws = 1000 + draw("pwin", edge, 0) % 8000;
        std::uint64_t wl = 400 + draw("plen", edge, 0) % 1600;
        std::uint64_t now = _clock.nowMs();
        if (now >= ws && now < ws + wl) {
            fate.drop = true;
            recordFired({EvKind::Drop, edge, ord, 0, 0});
            return fate;
        }
    }

    unsigned dropPct = 0, dupPct = 0, delayPct = 0;
    std::uint64_t delaySpanMs = 0;
    switch (_profile) {
    case SimProfile::Drop:
        dropPct = 5;
        dupPct = 3;
        delayPct = 15;
        delaySpanMs = 350;
        break;
    case SimProfile::Delay:
        delayPct = 40;
        delaySpanMs = 750;
        break;
    case SimProfile::Partition:
        dupPct = 2;
        break;
    case SimProfile::Heavy:
        dropPct = 4;
        dupPct = 2;
        delayPct = 25;
        delaySpanMs = 500;
        break;
    case SimProfile::None:
    case SimProfile::CrashRestart:
    case SimProfile::Liar:
        break;
    }

    if (dropPct != 0 && draw("drop", edge, ord) % 100 < dropPct) {
        fate.drop = true;
        recordFired({EvKind::Drop, edge, ord, 0, 0});
        return fate;
    }
    if (dupPct != 0 && draw("dup", edge, ord) % 100 < dupPct) {
        fate.dup = true;
        recordFired({EvKind::Dup, edge, ord, 0, 0});
    }
    if (delayPct != 0 && draw("delay", edge, ord) % 100 < delayPct) {
        fate.extraMs = 50 + draw("dms", edge, ord) % delaySpanMs;
        recordFired({EvKind::Delay, edge, ord, fate.extraMs, 0});
    }
    return fate;
}

std::uint64_t
SimNet::execExtraMs(const std::string &agentEdge, std::uint64_t ord)
{
    if (_scripted) {
        if (const ChaosEvent *e =
                scriptMatch(EvKind::SlowExec, agentEdge, ord)) {
            recordFired(*e);
            return e->param;
        }
        return 0;
    }
    unsigned pct = 0;
    std::uint64_t spanMs = 0;
    switch (_profile) {
    case SimProfile::Drop:
        pct = 10;
        spanMs = 400;
        break;
    case SimProfile::Delay:
        pct = 25;
        spanMs = 500;
        break;
    case SimProfile::Heavy:
        pct = 20;
        spanMs = 500;
        break;
    default:
        break;
    }
    if (pct == 0 || draw("slow", agentEdge, ord) % 100 >= pct)
        return 0;
    std::uint64_t extra = 200 + draw("slowms", agentEdge, ord) % spanMs;
    recordFired({EvKind::SlowExec, agentEdge, ord, extra, 0});
    return extra;
}

bool
SimNet::execLie(const std::string &agentEdge, std::uint64_t ord)
{
    if (_scripted) {
        if (scriptMatch(EvKind::Lie, agentEdge, ord)) {
            recordFired({EvKind::Lie, agentEdge, ord, 0, 0});
            return true;
        }
        return false;
    }
    // One designated liar (agent 0) that lies on EVERY execution:
    // deterministic, and with auditFrac=1 every lie is caught, the
    // liar is quarantined, and the report still carries true bytes.
    if (_profile == SimProfile::Liar && agentEdge == "a0") {
        recordFired({EvKind::Lie, agentEdge, ord, 0, 0});
        return true;
    }
    return false;
}

std::vector<ChaosEvent>
SimNet::crashPlan(unsigned nAgents, std::uint64_t horizonMs)
{
    std::vector<ChaosEvent> plan;
    if (_scripted) {
        for (const auto &kv : _script)
            if (kv.second.kind == EvKind::AgentCrash ||
                kv.second.kind == EvKind::CoordCrash)
                plan.push_back(kv.second);
        return plan;
    }
    if (_profile != SimProfile::CrashRestart &&
        _profile != SimProfile::Heavy)
        return plan;

    unsigned nCoord =
        1 + static_cast<unsigned>(draw("ncc", "coord", 0) % 2);
    std::uint64_t t = 0;
    for (unsigned i = 0; i < nCoord; ++i) {
        t += 800 + draw("ccat", "coord", i) % 6000;
        if (t >= horizonMs)
            break;
        plan.push_back({EvKind::CoordCrash, "coord", i, t,
                        200 + draw("ccr", "coord", i) % 800});
        t += 2000;
    }
    for (unsigned a = 0; a < nAgents; ++a) {
        const std::string edge = 'a' + std::to_string(a);
        if (draw("ac", edge, 0) % 100 >= 40)
            continue;
        std::uint64_t atMs = 500 + draw("acat", edge, 0) % 8000;
        if (atMs >= horizonMs)
            continue;
        plan.push_back({EvKind::AgentCrash, edge, 0, atMs,
                        300 + draw("acr", edge, 0) % 1500});
    }
    return plan;
}

void
SimNet::deliverFrom(SimStream *src, const std::string &line)
{
    if (src->_dead)
        return;
    std::uint64_t ord = src->_msgOrd++;
    std::uint64_t lat = baseLatencyMs(src->_edge, ord);
    MsgFate fate = msgFate(src->_edge, ord, src->_chaos);
    if (fate.drop)
        return;
    std::string framed = line;
    framed.push_back('\n');
    scheduleDelivery(src->_peerId, framed, lat + fate.extraMs);
    if (fate.dup)
        scheduleDelivery(src->_peerId, framed,
                         lat + fate.extraMs + 3 +
                             draw("dupms", src->_edge, ord) % 40);
}

void
SimNet::scheduleDelivery(std::uint64_t peerId, std::string framed,
                         std::uint64_t delayMs)
{
    after(delayMs, [this, peerId, framed = std::move(framed)] {
        auto it = _streams.find(peerId);
        if (it == _streams.end() || it->second->_dead)
            return; // receiver gone: the message evaporates
        it->second->pushLine(framed);
    });
}

// --- SimStream ------------------------------------------------------

SimStream::~SimStream()
{
    if (!_net)
        return;
    _net->unregisterStream(_id);
    // Notify the peer asynchronously (EOF semantics); scheduled so a
    // destructor can never reenter a half-destroyed object graph.
    SimNet *net = _net;
    std::uint64_t peer = _peerId;
    net->after(0, [net, peer] { net->killStream(peer); });
}

bool
SimStream::nextLine(std::string *line)
{
    return peel(_in, _inOff, line);
}

void
SimStream::send(const std::string &line)
{
    if (_dead)
        return;
    _net->deliverFrom(this, line);
}

void
SimStream::pushLine(const std::string &framed)
{
    if (_dead)
        return;
    _in.append(framed);
    if (_onWake)
        _onWake();
}

// --- SimTransport ---------------------------------------------------

SimTransport::~SimTransport()
{
    if (_net->acceptor() == this)
        _net->setAcceptor(nullptr);
}

bool
SimTransport::listen(std::uint16_t, std::string *)
{
    _listening = true;
    _net->setAcceptor(this);
    return true;
}

void
SimTransport::pump(int timeoutMs, const std::vector<Stream *> &,
                   std::vector<std::unique_ptr<Stream>> *accepted)
{
    _net->runFor(timeoutMs <= 0
                     ? 0
                     : static_cast<std::uint64_t>(timeoutMs));
    if (accepted)
        for (auto &s : _pending)
            accepted->push_back(std::move(s));
    _pending.clear();
}

void
SimTransport::enqueue(std::unique_ptr<SimStream> s)
{
    _pending.push_back(std::move(s));
}

} // namespace edge::serve::simnet
