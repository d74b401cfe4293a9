/**
 * @file
 * The deterministic fabric simulation's wire and clock: a seeded
 * event queue on virtual time, in-memory streams behind the net.hh
 * Stream/Transport surface, and pure FNV-1a chaos decisions over
 * (seed, edge, ordinal) — the same discipline as log_chaos,
 * extended to every interleaving dimension the real fabric has:
 * message latency, drop, duplication, reorder (via per-message
 * delay), partition (windowed drops), slow or lying executions, and
 * whole-process crash/restart.
 *
 * One SimNet hosts one simulated world. The REAL Fabric runs on top
 * unmodified: it is constructed with a SimTransport and the SimNet's
 * VirtualClock, so every heartbeat timer, lease deadline, hedge
 * threshold, and backoff the coordinator arms is a virtual-time
 * computation — thousands of campaigns per wall-second, bit-for-bit
 * reproducible from (seed, profile).
 *
 * Determinism contract: everything observable is a pure function of
 * the seed (generative mode) or of the recorded event schedule
 * (scripted mode, used by --replay and ddmin). Base message latency
 * is part of the wire model — always applied, derived from (seed,
 * edge, ordinal), never recorded; chaos decisions beyond it are
 * recorded as ChaosEvents at fire time, so a failing run's schedule
 * is exactly the set of decisions that shaped it.
 */

#ifndef EDGE_SERVE_SIMNET_SIMNET_HH
#define EDGE_SERVE_SIMNET_SIMNET_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/enum_names.hh"
#include "serve/clock.hh"
#include "serve/net.hh"

namespace edge::serve::simnet {

/** World-level fault mix, selected per explorer run. */
enum class SimProfile : std::uint8_t
{
    None,         ///< clean wire (base latency only)
    Drop,         ///< per-message drops + dups + slow executions
    Delay,        ///< heavy per-message delays + slow executions
    Partition,    ///< windowed per-edge blackouts
    CrashRestart, ///< coordinator + agent crash/restart schedules
    Liar,         ///< agent 0 returns corrupt bytes (audit fodder)
    Heavy,        ///< everything at once
};

inline constexpr EnumName<SimProfile> kSimProfileNames[] = {
    {SimProfile::None, "none"},
    {SimProfile::Drop, "drop"},
    {SimProfile::Delay, "delay"},
    {SimProfile::Partition, "partition"},
    {SimProfile::CrashRestart, "crash-restart"},
    {SimProfile::Liar, "liar"},
    {SimProfile::Heavy, "heavy"},
};
constexpr auto &enumNames(SimProfile) { return kSimProfileNames; }
static_assert(enumTableCovers(kSimProfileNames, SimProfile::Heavy));

/** One recorded (or scripted) chaos decision. */
enum class EvKind : std::uint8_t
{
    Drop,       ///< message (edge, ord) vanished
    Dup,        ///< message (edge, ord) delivered twice
    Delay,      ///< message (edge, ord) delayed `param` extra ms
    SlowExec,   ///< execution (agent, ord) took `param` extra ms
    Lie,        ///< execution (agent, ord) returned corrupt bytes
    AgentCrash, ///< agent `edge` crashed at `param`, back in `param2`
    CoordCrash, ///< coordinator crashed at `param`, back in `param2`
};

inline constexpr EnumName<EvKind> kEvKindNames[] = {
    {EvKind::Drop, "drop"},
    {EvKind::Dup, "dup"},
    {EvKind::Delay, "delay"},
    {EvKind::SlowExec, "slow-exec"},
    {EvKind::Lie, "lie"},
    {EvKind::AgentCrash, "agent-crash"},
    {EvKind::CoordCrash, "coord-crash"},
};
constexpr auto &enumNames(EvKind) { return kEvKindNames; }
static_assert(enumTableCovers(kEvKindNames, EvKind::CoordCrash));

struct ChaosEvent
{
    EvKind kind = EvKind::Drop;
    /** Edge key: "a0.1>c" (agent 0, connection 1, toward the
     *  coordinator), "a0.1<c" (the reverse direction), "a0" (an
     *  execution or crash on agent 0), "coord". */
    std::string edge;
    std::uint64_t ord = 0;    ///< per-edge ordinal (msg / exec / crash)
    std::uint64_t param = 0;  ///< delay ms, or crash time (virtual ms)
    std::uint64_t param2 = 0; ///< crash restart delay ms
};

/** Thrown by a scheduled coordinator-crash event; unwinds through
 *  Fabric::pump/runAll into the explorer, which rebuilds the
 *  coordinator (crash-consistent journal semantics: whatever the
 *  destructor-less unwind left on disk is what restart sees). */
struct SimCrash
{
};

/** The wire's verdict on one message. */
struct MsgFate
{
    bool drop = false;
    bool dup = false;
    std::uint64_t extraMs = 0;
};

class SimStream;
class SimTransport;

class SimNet
{
  public:
    SimNet(std::uint64_t seed, SimProfile profile);
    ~SimNet();
    SimNet(const SimNet &) = delete;
    SimNet &operator=(const SimNet &) = delete;

    /** Switch to scripted mode: ONLY the listed events are injected
     *  (matched by kind+edge+ord); nothing else fires. */
    void setScript(const std::vector<ChaosEvent> &events);
    bool scripted() const { return _scripted; }

    VirtualClock &clock() { return _clock; }
    std::uint64_t nowMs() { return _clock.nowMs(); }

    /** Schedule `fn` at absolute virtual time `atMs` (clamped to
     *  now). Events at equal times fire in scheduling order. */
    void at(std::uint64_t atMs, std::function<void()> fn);
    void after(std::uint64_t delayMs, std::function<void()> fn);

    /**
     * The simulated turn: fire every event due within the next `ms`
     * virtual milliseconds (advancing the clock to each event's
     * time), then fast-forward the clock to the end of the window —
     * an idle wait costs no wall time. May throw SimCrash out of a
     * coordinator-crash event.
     */
    void runFor(std::uint64_t ms);

    /** Runaway-schedule guard: set when the global fired-event count
     *  exceeded the livelock cap; the queue is abandoned. */
    bool livelocked() const { return _livelock; }

    // --- acceptor plumbing ------------------------------------------
    void setAcceptor(SimTransport *t) { _acceptor = t; }
    SimTransport *acceptor() { return _acceptor; }

    /**
     * Actor-side connect: create a stream pair, queue the far end on
     * the listening SimTransport, return the near end (nullptr when
     * no coordinator is listening — the caller retries later).
     * `edgeBase` names the connection (e.g. "a0.2"); `chaosArmed`
     * subjects both directions to message chaos (agent edges only —
     * client edges stay clean so a duplicated submit can't
     * double-serve a campaign).
     */
    std::unique_ptr<SimStream> connect(const std::string &edgeBase,
                                       bool chaosArmed,
                                       std::function<void()> onWake);

    // --- chaos decisions --------------------------------------------
    /** Wire-model base latency for (edge, ord): always applied, never
     *  recorded. */
    std::uint64_t baseLatencyMs(const std::string &edge,
                                std::uint64_t ord);
    /** Chaos verdict for message (edge, ord); records what fired. */
    MsgFate msgFate(const std::string &edge, std::uint64_t ord,
                    bool chaosArmed);
    /** Extra execution time for (agentEdge, execOrd); 0 = none. */
    std::uint64_t execExtraMs(const std::string &agentEdge,
                              std::uint64_t ord);
    /** Should execution (agentEdge, execOrd) return corrupt bytes? */
    bool execLie(const std::string &agentEdge, std::uint64_t ord);
    /** The world's crash schedule (AgentCrash/CoordCrash events for
     *  the explorer to arm as timers). Pure function of the seed in
     *  generative mode; the scripted crashes in scripted mode. */
    std::vector<ChaosEvent> crashPlan(unsigned nAgents,
                                      std::uint64_t horizonMs);

    /** Append a fired event to the recorded schedule. */
    void recordFired(ChaosEvent ev);
    const std::vector<ChaosEvent> &fired() const { return _fired; }

    std::uint64_t seed() const { return _seed; }
    SimProfile profile() const { return _profile; }

  private:
    friend class SimStream;

    std::uint64_t registerStream(SimStream *s);
    void unregisterStream(std::uint64_t id);
    /** Mark stream `id` dead and wake its owner (scheduled, never
     *  synchronous, so destructor-time notifications can't reenter a
     *  half-dead object). */
    void killStream(std::uint64_t id);
    void deliverFrom(SimStream *src, const std::string &line);
    void scheduleDelivery(std::uint64_t peerId, std::string framed,
                          std::uint64_t delayMs);
    /** Seeded draw for a named decision on (edge, ord). */
    std::uint64_t draw(const char *domain, const std::string &edge,
                       std::uint64_t ord) const;
    const ChaosEvent *scriptMatch(EvKind kind, const std::string &edge,
                                  std::uint64_t ord) const;

    struct QEv
    {
        std::uint64_t atMs;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct QEvLater
    {
        bool
        operator()(const QEv &a, const QEv &b) const
        {
            if (a.atMs != b.atMs)
                return a.atMs > b.atMs;
            return a.seq > b.seq;
        }
    };

    std::uint64_t _seed;
    SimProfile _profile;
    VirtualClock _clock;
    std::priority_queue<QEv, std::vector<QEv>, QEvLater> _queue;
    std::uint64_t _seq = 0;
    std::uint64_t _firesTotal = 0;
    bool _livelock = false;

    bool _scripted = false;
    std::map<std::string, ChaosEvent> _script; ///< kind|edge|ord → ev
    std::vector<ChaosEvent> _fired;

    std::map<std::uint64_t, SimStream *> _streams;
    std::uint64_t _streamIds = 0;
    SimTransport *_acceptor = nullptr;
};

/** In-memory line stream (one direction pair endpoint). */
class SimStream final : public Stream
{
  public:
    ~SimStream() override;

    bool dead() const override { return _dead; }
    void markDead() override { _dead = true; }
    bool wantWrite() const override { return false; }
    bool nextLine(std::string *line) override;
    void send(const std::string &line) override;

    void setOnWake(std::function<void()> fn)
    {
        _onWake = std::move(fn);
    }
    const std::string &edge() const { return _edge; }

  private:
    friend class SimNet;
    SimStream() = default;

    void pushLine(const std::string &framed);

    SimNet *_net = nullptr;
    std::uint64_t _id = 0;
    std::uint64_t _peerId = 0;
    std::string _edge;
    bool _chaos = false;
    bool _dead = false;
    std::uint64_t _msgOrd = 0;
    std::string _in;
    std::size_t _inOff = 0;
    std::function<void()> _onWake;
};

/** The coordinator's simulated network surface: listening is a flag,
 *  pump is a virtual-time turn plus the pending-accept drain. */
class SimTransport final : public Transport
{
  public:
    explicit SimTransport(SimNet *net) : _net(net) {}
    ~SimTransport() override;

    bool listen(std::uint16_t port, std::string *err) override;
    std::uint16_t port() const override { return _listening ? 1 : 0; }
    void pump(int timeoutMs, const std::vector<Stream *> &streams,
              std::vector<std::unique_ptr<Stream>> *accepted)
        override;

    void enqueue(std::unique_ptr<SimStream> s);

  private:
    SimNet *_net;
    bool _listening = false;
    std::vector<std::unique_ptr<SimStream>> _pending;
};

} // namespace edge::serve::simnet

#endif // EDGE_SERVE_SIMNET_SIMNET_HH
