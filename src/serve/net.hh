/**
 * @file
 * The fabric's transport: line-delimited JSON over TCP, on plain
 * POSIX sockets (the build's no-external-dependencies rule applies
 * to the network layer too). Two shapes share the framing:
 *
 *  - Conn: a nonblocking, buffered connection for the coordinator's
 *    poll loop and the agent's main loop. Reads accumulate into an
 *    input buffer that complete lines are peeled off of; writes are
 *    queued and flushed as the socket drains. A line longer than
 *    kMaxLineBytes marks the connection dead instead of buffering
 *    without bound — the network twin of the worker's bounded stdin
 *    read.
 *
 *  - The blocking helpers (connectTo / sendLine / LineReader) for
 *    the submission client, which has nothing else to do while it
 *    waits.
 *
 * The coordinator never touches Conn (or poll) directly any more: it
 * speaks through the Stream/Transport interfaces below, so the
 * deterministic fabric simulation (src/serve/simnet/) can swap the
 * whole wire for an in-memory event queue while the REAL lease state
 * machine runs unmodified on top.
 *
 * Syscall discipline: every poll/read/write/connect path treats
 * EINTR as "the wait was shortened", never as a failure, and every
 * timed wait is re-armed against an absolute deadline — a signal
 * storm can delay a timeout but can never extend it.
 */

#ifndef EDGE_SERVE_NET_HH
#define EDGE_SERVE_NET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/clock.hh"

namespace edge::serve {

/** Bound on one protocol line (cell specs and results with embedded
 *  fuzz programs included). */
constexpr std::size_t kMaxLineBytes = 32u * 1024 * 1024;

/**
 * One bidirectional line-framed connection, as the coordinator sees
 * it. Conn implements it over a TCP socket; simnet::SimStream over
 * an in-memory message queue with seeded fault injection.
 */
class Stream
{
  public:
    virtual ~Stream() = default;

    virtual bool dead() const = 0;
    virtual void markDead() = 0;

    /** Does the transport's wait need write-readiness for this
     *  stream? (Always false for in-memory streams.) */
    virtual bool wantWrite() const = 0;

    /** Peel the next complete inbound line. */
    virtual bool nextLine(std::string *line) = 0;

    /** Queue `line` (newline appended) for the peer. */
    virtual void send(const std::string &line) = 0;

    /** The pollable fd, or -1 when there is none (in-memory). */
    virtual int fd() const { return -1; }

    /** Socket-readiness hooks, driven by TcpTransport::pump; no-ops
     *  for streams that have no socket. */
    virtual void onReadable() {}
    virtual void onWritable() {}
};

/**
 * The coordinator's whole network surface: one listening endpoint
 * plus a readiness turn over its accepted streams. Fabric owns the
 * streams (inside its peer table) and hands them to pump each turn;
 * the transport owns only the listener.
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** Bind the listening endpoint (0 = ephemeral). */
    virtual bool listen(std::uint16_t port, std::string *err) = 0;
    /** The bound port (after listen). */
    virtual std::uint16_t port() const = 0;

    /**
     * One network turn: wait up to `timeoutMs` for activity, move
     * bytes on `streams`, and append newly accepted connections to
     * *accepted. On a virtual transport this is where simulated time
     * advances.
     */
    virtual void pump(int timeoutMs,
                      const std::vector<Stream *> &streams,
                      std::vector<std::unique_ptr<Stream>> *accepted)
        = 0;
};

/**
 * Open a listening TCP socket on `port` (0 picks an ephemeral port;
 * see boundPort). Returns the fd, or -1 with *err set.
 */
int listenOn(std::uint16_t port, std::string *err);

/** The port a listening socket is actually bound to. */
std::uint16_t boundPort(int listen_fd);

/**
 * Blocking connect to "host:port" (numeric or resolvable host).
 * Returns the fd, or -1 with *err set. A nonzero `timeoutMs` bounds
 * the TCP connect itself (nonblocking connect + poll) so a client
 * aimed at a black-holed coordinator fails fast with a structured
 * error instead of wedging in the kernel's connect timeout.
 */
int connectTo(const std::string &host_port, std::string *err,
              std::uint64_t timeoutMs = 0);

/** Blocking write of `line` plus the terminating newline. */
bool sendLine(int fd, const std::string &line, std::string *err);

/** Blocking line reader for the submission client. */
class LineReader
{
  public:
    explicit LineReader(int fd) : _fd(fd) {}

    /**
     * Read the next complete line (without the newline). False on
     * EOF, error, or an over-long line, with *err set. A nonzero
     * `timeoutMs` is an inactivity deadline: if the peer sends no
     * bytes at all for that long the read fails with a structured
     * "timed out" error — the client-side guard against a hung
     * coordinator. The deadline is absolute per wait: EINTR re-arms
     * the poll with the time remaining, not the full timeout.
     */
    bool next(std::string *line, std::string *err,
              std::uint64_t timeoutMs = 0);

  private:
    int _fd;
    std::string _buf;
    std::size_t _off = 0;
};

/** Nonblocking buffered line connection (see file comment). */
class Conn final : public Stream
{
  public:
    /** Takes ownership of `fd`; sets O_NONBLOCK and FD_CLOEXEC. */
    explicit Conn(int fd);
    ~Conn() override;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const override { return _fd; }
    bool dead() const override { return _dead; }
    void markDead() override { _dead = true; }

    /** Does the poll set need POLLOUT for this connection? */
    bool wantWrite() const override { return _outOff < _out.size(); }

    /** Drain the socket into the input buffer; marks the connection
     *  dead on EOF, error, or an over-long line. */
    void onReadable() override;

    /** Flush as much queued output as the socket accepts. */
    void onWritable() override;

    /** Peel the next complete line off the input buffer. */
    bool nextLine(std::string *line) override;

    /** Queue `line` (newline appended) and try an immediate flush. */
    void send(const std::string &line) override;

  private:
    int _fd;
    bool _dead = false;
    std::string _in;
    std::size_t _inOff = 0;
    std::string _out;
    std::size_t _outOff = 0;
};

/** The production Transport: a nonblocking TCP listener plus one
 *  poll() turn over the fabric's live connections. */
class TcpTransport final : public Transport
{
  public:
    TcpTransport() = default;
    ~TcpTransport() override;
    TcpTransport(const TcpTransport &) = delete;
    TcpTransport &operator=(const TcpTransport &) = delete;

    bool listen(std::uint16_t port, std::string *err) override;
    std::uint16_t port() const override { return _port; }
    void pump(int timeoutMs, const std::vector<Stream *> &streams,
              std::vector<std::unique_ptr<Stream>> *accepted)
        override;

  private:
    int _listenFd = -1;
    std::uint16_t _port = 0;
};

} // namespace edge::serve

#endif // EDGE_SERVE_NET_HH
