#include "serve/net.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace edge::serve {

namespace {

void
setCloexec(int fd)
{
    int flags = fcntl(fd, F_GETFD, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void
setNonblock(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string
errnoStr(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/** Compact the front-consumed region of a peel buffer once the dead
 *  prefix dominates, so long sessions don't grow without bound. */
void
compact(std::string &buf, std::size_t &off)
{
    if (off > 0 && (off >= buf.size() || off > 256 * 1024)) {
        buf.erase(0, off);
        off = 0;
    }
}

bool
peelLine(std::string &buf, std::size_t &off, std::string *line)
{
    std::size_t nl = buf.find('\n', off);
    if (nl == std::string::npos) {
        compact(buf, off);
        return false;
    }
    line->assign(buf, off, nl - off);
    off = nl + 1;
    compact(buf, off);
    return true;
}

} // namespace

int
listenOn(std::uint16_t port, std::string *err)
{
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = errnoStr("socket");
        return -1;
    }
    setCloexec(fd);
    // Nonblocking so the accept-until-drained loop in Fabric::pump
    // stops at EAGAIN instead of parking the coordinator.
    setNonblock(fd);
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        if (err)
            *err = errnoStr("bind");
        close(fd);
        return -1;
    }
    if (listen(fd, 64) != 0) {
        if (err)
            *err = errnoStr("listen");
        close(fd);
        return -1;
    }
    return fd;
}

std::uint16_t
boundPort(int listen_fd)
{
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                    &len) != 0)
        return 0;
    return ntohs(addr.sin_port);
}

int
connectTo(const std::string &host_port, std::string *err,
          std::uint64_t timeoutMs)
{
    std::size_t colon = host_port.rfind(':');
    if (colon == std::string::npos || colon + 1 >= host_port.size()) {
        if (err)
            *err = "address '" + host_port +
                   "' is not of the form host:port";
        return -1;
    }
    std::string host = host_port.substr(0, colon);
    std::string port = host_port.substr(colon + 1);

    addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const int gai = getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (gai != 0 || !res) {
        if (err)
            *err = "resolve '" + host + "': " + gai_strerror(gai);
        if (res)
            freeaddrinfo(res);
        return -1;
    }

    bool timed_out = false;
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        setCloexec(fd);
        if (timeoutMs == 0) {
            int rc;
            do {
                rc = connect(fd, ai->ai_addr, ai->ai_addrlen);
            } while (rc != 0 && errno == EINTR);
            if (rc == 0)
                break;
        } else {
            // Deadline-bounded connect: go nonblocking, poll for
            // writability, then read back SO_ERROR for the verdict.
            // The poll is re-armed against an ABSOLUTE deadline, so
            // a signal storm (EINTR) shortens nothing and extends
            // nothing.
            setNonblock(fd);
            int rc = connect(fd, ai->ai_addr, ai->ai_addrlen);
            if (rc == 0)
                break;
            if (errno == EINPROGRESS) {
                Clock &clk = Clock::real();
                const Clock::time_point deadline =
                    clk.now() + std::chrono::milliseconds(timeoutMs);
                for (;;) {
                    std::int64_t left = clk.msUntil(deadline);
                    pollfd p = {fd, POLLOUT, 0};
                    rc = poll(&p, 1, static_cast<int>(left));
                    if (rc < 0 && errno == EINTR)
                        continue;
                    break;
                }
                if (rc > 0) {
                    int so_err = 0;
                    socklen_t len = sizeof(so_err);
                    getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err,
                               &len);
                    if (so_err == 0) {
                        // Connected: restore blocking for the
                        // caller's plain read/write helpers.
                        int flags = fcntl(fd, F_GETFL, 0);
                        if (flags >= 0)
                            fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
                        break;
                    }
                    errno = so_err;
                } else if (rc == 0) {
                    timed_out = true;
                }
            }
        }
        close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    if (fd < 0 && err) {
        if (timed_out)
            *err = "connect " + host_port + ": timed out after " +
                   std::to_string(timeoutMs) + " ms";
        else
            *err = errnoStr(("connect " + host_port).c_str());
    }
    if (fd >= 0) {
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return fd;
}

bool
sendLine(int fd, const std::string &line, std::string *err)
{
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
        ssize_t n = write(fd, framed.data() + off, framed.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = errnoStr("write");
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
LineReader::next(std::string *line, std::string *err,
                 std::uint64_t timeoutMs)
{
    for (;;) {
        if (peelLine(_buf, _off, line))
            return true;
        if (_buf.size() - _off > kMaxLineBytes) {
            if (err)
                *err = "peer sent an over-long line";
            return false;
        }
        if (timeoutMs != 0) {
            // Absolute inactivity deadline: EINTR re-arms the poll
            // with the time REMAINING, so interrupted waits neither
            // fall through to a deadline-less blocking read nor
            // restart the full timeout.
            Clock &clk = Clock::real();
            const Clock::time_point deadline =
                clk.now() + std::chrono::milliseconds(timeoutMs);
            int rc;
            for (;;) {
                std::int64_t left = clk.msUntil(deadline);
                pollfd p = {_fd, POLLIN, 0};
                rc = poll(&p, 1, static_cast<int>(left));
                if (rc < 0 && errno == EINTR)
                    continue;
                break;
            }
            if (rc == 0) {
                if (err)
                    *err = "timed out after " +
                           std::to_string(timeoutMs) +
                           " ms waiting for the coordinator";
                return false;
            }
            if (rc < 0) {
                if (err)
                    *err = errnoStr("poll");
                return false;
            }
        }
        char chunk[65536];
        ssize_t n = read(_fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = errnoStr("read");
            return false;
        }
        if (n == 0) {
            if (err)
                *err = "connection closed";
            return false;
        }
        _buf.append(chunk, static_cast<std::size_t>(n));
    }
}

Conn::Conn(int fd) : _fd(fd)
{
    setNonblock(_fd);
    setCloexec(_fd);
    int one = 1;
    setsockopt(_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Conn::~Conn()
{
    if (_fd >= 0)
        close(_fd);
}

void
Conn::onReadable()
{
    char chunk[65536];
    for (;;) {
        ssize_t n = read(_fd, chunk, sizeof(chunk));
        if (n > 0) {
            _in.append(chunk, static_cast<std::size_t>(n));
            if (_in.size() - _inOff > kMaxLineBytes) {
                _dead = true; // over-long line: hostile or corrupt
                return;
            }
            continue;
        }
        if (n == 0) {
            _dead = true; // EOF
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        _dead = true;
        return;
    }
}

void
Conn::onWritable()
{
    while (_outOff < _out.size()) {
        ssize_t n =
            write(_fd, _out.data() + _outOff, _out.size() - _outOff);
        if (n > 0) {
            _outOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        _dead = true;
        return;
    }
    compact(_out, _outOff);
}

bool
Conn::nextLine(std::string *line)
{
    return peelLine(_in, _inOff, line);
}

void
Conn::send(const std::string &line)
{
    if (_dead)
        return;
    _out.append(line);
    _out.push_back('\n');
    onWritable();
}

TcpTransport::~TcpTransport()
{
    if (_listenFd >= 0)
        close(_listenFd);
}

bool
TcpTransport::listen(std::uint16_t port, std::string *err)
{
    _listenFd = listenOn(port, err);
    if (_listenFd < 0)
        return false;
    _port = boundPort(_listenFd);
    return true;
}

void
TcpTransport::pump(int timeoutMs,
                   const std::vector<Stream *> &streams,
                   std::vector<std::unique_ptr<Stream>> *accepted)
{
    std::vector<pollfd> fds;
    std::vector<Stream *> polled;
    fds.reserve(streams.size() + 1);
    if (_listenFd >= 0)
        fds.push_back({_listenFd, POLLIN, 0});
    for (Stream *s : streams) {
        if (!s || s->dead() || s->fd() < 0)
            continue;
        short ev = POLLIN;
        if (s->wantWrite())
            ev |= POLLOUT;
        fds.push_back({s->fd(), ev, 0});
        polled.push_back(s);
    }
    if (fds.empty())
        return;

    int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()),
                  timeoutMs);
    if (rc < 0) {
        // EINTR (or any transient poll failure) is a shortened turn:
        // the caller's loop comes straight back with its own
        // absolute deadlines intact.
        return;
    }
    if (rc == 0)
        return;

    std::size_t base = 0;
    if (_listenFd >= 0) {
        base = 1;
        if ((fds[0].revents & POLLIN) != 0 && accepted) {
            for (;;) {
                int cfd = accept(_listenFd, nullptr, nullptr);
                if (cfd < 0) {
                    if (errno == EINTR)
                        continue;
                    break; // EAGAIN: drained
                }
                accepted->push_back(std::make_unique<Conn>(cfd));
            }
        }
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
        short re = fds[base + i].revents;
        if (re == 0)
            continue;
        if ((re & POLLOUT) != 0)
            polled[i]->onWritable();
        if ((re & (POLLIN | POLLERR | POLLHUP)) != 0)
            polled[i]->onReadable();
    }
}

} // namespace edge::serve
