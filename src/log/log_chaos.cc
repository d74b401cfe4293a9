#include "log/log_chaos.hh"

#include <csignal>
#include <unistd.h>

#include "common/hash.hh"

namespace edge::log {

namespace {

// Keyed decision: FNV-1a over the inputs, then a finalizing scramble
// so low bits are usable as modular buckets.
std::uint64_t
decision(std::uint64_t seed, LogCrashPoint point, std::uint64_t ordinal,
         std::uint64_t salt)
{
    Fnv1a h;
    h.mix64(seed);
    h.mix64(static_cast<std::uint64_t>(point));
    h.mix64(ordinal);
    h.mix64(salt);
    std::uint64_t v = h.state;
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    return v;
}

} // namespace

bool
LogChaos::wouldFire(LogCrashPoint point, std::uint64_t seed,
                    std::uint64_t ordinal)
{
    return decision(seed, point, ordinal, 0x10c) % 4 == 0;
}

bool
LogChaos::at(LogCrashPoint point, std::uint64_t ordinal)
{
    if (_opts.point != point)
        return false;
    if (!wouldFire(point, _opts.seed, ordinal))
        return false;
    if (point == LogCrashPoint::FailFsync) {
        if (_fsyncFailed)
            return false;
        _fsyncFailed = true;
        return true;
    }
    // Lethal points die the way an external `kill -9` would: no
    // destructors, no flushing, no atexit — the exact failure the
    // recovery matrix exists to survive.
    ::kill(::getpid(), SIGKILL);
    ::_exit(137); // unreachable; belt and braces
}

std::size_t
LogChaos::tearBytes(std::uint64_t ordinal, std::size_t n) const
{
    if (n <= 1)
        return 0;
    return 1 + static_cast<std::size_t>(
                   decision(_opts.seed, LogCrashPoint::MidWrite, ordinal,
                            0x7ea4) %
                   (n - 1));
}

} // namespace edge::log
