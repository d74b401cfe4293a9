/**
 * @file
 * Deterministic crash/IO-fault injection for the durable result log.
 * The same philosophy as serve/simnet: every physical log
 * operation (block write, fsync, segment rotation) gets an ordinal,
 * and an FNV-1a hash of (seed, ordinal, crash point) decides — with
 * no RNG state and no ordering sensitivity — whether the armed fault
 * fires there. A given (point, seed) pair therefore always kills the
 * process at the same byte of the same write, which is what lets the
 * recovery matrix in tests/test_log.cc assert byte-identical resumes
 * instead of "usually recovers".
 *
 * Crash points name the instant of death relative to the flusher's
 * write/fsync/rotate sequence. `mid-write` additionally tears the
 * in-flight write at a hash-chosen byte before dying, so recovery
 * must cope with a half-block tail. `fail-fsync` is the one
 * non-lethal fault: the fsync is skipped and reported as failed, and
 * the log goes into its sticky failed state exactly as it would on a
 * real EIO.
 */

#ifndef EDGE_LOG_LOG_CHAOS_HH
#define EDGE_LOG_LOG_CHAOS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/enum_names.hh"

namespace edge::log {

enum class LogCrashPoint : std::uint8_t
{
    None,         ///< injection disabled
    BeforeWrite,  ///< die before a block batch write starts
    MidWrite,     ///< tear the write at a hash-chosen byte, then die
    AfterWrite,   ///< die after write(2) returns, before the fsync
    BeforeFsync,  ///< die immediately before fsync(2)
    AfterFsync,   ///< die after fsync, before the durable watermark
                  ///  advances (data durable, ack lost)
    BeforeRotate, ///< die before the next segment file is created
    FailFsync,    ///< non-lethal: fsync fails, log goes sticky-failed
};

inline constexpr EnumName<LogCrashPoint> kLogCrashPointNames[] = {
    {LogCrashPoint::None, "none"},
    {LogCrashPoint::BeforeWrite, "before-write"},
    {LogCrashPoint::MidWrite, "mid-write"},
    {LogCrashPoint::AfterWrite, "after-write"},
    {LogCrashPoint::BeforeFsync, "before-fsync"},
    {LogCrashPoint::AfterFsync, "after-fsync"},
    {LogCrashPoint::BeforeRotate, "before-rotate"},
    {LogCrashPoint::FailFsync, "fail-fsync"},
};
constexpr auto &enumNames(LogCrashPoint) { return kLogCrashPointNames; }
static_assert(enumTableCovers(kLogCrashPointNames, LogCrashPoint::FailFsync));

struct LogChaosOptions
{
    LogCrashPoint point = LogCrashPoint::None;
    std::uint64_t seed = 1;
};

class LogChaos
{
  public:
    explicit LogChaos(const LogChaosOptions &opts = {}) : _opts(opts) {}

    bool armed() const { return _opts.point != LogCrashPoint::None; }
    LogCrashPoint point() const { return _opts.point; }

    /**
     * Pure decision function: does the fault armed as `point` with
     * `seed` fire at operation ordinal `ordinal`? Roughly one in four
     * eligible ordinals fire; the process dies at the first hit, so
     * the seed selects WHICH write/fsync of a campaign is the victim.
     * Exposed statically so tests can pick a seed that fires at a
     * known ordinal.
     */
    static bool wouldFire(LogCrashPoint point, std::uint64_t seed,
                          std::uint64_t ordinal);

    /**
     * Consult the injector at a named point. Kills the process (via
     * SIGKILL, mimicking `kill -9`) when the armed lethal point
     * fires. For FailFsync returns true exactly once when the fault
     * fires — the caller then skips the fsync and fails the log.
     */
    bool at(LogCrashPoint point, std::uint64_t ordinal);

    /**
     * For an armed mid-write tear at `ordinal`: how many bytes of an
     * `n`-byte write to let through before dying. Hash-chosen in
     * [1, n) so the tail always ends inside a block.
     */
    std::size_t tearBytes(std::uint64_t ordinal, std::size_t n) const;

  private:
    LogChaosOptions _opts;
    bool _fsyncFailed = false; ///< FailFsync latches: one fault per log
};

} // namespace edge::log

#endif // EDGE_LOG_LOG_CHAOS_HH
