/**
 * @file
 * Runtime DSRE protocol-invariant checking. The checker maintains a
 * small shadow model of the protocol state — per-consumer-site wave
 * histories and a mirror of the LSQ's in-flight memory ops — fed by
 * hooks in the processor and the LSQ, and fail-fast throws an
 * InvariantFailure naming the violated rule. The named invariants
 * (see docs/PROTOCOL.md, "Checked invariants"):
 *
 *  - `wave-monotonicity`: a producer never reuses a wave number for
 *    a different payload on one link; two messages with the same
 *    (site, wave) must be bit-identical (that is what makes chaos
 *    duplicate-delivery safe).
 *  - `final-immutability`: once a wave carried Final, every younger
 *    wave on that link carries the same value, still Final — no
 *    FINAL -> SPEC downgrade, no value change under Final.
 *  - `value-identity-squash`: with squashing enabled, a producer
 *    never sends two consecutive waves with an identical
 *    (value, addr, state, addrState) payload (deliberate echoes —
 *    chaos echo waves, value-prediction confirmations — are marked
 *    and exempt).
 *  - `load-finality`: a Final load reply requires the three-part
 *    commit-wave rule: Final address, every older in-flight store
 *    resolved with a Final address, and Final data on every
 *    overlapping older store.
 *  - `lsq-age-ordered-forwarding`: the value of a Final load reply
 *    equals the independent byte-accurate recompute (youngest older
 *    writer of each byte wins, memory below).
 *  - `commit-progress`: some block commits within watchdogCycles;
 *    the commit watchdog reports under this name.
 */

#ifndef EDGE_CHAOS_INVARIANTS_HH
#define EDGE_CHAOS_INVARIANTS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "chaos/sim_error.hh"
#include "common/types.hh"

namespace edge::chaos {

class InvariantChecker
{
  public:
    /** Reads `bytes` bytes of committed architectural memory. */
    using ReadMemFn = std::function<Word(Addr, unsigned)>;

    /**
     * @param expect_squash value-identity squashing is enabled, so
     *        consecutive identical sends are a protocol violation
     * @param spec DSRE mode: Spec/Final states are meaningful and
     *        the load-finality rule applies
     * @param read_mem committed-memory reader for the forwarding
     *        recompute
     */
    InvariantChecker(bool expect_squash, bool spec, ReadMemFn read_mem);

    /** One network delivery, observed before the consumer's own
     *  stale-wave filtering (the checker re-derives acceptance). */
    struct Delivery
    {
        enum class Site : std::uint8_t
        {
            NodeOperand, ///< a = slot, b = operand index
            RegWrite,    ///< a = write index
            LsqLoad,     ///< a = lsid
            LsqStore,    ///< a = lsid
            Exit,        ///< block exit (one per block)
        };

        Site site = Site::NodeOperand;
        DynBlockSeq seq = 0;
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        Word value = 0;
        Addr addr = 0;
        ValState state = ValState::Spec;
        ValState addrState = ValState::Spec;
        std::uint32_t wave = 0;
        bool statusOnly = false;
        bool echo = false; ///< deliberate same-value resend, exempt
        Cycle cycle = 0;
    };

    void onDelivery(const Delivery &d);

    // --- LSQ shadow hooks (called by the LSQ as it updates state) -------
    void onMemOpMapped(DynBlockSeq seq, Lsid lsid, bool is_store,
                       unsigned bytes);
    void onStoreState(DynBlockSeq seq, Lsid lsid, Addr addr, Word data,
                      ValState data_state, ValState addr_state);
    void onLoadAddr(DynBlockSeq seq, Lsid lsid, Addr addr,
                    ValState addr_state);
    /** A load reply is leaving the LSQ (Final replies are verified). */
    void onLoadReply(Cycle now, DynBlockSeq seq, Lsid lsid, Word value,
                     ValState state, bool echo);

    /** The block committed or was flushed: drop its shadow state. */
    void onBlockRetired(DynBlockSeq seq);
    void onFlushFrom(DynBlockSeq from_seq);

    /** Total individual invariant checks evaluated. */
    std::uint64_t checksRun() const { return _checks; }

  private:
    struct Payload
    {
        Word value = 0;
        Addr addr = 0;
        ValState state = ValState::Spec;
        ValState addrState = ValState::Spec;
        bool statusOnly = false;
        bool echo = false;

        bool
        identicalTo(const Payload &o) const
        {
            return value == o.value && addr == o.addr &&
                   state == o.state && addrState == o.addrState;
        }
    };

    struct SiteState
    {
        /** Every wave observed on this link, by wave number, so the
         *  checks survive arbitrary network reordering. Pruned from
         *  the bottom past kMaxTrackedWaves. */
        std::map<std::uint32_t, Payload> waves;
        bool dataFinalSeen = false;
        std::uint32_t dataFinalWave = 0;
        Word dataFinalValue = 0;
        bool addrFinalSeen = false;
        std::uint32_t addrFinalWave = 0;
        Addr addrFinalValue = 0;
    };

    struct ShadowOp
    {
        bool isStore = false;
        std::uint8_t bytes = 0;
        // Store mirror.
        bool resolved = false;
        Addr addr = 0;
        Word data = 0;
        ValState dataState = ValState::Spec;
        ValState addrState = ValState::Spec;
        // Load mirror.
        bool addrKnown = false;
        Addr ldAddr = 0;
        ValState ldAddrState = ValState::Spec;
    };

    static constexpr std::size_t kMaxTrackedWaves = 64;

    using SiteKey =
        std::tuple<DynBlockSeq, std::uint8_t, std::uint32_t,
                   std::uint32_t>;
    using MemKey = std::pair<DynBlockSeq, Lsid>;

    [[noreturn]] void fail(const char *invariant, Cycle cycle,
                           DynBlockSeq seq, std::string msg) const;

    Word recomputeLoadValue(MemKey key, const ShadowOp &load) const;

    bool _expectSquash;
    bool _spec;
    ReadMemFn _readMem;
    std::map<SiteKey, SiteState> _sites;
    std::map<MemKey, ShadowOp> _ops;
    std::uint64_t _checks = 0;
};

} // namespace edge::chaos

#endif // EDGE_CHAOS_INVARIANTS_HH
