/**
 * @file
 * The load/store queue: the component the DSRE protocol revolves
 * around. It tracks every in-flight memory operation in (dynamic
 * block, LSID) program order, performs byte-accurate store-to-load
 * forwarding, detects dependence violations when a store resolves
 * under an already-performed younger load, and drives both recovery
 * mechanisms:
 *
 *  - flush recovery: report the violation so the core can flush the
 *    offending load's block and everything younger;
 *  - DSRE recovery: simply re-send the load's corrected value as a
 *    new speculative wave, letting the dataflow graph selectively
 *    re-execute only the dependent instructions.
 *
 * It also originates the commit wave: a load's value becomes Final
 * exactly when its address is Final and no older in-flight store is
 * still unresolved or non-final; the LSQ sends state-upgrade replies
 * as that frontier advances.
 *
 * Physically the LSQ is banked (one bank per grid row, co-located
 * with the L1D banks); we model bank port contention and routing but
 * keep the search structure logically unified, a simplification
 * documented in DESIGN.md.
 *
 * In-flight state is keyed by window frame: each frame's slot holds
 * one block's LSID entries plus per-LSID state bitmaps, and a ring of
 * frames gives age order (DESIGN.md "Frame-indexed in-flight state").
 */

#ifndef EDGE_LSQ_LSQ_HH
#define EDGE_LSQ_LSQ_HH

#include <array>
#include <functional>
#include <set>
#include <vector>

#include "chaos/chaos.hh"
#include "chaos/invariants.hh"
#include "common/enum_names.hh"
#include "common/frame_ring.hh"
#include "common/stats.hh"
#include "isa/block.hh"
#include "mem/hierarchy.hh"
#include "mem/sparse_memory.hh"
#include "predictor/dependence.hh"

namespace edge::lsq {

/** How misspeculation is repaired. */
enum class Recovery
{
    Flush, ///< flush the load's block and younger, refetch
    Dsre,  ///< distributed selective re-execution (the paper)
};

inline constexpr EnumName<Recovery> kRecoveryNames[] = {
    {Recovery::Flush, "flush"},
    {Recovery::Dsre, "dsre"},
};
constexpr auto &enumNames(Recovery) { return kRecoveryNames; }
static_assert(enumTableCovers(kRecoveryNames, Recovery::Dsre));

struct LsqParams
{
    Recovery recovery = Recovery::Dsre;
    unsigned lsqLatency = 1; ///< bank search latency (cycles)
    /**
     * Under flush recovery, treat any store resolving under an
     * already-performed overlapping younger load as a violation
     * (address-based detection, like real flush machines). When
     * false, only value-changing conflicts count (idealised).
     */
    bool addrBasedViolations = true;
    /**
     * DSRE storm throttle: after this many corrective resends of one
     * load instance, further corrections are deferred until the
     * value is Final (it then rides the commit wave). Bounds the
     * wave amplification of deep same-address store chains; 0
     * disables the budget (ablation).
     */
    unsigned maxResendsPerLoad = 4;
    /**
     * Charge a full LSQ bank port for commit-wave (status-only)
     * upgrade replies. Off by default: upgrades carry no data, so
     * hardware can batch them on a narrow status path. Ablation
     * knob for the commit-wave cost experiment.
     */
    bool chargeUpgradePorts = false;

    /**
     * Second application of the DSRE protocol (the paper evaluates
     * dependence speculation as "one application"): value-predict
     * loads that miss far enough in the cache hierarchy. The LSQ
     * replies immediately with the last value seen at the address
     * (Spec), and the real value rides behind as a corrective wave
     * (or a cheap upgrade when the prediction was right). Requires
     * DSRE recovery.
     */
    bool valuePredictMisses = false;
    /** Only predict when the access takes longer than this. */
    unsigned vpLatencyThreshold = 8;
    /** Entries in the direct-mapped last-value table. */
    std::size_t vpTableSize = 1024;
};

/**
 * A load reply / resend / upgrade the core must put on the network.
 * It goes to the targets of instruction `slot` of the load's block.
 */
struct LoadReply
{
    Cycle when = 0;            ///< earliest cycle the reply may leave
    Addr addr = 0;             ///< for bank routing
    DynBlockSeq seq = 0;
    unsigned frame = 0;        ///< the load block's window frame
    SlotId slot = 0;           ///< the load instruction's slot
    Lsid lsid = 0;
    Word value = 0;
    ValState state = ValState::Spec;
    std::uint32_t wave = 0;
    std::uint16_t depth = 0;
    bool statusOnly = false; ///< commit-wave upgrade (same value)
    /**
     * Deliberate same-value resend — a chaos-injected echo wave or a
     * value-prediction confirmation. The value-identity-squash
     * invariant must not flag it.
     */
    bool echo = false;
};

/** A detected dependence violation (flush recovery consumes this). */
struct Violation
{
    DynBlockSeq loadSeq = 0;
    unsigned loadFrame = 0;
    BlockId loadBlock = 0;
    Lsid loadLsid = 0;
    DynBlockSeq storeSeq = 0;
    BlockId storeBlock = 0;
    Lsid storeLsid = 0;
};

class LoadStoreQueue
{
  public:
    using ReplyFn = std::function<void(const LoadReply &)>;
    using ViolationFn = std::function<void(const Violation &)>;

    /**
     * @param params configuration
     * @param num_frames window frames: blocks the core keeps in flight
     * @param hierarchy timing for D-cache accesses (not owned)
     * @param memory architectural memory contents (not owned)
     * @param policy active dependence policy (not owned)
     * @param stats counters
     * @param reply invoked for every load reply/resend/upgrade
     * @param violation invoked on every detected violation (flush
     *        recovery decides what to do with it; DSRE only counts)
     * @param chaos optional fault injector (not owned): delays store
     *        resolution and forces spurious corrective re-fire waves
     * @param check optional invariant checker (not owned), fed with
     *        the LSQ's shadow state and every outgoing reply
     */
    LoadStoreQueue(const LsqParams &params, unsigned num_frames,
                   mem::Hierarchy *hierarchy, mem::SparseMemory *memory,
                   pred::DependencePredictor *policy, StatSet &stats,
                   ReplyFn reply, ViolationFn violation,
                   chaos::ChaosEngine *chaos = nullptr,
                   chaos::InvariantChecker *check = nullptr);

    /**
     * A block entered the window in `frame`: allocate its LSID
     * entries. Sequence numbers must increase from one map to the
     * next.
     */
    void mapBlock(unsigned frame, DynBlockSeq seq, std::uint64_t arch_idx,
                  BlockId block_id, const isa::Block &block);

    /**
     * A load's address arrived (first execution, an address-changing
     * re-execution, or a state upgrade of the address). Dropped when
     * `frame` no longer holds block `seq` (the block was flushed).
     */
    void loadRequest(Cycle now, unsigned frame, DynBlockSeq seq,
                     Lsid lsid, Addr addr, ValState addr_state,
                     std::uint32_t wave, std::uint16_t depth);

    /** A store's address and data arrived (or changed / upgraded). */
    void storeResolve(Cycle now, unsigned frame, DynBlockSeq seq,
                      Lsid lsid, Addr addr, Word data,
                      ValState addr_state, ValState data_state,
                      std::uint32_t wave, std::uint16_t depth);

    /**
     * All memory ops of the block in `frame` performed / resolved and
     * Final? O(1): reads the frame's state bitmaps.
     */
    bool blockMemFinal(unsigned frame) const;

    /**
     * Commit the oldest block, which must sit in `frame`: drain its
     * stores to memory/D-cache and free the entries.
     */
    void commitBlock(Cycle now, unsigned frame);

    /** Squash every block with seq >= from_seq. */
    void flushFrom(DynBlockSeq from_seq);

    /** In-flight blocks currently tracked (for asserts/tests). */
    std::size_t numBlocks() const { return _order.size(); }

    /** Total violations detected so far. */
    std::uint64_t violations() const { return _violations.value(); }

    /** Human-readable dump of non-final entries (deadlock debug). */
    std::string debugState() const;

    /** Value predictions issued / proven correct (vp extension). */
    std::uint64_t vpPredictions() const { return _vpPredictions.value(); }
    std::uint64_t vpCorrect() const { return _vpCorrect.value(); }

  private:
    using MemKey = std::pair<DynBlockSeq, Lsid>;
    /** One bit per LSID of a block. */
    using LsidMask = std::uint32_t;
    static_assert(isa::kMaxBlockMemOps <= 32, "LsidMask too narrow");

    struct MemEntry
    {
        // Static properties, filled at map time.
        bool isStore = false;
        std::uint8_t bytes = 0;
        SlotId slot = 0;

        // Store state. Address and data finality travel separately:
        // a load can finalise once every older store has a Final
        // address, even while non-overlapping store *data* is still
        // speculative.
        bool resolved = false;
        Addr addr = 0;
        Word data = 0;
        ValState state = ValState::Spec;  ///< data state
        ValState addrSt = ValState::Spec; ///< address state

        /** Drop stale (cross-network reordered) incoming messages. */
        std::uint32_t inWave = 0;

        // Load state.
        bool addrKnown = false;    ///< a request has arrived
        bool performed = false;
        bool waiting = false;      ///< held back by the policy
        bool deferred = false;     ///< resend budget exhausted
        std::uint8_t resends = 0;  ///< corrective resends so far
        ValState addrState = ValState::Spec;
        Word lastValue = 0;
        ValState lastState = ValState::Spec;
        /** A later reply (e.g. a status upgrade) must never arrive
         *  before an earlier data reply on the same link. */
        Cycle lastReplyWhen = 0;
        std::uint32_t replyWave = 0;
        std::uint16_t depth = 0;
        /** Store-set dependence captured when the block mapped. */
        pred::CapturedDep dep;
    };

    /**
     * One window frame's memory ops. The slot is reused by every block
     * mapped into the frame; `seq` says which block owns it now, so a
     * message for a flushed block (same frame, older seq) is stale.
     * The masks mirror the entries' flags, one bit per LSID, and are
     * updated wherever an entry's state changes (syncStore/syncLoad):
     * they let the per-message walks visit only the entries that
     * matter, and make the commit check a handful of word tests.
     */
    struct BlockEntry
    {
        unsigned frame = 0;  ///< this slot's index (fixed)
        DynBlockSeq seq = 0; ///< owning block; 0 = frame free
        std::uint64_t archIdx = 0;
        BlockId blockId = 0;
        /** Indexed by LSID; the capacity survives frame reuse. */
        std::vector<MemEntry> ops;

        LsidMask loads = 0;       ///< static: LSIDs that are loads
        LsidMask stores = 0;      ///< static: LSIDs that are stores
        LsidMask resolved = 0;    ///< stores with address + data
        /** Stores unresolved or with a Spec address. */
        LsidMask addrPending = 0;
        /** Stores unresolved or with Spec data. */
        LsidMask dataSpec = 0;
        LsidMask performed = 0;   ///< loads performed at least once
        LsidMask specLoads = 0;   ///< performed, last reply Spec
        LsidMask waiting = 0;     ///< loads held back by the policy
    };

    /** A performed load hit by a store change (see storeChanged). */
    struct Hit
    {
        unsigned frame;
        MemKey key;
        bool value_changed;
    };

    /** The live block in `frame` if it is `seq`, else null (stale). */
    BlockEntry *liveBlock(unsigned frame, DynBlockSeq seq);
    BlockId blockIdOf(unsigned frame, DynBlockSeq seq) const;

    /** Re-derive an entry's bits in its block's masks. */
    static void syncStore(BlockEntry &be, Lsid lsid);
    static void syncLoad(BlockEntry &be, Lsid lsid);

    /**
     * Recompute the store-address frontier: the oldest store that is
     * unresolved or has a Spec address. Every load older than it sees
     * only resolved stores with Final addresses.
     */
    void updateFrontier();

    /**
     * Call fn(block, lsid) for every LSID picked by `pick(block)` that
     * is older than (seq, lsid), oldest first; stop early when fn
     * returns false.
     */
    template <typename Pick, typename Fn>
    void forEachOlder(DynBlockSeq seq, Lsid lsid, Pick pick,
                      Fn fn) const;

    /**
     * Current forwarded/loaded value of a performed load. When
     * `from_mem` is given, it is set when some byte comes from
     * memory rather than from an older store.
     */
    Word computeLoadValue(const BlockEntry &be, Lsid lsid,
                          bool *from_mem = nullptr) const;

    /** True when every byte can come only from final sources. */
    bool loadIsFinal(const BlockEntry &be, Lsid lsid) const;

    /**
     * Older unresolved stores, oldest first (policy query input).
     * Returns a reference to _olderScratch, valid until the next
     * call — per-query heap churn was a measurable cost in the
     * re-fire path.
     */
    const std::vector<pred::UnresolvedStore> &
    olderUnresolved(DynBlockSeq seq, Lsid lsid) const;

    /** Try to issue a load now (policy permitting); send the reply. */
    void tryIssueLoad(Cycle now, BlockEntry &be, Lsid lsid);

    /** Actually perform the load and send (or re-send) its reply. */
    void performLoad(Cycle now, BlockEntry &be, Lsid lsid,
                     bool is_resend, std::uint16_t depth);

    /**
     * A store changed: scan younger performed loads overlapping
     * either range for value changes (violations).
     */
    void storeChanged(Cycle now, unsigned store_frame, MemKey store_key,
                      Addr old_addr, unsigned old_bytes, bool had_old,
                      std::uint16_t depth);

    /**
     * Advance the commit wave: upgrade now-final performed loads.
     * Only Spec loads older than the frontier can have become final,
     * and only when some store's address or data just turned Final:
     * every entry point leaves no final-eligible Spec load behind,
     * so storeResolve sweeps only after such a transition.
     */
    void sweepFinality(Cycle now);

    /**
     * Chaos: re-fire one speculative load as a transient wrong value
     * immediately corrected by a second wave — a forced spurious
     * violation exercising the selective re-execution machinery.
     */
    void injectSpuriousWave(Cycle now);

    /** Charge a bank port; returns the cycle processing may start. */
    Cycle bankPort(Cycle now, Addr addr);

    LsqParams _p;
    /** DSRE carries Spec/Final states; flush recovery does not. */
    bool _spec;
    mem::Hierarchy *_hier;
    mem::SparseMemory *_mem;
    pred::DependencePredictor *_policy;
    ReplyFn _reply;
    ViolationFn _violation;
    chaos::ChaosEngine *_chaos;
    chaos::InvariantChecker *_check;

    std::vector<BlockEntry> _blocks; ///< indexed by frame
    FrameRing _order;                ///< occupied frames, oldest first
    /** See updateFrontier; {kInvalidSeq, 0} when there is none. */
    MemKey _frontier{kInvalidSeq, 0};

    // Scratch buffers reused across calls instead of per-call heap
    // allocations (re-fire wave bookkeeping is a hot path). None of
    // these functions re-enter themselves, so one buffer each is
    // safe; capacity persists for the queue's lifetime.
    mutable std::vector<pred::UnresolvedStore> _olderScratch;
    /** storeResolve re-query of policy-held loads: (frame, key). */
    std::vector<std::pair<unsigned, MemKey>> _waitingScratch;
    std::vector<Hit> _hitsScratch;         ///< storeChanged victims
    std::vector<Cycle> _bankFree;     ///< per-bank port availability

    /** Last-value table for the miss value-prediction extension. */
    struct VpEntry
    {
        Addr addr = ~Addr{0};
        Word value = 0;
    };
    std::vector<VpEntry> _vpTable;

    /**
     * Forward-progress guarantee for flush recovery: a dynamic load
     * (architectural block index, LSID) that caused a violation is
     * replayed conservatively exactly once after the flush — the
     * moral equivalent of the Alpha 21264 store-wait bit. Without
     * it, a blindly speculating flush machine livelocks on
     * intra-block store-to-load aliases (the deterministic replay
     * violates identically forever).
     */
    std::set<std::pair<std::uint64_t, Lsid>> _replayHolds;

    Counter &_loads;
    Counter &_stores;
    Counter &_forwards;
    Counter &_violations;
    Counter &_resends;
    Counter &_upgrades;
    Counter &_policyHolds;
    Counter &_replayWaits;
    Counter &_deferrals;
    Counter &_vpPredictions;
    Counter &_vpCorrect;
    Histogram &_violationDistance;
};

} // namespace edge::lsq

#endif // EDGE_LSQ_LSQ_HH
