/**
 * @file
 * The EDGE processor: a grid of execution nodes, register tiles,
 * LSQ / D-cache banks, an operand micronetwork, a next-block
 * predictor, and the block-atomic fetch/map/execute/commit pipeline.
 * Supports two misspeculation recovery mechanisms — classic pipeline
 * flush, and the paper's distributed selective re-execution (DSRE)
 * protocol with speculative waves and a trailing commit wave.
 */

#ifndef EDGE_CORE_PROCESSOR_HH
#define EDGE_CORE_PROCESSOR_HH

#include <chrono>
#include <memory>
#include <vector>

#include "chaos/chaos.hh"
#include "chaos/invariants.hh"
#include "chaos/sim_error.hh"
#include "chaos/trace_ring.hh"
#include "common/logging.hh"
#include "common/frame_ring.hh"
#include "compiler/placement.hh"
#include "core/exec_node.hh"
#include "core/msg.hh"
#include "core/params.hh"
#include "core/program_image.hh"
#include "core/reg_unit.hh"
#include "lsq/lsq.hh"
#include "mem/hierarchy.hh"
#include "mem/sparse_memory.hh"
#include "net/mesh.hh"
#include "predictor/dependence.hh"
#include "predictor/next_block.hh"
#include "predictor/oracle.hh"

namespace edge::core {

/** Everything configurable about one simulated machine. */
struct MachineConfig
{
    CoreParams core;
    mem::HierarchyParams mem;
    lsq::LsqParams lsq;
    pred::NextBlockParams nbp;
    pred::DepPolicy policy = pred::DepPolicy::Blind;
    /**
     * Cross-check the committed path against the reference trace
     * (catches control/commit bugs; requires an OracleDb).
     */
    bool checkCommittedPath = true;
    /**
     * Run-level RNG seed. Every pseudo-random draw in a run — the
     * workload generators and the chaos engine's per-site streams —
     * derives from one run seed, so any run replays exactly.
     */
    std::uint64_t rngSeed = 1;
    /** Deterministic fault injection (off unless a profile is set). */
    chaos::ChaosParams chaos;
    /** Feed every delivery through the DSRE invariant checker. */
    bool checkInvariants = false;
    /** Events retained in the failure-report trace ring. */
    std::size_t traceDepth = 64;
    /**
     * Per-run wall-clock deadline in milliseconds (0 disables). A
     * host-level guard, not a property of the simulated machine:
     * exceeding it stops the run with SimError::Reason::HostDeadline,
     * the one failure kind the grid retry policy treats as transient.
     */
    std::uint64_t wallDeadlineMs = 0;
};

class Processor
{
  public:
    /**
     * @param config machine configuration
     * @param program validated program to run
     * @param oracle committed-path database; required for the Oracle
     *        policy and the committed-path cross-check, may be null
     *        otherwise
     * @param stats statistics sink (must outlive the processor)
     * @param image optional shared program image (validated program +
     *        cached placements); when given it must wrap `program`,
     *        and per-Processor validation / placement is skipped
     */
    Processor(const MachineConfig &config, const isa::Program &program,
              const pred::OracleDb *oracle, StatSet &stats,
              const ProgramImage *image = nullptr);

    struct Result
    {
        Cycle cycles = 0;
        std::uint64_t committedBlocks = 0;
        std::uint64_t committedInsts = 0;
        bool halted = false;
        /** Why the run stopped early, with diagnostics (ok() if it
         *  did not): watchdog, invariant violation, protocol panic. */
        chaos::SimError error;
    };

    /** Run until the program halts or the cycle budget is spent. */
    Result run(Cycle max_cycles);

    /** Architectural register state (for golden-model comparison). */
    const std::vector<Word> &archRegs() const;

    /** Architectural memory state (for golden-model comparison). */
    const mem::SparseMemory &memory() const { return _dmem; }

    const MachineConfig &config() const { return _cfg; }

    /** The fault injector, if one is active (null otherwise). */
    const chaos::ChaosEngine *chaosEngine() const { return _chaos.get(); }

    /** The invariant checker, if enabled (null otherwise). */
    const chaos::InvariantChecker *checker() const { return _check.get(); }

  private:
    /** One window frame's block; slot `frame` of _ctx. */
    struct BlockCtx
    {
        DynBlockSeq seq = 0; ///< owning block; 0 = frame free
        BlockId blockId = 0;
        std::uint64_t archIdx = 0;
        unsigned frame = 0;
        const isa::Block *block = nullptr;
        /** Per-slot grid node (the layout's placement nodeOf). */
        const std::uint16_t *nodeOf = nullptr;
        /** Per-slot node-local RS index (the layout's localOf row). */
        const std::uint16_t *localIdx = nullptr;

        unsigned predictedExit = 0; ///< original prediction (stats)
        unsigned fetchedExit = 0;   ///< exit the fetch chain follows
        std::uint64_t historySnapshot = 0;

        bool exitSeen = false;
        Word exitValue = 0;
        ValState exitState = ValState::Spec;
        std::uint32_t exitWave = 0;
    };

    // --- geometry helpers -------------------------------------------------
    // Table lookups built at construction: no division per message.
    net::Coord gridCoord(unsigned node) const { return _nodeCoord[node]; }
    net::Coord rfCoord(unsigned reg) const { return _regCoord[reg]; }
    net::Coord
    lsqCoord(Addr addr) const
    {
        return _bankCoord[_hier->bankOf(addr)];
    }
    net::Coord ctrlCoord() const { return {0, 0}; }
    Addr codeAddr(BlockId block) const;

    // --- pipeline stages --------------------------------------------------
    void deliverMsg(Cycle now, const Msg &msg);
    void handleExit(Cycle now, const Msg &msg);
    void routeNodeEvent(const NodeEvent &ev, unsigned node);
    void routeLoadReply(const lsq::LoadReply &reply);
    void routeRegForward(const RegForward &fwd);

    /** Tick node `n` and route what it sent, in issue order. */
    bool tickNode(unsigned n, Cycle now);
    /** Route the register unit's pending forwards, in order. */
    void routeRegForwards();
    /** Mark node `n` as possibly having work (see _activeNodes). */
    void
    markActive(unsigned n)
    {
        _activeNodes[n >> 6] |= std::uint64_t{1} << (n & 63);
    }
    /** Release a block's frame on the nodes it was placed on. */
    void releaseFrame(const BlockCtx &ctx);
    /**
     * Send a value to `targets`, which belong to the block in `ctx`:
     * an instruction's or a register read's targets, read from the
     * program rather than carried by the event that produced the
     * value.
     */
    void sendToTargets(Cycle when, net::Coord src, const BlockCtx &ctx,
                       const std::array<isa::Target, isa::kMaxTargets>
                           &targets,
                       Word value, ValState state, std::uint32_t wave,
                       std::uint16_t depth, bool status_only,
                       bool echo);

    /** Pick the operand or status mesh and send. */
    void meshSend(Cycle when, net::Coord src, net::Coord dst,
                  const Msg &msg);
    void onViolation(const lsq::Violation &violation);

    /** @return true iff fetch did anything (started or mapped). */
    bool fetchTick(Cycle now);
    void mapFetchedBlock(Cycle now);
    /** @return true iff a block committed this cycle. */
    bool commitTick(Cycle now);

    /**
     * The cycle loop behind run(). It visits every cycle in which
     * something can happen and jumps over the inert ones to the next
     * message arrival or deadline; skipped cycles are those in which
     * visiting would change no state (see DESIGN.md "Cycle loop").
     * Exceptions propagate to run()'s handler.
     */
    void runCycles(Cycle max_cycles, Result &res);

    /**
     * The earlier of the loop's two deadlines at or after `next`:
     * fetch completion and the watchdog fire.
     */
    Cycle nextDeadline(Cycle next) const;

    /** Squash every block with seq >= from_seq. */
    void flushFrom(DynBlockSeq from_seq);

    /** Redirect fetch to the given block / architectural index. */
    void redirectFetch(BlockId next, std::uint64_t arch_idx);

    /** The block in `frame` if it is `seq`, else null (flushed). */
    BlockCtx *
    findCtx(unsigned frame, DynBlockSeq seq)
    {
        BlockCtx &ctx = _ctx[frame];
        return ctx.seq == seq ? &ctx : nullptr;
    }

    /** findCtx for a sender whose block must be live. */
    const BlockCtx &
    liveCtx(unsigned frame, DynBlockSeq seq)
    {
        const BlockCtx *ctx = findCtx(frame, seq);
        panic_if(!ctx, "sending for a flushed block");
        return *ctx;
    }

    /**
     * Host wall-clock deadline poll: counts loop iterations (not
     * simulated cycles, which the loop skips) and reads the clock
     * every 4096 polls. Fills `res.error` and returns true when the
     * deadline has passed.
     */
    bool wallDeadlineHit(Result &res);

    /** Render the stuck-machine state (watchdog reports). */
    std::string machineDump(Cycle now);

    /**
     * Build the graceful hang report: no commit for too long, whether
     * the machine drained (deadlock) or is still busy (livelock).
     */
    chaos::SimError watchdogDump(Cycle now);

    // --- configuration & substrate ----------------------------------------
    MachineConfig _cfg;
    const isa::Program &_prog;
    const pred::OracleDb *_oracle;
    StatSet &_stats;

    /** Built when no shared ProgramImage was supplied. */
    std::unique_ptr<ProgramImage> _ownImage;
    /** Placements and node masks for this geometry (image-owned). */
    const Layout *_layout = nullptr;
    std::unique_ptr<chaos::ChaosEngine> _chaos;   ///< null = no chaos
    std::unique_ptr<chaos::InvariantChecker> _check; ///< null = off
    chaos::TraceRing _trace;
    mem::SparseMemory _dmem;
    std::unique_ptr<mem::Hierarchy> _hier;
    std::unique_ptr<net::Mesh<Msg>> _mesh; ///< operand network
    /** Status network for commit-wave messages (TRIPS GCN). */
    std::unique_ptr<net::Mesh<Msg>> _gcn;
    std::unique_ptr<pred::DependencePredictor> _policy;
    std::unique_ptr<pred::NextBlockPredictor> _nbp;
    std::unique_ptr<RegUnit> _regs;
    std::unique_ptr<lsq::LoadStoreQueue> _lsq;
    std::vector<ExecNode> _nodes;
    /** What the ticking node sent; routed right after its tick. */
    std::vector<NodeEvent> _nodeOut;
    /** Forwards from the current RegUnit call; routed right after. */
    std::vector<RegForward> _regOut;

    /** Mesh coordinates of each grid node, register and D-bank. */
    std::vector<net::Coord> _nodeCoord;
    std::vector<net::Coord> _regCoord;
    std::vector<net::Coord> _bankCoord;

    // --- dynamic state -----------------------------------------------------
    /**
     * Active-node set, one bit per node. A node's bit is set when an
     * operand is delivered to it or an instruction is mapped onto it,
     * and cleared by the loop once the node has no work left, so
     * every node with work has its bit set. The loop ticks only set
     * bits, in index order: ticking a node with no work is inert.
     */
    std::vector<std::uint64_t> _activeNodes;
    std::vector<BlockCtx> _ctx; ///< indexed by frame
    FrameRing _inflight;        ///< occupied frames, oldest first
    std::vector<unsigned> _freeFrames;
    DynBlockSeq _nextSeq = 1;
    std::uint64_t _nextArchIdx = 0;
    BlockId _nextFetch = 0;
    bool _fetchBusy = false;
    bool _fetchHalted = false;
    Cycle _fetchReady = 0;
    BlockId _fetchBlock = 0;
    bool _halted = false;
    Cycle _cycle = 0;
    Cycle _lastCommit = 0;
    /** Wall-deadline poll state (see wallDeadlineHit). */
    std::chrono::steady_clock::time_point _wallStart{};
    unsigned _wallPoll = 0;
    std::uint64_t _committedBlocks = 0;
    std::uint64_t _committedInsts = 0;

    // --- statistics ---------------------------------------------------------
    Counter &_statCommittedBlocks;
    Counter &_statCommittedInsts;
    Counter &_statCtrlFlushes;
    Counter &_statViolFlushes;
    Counter &_statFetchedBlocks;
};

} // namespace edge::core

#endif // EDGE_CORE_PROCESSOR_HH
