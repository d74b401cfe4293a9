/**
 * @file
 * Unit tests for the load/store queue — the DSRE protocol's core
 * component — exercised directly through its message interface with
 * captured replies: forwarding (including byte-accurate partial
 * overlap), violation detection, DSRE resends vs flush violations,
 * the commit wave (finality upgrades), policy holds, the replay
 * hold and resend-budget mechanisms, commit draining, and flushes;
 * the frame-indexed window (frame reuse, 16 frames, the store
 * frontier across out-of-order frames); and seeded random operation
 * sequences checked against a brute-force rescan.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "common/stats.hh"
#include "compiler/builder.hh"
#include "lsq/lsq.hh"
#include "panic_check.hh"

namespace edge::lsq {
namespace {


/**
 * Fixture: an LSQ over a tiny hierarchy with captured outputs, plus
 * a canned block shape: every mapped block has LSID 0 = 8-byte load
 * (slot 0) and LSID 1 = 8-byte store (slot 1).
 */
class LsqTest : public ::testing::Test
{
  protected:
    explicit LsqTest(Recovery recovery = Recovery::Dsre,
                     pred::DepPolicy policy = pred::DepPolicy::Blind,
                     unsigned num_frames = 8)
        : hier(mem::HierarchyParams{}, stats),
          policyPtr(pred::makeDependencePredictor(policy, nullptr,
                                                  stats))
    {
        LsqParams p;
        p.recovery = recovery;
        for (unsigned f = num_frames; f-- > 0;)
            freeFrames.push_back(f);
        lsq = std::make_unique<LoadStoreQueue>(
            p, num_frames, &hier, &memory, policyPtr.get(), stats,
            [this](const LoadReply &r) { replies.push_back(r); },
            [this](const Violation &v) { violations.push_back(v); });

        // The canned two-memop block.
        compiler::ProgramBuilder pb("t");
        auto &b = pb.newBlock("blk");
        compiler::Val a = b.readReg(1);
        compiler::Val x = b.load(a, 8);
        b.store(b.readReg(2), x, 8);
        b.branchHalt();
        prog = std::make_unique<isa::Program>(pb.build());
    }

    /**
     * Map block `seq` into the next free frame. Like the core, frames
     * come off a free stack that flushes and commits refill, so frame
     * order and age order soon differ.
     */
    void
    map(DynBlockSeq seq, std::uint64_t arch_idx)
    {
        unsigned f = freeFrames.back();
        freeFrames.pop_back();
        frames[seq] = f;
        inflight.push_back(seq);
        lsq->mapBlock(f, seq, arch_idx, 0, prog->block(0));
    }
    void map(DynBlockSeq seq) { map(seq, seq); }

    /** The frame block `seq` was mapped into (it may since be gone). */
    unsigned frame(DynBlockSeq seq) const { return frames.at(seq); }

    /** Flush; frames return youngest first, as in the core. */
    void
    flushFrom(DynBlockSeq seq)
    {
        lsq->flushFrom(seq);
        while (!inflight.empty() && inflight.back() >= seq) {
            freeFrames.push_back(frame(inflight.back()));
            inflight.pop_back();
        }
    }

    void
    commit(Cycle now, DynBlockSeq seq)
    {
        lsq->commitBlock(now, frame(seq));
        freeFrames.push_back(frame(seq));
        inflight.erase(inflight.begin());
    }

    void
    sendLoad(Cycle now, DynBlockSeq seq, Addr addr,
             ValState st = ValState::Spec, std::uint32_t wave = 1)
    {
        lsq->loadRequest(now, frame(seq), seq, 0, addr, st, wave, 0);
    }

    void
    sendStore(Cycle now, DynBlockSeq seq, Addr addr, Word data,
              ValState ast = ValState::Final,
              ValState dst = ValState::Final, std::uint32_t wave = 1)
    {
        lsq->storeResolve(now, frame(seq), seq, 1, addr, data, ast, dst,
                          wave, 0);
    }

    const LoadReply &
    lastReply()
    {
        EXPECT_FALSE(replies.empty());
        return replies.back();
    }

    StatSet stats{"t"};
    mem::SparseMemory memory;
    mem::Hierarchy hier;
    std::unique_ptr<pred::DependencePredictor> policyPtr;
    std::unique_ptr<LoadStoreQueue> lsq;
    std::unique_ptr<isa::Program> prog;
    std::vector<LoadReply> replies;
    std::vector<Violation> violations;
    std::vector<unsigned> freeFrames; ///< popped from the back
    std::map<DynBlockSeq, unsigned> frames; ///< every block mapped
    std::vector<DynBlockSeq> inflight;      ///< oldest first
};

class LsqFlushTest : public LsqTest
{
  protected:
    LsqFlushTest() : LsqTest(Recovery::Flush) {}
};

class LsqConservativeTest : public LsqTest
{
  protected:
    LsqConservativeTest()
        : LsqTest(Recovery::Flush, pred::DepPolicy::Conservative)
    {
    }
};

TEST_F(LsqTest, LoadReadsMemoryWhenNoStoresMatch)
{
    memory.write(0x100, 8, 77);
    map(1);
    sendLoad(0, 1, 0x100);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(lastReply().value, 77u);
    EXPECT_GT(lastReply().when, 0u);
}

TEST_F(LsqTest, ForwardsFromYoungestOlderStore)
{
    memory.write(0x100, 8, 1);
    map(1);
    map(2);
    map(3);
    sendStore(0, 1, 0x100, 10);
    sendStore(0, 2, 0x100, 20);
    sendLoad(1, 3, 0x100);
    EXPECT_EQ(lastReply().value, 20u); // youngest older wins
}

TEST_F(LsqTest, SameBlockOlderStoreForwards)
{
    map(1);
    sendStore(0, 1, 0x200, 42);
    // LSID 0 load is OLDER than the LSID 1 store: no forwarding.
    sendLoad(1, 1, 0x200);
    EXPECT_EQ(lastReply().value, 0u);
}

TEST_F(LsqTest, PartialOverlapMergesBytes)
{
    memory.write(0x100, 8, 0x1111111111111111ull);
    map(1);
    map(2);
    lsq->storeResolve(0, frame(1), 1, 1, 0x104, 0xAABBCCDD, ValState::Final,
                      ValState::Final, 1, 0); // 4-byte... entry is 8B
    sendLoad(1, 2, 0x100);
    // The store covers bytes [0x104, 0x10c); the load reads
    // [0x100, 0x108): upper half comes from the store's low half.
    EXPECT_EQ(lastReply().value, 0xAABBCCDD11111111ull);
}

TEST_F(LsqTest, ViolationTriggersResendWithNewValue)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100); // speculates: reads memory, 5
    EXPECT_EQ(lastReply().value, 5u);
    sendStore(3, 1, 0x100, 99); // older store changes the value
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(lastReply().value, 99u);
    EXPECT_GT(lastReply().wave, replies[0].wave);
    EXPECT_EQ(lsq->violations(), 1u);
    EXPECT_TRUE(violations.empty()); // DSRE: no flush requested
}

TEST_F(LsqTest, SameValueStoreCausesNoResend)
{
    memory.write(0x100, 8, 99);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100);
    sendStore(3, 1, 0x100, 99); // silent store
    EXPECT_EQ(replies.size(), 1u);
    EXPECT_EQ(lsq->violations(), 0u);
}

TEST_F(LsqTest, CommitWaveUpgradesSpecLoads)
{
    memory.write(0x100, 8, 7);
    map(1);
    map(2);
    // Load in block 2 with a Final address but an unresolved older
    // store: the reply must be speculative.
    sendLoad(0, 2, 0x100, ValState::Final);
    EXPECT_EQ(lastReply().state, ValState::Spec);
    // The older store resolves Final to a disjoint address: the
    // load's value was right all along; an upgrade follows.
    sendStore(5, 1, 0x900, 1);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(lastReply().state, ValState::Final);
    EXPECT_EQ(lastReply().value, 7u);
    EXPECT_TRUE(lastReply().statusOnly);
}

TEST_F(LsqTest, SpecAddressBlocksFinality)
{
    memory.write(0x100, 8, 7);
    map(1);
    sendLoad(0, 1, 0x100, ValState::Spec);
    EXPECT_EQ(lastReply().state, ValState::Spec);
    // Address upgrade arrives: now the load can finalise (no older
    // stores at all).
    sendLoad(2, 1, 0x100, ValState::Final, 2);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqTest, StoreAddrFinalityEnablesLoadFinality)
{
    memory.write(0x100, 8, 7);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Final);
    // Store resolves to a disjoint address with Final address but
    // SPEC data: the load can still finalise (data irrelevant).
    sendStore(5, 1, 0x900, 1, ValState::Final, ValState::Spec);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqTest, OverlappingSpecDataBlocksFinality)
{
    memory.write(0x100, 8, 7);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Final);
    std::size_t before = replies.size();
    // Overlapping store with Final addr but Spec data: forwarded
    // bytes could still change, so no upgrade to Final.
    sendStore(5, 1, 0x100, 7, ValState::Final, ValState::Spec);
    for (std::size_t i = before; i < replies.size(); ++i)
        EXPECT_EQ(replies[i].state, ValState::Spec);
    EXPECT_FALSE(lsq->blockMemFinal(frame(2)));
}

TEST_F(LsqTest, ResendBudgetDefersToCommitWave)
{
    memory.write(0x100, 8, 0);
    map(1);
    map(2);
    map(3);
    map(4);
    map(5);
    map(6);
    map(7);
    // Young load speculates early.
    sendLoad(0, 7, 0x100, ValState::Final);
    // Six older stores resolve one by one, each changing the value;
    // the budget (4) forces deferral after the fourth resend.
    for (DynBlockSeq s = 1; s <= 6; ++s) {
        lsq->storeResolve(s, frame(s), s, 1, 0x100, 100 + s,
                          ValState::Final,
                          ValState::Final, 1, 0);
    }
    EXPECT_GT(stats.counterValue("lsq.deferrals"), 0u);
    // Once everything is final, the last reply carries the correct
    // final value (youngest older store = block 6).
    EXPECT_EQ(lastReply().value, 106u);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqTest, BlockMemFinalRequiresEverything)
{
    map(1);
    EXPECT_FALSE(lsq->blockMemFinal(frame(1))); // nothing arrived
    sendLoad(0, 1, 0x100, ValState::Final);
    EXPECT_FALSE(lsq->blockMemFinal(frame(1))); // store missing
    sendStore(1, 1, 0x200, 9);
    EXPECT_TRUE(lsq->blockMemFinal(frame(1)));
}

TEST_F(LsqTest, CommitDrainsStoresToMemory)
{
    map(1);
    sendLoad(0, 1, 0x100, ValState::Final);
    sendStore(1, 1, 0x300, 1234);
    commit(10, 1);
    EXPECT_EQ(memory.read(0x300, 8), 1234u);
    EXPECT_EQ(lsq->numBlocks(), 0u);
}

TEST_F(LsqTest, FlushDropsBlocksAndStaleMessages)
{
    map(1);
    map(2);
    flushFrom(2);
    EXPECT_EQ(lsq->numBlocks(), 1u);
    // Stale messages for the flushed block are ignored.
    sendLoad(5, 2, 0x100);
    EXPECT_TRUE(replies.empty());
}

TEST_F(LsqTest, StaleWavesAreDropped)
{
    memory.write(0x100, 8, 7);
    memory.write(0x200, 8, 9);
    map(1);
    sendLoad(0, 1, 0x200, ValState::Spec, /*wave=*/5);
    EXPECT_EQ(lastReply().value, 9u);
    // A reordered older request must not roll the address back.
    sendLoad(1, 1, 0x100, ValState::Spec, /*wave=*/3);
    EXPECT_EQ(replies.size(), 1u);
}

TEST_F(LsqFlushTest, ViolationRequestsFlush)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100);
    sendStore(3, 1, 0x100, 99);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].loadSeq, 2u);
    EXPECT_EQ(violations[0].storeSeq, 1u);
    // Flush recovery: the LSQ does not resend.
    EXPECT_EQ(replies.size(), 1u);
}

TEST_F(LsqFlushTest, AddressOverlapAloneViolatesUnderFlush)
{
    memory.write(0x100, 8, 99);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100);
    sendStore(3, 1, 0x100, 99); // same value, still a violation
    EXPECT_EQ(violations.size(), 1u);
}

TEST_F(LsqFlushTest, RepliesAreAlwaysFinalUnderFlush)
{
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Spec);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqFlushTest, ReplayHoldForcesConservativeRetry)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100);
    sendStore(3, 1, 0x100, 99); // violation -> flush requested
    ASSERT_EQ(violations.size(), 1u);
    flushFrom(2);
    replies.clear();

    // An older block with an unresolved store re-enters the window,
    // then the violating load's block is refetched at the same
    // architectural index (4 -> older, 5 -> the replayed instance).
    map(4);
    map(5, 2); // archIdx 2 again
    // The one-shot replay hold makes the load wait for block 4's
    // unresolved store even under the blind policy.
    lsq->loadRequest(10, frame(5), 5, 0, 0x100, ValState::Final, 1, 0);
    EXPECT_TRUE(replies.empty());
    EXPECT_GT(stats.counterValue("lsq.replay_waits"), 0u);
    // Resolving the older store releases the hold.
    lsq->storeResolve(12, frame(4), 4, 1, 0x800, 1, ValState::Final,
                      ValState::Final, 1, 0);
    ASSERT_FALSE(replies.empty());
    EXPECT_EQ(lastReply().value, 99u); // forwarded from block 1
}

TEST_F(LsqConservativeTest, LoadsWaitForOlderStores)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Final);
    EXPECT_TRUE(replies.empty()); // block 1's store unresolved
    EXPECT_GT(stats.counterValue("lsq.policy_holds"), 0u);
    sendStore(3, 1, 0x500, 1); // resolve releases the hold
    ASSERT_FALSE(replies.empty());
    EXPECT_EQ(lastReply().value, 5u);
    EXPECT_EQ(lsq->violations(), 0u);
}

// ---------------------------------------------------------------
// Frame-indexed state: frames recycle out of order, seqs never do.

class Lsq16Test : public LsqTest
{
  protected:
    Lsq16Test()
        : LsqTest(Recovery::Dsre, pred::DepPolicy::Blind, 16)
    {
    }
};

TEST_F(LsqTest, FrameReuseAfterFlushDropsStaleMessages)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    map(3);
    unsigned f2 = frame(2);
    flushFrom(2);
    // The next block reuses a freed frame under a new seq: seqs 2 and
    // 3 are never reused, leaving a gap.
    map(4);
    EXPECT_EQ(frame(4), f2);
    EXPECT_EQ(lsq->numBlocks(), 2u);

    // Messages for the flushed seqs: one addresses the frame block 4
    // now owns, the other a free frame.
    for (DynBlockSeq stale : {2u, 3u}) {
        lsq->loadRequest(1, frame(stale), stale, 0, 0x100,
                         ValState::Final, 1, 0);
        lsq->storeResolve(1, frame(stale), stale, 1, 0x100, 77,
                          ValState::Final, ValState::Final, 1, 0);
    }
    EXPECT_TRUE(replies.empty());
    EXPECT_EQ(stats.counterValue("lsq.stores"), 0u);

    // Block 4 itself is untouched: its load still sees memory and
    // the unresolved store of block 1 keeps it speculative.
    sendLoad(2, 4, 0x100, ValState::Final);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(lastReply().seq, 4u);
    EXPECT_EQ(lastReply().frame, f2);
    EXPECT_EQ(lastReply().value, 5u);
    EXPECT_EQ(lastReply().state, ValState::Spec);
    // The violation distance is a seq difference, gap included.
    sendStore(3, 1, 0x100, 9);
    EXPECT_EQ(lastReply().value, 9u);
    EXPECT_EQ(stats.histogramRef("lsq.violation_distance").sum(), 3u);
}

TEST_F(Lsq16Test, SixteenFrameWindow)
{
    memory.write(0x100, 8, 1);
    for (DynBlockSeq s = 1; s <= 16; ++s)
        map(s);
    EXPECT_EQ(lsq->numBlocks(), 16u);
    EXPECT_PANIC(lsq->mapBlock(0, 17, 17, 0, prog->block(0)),
                 "occupied frame");

    // The youngest load forwards from the youngest older store and
    // stays speculative until all fifteen older stores resolve.
    sendLoad(0, 16, 0x100, ValState::Final);
    for (DynBlockSeq s = 1; s <= 15; ++s)
        sendStore(s, s, s == 9 ? 0x100 : 0x800 + 8 * s, 100 + s);
    EXPECT_EQ(lastReply().value, 109u);
    EXPECT_EQ(lastReply().state, ValState::Final);

    // Commit everything but the last, then reuse the freed frames.
    for (DynBlockSeq s = 1; s <= 15; ++s) {
        sendLoad(20, s, 0x200, ValState::Final);
        ASSERT_TRUE(lsq->blockMemFinal(frame(s))) << s;
        commit(30, s);
    }
    EXPECT_EQ(lsq->numBlocks(), 1u);
    EXPECT_EQ(memory.read(0x100, 8), 109u);
    for (DynBlockSeq s = 17; s <= 31; ++s)
        map(s);
    EXPECT_EQ(lsq->numBlocks(), 16u);
}

TEST_F(LsqTest, CommitAdvancesFrontierAcrossOutOfOrderFrames)
{
    memory.write(0x100, 8, 3);
    // Scramble the frame order: a commit frees the oldest frame and
    // the next block reuses it, so age order != frame order.
    map(1);
    map(2);
    sendLoad(0, 1, 0x300, ValState::Final);
    sendStore(0, 1, 0x308, 1);
    commit(1, 1);
    map(3);
    map(4);
    ASSERT_LT(frame(3), frame(2));
    ASSERT_GT(frame(4), frame(2));

    // Block 4's load waits on the unresolved stores of 2 and 3.
    sendLoad(2, 4, 0x100, ValState::Final);
    EXPECT_EQ(lastReply().state, ValState::Spec);
    sendStore(3, 3, 0x900, 1); // the younger store resolves first
    EXPECT_EQ(lastReply().state, ValState::Spec);
    // Block 2's store is the frontier; once it resolves, the load
    // is older than every pending store and finalises.
    std::size_t before = replies.size();
    sendStore(4, 2, 0x908, 2);
    ASSERT_EQ(replies.size(), before + 1);
    EXPECT_EQ(lastReply().seq, 4u);
    EXPECT_EQ(lastReply().state, ValState::Final);
    EXPECT_TRUE(lastReply().statusOnly);

    // Commit in age order walks the frames out of index order.
    for (DynBlockSeq s : {2u, 3u}) {
        sendLoad(5, s, 0x100, ValState::Final);
        ASSERT_TRUE(lsq->blockMemFinal(frame(s)));
        commit(6, s);
    }
    EXPECT_FALSE(lsq->blockMemFinal(frame(4))); // store unresolved
    sendStore(7, 4, 0x910, 4);
    EXPECT_TRUE(lsq->blockMemFinal(frame(4)));
    commit(8, 4);
    EXPECT_EQ(lsq->numBlocks(), 0u);
    EXPECT_EQ(memory.read(0x908, 8), 2u);
    EXPECT_EQ(memory.read(0x910, 8), 4u);
}

TEST_F(LsqTest, CommitOfAYoungerFramePanics)
{
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Final);
    sendStore(0, 2, 0x200, 1);
    EXPECT_PANIC(lsq->commitBlock(0, frame(2)), "older blocks");
}

/**
 * Seeded random sequences of map, load, store, flush and commit,
 * checked against a brute-force model rescanned from scratch on every
 * check. The model is the LSQ's observable contract: a load's value
 * is architectural memory overlaid by every older resolved store,
 * youngest last; it is Final when its address is Final and every
 * older store is resolved with a Final address, the overlapping ones
 * with Final data too; a block may commit when every store is
 * resolved and Final and every load has replied Final.
 */
class LsqRandom
    : public ::testing::TestWithParam<std::tuple<pred::DepPolicy,
                                                 unsigned, unsigned>>
{
  protected:
    struct Op
    {
        bool isStore = false;
        unsigned bytes = 8;
        bool known = false; ///< a request / resolve was sent
        Addr addr = 0;
        Word data = 0;
        bool addrFinal = false;
        bool dataFinal = false;
        std::uint32_t wave = 0;
        bool replied = false;
        Word lastValue = 0;
        ValState lastState = ValState::Spec;
    };

    struct Block
    {
        DynBlockSeq seq = 0;
        unsigned frame = 0;
        std::vector<Op> ops;
    };

    static bool
    covers(const Op &st, Addr a)
    {
        return a >= st.addr && a < st.addr + st.bytes;
    }

    /** Brute-force value of load `l` of window block `b`. */
    Word
    expectValue(std::size_t b, Lsid l) const
    {
        const Op &ld = window[b].ops[l];
        Word v = modelMem.read(ld.addr, ld.bytes);
        for (std::size_t ob = 0; ob <= b; ++ob) {
            const std::vector<Op> &ops = window[ob].ops;
            std::size_t end = ob == b ? l : ops.size();
            for (std::size_t s = 0; s < end; ++s) {
                const Op &st = ops[s];
                if (!st.isStore || !st.known)
                    continue;
                for (unsigned i = 0; i < ld.bytes; ++i) {
                    if (!covers(st, ld.addr + i))
                        continue;
                    Word byte = (st.data >> (8 * (ld.addr + i - st.addr))) &
                                0xff;
                    v = (v & ~(Word{0xff} << (8 * i))) | byte << (8 * i);
                }
            }
        }
        return v;
    }

    /** Brute-force finality of load `l` of window block `b`. */
    bool
    expectFinal(std::size_t b, Lsid l) const
    {
        const Op &ld = window[b].ops[l];
        if (!ld.addrFinal)
            return false;
        for (std::size_t ob = 0; ob <= b; ++ob) {
            const std::vector<Op> &ops = window[ob].ops;
            std::size_t end = ob == b ? l : ops.size();
            for (std::size_t s = 0; s < end; ++s) {
                const Op &st = ops[s];
                if (!st.isStore)
                    continue;
                if (!st.known || !st.addrFinal)
                    return false;
                bool overlap = st.addr < ld.addr + ld.bytes &&
                               ld.addr < st.addr + st.bytes;
                if (overlap && !st.dataFinal)
                    return false;
            }
        }
        return true;
    }

    bool
    expectBlockFinal(const Block &blk) const
    {
        for (const Op &op : blk.ops) {
            if (op.isStore ? !(op.known && op.addrFinal && op.dataFinal)
                           : !(op.replied &&
                               op.lastState == ValState::Final))
                return false;
        }
        return true;
    }

    std::size_t
    indexOf(DynBlockSeq seq) const
    {
        for (std::size_t b = 0; b < window.size(); ++b)
            if (window[b].seq == seq)
                return b;
        return window.size();
    }

    void
    onReply(const LoadReply &r)
    {
        std::size_t b = indexOf(r.seq);
        ASSERT_LT(b, window.size()) << "reply for a block not in flight";
        EXPECT_EQ(r.frame, window[b].frame);
        Op &op = window[b].ops[r.lsid];
        ASSERT_FALSE(op.isStore);
        EXPECT_EQ(r.value, expectValue(b, r.lsid))
            << "seq " << r.seq << " lsid " << r.lsid;
        EXPECT_EQ(r.state == ValState::Final, expectFinal(b, r.lsid))
            << "seq " << r.seq << " lsid " << r.lsid;
        op.replied = true;
        op.lastValue = r.value;
        op.lastState = r.state;
    }

    /** After every step: replies current, commit check exact. */
    void
    checkWindow(unsigned budget)
    {
        ASSERT_EQ(lsq->numBlocks(), window.size());
        for (std::size_t b = 0; b < window.size(); ++b) {
            for (Lsid l = 0; l < window[b].ops.size(); ++l) {
                const Op &op = window[b].ops[l];
                if (op.isStore || !op.replied)
                    continue;
                bool fin = expectFinal(b, l);
                EXPECT_EQ(op.lastState == ValState::Final, fin)
                    << "seq " << window[b].seq << " lsid " << l;
                // With a resend budget a correction may wait for the
                // commit wave; without one every reply is current.
                if (budget == 0 || fin) {
                    EXPECT_EQ(op.lastValue, expectValue(b, l))
                        << "seq " << window[b].seq << " lsid " << l;
                }
            }
            EXPECT_EQ(lsq->blockMemFinal(window[b].frame),
                      expectBlockFinal(window[b]))
                << "seq " << window[b].seq;
        }
    }

    std::vector<Block> window; ///< oldest first
    mem::SparseMemory modelMem;
    std::unique_ptr<LoadStoreQueue> lsq;
};

TEST_P(LsqRandom, MatchesBruteForceRescan)
{
    const auto [policy, frames, budget] = GetParam();
    const Addr kBase = 0x1000;

    // Three block shapes mixing 4- and 8-byte accesses.
    compiler::ProgramBuilder pb("random");
    {
        auto &b = pb.newBlock("ls");
        compiler::Val a = b.readReg(1);
        b.store(a, b.load(a, 8), 8);
        b.branchHalt();
    }
    {
        auto &b = pb.newBlock("slsl");
        compiler::Val a = b.readReg(1);
        b.store(a, a, 4);
        compiler::Val x = b.load(a, 8);
        b.store(a, x, 8);
        b.writeReg(2, b.load(a, 4));
        b.branchHalt();
    }
    {
        auto &b = pb.newBlock("lls");
        compiler::Val a = b.readReg(1);
        compiler::Val x = b.load(a, 8);
        b.store(a, b.load(a, 4), 8);
        b.writeReg(2, x);
        b.branchHalt();
    }
    isa::Program prog = pb.build();

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        StatSet stats("t");
        mem::SparseMemory memory;
        mem::Hierarchy hier(mem::HierarchyParams{}, stats);
        modelMem = mem::SparseMemory{};
        for (Addr a = kBase; a < kBase + 64; a += 8) {
            Word w = rng.next();
            memory.write(a, 8, w);
            modelMem.write(a, 8, w);
        }
        auto dep = pred::makeDependencePredictor(policy, nullptr, stats);
        LsqParams p;
        p.maxResendsPerLoad = budget;
        window.clear();
        lsq = std::make_unique<LoadStoreQueue>(
            p, frames, &hier, &memory, dep.get(), stats,
            [this](const LoadReply &r) { onReply(r); },
            [](const Violation &) {});

        std::vector<unsigned> free_frames;
        for (unsigned f = frames; f-- > 0;)
            free_frames.push_back(f);
        std::vector<std::pair<unsigned, DynBlockSeq>> flushed;
        DynBlockSeq next_seq = 1;
        Cycle now = 0;
        auto pick_addr = [&] { return kBase + 4 * rng.below(6); };

        for (int step = 0; step < 600; ++step) {
            now += rng.below(3);
            unsigned what = static_cast<unsigned>(rng.below(100));
            if (what < 15 && !free_frames.empty()) {
                // Map; seqs jump after flushes, as in the core.
                Block blk;
                blk.seq = next_seq++;
                blk.frame = free_frames.back();
                free_frames.pop_back();
                BlockId id = static_cast<BlockId>(rng.below(3));
                const isa::Block &ib = prog.block(id);
                blk.ops.resize(ib.numMemOps());
                for (const isa::Instruction &in : ib.insts()) {
                    if (!isa::isMem(in.op))
                        continue;
                    blk.ops[in.lsid].isStore = isa::isStore(in.op);
                    blk.ops[in.lsid].bytes =
                        isa::opInfo(in.op).accessBytes;
                }
                window.push_back(blk);
                lsq->mapBlock(blk.frame, blk.seq, blk.seq, id, ib);
            } else if (what < 60 && !window.empty()) {
                // A load address or a store resolution, respecting the
                // protocol: Final parts never change again.
                std::size_t b = rng.below(window.size());
                Block &blk = window[b];
                Lsid l = static_cast<Lsid>(rng.below(blk.ops.size()));
                Op &op = blk.ops[l];
                ++op.wave;
                if (!op.addrFinal)
                    op.addr = pick_addr();
                bool af = op.addrFinal || rng.chance(1, 2);
                if (op.isStore) {
                    if (!op.dataFinal)
                        op.data = rng.next();
                    bool df = op.dataFinal || rng.chance(1, 2);
                    op.known = true;
                    op.addrFinal = af;
                    op.dataFinal = df;
                    lsq->storeResolve(
                        now, blk.frame, blk.seq, l, op.addr, op.data,
                        af ? ValState::Final : ValState::Spec,
                        df ? ValState::Final : ValState::Spec, op.wave,
                        0);
                } else {
                    op.known = true;
                    op.addrFinal = af;
                    lsq->loadRequest(now, blk.frame, blk.seq, l, op.addr,
                                     af ? ValState::Final
                                        : ValState::Spec,
                                     op.wave, 0);
                }
            } else if (what < 70 && !window.empty()) {
                // Flush from a random block, the oldest included.
                std::size_t b = rng.below(window.size());
                DynBlockSeq from = window[b].seq;
                lsq->flushFrom(from);
                while (window.size() > b) {
                    free_frames.push_back(window.back().frame);
                    flushed.push_back(
                        {window.back().frame, window.back().seq});
                    window.pop_back();
                }
            } else if (what < 75 && !flushed.empty()) {
                // A message for a flushed block must be dropped, even
                // when its frame has been reused.
                auto [f, seq] = flushed[rng.below(flushed.size())];
                lsq->loadRequest(now, f, seq, 0, kBase, ValState::Final,
                                 ~0u, 0);
                lsq->storeResolve(now, f, seq, 0, kBase, 1,
                                  ValState::Final, ValState::Final, ~0u,
                                  0);
            } else if (!window.empty() &&
                       expectBlockFinal(window.front())) {
                // Commit the oldest block and drain its stores.
                Block &oldest = window.front();
                lsq->commitBlock(now, oldest.frame);
                for (const Op &op : oldest.ops)
                    if (op.isStore)
                        modelMem.write(op.addr, op.bytes, op.data);
                free_frames.push_back(oldest.frame);
                window.erase(window.begin());
                for (Addr a = kBase; a < kBase + 64; a += 8)
                    ASSERT_EQ(memory.read(a, 8), modelMem.read(a, 8));
            }
            checkWindow(budget);
            if (::testing::Test::HasFailure())
                FAIL() << "first mismatch at step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesFramesBudgets, LsqRandom,
    ::testing::Values(
        std::make_tuple(pred::DepPolicy::Blind, 8u, 0u),
        std::make_tuple(pred::DepPolicy::Blind, 16u, 4u),
        std::make_tuple(pred::DepPolicy::Conservative, 8u, 4u),
        std::make_tuple(pred::DepPolicy::StoreSets, 16u, 0u)));

} // namespace
} // namespace edge::lsq
