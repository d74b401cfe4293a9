/**
 * @file
 * Unit tests for the prediction machinery: the next-block (exit)
 * predictor with speculative history repair, the store-set
 * dependence predictor (training rules, map-time dependence
 * capture, LFST lifecycle), the perfect oracle, and the simple
 * blind/conservative policies.
 */

#include <gtest/gtest.h>

#include "predictor/dependence.hh"
#include "predictor/next_block.hh"
#include "predictor/oracle.hh"
#include "predictor/store_sets.hh"

namespace edge::pred {
namespace {

TEST(NextBlock, LearnsAStableExit)
{
    StatSet stats("t");
    NextBlockPredictor p(NextBlockParams{}, stats);
    // Simulate the real protocol: predict, push, later train with
    // the snapshot taken at prediction time.
    unsigned last = 0;
    for (int i = 0; i < 8; ++i) {
        last = p.predict(7);
        auto snap = p.pushSpeculativeHistory(1);
        p.update(7, 1, snap);
    }
    EXPECT_EQ(last, 1u); // converged on the loop exit
}

TEST(NextBlock, HysteresisResistsOneOff)
{
    StatSet stats("t");
    NextBlockParams params;
    params.historyBits = 0; // single context for this test
    NextBlockPredictor p(params, stats);
    for (int i = 0; i < 4; ++i)
        p.update(3, 2, 0);
    p.update(3, 0, 0); // one disagreement
    EXPECT_EQ(p.predict(3), 2u);
    // But persistent change eventually retrains.
    for (int i = 0; i < 6; ++i)
        p.update(3, 0, 0);
    EXPECT_EQ(p.predict(3), 0u);
}

TEST(NextBlock, HistorySnapshotsRestoreExactly)
{
    StatSet stats("t");
    NextBlockPredictor p(NextBlockParams{}, stats);
    unsigned before = p.predict(9);
    auto snap = p.pushSpeculativeHistory(3);
    p.pushSpeculativeHistory(1);
    p.restoreHistory(snap);
    EXPECT_EQ(p.predict(9), before);
}

TEST(NextBlock, OutcomeCounters)
{
    StatSet stats("t");
    NextBlockPredictor p(NextBlockParams{}, stats);
    p.recordOutcome(true);
    p.recordOutcome(false);
    p.recordOutcome(true);
    EXPECT_EQ(stats.counterValue("nbp.correct"), 2u);
    EXPECT_EQ(stats.counterValue("nbp.wrong"), 1u);
}

// ---------------------------------------------------------------------------
// Store sets.
// ---------------------------------------------------------------------------

class StoreSetsTest : public ::testing::Test
{
  protected:
    StoreSetsTest() : pred(StoreSetsParams{}, stats) {}

    bool
    mustWait(DynBlockSeq seq, BlockId blk, Lsid lsid, CapturedDep dep,
             const std::vector<UnresolvedStore> &older)
    {
        LoadQuery q;
        q.seq = seq;
        q.block = blk;
        q.lsid = lsid;
        q.olderUnresolved = &older;
        q.dep = dep;
        return pred.loadMustWait(q);
    }

    StatSet stats{"t"};
    StoreSetsPredictor pred;
};

TEST_F(StoreSetsTest, UntrainedLoadsNeverWait)
{
    CapturedDep dep = pred.onLoadMapped(10, 0, 1);
    EXPECT_FALSE(dep.valid);
    std::vector<UnresolvedStore> older = {{9, 9, 0, 2}};
    EXPECT_FALSE(mustWait(10, 0, 1, dep, older));
}

TEST_F(StoreSetsTest, ViolationTrainsThePair)
{
    pred.onViolation(/*load*/ 0, 1, /*store*/ 0, 2);
    EXPECT_TRUE(pred.hasSet(0, 1));
    EXPECT_TRUE(pred.hasSet(0, 2));

    // Next instance: the store maps first (fetch order), then the
    // load captures it.
    pred.onStoreMapped(20, 0, 2);
    CapturedDep dep = pred.onLoadMapped(21, 0, 1);
    ASSERT_TRUE(dep.valid);
    EXPECT_EQ(dep.seq, 20u);
    EXPECT_EQ(dep.lsid, 2u);

    std::vector<UnresolvedStore> older = {{20, 20, 0, 2}};
    EXPECT_TRUE(mustWait(21, 0, 1, dep, older));
    EXPECT_EQ(stats.counterValue("storesets.waits"), 1u);
}

TEST_F(StoreSetsTest, WaitEndsWhenDepResolves)
{
    pred.onViolation(0, 1, 0, 2);
    pred.onStoreMapped(20, 0, 2);
    CapturedDep dep = pred.onLoadMapped(21, 0, 1);
    // The store has resolved: it is no longer in olderUnresolved.
    std::vector<UnresolvedStore> older;
    EXPECT_FALSE(mustWait(21, 0, 1, dep, older));
}

TEST_F(StoreSetsTest, LfstClearsOnResolve)
{
    pred.onViolation(0, 1, 0, 2);
    pred.onStoreMapped(20, 0, 2);
    pred.onStoreResolved(20, 0, 2);
    CapturedDep dep = pred.onLoadMapped(21, 0, 1);
    EXPECT_FALSE(dep.valid); // no in-flight store instance to fear
}

TEST_F(StoreSetsTest, LoadCapturesOnlyOlderFetches)
{
    // The load maps before this iteration's store: it must not
    // capture its own block's younger store.
    pred.onViolation(0, 1, 0, 2);
    CapturedDep dep = pred.onLoadMapped(30, 0, 1);
    EXPECT_FALSE(dep.valid);
    pred.onStoreMapped(30, 0, 2); // maps after the load
}

TEST_F(StoreSetsTest, MergeAdoptsOneSet)
{
    pred.onViolation(0, 1, 0, 2); // set A: {(0,1), (0,2)}
    pred.onViolation(1, 3, 1, 4); // set B: {(1,3), (1,4)}
    pred.onViolation(0, 1, 1, 4); // merge A and B
    // Now a store from the old B set must be captured by an A load.
    pred.onStoreMapped(40, 1, 4);
    CapturedDep dep = pred.onLoadMapped(41, 0, 1);
    EXPECT_TRUE(dep.valid);
    EXPECT_EQ(dep.seq, 40u);
}

TEST_F(StoreSetsTest, FlushInvalidatesInFlightEntries)
{
    pred.onViolation(0, 1, 0, 2);
    pred.onStoreMapped(50, 0, 2);
    pred.onFlush(45);
    CapturedDep dep = pred.onLoadMapped(51, 0, 1);
    EXPECT_FALSE(dep.valid); // the captured instance was squashed
}

// ---------------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------------

std::vector<compiler::BlockTrace>
twoBlockTrace()
{
    std::vector<compiler::BlockTrace> trace(2);
    trace[0].block = 7;
    trace[0].exitIndex = 1;
    trace[0].memOps = {{true, 0x100, 8, 0}}; // store [0x100,0x108)
    trace[1].block = 8;
    trace[1].exitIndex = 0;
    trace[1].memOps = {{false, 0x104, 4, 0}}; // load overlaps it
    return trace;
}

TEST(OracleDb, ExposesTheCommittedPath)
{
    OracleDb db(twoBlockTrace());
    EXPECT_EQ(db.numBlocks(), 2u);
    EXPECT_EQ(db.blockAt(0), 7u);
    EXPECT_EQ(db.blockAt(1), 8u);
    EXPECT_EQ(db.blockAt(5), kInvalidBlock);
    EXPECT_EQ(db.exitAt(0), 1u);
    ASSERT_NE(db.memOp(0, 0), nullptr);
    EXPECT_TRUE(db.memOp(0, 0)->isStore);
    EXPECT_EQ(db.memOp(0, 1), nullptr);
    EXPECT_EQ(db.memOp(9, 0), nullptr);
}

TEST(OraclePredictor, WaitsExactlyOnTrueConflicts)
{
    OracleDb db(twoBlockTrace());
    StatSet stats("t");
    OraclePredictor p(db, stats);

    std::vector<UnresolvedStore> older = {{1, 0, 7, 0}};
    LoadQuery q;
    q.seq = 2;
    q.archIdx = 1;
    q.block = 8;
    q.lsid = 0;
    q.addr = 0x104;
    q.bytes = 4;
    q.olderUnresolved = &older;
    EXPECT_TRUE(p.loadMustWait(q)); // store will overlap

    q.addr = 0x200; // disjoint address: no need to wait
    EXPECT_FALSE(p.loadMustWait(q));
}

TEST(OraclePredictor, IgnoresWrongPathBlocks)
{
    OracleDb db(twoBlockTrace());
    StatSet stats("t");
    OraclePredictor p(db, stats);
    std::vector<UnresolvedStore> older = {{1, 0, 7, 0}};
    LoadQuery q;
    q.archIdx = 1;
    q.block = 99; // does not match the trace: wrong path
    q.addr = 0x104;
    q.bytes = 4;
    q.olderUnresolved = &older;
    EXPECT_FALSE(p.loadMustWait(q));
    EXPECT_EQ(stats.counterValue("oracle.off_path"), 1u);
}

// ---------------------------------------------------------------------------
// Simple policies and the factory.
// ---------------------------------------------------------------------------

TEST(Policies, BlindNeverWaits)
{
    StatSet stats("t");
    auto p = makeDependencePredictor(DepPolicy::Blind, nullptr, stats);
    std::vector<UnresolvedStore> older = {{1, 1, 0, 0}};
    LoadQuery q;
    q.olderUnresolved = &older;
    EXPECT_FALSE(p->loadMustWait(q));
    EXPECT_STREQ(enumName(p->policy()), "blind");
}

TEST(Policies, ConservativeWaitsForAnyUnresolvedStore)
{
    StatSet stats("t");
    auto p = makeDependencePredictor(DepPolicy::Conservative, nullptr,
                                     stats);
    std::vector<UnresolvedStore> older = {{1, 1, 0, 0}};
    LoadQuery q;
    q.olderUnresolved = &older;
    EXPECT_TRUE(p->loadMustWait(q));
    older.clear();
    EXPECT_FALSE(p->loadMustWait(q));
}

TEST(Policies, NamesRoundTrip)
{
    EXPECT_STREQ(enumName(DepPolicy::Blind), "blind");
    EXPECT_STREQ(enumName(DepPolicy::Conservative), "conservative");
    EXPECT_STREQ(enumName(DepPolicy::StoreSets), "store-sets");
    EXPECT_STREQ(enumName(DepPolicy::Oracle), "oracle");
}

TEST(Ranges, OverlapEdgeCases)
{
    EXPECT_TRUE(rangesOverlap(0x100, 8, 0x107, 1));
    EXPECT_FALSE(rangesOverlap(0x100, 8, 0x108, 1)); // adjacent
    EXPECT_FALSE(rangesOverlap(0x108, 1, 0x100, 8));
    EXPECT_TRUE(rangesOverlap(0x100, 1, 0x100, 1));
    EXPECT_TRUE(rangesOverlap(0x100, 8, 0x0fc, 8));
}

} // namespace
} // namespace edge::pred
