/**
 * @file
 * Unit tests for the memory substrate: byte-accurate sparse memory,
 * the timestamp cache model (hits, misses, LRU, MSHR merging and
 * exhaustion, writebacks, bank ports), the DRAM model, and the
 * assembled hierarchy.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/sparse_memory.hh"

namespace edge::mem {
namespace {

TEST(SparseMemory, ReadBackWhatWasWritten)
{
    SparseMemory m;
    m.write(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u); // little-endian
}

TEST(SparseMemory, UntouchedBytesReadZero)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0xdeadbeef, 8), 0u);
    EXPECT_EQ(m.pagesTouched(), 0u);
}

TEST(SparseMemory, PartialOverwriteMergesBytes)
{
    SparseMemory m;
    m.write(0x10, 8, 0xffffffffffffffffull);
    m.write(0x12, 2, 0xaabb);
    EXPECT_EQ(m.read(0x10, 8), 0xffffffffaabbffffull);
}

TEST(SparseMemory, CrossesPageBoundaries)
{
    SparseMemory m;
    Addr edge_addr = 0x2000 - 4; // 4 KiB pages
    m.write(edge_addr, 8, 0x0102030405060708ull);
    EXPECT_EQ(m.read(edge_addr, 8), 0x0102030405060708ull);
    EXPECT_EQ(m.pagesTouched(), 2u);
}

TEST(SparseMemory, BulkInitAndEquality)
{
    SparseMemory a, b;
    std::uint8_t data[] = {1, 2, 3, 4};
    a.writeBytes(0x100, data, 4);
    EXPECT_FALSE(a.equals(b));
    b.writeBytes(0x100, data, 4);
    EXPECT_TRUE(a.equals(b));
    // Zero writes equal untouched memory.
    a.write(0x9000, 8, 0);
    EXPECT_TRUE(a.equals(b));
}

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "c";
    p.sizeBytes = 1024; // 8 sets x 2 ways x 64 B
    p.assoc = 2;
    p.lineBytes = 64;
    p.hitLatency = 2;
    p.numMshrs = 2;
    return p;
}

TEST(Cache, HitAfterMiss)
{
    StatSet stats("t");
    DramParams dp;
    dp.latency = 100;
    Dram dram(dp, stats);
    Cache c(smallCache(), &dram, stats);

    Cycle miss_done = c.access(0, 0x1000, false);
    EXPECT_GE(miss_done, 100u);
    Cycle hit_done = c.access(miss_done, 0x1000, false);
    EXPECT_EQ(hit_done, miss_done + 2);
    EXPECT_EQ(stats.counterValue("c.hits"), 1u);
    EXPECT_EQ(stats.counterValue("c.misses"), 1u);
}

TEST(Cache, HitOnFillingLineWaitsForFill)
{
    StatSet stats("t");
    DramParams dp;
    dp.latency = 100;
    Dram dram(dp, stats);
    Cache c(smallCache(), &dram, stats);

    Cycle fill = c.access(0, 0x1000, false);
    // Re-access while the line is still in flight: data at fill time.
    Cycle t = c.access(1, 0x1040, false); // other line, bank busy only
    (void)t;
    Cycle again = c.access(2, 0x1008, false); // same line as first
    EXPECT_GE(again, fill);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    StatSet stats("t");
    Cache c(smallCache(), nullptr, stats);
    // Three lines mapping to the same set (stride = 8 sets x 64 B).
    Addr a = 0x0000, b = 0x0200, d = 0x0400;
    Cycle t = 0;
    t = c.access(t, a, false);
    t = c.access(t, b, false);
    t = c.access(t, a, false);      // a is now MRU
    t = c.access(t, d, false);      // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    StatSet stats("t");
    DramParams dp;
    Dram dram(dp, stats);
    Cache c(smallCache(), &dram, stats);
    Cycle t = 0;
    t = c.access(t, 0x0000, true); // dirty
    t = c.access(t, 0x0200, false);
    t = c.access(t, 0x0400, false); // evicts dirty 0x0000
    EXPECT_EQ(stats.counterValue("c.writebacks"), 1u);
    EXPECT_GE(stats.counterValue("dram.writes"), 1u);
}

TEST(Cache, SameLineRequestsShareOneFill)
{
    // The tag is installed at allocate time, so a second request to
    // a line already being filled becomes a hit-under-fill (the
    // timing equivalent of an MSHR merge): one memory read total.
    StatSet stats("t");
    DramParams dp;
    dp.latency = 100;
    Dram dram(dp, stats);
    Cache c(smallCache(), &dram, stats);
    Cycle f1 = c.access(0, 0x1000, false);
    Cycle f2 = c.access(1, 0x1010, false); // same line, in flight
    EXPECT_LE(f2, f1);
    EXPECT_GE(f2, 100u); // still waits for the fill
    EXPECT_EQ(stats.counterValue("dram.reads"), 1u);
    EXPECT_EQ(stats.counterValue("c.hits"), 1u);
}

TEST(Cache, MshrExhaustionDelays)
{
    StatSet stats("t");
    DramParams dp;
    dp.latency = 100;
    Dram dram(dp, stats);
    Cache c(smallCache(), &dram, stats); // 2 MSHRs
    (void)c.access(0, 0x1000, false);
    (void)c.access(1, 0x2000, false);
    Cycle third = c.access(2, 0x3000, false); // must wait for an MSHR
    EXPECT_GE(third, 100u);
    EXPECT_EQ(stats.counterValue("c.mshr_stalls"), 1u);
}

TEST(Cache, InvalidateAllDropsEverything)
{
    StatSet stats("t");
    Cache c(smallCache(), nullptr, stats);
    (void)c.access(0, 0x1000, false);
    EXPECT_TRUE(c.probe(0x1000));
    c.invalidateAll();
    EXPECT_FALSE(c.probe(0x1000));
}

TEST(Dram, LatencyAndChannelOccupancy)
{
    StatSet stats("t");
    DramParams p;
    p.latency = 100;
    p.cyclesPerLine = 4;
    Dram d(p, stats);
    EXPECT_EQ(d.access(10, 0x0, false), 110u);
    // The channel was busy until 14; the next read starts then.
    EXPECT_EQ(d.access(10, 0x40, false), 114u);
    EXPECT_EQ(stats.counterValue("dram.reads"), 2u);
}

TEST(Hierarchy, BankInterleavingByLine)
{
    StatSet stats("t");
    HierarchyParams p;
    Hierarchy h(p, stats);
    EXPECT_EQ(h.bankOf(0x00), h.bankOf(0x3f));  // same 64 B line
    EXPECT_NE(h.bankOf(0x00), h.bankOf(0x40));  // adjacent lines
    unsigned b0 = h.bankOf(0);
    EXPECT_EQ(h.bankOf(0 + 64ull * p.numDBanks), b0); // wraps
}

TEST(Hierarchy, BankOfMatchesDivisionForEveryBankCount)
{
    // The shift/mask form must equal (addr / lineBytes) % numDBanks,
    // power-of-two bank counts or not, for either line size.
    Rng rng(17);
    for (unsigned line : {32u, 64u}) {
        for (unsigned banks : {1u, 2u, 3u, 4u, 6u, 8u}) {
            StatSet stats("t");
            HierarchyParams p;
            p.lineBytes = line;
            p.numDBanks = banks;
            Hierarchy h(p, stats);
            for (int i = 0; i < 2000; ++i) {
                Addr a = i < 1000 ? rng.next() : rng.below(1 << 16);
                ASSERT_EQ(h.bankOf(a), (a / line) % banks)
                    << "line " << line << " banks " << banks << " addr "
                    << a;
            }
        }
    }
}

TEST(Hierarchy, ReadsArePerBankIndependent)
{
    StatSet stats("t");
    HierarchyParams p;
    Hierarchy h(p, stats);
    // Warm both lines (cold misses serialise on the DRAM channel).
    Cycle w = std::max(h.dataRead(0, 0x000), h.dataRead(0, 0x040));
    Cycle a = h.dataRead(w, 0x000);
    Cycle b = h.dataRead(w, 0x040); // different bank: no port clash
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, w + p.l1dHitLatency);
}

TEST(Hierarchy, InstFetchesHitAfterWarmup)
{
    StatSet stats("t");
    HierarchyParams p;
    Hierarchy h(p, stats);
    Cycle first = h.instFetch(0, 0x40000000);
    Cycle second = h.instFetch(first, 0x40000000);
    EXPECT_GT(first, second - first); // second is a short hit
    EXPECT_EQ(stats.counterValue("l1i.hits"), 1u);
}

TEST(Hierarchy, ResetRestoresColdState)
{
    StatSet stats("t");
    HierarchyParams p;
    Hierarchy h(p, stats);
    (void)h.dataRead(0, 0x100);
    EXPECT_TRUE(h.dataProbe(0x100));
    h.reset();
    EXPECT_FALSE(h.dataProbe(0x100));
}

} // namespace
} // namespace edge::mem
