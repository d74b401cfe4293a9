/**
 * @file
 * core/program_image: one decode/validate/place per distinct program,
 * shared read-only across Processors, with per-geometry layouts (node
 * masks for the cycle loop's active-node set, node-local RS indices).
 * The cycle loop itself is pinned by tests/golden/results.txt.
 */

#include <gtest/gtest.h>

#include "core/program_image.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

TEST(ProgramImage, LayoutsAreCachedPerGeometry)
{
    wl::KernelParams kp;
    kp.iterations = 10;
    isa::Program prog = wl::build("gzipish", kp);
    core::ProgramImage image(prog);
    EXPECT_EQ(&image.program(), &prog);

    compiler::GridGeom geom; // default 4x4x8
    const core::Layout &a = image.layout(geom);
    const core::Layout &b = image.layout(geom);
    EXPECT_EQ(&a, &b); // same geometry: the same cached layout
    EXPECT_EQ(a.placements.size(), prog.numBlocks());

    compiler::GridGeom wide = geom;
    wide.cols = 8;
    const core::Layout &c = image.layout(wide);
    EXPECT_NE(&a, &c); // distinct geometry: a distinct layout
    EXPECT_EQ(c.placements.size(), prog.numBlocks());
}

TEST(ProgramImage, NodeMaskIsTheSetOfPlacedNodes)
{
    wl::KernelParams kp;
    kp.iterations = 10;
    isa::Program prog = wl::build("gzipish", kp);
    core::ProgramImage image(prog);
    // 9x9 = 81 nodes: the mask spans two words.
    compiler::GridGeom geom{9, 9, 2};
    const core::Layout &l = image.layout(geom);
    ASSERT_EQ(l.maskWords, 2u);
    for (BlockId b = 0; b < prog.numBlocks(); ++b) {
        std::vector<bool> used(geom.numNodes(), false);
        for (std::uint16_t n : l.placements[b].nodeOf)
            used[n] = true;
        const std::uint64_t *mask = l.nodeMask(b);
        for (unsigned n = 0; n < geom.numNodes(); ++n)
            EXPECT_EQ((mask[n / 64] >> (n % 64)) & 1, used[n] ? 1u : 0u)
                << "block " << b << " node " << n;
    }
}

TEST(ProgramImage, LocalIndicesNumberEachNodesInstructionsInSlotOrder)
{
    wl::KernelParams kp;
    kp.iterations = 10;
    isa::Program prog = wl::build("bzip2ish", kp);
    core::ProgramImage image(prog);
    for (compiler::GridGeom geom :
         {compiler::GridGeom{}, compiler::GridGeom{8, 8, 2}}) {
        const core::Layout &l = image.layout(geom);
        ASSERT_EQ(l.localOf.size(), prog.numBlocks());
        for (BlockId b = 0; b < prog.numBlocks(); ++b) {
            const auto &node_of = l.placements[b].nodeOf;
            ASSERT_EQ(l.localOf[b].size(), node_of.size());
            // The k-th instruction placed on a node gets local slot k.
            std::vector<std::uint16_t> next(geom.numNodes(), 0);
            for (std::size_t s = 0; s < node_of.size(); ++s) {
                EXPECT_EQ(l.localOf[b][s], next[node_of[s]]++)
                    << "block " << b << " slot " << s;
                EXPECT_LT(l.localOf[b][s], geom.slotsPerNode);
            }
        }
    }
}

} // namespace
