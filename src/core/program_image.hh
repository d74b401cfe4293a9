/**
 * @file
 * A shared, immutable program image: validation and static placement
 * are computed once per distinct program and shared read-only across
 * every Processor instance in a sweep cell. Before this existed each
 * Processor re-validated the program and re-placed every block —
 * identical work repeated for all N configs x M seeds of a grid.
 *
 * Placements depend on the grid geometry (rows, cols, slotsPerNode),
 * which parameter sweeps do vary, so the image caches one Layout
 * (placements plus per-block node masks) per distinct geometry. The
 * cache is mutex-guarded and the returned references are stable, so
 * concurrent runShared() jobs can share one image safely.
 */

#ifndef EDGE_CORE_PROGRAM_IMAGE_HH
#define EDGE_CORE_PROGRAM_IMAGE_HH

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "compiler/placement.hh"
#include "isa/program.hh"

namespace edge::core {

/** Every static block placed onto one grid geometry. */
struct Layout
{
    std::vector<compiler::Placement> placements; ///< per static block
    /**
     * Per static block, each instruction's reservation-station index
     * on its node: the k-th instruction placed on a node gets local
     * slot k. Computed once here, so mapping a block is a lookup.
     */
    std::vector<std::vector<std::uint16_t>> localOf;
    /** Words per block in nodeMasks: ceil(numNodes / 64). */
    unsigned maskWords = 0;
    /**
     * Per static block, a bitmap of the grid nodes it has at least one
     * instruction on (bit n of word n / 64); releasing a block's frame
     * visits only those nodes.
     */
    std::vector<std::uint64_t> nodeMasks;

    const std::uint64_t *
    nodeMask(BlockId block) const
    {
        return nodeMasks.data() + std::size_t{block} * maskWords;
    }
};

class ProgramImage
{
  public:
    /**
     * Validate `program` once (fatal if invalid). The program is
     * referenced, not copied: it must outlive the image.
     */
    explicit ProgramImage(const isa::Program &program);

    const isa::Program &program() const { return _prog; }

    /**
     * The layout of every static block under `geom`, computed on
     * first request per distinct geometry and cached. Thread-safe;
     * the returned reference stays valid for the image's lifetime.
     */
    const Layout &layout(const compiler::GridGeom &geom) const;

  private:
    static std::uint64_t geomKey(const compiler::GridGeom &geom);

    const isa::Program &_prog;
    mutable std::mutex _mu;
    mutable std::map<std::uint64_t, std::unique_ptr<Layout>> _byGeom;
};

} // namespace edge::core

#endif // EDGE_CORE_PROGRAM_IMAGE_HH
