#include "core/program_image.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edge::core {

ProgramImage::ProgramImage(const isa::Program &program) : _prog(program)
{
    std::string why;
    fatal_if(!program.validate(&why), "invalid program: %s",
             why.c_str());
}

std::uint64_t
ProgramImage::geomKey(const compiler::GridGeom &geom)
{
    return (static_cast<std::uint64_t>(geom.rows) << 42) |
           (static_cast<std::uint64_t>(geom.cols) << 21) |
           static_cast<std::uint64_t>(geom.slotsPerNode);
}

const Layout &
ProgramImage::layout(const compiler::GridGeom &geom) const
{
    std::lock_guard<std::mutex> lock(_mu);
    auto &slot = _byGeom[geomKey(geom)];
    if (!slot) {
        auto built = std::make_unique<Layout>();
        built->maskWords = (geom.numNodes() + 63) / 64;
        built->placements.reserve(_prog.numBlocks());
        built->localOf.resize(_prog.numBlocks());
        built->nodeMasks.assign(_prog.numBlocks() * built->maskWords, 0);
        std::vector<std::uint16_t> fill(geom.numNodes());
        for (std::size_t b = 0; b < _prog.numBlocks(); ++b) {
            built->placements.push_back(compiler::placeBlock(
                _prog.block(static_cast<BlockId>(b)), geom));
            const auto &node_of = built->placements.back().nodeOf;
            std::uint64_t *mask =
                built->nodeMasks.data() + b * built->maskWords;
            std::fill(fill.begin(), fill.end(), 0);
            auto &local_of = built->localOf[b];
            local_of.reserve(node_of.size());
            for (std::uint16_t node : node_of) {
                mask[node / 64] |= std::uint64_t{1} << (node % 64);
                std::uint16_t local = fill[node]++;
                panic_if(local >= geom.slotsPerNode,
                         "placement overflows node %u", node);
                local_of.push_back(local);
            }
        }
        slot = std::move(built);
    }
    return *slot;
}

} // namespace edge::core
