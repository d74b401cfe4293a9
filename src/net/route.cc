#include "net/route.hh"

#include <map>
#include <memory>
#include <mutex>

#include "common/logging.hh"

namespace edge::net {

namespace {

// Four outgoing directions per router; link id = router * 4 + dir.
enum Dir : unsigned { East = 0, West = 1, South = 2, North = 3 };

LinkId
linkFrom(const MeshGeom &geom, Coord at, Dir dir)
{
    return (static_cast<LinkId>(at.row) * geom.cols + at.col) * 4 + dir;
}

} // namespace

std::size_t
numLinks(const MeshGeom &geom)
{
    return static_cast<std::size_t>(geom.rows) * geom.cols * 4;
}

unsigned
hopCount(Coord src, Coord dst)
{
    unsigned dr = src.row > dst.row ? src.row - dst.row : dst.row - src.row;
    unsigned dc = src.col > dst.col ? src.col - dst.col : dst.col - src.col;
    return dr + dc;
}

std::vector<LinkId>
routeXY(const MeshGeom &geom, Coord src, Coord dst)
{
    panic_if(src.row >= geom.rows || src.col >= geom.cols ||
                 dst.row >= geom.rows || dst.col >= geom.cols,
             "coordinate outside the %ux%u mesh", geom.rows, geom.cols);
    std::vector<LinkId> path;
    path.reserve(hopCount(src, dst));
    Coord at = src;
    while (at.col != dst.col) {
        Dir d = at.col < dst.col ? East : West;
        path.push_back(linkFrom(geom, at, d));
        at.col = d == East ? at.col + 1 : at.col - 1;
    }
    while (at.row != dst.row) {
        Dir d = at.row < dst.row ? South : North;
        path.push_back(linkFrom(geom, at, d));
        at.row = d == South ? at.row + 1 : at.row - 1;
    }
    return path;
}

const RouteTable &
routeTable(const MeshGeom &geom)
{
    static std::mutex mu;
    static std::map<std::pair<unsigned, unsigned>,
                    std::unique_ptr<RouteTable>>
        byGeom;
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = byGeom[{geom.rows, geom.cols}];
    if (!slot) {
        auto coordOf = [&](unsigned router) {
            return Coord{static_cast<std::uint16_t>(router / geom.cols),
                         static_cast<std::uint16_t>(router % geom.cols)};
        };
        unsigned n = geom.rows * geom.cols;
        auto table = std::make_unique<RouteTable>();
        std::size_t links = 0;
        for (unsigned s = 0; s < n; ++s)
            for (unsigned d = 0; d < n; ++d)
                links += hopCount(coordOf(s), coordOf(d));
        table->links.reserve(links);
        table->off.reserve(std::size_t{n} * n + 1);
        table->off.push_back(0);
        for (unsigned s = 0; s < n; ++s) {
            for (unsigned d = 0; d < n; ++d) {
                std::vector<LinkId> path =
                    routeXY(geom, coordOf(s), coordOf(d));
                table->links.insert(table->links.end(), path.begin(),
                                    path.end());
                table->off.push_back(
                    static_cast<std::uint32_t>(table->links.size()));
            }
        }
        slot = std::move(table);
    }
    return *slot;
}

} // namespace edge::net
