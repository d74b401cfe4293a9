#include "net/route.hh"

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

} // namespace edge::net
