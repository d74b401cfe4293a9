/**
 * @file
 * Coordinates and deterministic X-Y routing for the operand
 * micronetwork. Split from the Mesh template so routing is testable
 * on its own and shared by any payload instantiation.
 */

#ifndef EDGE_NET_ROUTE_HH
#define EDGE_NET_ROUTE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace edge::net {

/** A position in the micronetwork (row 0 / col 0 are edge tiles). */
struct Coord
{
    std::uint16_t row = 0;
    std::uint16_t col = 0;

    bool operator==(const Coord &o) const
    {
        return row == o.row && col == o.col;
    }
};

/** Identifies one unidirectional link between adjacent routers. */
using LinkId = std::uint32_t;

/** Geometry of the mesh (routers, not execution nodes). */
struct MeshGeom
{
    unsigned rows = 5; ///< grid rows + 1 edge row (register file)
    unsigned cols = 5; ///< grid cols + 1 edge column (LSQ / D-cache)
};

/**
 * The sequence of links a packet traverses from src to dst under
 * X-then-Y dimension-order routing. Empty when src == dst. The mesh
 * tabulates every route once, when it is built.
 */
std::vector<LinkId> routeXY(const MeshGeom &geom, Coord src, Coord dst);

/** Number of hops between two coordinates (Manhattan distance). */
unsigned hopCount(Coord src, Coord dst);

/** Total number of distinct links in the mesh (for table sizing). */
std::size_t numLinks(const MeshGeom &geom);

/**
 * Every X-Y route of one mesh geometry, tabulated: the route from
 * router s to router d (routers numbered row-major) is
 * links[off[s * n + d] .. off[s * n + d + 1]), n = rows * cols.
 */
struct RouteTable
{
    std::vector<std::uint32_t> off;
    std::vector<LinkId> links;
};

/**
 * The route table of `geom`, built on first use and shared by every
 * mesh of that geometry. Thread-safe; the table lives as long as the
 * process, so the reference never dangles.
 */
const RouteTable &routeTable(const MeshGeom &geom);

} // namespace edge::net

#endif // EDGE_NET_ROUTE_HH
