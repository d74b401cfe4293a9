/**
 * @file
 * The paper's tables and figures as data: one row per experiment with
 * its grid, default size, printer and the claims its results should
 * show. bench_paper runs the rows; test_paper_claims runs the rows
 * that carry claims at a cheap size, so each grid is spelled once.
 */

#ifndef EDGE_BENCH_FIGURES_HH
#define EDGE_BENCH_FIGURES_HH

#include "bench/bench_util.hh"

namespace edge::bench {

/** A finished grid: rows[grid.cell(k, c, p)] is that cell's run. */
struct Results
{
    const Grid &grid;
    const std::vector<RunRow> &rows;

    const sim::RunResult &
    at(std::size_t k, std::size_t c, std::size_t p = 0) const
    {
        return rows[grid.cell(k, c, p)].result;
    }

    double
    ipc(std::size_t k, std::size_t c, std::size_t p = 0) const
    {
        return at(k, c, p).ipc();
    }

    /** Index of a mechanism / of an axis point's label (panics if
     *  the grid has none). */
    std::size_t config(const std::string &name) const;
    std::size_t point(const std::string &label) const;

    /** Geomean over kernels of ipc(k, c, p) / ipc(k, base_c, base_p). */
    double speedup(std::size_t c, std::size_t p, std::size_t base_c,
                   std::size_t base_p) const;
};

/** One paper claim, with the measured value, and whether it held. */
struct Claim
{
    std::string what;
    bool held;
};

/**
 * One table or figure. A grid row runs `grid`, prints it with `print`
 * and ends in finishBench(); the two tables run no grid and print
 * themselves through `run`, which returns the exit status.
 */
struct Figure
{
    std::string name;      ///< the --figure value
    std::string benchName; ///< `bench` in the --json file
    std::uint64_t iterations = 0; ///< default iteration count
    Grid grid = {};
    void (*print)(const Results &) = nullptr;
    int (*run)(std::uint64_t iterations, unsigned threads) = nullptr;
    /** The claims the results should show (direction, not values). */
    std::vector<Claim> (*claims)(const Results &) = nullptr;
};

/** Every row in the paper's order, tables first. */
const std::vector<Figure> &figures();

/** The row named `name`, or nullptr. */
const Figure *findFigure(const std::string &name);

} // namespace edge::bench

#endif // EDGE_BENCH_FIGURES_HH
