/**
 * @file
 * The paper's headline claims as ctest assertions. Each figure row of
 * bench/figures.cc that carries claims runs its own grid at a cheap
 * size, and every claim must hold. The checks are on direction (who
 * beats whom, does the curve still rise), never on exact values, so a
 * timing-model change that keeps the paper's shape passes.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "bench/figures.hh"

using namespace edge;

namespace {

/** Small enough for tier-1, large enough for every shape to show. */
constexpr std::uint64_t kIterations = 200;

void
expectClaimsHold(const std::string &name)
{
    const bench::Figure *fig = bench::findFigure(name);
    ASSERT_NE(fig, nullptr);
    ASSERT_NE(fig->claims, nullptr);
    std::vector<bench::RunRow> rows =
        bench::runSpecs(fig->grid.specs(kIterations));
    for (const bench::RunRow &row : rows)
        ASSERT_TRUE(row.ok()) << row.failure();

    std::vector<bench::Claim> claims = fig->claims({fig->grid, rows});
    EXPECT_FALSE(claims.empty());
    for (const bench::Claim &claim : claims) {
        std::printf("figure %s: %s: %s\n", name.c_str(),
                    claim.held ? "holds" : "FAILS", claim.what.c_str());
        EXPECT_TRUE(claim.held)
            << "figure " << name << ": " << claim.what;
    }
}

// Fig. 5: every speculative mechanism beats conservative; G1: DSRE
// beats both flush machines; G2: DSRE reaches 80% of the oracle.
TEST(PaperClaims, Figure5Speedups)
{
    expectClaimsHold("5");
}

// Fig. 6: at 16 frames DSRE out-scales both flush machines, and it
// still gains from 8 to 16 frames.
TEST(PaperClaims, Figure6WindowScaling)
{
    expectClaimsHold("6");
}

} // namespace
