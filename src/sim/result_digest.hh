/**
 * @file
 * One FNV-1a digest over everything a timing run simulated. Two runs
 * with equal digests agree on every simulated number. The golden
 * results table uses it; edgebench's digests.txt mixes the same bytes
 * in the same order.
 *
 * Its own header, not simulator.hh: a caller that keeps a function of
 * the same name over the same argument type would otherwise see two
 * candidates through argument-dependent lookup.
 */

#ifndef EDGE_SIM_RESULT_DIGEST_HH
#define EDGE_SIM_RESULT_DIGEST_HH

#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "sim/simulator.hh"

namespace edge::sim {

/** FNV-1a over each cell's cycles, committed instructions, counters
 *  (name, value) and histograms (name, samples, sum, max, buckets),
 *  cells in order. */
inline std::uint64_t
resultDigest(const std::vector<RunResult> &cells)
{
    Fnv1a f;
    for (const RunResult &r : cells) {
        f.mix64(r.cycles);
        f.mix64(r.committedInsts);
        for (const auto &[name, value] : r.counters) {
            f.mix(name);
            f.mix64(value);
        }
        for (const auto &[name, h] : r.histograms) {
            f.mix(name);
            f.mix64(h.samples());
            f.mix64(h.sum());
            f.mix64(h.maxValue());
            for (std::uint64_t b : h.buckets())
                f.mix64(b);
        }
    }
    return f.state;
}

} // namespace edge::sim

#endif // EDGE_SIM_RESULT_DIGEST_HH
