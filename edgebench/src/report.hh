/**
 * @file
 * Sample statistics, the result digest, and the metric set the
 * benchmark prints: a human-readable table followed by the one-line
 * JSON result object.
 */

#ifndef EDGEBENCH_REPORT_HH
#define EDGEBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace edgebench {

/** Quantile `frac` (0..1) of a sample, linearly interpolated (0 when
 *  empty). */
double quantile(std::vector<double> values, double frac);

/** Median of a sample (0 when empty). */
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &values);

/**
 * The highest percentile of a sample that still has `beyond` samples
 * above it; the maximum when the sample is too small for that.
 */
struct Tail
{
    double value = 0;
    double percentile = 0; ///< 0..100
    std::size_t samples = 0;
    std::size_t beyond = 0; ///< samples above `value`
};
Tail tailOf(std::vector<double> values, std::size_t beyond = 10);

/** "p80.0 of 50 samples, 10 beyond" */
std::string describe(const Tail &t);

/** Did the cell run to completion and match the reference state? */
bool cellOk(const edge::sim::RunResult &r);

/**
 * FNV-1a over every cell's cycles, committed instructions, counters
 * and histograms: equal digests mean bit-identical simulated results.
 */
std::uint64_t resultDigest(const std::vector<edge::sim::RunResult> &cells);

/** Metrics in the order they were added, each with its unit. */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** Aligned "name value unit" lines. */
    void print() const;

    /** The result object: correct, attempted, failed, metrics. */
    std::string json(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> _metrics;
};

/**
 * Per-grid simulated counts summed over the cells (one deterministic
 * grid): core, net, lsq, mem and predictor activity.
 */
void addSimulatedCounts(MetricSet &m,
                        const std::vector<edge::sim::RunResult> &cells);

} // namespace edgebench

#endif // EDGEBENCH_REPORT_HH
