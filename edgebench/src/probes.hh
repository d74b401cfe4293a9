/**
 * @file
 * Layer probes for the traced run: each layer's public API is called
 * on the workload's cells one call at a time, inside a span, so the
 * per-layer metrics come from those spans alone. Two phases:
 *
 *  - whole-grid rounds until `simEnd`: RunPool::runAll over the grid,
 *    then per cell Simulator::runShared, resultToJson and
 *    resultFromJson;
 *  - single cells, round robin, until `end`: Supervisor::runAll and
 *    Fabric::runAll on one cell each (a journaled fabric on loopback
 *    with two agent processes), then a ResultLog append + waitDurable
 *    and a batch append + flush.
 *
 * Every probed result is checked against the cell's reference bytes.
 */

#ifndef EDGEBENCH_PROBES_HH
#define EDGEBENCH_PROBES_HH

#include <cstdint>
#include <string>

#include "campaign.hh"
#include "report.hh"
#include "trace.hh"

namespace edgebench {

struct ProbeTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Run both probe phases and add the per-layer timing metrics. */
bool probeLayers(Campaign &campaign, const RunOptions &opts,
                 Tracer &tracer, SteadyClock::time_point simEnd,
                 SteadyClock::time_point end, std::size_t minSamples,
                 MetricSet &metrics, ProbeTally &tally, std::string *err);

} // namespace edgebench

#endif // EDGEBENCH_PROBES_HH
