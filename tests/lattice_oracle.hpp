/**
 * @file
 * The independent oracle for the minimum-power lattice search.
 *
 * model::minPowerAllocationFor() and model::AllocationGrid::minPowerFor()
 * share one scan over a prebuilt grid, so neither can check the other.
 * This is the scalar two-pass scan they replaced: every (cores, ways)
 * cell evaluated on its own through CobbDouglasUtility::performance()
 * and powerAt(), in (c outer, w inner) order. Both library paths must
 * equal it bit for bit — same cell, same modeled power and
 * performance, same nullopt.
 */

#pragma once

#include <optional>
#include <vector>

#include "model/cobb_douglas.hpp"
#include "model/demand.hpp"
#include "sim/allocation.hpp"
#include "sim/server_spec.hpp"
#include "util/check.hpp"

namespace poco::test
{

inline std::optional<model::AllocationPlan>
oracleMinPowerAllocation(const model::CobbDouglasUtility& utility,
                         double target_perf, const sim::ServerSpec& spec,
                         double headroom = 1.0,
                         double tie_epsilon = 0.002)
{
    POCO_REQUIRE(utility.numResources() == 2,
                 "allocation search expects (cores, ways) models");
    POCO_REQUIRE(target_perf > 0.0, "target performance must be > 0");
    POCO_REQUIRE(headroom >= 1.0, "headroom must be >= 1");
    POCO_REQUIRE(tie_epsilon >= 0.0, "tie epsilon must be >= 0");

    // Pass 1: the true power minimum over feasible cells.
    const double want = target_perf * headroom;
    Watts min_power;
    bool feasible = false;
    for (int c = 1; c <= spec.cores; ++c) {
        for (int w = 1; w <= spec.llcWays; ++w) {
            const std::vector<double> r = {static_cast<double>(c),
                                           static_cast<double>(w)};
            if (utility.performance(r) < want)
                continue;
            const Watts power = utility.powerAt(r);
            if (!feasible || power < min_power) {
                min_power = power;
                feasible = true;
            }
        }
    }
    if (!feasible)
        return std::nullopt;

    // Pass 2: within the tie band, free the most cores (then ways)
    // for the co-runner.
    const Watts band = min_power * (1.0 + tie_epsilon);
    std::optional<model::AllocationPlan> best;
    for (int c = 1; c <= spec.cores; ++c) {
        for (int w = 1; w <= spec.llcWays; ++w) {
            const std::vector<double> r = {static_cast<double>(c),
                                           static_cast<double>(w)};
            const double perf = utility.performance(r);
            if (perf < want)
                continue;
            const Watts power = utility.powerAt(r);
            if (power > band)
                continue;
            const bool better =
                !best || c < best->alloc.cores ||
                (c == best->alloc.cores && w < best->alloc.ways);
            if (better) {
                best = model::AllocationPlan{
                    sim::Allocation{c, w, spec.freqMax, 1.0}, power,
                    perf};
            }
        }
    }
    return best;
}

} // namespace poco::test
