#include "model/demand.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace poco::model
{

std::optional<AllocationPlan>
minPowerAllocationFor(const CobbDouglasUtility& utility,
                      double target_perf, const sim::ServerSpec& spec,
                      double headroom, double tie_epsilon)
{
    POCO_REQUIRE(utility.numResources() == 2,
                 "allocation search expects (cores, ways) models");
    POCO_REQUIRE(target_perf > 0.0, "target performance must be > 0");
    POCO_REQUIRE(headroom >= 1.0, "headroom must be >= 1");
    POCO_REQUIRE(tie_epsilon >= 0.0, "tie epsilon must be >= 0");

    return AllocationGrid(utility, spec)
        .minPowerFor(target_perf, headroom, tie_epsilon);
}

AllocationGrid::AllocationGrid(const CobbDouglasUtility& utility,
                               const sim::ServerSpec& spec)
    : spec_(spec)
{
    POCO_REQUIRE(utility.numResources() == 2,
                 "allocation search expects (cores, ways) models");
    POCO_REQUIRE(spec.cores >= 1 && spec.llcWays >= 1,
                 "grid needs a non-empty lattice");

    // SoA columns over the lattice in (c outer, w inner) order, then
    // one batched sweep per modeled quantity.
    const std::size_t cells =
        static_cast<std::size_t>(spec.cores) *
        static_cast<std::size_t>(spec.llcWays);
    std::vector<double> cores_col(cells);
    std::vector<double> ways_col(cells);
    std::size_t k = 0;
    for (int c = 1; c <= spec.cores; ++c) {
        for (int w = 1; w <= spec.llcWays; ++w) {
            cores_col[k] = static_cast<double>(c);
            ways_col[k] = static_cast<double>(w);
            ++k;
        }
    }
    const double* cols[2] = {cores_col.data(), ways_col.data()};
    perf_.resize(cells);
    power_.resize(cells);
    utility.performanceBatch(cells, cols, perf_.data());
    utility.powerAtBatch(cells, cols, power_.data());
}

std::optional<AllocationPlan>
AllocationGrid::minPowerFor(double target_perf, double headroom,
                            double tie_epsilon) const
{
    POCO_REQUIRE(target_perf > 0.0, "target performance must be > 0");
    POCO_REQUIRE(headroom >= 1.0, "headroom must be >= 1");
    POCO_REQUIRE(tie_epsilon >= 0.0, "tie epsilon must be >= 0");

    // Pass 1: the true power minimum over feasible cells.
    const double want = target_perf * headroom;
    const double* __restrict__ perf = perf_.data();
    const double* __restrict__ power = power_.data();
    const std::size_t cells = perf_.size();
    Watts min_power;
    bool feasible = false;
    for (std::size_t i = 0; i < cells; ++i) {
        if (perf[i] < want)
            continue;
        const Watts p{power[i]};
        if (!feasible || p < min_power) {
            min_power = p;
            feasible = true;
        }
    }
    if (!feasible)
        return std::nullopt;

    // Pass 2: within the tie band, free the most cores (then ways).
    const Watts band = min_power * (1.0 + tie_epsilon);
    std::optional<AllocationPlan> best;
    std::size_t i = 0;
    for (int c = 1; c <= spec_.cores; ++c) {
        for (int w = 1; w <= spec_.llcWays; ++w, ++i) {
            if (perf[i] < want)
                continue;
            const Watts p{power[i]};
            if (p > band)
                continue;
            const bool better =
                !best || c < best->alloc.cores ||
                (c == best->alloc.cores && w < best->alloc.ways);
            if (better) {
                best = AllocationPlan{
                    sim::Allocation{c, w, spec_.freqMax, 1.0}, p,
                    perf[i]};
            }
        }
    }
    return best;
}

AllocationPlan
roundedDemand(const CobbDouglasUtility& utility, Watts power_budget,
              const sim::ServerSpec& spec)
{
    POCO_REQUIRE(utility.numResources() == 2,
                 "allocation rounding expects (cores, ways) models");
    const std::vector<double> caps = {
        static_cast<double>(spec.cores),
        static_cast<double>(spec.llcWays)};
    const std::vector<double> r =
        utility.demandBoxed(power_budget, caps);

    AllocationPlan plan;
    plan.alloc.cores = std::clamp(
        static_cast<int>(std::ceil(r[0])), 1, spec.cores);
    plan.alloc.ways = std::clamp(
        static_cast<int>(std::ceil(r[1])), 1, spec.llcWays);
    plan.alloc.freq = spec.freqMax;
    plan.alloc.dutyCycle = 1.0;

    const std::vector<double> ri = {
        static_cast<double>(plan.alloc.cores),
        static_cast<double>(plan.alloc.ways)};
    plan.modeledPower = utility.powerAt(ri);
    plan.modeledPerf = utility.performance(ri);
    return plan;
}

double
estimateBePerformance(const CobbDouglasUtility& be_utility,
                      Watts spare_power, int spare_cores,
                      int spare_ways)
{
    POCO_REQUIRE(spare_power >= Watts{}, "spare power must be >= 0");
    if (spare_cores < 1 || spare_ways < 1 || spare_power <= Watts{})
        return 0.0;
    const std::vector<double> caps = {
        static_cast<double>(spare_cores),
        static_cast<double>(spare_ways)};
    const std::vector<double> r = be_utility.demandBoxed(
        be_utility.pStatic() + spare_power, caps);
    return be_utility.performance(r);
}

} // namespace poco::model
