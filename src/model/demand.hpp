/**
 * @file
 * From modeled demand to discrete allocations.
 *
 * The Cobb-Douglas closed forms produce continuous resource vectors;
 * servers allocate whole cores and LLC ways. These helpers bridge the
 * two: the POM server manager asks for the minimum-power integer
 * allocation that sustains a target load, and the cluster manager
 * estimates best-effort performance from spare capacity (the entries
 * of the performance matrix in Fig. 7-II).
 */

#pragma once

#include <optional>

#include "model/cobb_douglas.hpp"
#include "sim/allocation.hpp"
#include "sim/server_spec.hpp"
#include "util/units.hpp"

namespace poco::model
{

/** A discrete allocation with its modeled cost and benefit. */
struct AllocationPlan
{
    sim::Allocation alloc;
    Watts modeledPower;  ///< includes the intercept
    double modeledPerf = 0.0;
};

/**
 * Minimum modeled-power integer allocation whose modeled performance
 * reaches @p target_perf, at maximum frequency.
 *
 * Scans the cores x ways grid (<= 240 cells on the E5-2650 — well
 * under the paper's millisecond budget). Returns std::nullopt when
 * even the full allocation falls short.
 *
 * Ties are colocation-friendly: among allocations whose modeled
 * power is within @p tie_epsilon of the minimum, the one holding the
 * fewest cores (then fewest ways) wins, leaving the co-runner the
 * most useful spare for ~free.
 *
 * This is the one-shot form of AllocationGrid::minPowerFor(): it
 * builds the grid and scans it once. Callers that query the same
 * utility repeatedly (the POM controller, the matrix build) keep an
 * AllocationGrid instead.
 *
 * @param headroom Demand inflation factor (>= 1) guarding against
 *        model inaccuracies; 1.05 asks the model for 5% extra.
 * @param tie_epsilon Relative power band treated as a tie (>= 0).
 */
std::optional<AllocationPlan>
minPowerAllocationFor(const CobbDouglasUtility& utility,
                      double target_perf, const sim::ServerSpec& spec,
                      double headroom = 1.0,
                      double tie_epsilon = 0.002);

/**
 * Structure-of-arrays evaluation of a utility over the whole
 * (cores, ways) lattice, and the library's one lattice scan.
 *
 * The constructor evaluates the modeled performance and power of
 * every cell once — one batched log/exp sweep per resource column
 * via CobbDouglasUtility::performanceBatch, whose cells are
 * bit-identical to the scalar performance()/powerAt() calls.
 * minPowerFor() is then a two-pass scan over the precomputed
 * columns with no allocation and no transcendental call: pass 1
 * finds the minimum feasible power, pass 2 picks the fewest cores
 * (then ways) within the tie band, both in (c outer, w inner) order.
 * The independent cell-by-cell oracle lives in the test suite
 * (tests/lattice_oracle.hpp).
 */
class AllocationGrid
{
  public:
    AllocationGrid(const CobbDouglasUtility& utility,
                   const sim::ServerSpec& spec);

    /** Minimum-power allocation; see minPowerAllocationFor(). */
    std::optional<AllocationPlan>
    minPowerFor(double target_perf, double headroom = 1.0,
                double tie_epsilon = 0.002) const;

    /** Modeled performance of cell (cores @p c, ways @p w), 1-based. */
    double perfAt(int c, int w) const
    {
        return perf_[index(c, w)];
    }

    /** Modeled power of cell (cores @p c, ways @p w), 1-based. */
    Watts powerAt(int c, int w) const
    {
        return Watts{power_[index(c, w)]};
    }

  private:
    std::size_t index(int c, int w) const
    {
        return static_cast<std::size_t>(c - 1) *
                   static_cast<std::size_t>(spec_.llcWays) +
               static_cast<std::size_t>(w - 1);
    }

    sim::ServerSpec spec_;
    /** SoA columns over the lattice, (c outer, w inner) order. */
    std::vector<double> perf_;
    std::vector<double> power_;
};

/**
 * The continuous closed-form demand under @p power_budget, rounded to
 * a feasible integer allocation (ceil, clamped to capacity).
 */
AllocationPlan roundedDemand(const CobbDouglasUtility& utility,
                             Watts power_budget,
                             const sim::ServerSpec& spec);

/**
 * Estimated best-effort performance achievable with the given spare
 * resources and spare power headroom (performance-matrix entry).
 *
 * The BE app's incremental draw is powerAt(r) - pStatic, so the boxed
 * demand is solved with budget pStatic + spare_power.
 *
 * @param spare_power Power headroom left under the server cap once
 *        the primary's draw is accounted for (>= 0 W).
 */
double estimateBePerformance(const CobbDouglasUtility& be_utility,
                             Watts spare_power, int spare_cores,
                             int spare_ways);

} // namespace poco::model
