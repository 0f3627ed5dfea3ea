/**
 * @file
 * Incremental placement for the streaming control plane.
 *
 * The batch path (place / placeWithFallback) solves every matrix from
 * scratch. Under an event stream most solves are tiny perturbations
 * of the previous one — a LoadShift re-prices one server's column, a
 * profile refresh one BE's row. IncrementalPlacer keeps the previous
 * optimum alive in one Kuhn-Munkres engine (math::HungarianRepair)
 * and picks the cheapest rung that applies:
 *
 *   Cached     exact memo hit (flapping A<->B states) — no solve at all
 *   Repair     one augmenting stage from the retained duals
 *   Hungarian  cold HungarianRepair::solveFull (also re-arms Repair)
 *   ...        placeWithFallback's Hungarian/Greedy/Conservative chain
 *
 * Every rung is exact: Repair self-verifies the LP optimality
 * conditions and falls through on failure, and the cold rung is the
 * very solve placeWithFallback runs first, so the ladder returns the
 * same optimum a cold solve would (the same vector whenever Repair
 * does not fire; field-exact whenever the optimum is unique). The
 * tier on the returned Outcome records which rung fired; Cached and
 * Repair sit *above* Hungarian in the ladder because they are
 * cheaper, not worse.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "cluster/placement.hpp"
#include "math/hungarian_repair.hpp"

namespace poco::cluster
{

/**
 * What changed between the previously resolved matrix and this one.
 * The caller (the control plane) knows which event produced the new
 * matrix, so it can name the perturbation instead of making the
 * solver diff matrices.
 */
struct PlacementDelta
{
    enum class Kind
    {
        /** Same shape, anything may have moved (e.g. BudgetChange). */
        FullRefresh,
        /** Exactly row `index` (one BE app) was re-priced. */
        Row,
        /** Exactly column `index` (one server) was re-priced. */
        Column,
        /** The matrix gained/lost rows or columns (arrive/crash). */
        Shape,
    };

    Kind kind = Kind::FullRefresh;
    std::size_t index = 0;

    static PlacementDelta fullRefresh() { return {}; }
    static PlacementDelta
    row(std::size_t i)
    {
        return {Kind::Row, i};
    }
    static PlacementDelta
    column(std::size_t j)
    {
        return {Kind::Column, j};
    }
    static PlacementDelta
    shape()
    {
        return {Kind::Shape, 0};
    }
};

const char* placementDeltaKindName(PlacementDelta::Kind kind);

/** Cumulative rung-hit counters (monotonic since construction). */
struct IncrementalStats
{
    std::uint64_t cached = 0;   ///< memo hits
    std::uint64_t repaired = 0; ///< Hungarian repair successes
    std::uint64_t cold = 0;     ///< cold Hungarian solves (re-arms)
    std::uint64_t fallback = 0; ///< placeWithFallback escapes
    std::uint64_t shed = 0;     ///< backpressure sheds (no solve)
};

/**
 * Stateful exact placement over a stream of adjacent matrices.
 * Not thread-safe; the control plane owns one per cluster.
 */
class IncrementalPlacer
{
  public:
    explicit IncrementalPlacer(SolverContext context = {},
                               FallbackOptions fallback = {})
        : context_(context), fallback_(fallback)
    {}

    /**
     * Place @p matrix given that @p delta describes how it differs
     * from the previous resolve() argument. The first call (or any
     * call after reset()) should pass PlacementDelta::shape().
     *
     * @return The assignment with the rung that produced it; never
     *         empty (inherits placeWithFallback's no-throw terminal).
     */
    Outcome<std::vector<int>> resolve(const PerformanceMatrix& matrix,
                                      const PlacementDelta& delta);

    /**
     * Backpressure escape: skip the whole ladder and return the
     * Conservative identity assignment (BE row i on column i —
     * always feasible under the rows <= cols precondition) without
     * consulting or updating the engine. The matrix has still moved,
     * so the retained repair state is marked stale; the next
     * resolve() should pass PlacementDelta::shape() to re-sync.
     * Deterministic and O(rows) — this is what "shedding to the
     * Conservative tier" costs instead of a solve.
     */
    Outcome<std::vector<int>> shed(const PerformanceMatrix& matrix);

    /** Drop all retained solver state (memo entries survive). */
    void reset();

    const IncrementalStats& stats() const { return stats_; }
    const SolverContext& context() const { return context_; }

  private:
    Outcome<std::vector<int>> coldResolve(
        const PerformanceMatrix& matrix);

    SolverContext context_;
    FallbackOptions fallback_;
    math::HungarianRepair repair_;
    /** The engine is fresh iff its state matches the last resolved
     *  matrix (a cache hit or a shed breaks the correspondence
     *  without invalidating the engine itself). */
    bool repair_fresh_ = false;
    IncrementalStats stats_;
};

} // namespace poco::cluster
