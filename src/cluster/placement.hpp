/**
 * @file
 * Cluster placement policies (Section IV-B).
 *
 * Given the performance matrix, a policy picks which best-effort
 * application runs beside which latency-critical server. The paper
 * solves it as an LP (the assignment polytope is integral);
 * PlacementKind::Lp keeps that formulation as the paper-fidelity
 * POColo policy. Every production path — placeWithFallback,
 * admitAndPlace, the streaming IncrementalPlacer — runs the
 * Hungarian engine, which reaches the same optimum; exhaustive
 * search is the small-instance test oracle and random placement the
 * baseline.
 *
 * The exact policies (LP, Hungarian, exhaustive) are deterministic
 * pure functions of the matrix, so they take a SolverContext instead
 * of an Rng: a thread pool accelerates the LP's pivot/pricing kernels
 * and the admission path's batch candidate scoring, and an
 * AssignmentCache memoizes repeated solves of the same matrix across
 * admission rounds and load-sweep points. Every configuration —
 * serial, pooled, cached — returns field-identical assignments.
 */

#pragma once

#include <functional>
#include <vector>

#include "cluster/performance_matrix.hpp"
#include "util/outcome.hpp"
#include "util/rng.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::math
{
class AssignmentCache;
}

namespace poco::cluster
{

/** Available placement algorithms. */
enum class PlacementKind
{
    Random,
    Lp,
    Hungarian,
    Exhaustive,
    /**
     * Repeated argmax with lowest-index tie-breaks: not optimal, but
     * O(n^3), allocation-light, and with no numerical pivoting to go
     * wrong — the last resort of the degradation fallback chain.
     */
    Greedy,
};

const char* placementKindName(PlacementKind kind);

/**
 * Execution context for the exact placement solvers: where to run
 * (pool) and what to remember (memo cache), plus the fan-out cutoffs
 * of the PlacementKind::Lp simplex. The defaults run serially with
 * no memoization; results never depend on the settings. The tuning
 * knobs are owned by poco::FleetConfig (cluster/fleet_config.hpp) —
 * this struct is the runtime wiring the evaluators assemble from it.
 */
struct SolverContext
{
    /** Pool for the LP kernels and batch admission scoring. */
    runtime::ThreadPool* pool = nullptr;
    /** Solve memo; null disables memoization. */
    math::AssignmentCache* cache = nullptr;
    /** Minimum tableau cells before an LP pivot fans out over rows. */
    std::size_t pivotCutoff = 4096;
    /** Columns per LP pricing/ratio-test reduction chunk. */
    std::size_t pricingGrain = 2048;
};

/**
 * Placement precondition shared by every entry point: a non-empty
 * matrix with #BE <= #servers. Throws poco::FatalError otherwise.
 */
void validateMatrix(const PerformanceMatrix& matrix);

/**
 * Compute an assignment: result[i] = LC server index for BE app i.
 *
 * @param matrix Performance matrix (rows: BE apps, cols: servers);
 *        requires #BE <= #servers.
 * @param rng Used only by PlacementKind::Random.
 * @param context Pool/memo wiring for the exact solvers.
 */
std::vector<int> place(const PerformanceMatrix& matrix,
                       PlacementKind kind, Rng& rng,
                       const SolverContext& context = {});

/**
 * Deterministic-kind overload: LP, Hungarian, and exhaustive need no
 * randomness, so no Rng. Throws poco::FatalError for Random.
 */
std::vector<int> place(const PerformanceMatrix& matrix,
                       PlacementKind kind,
                       const SolverContext& context = {});

/** Total estimated throughput of an assignment under the matrix. */
double placementValue(const PerformanceMatrix& matrix,
                      const std::vector<int>& assignment);

/**
 * Admission control + placement when best-effort candidates
 * outnumber servers (the queue-drain case): pick which candidates
 * to admit and where, maximizing total estimated throughput.
 *
 * Solved exactly as the transposed assignment problem (each server
 * "chooses" a candidate; unchosen candidates wait). Candidate score
 * rows are batched over context.pool, and the whole round's solution
 * is memoized in context.cache — repeated admission rounds over an
 * unchanged matrix return instantly.
 *
 * @return admitted[i] = server index for BE i, or -1 when BE i is
 *         not admitted this round. Exactly min(#BE, #servers)
 *         entries are >= 0.
 */
std::vector<int> admitAndPlace(const PerformanceMatrix& matrix,
                               const SolverContext& context = {});

/** Retry/fallback knobs for placeWithFallback. */
struct FallbackOptions
{
    /** Attempts per chain stage before falling to the next solver. */
    int maxAttemptsPerStage = 2;
    /**
     * Test/bench hook: return true to make (kind, attempt) fail as
     * if the solver had thrown. Null injects nothing.
     */
    std::function<bool(PlacementKind, int attempt)> failInjection;
};

/**
 * Degradation-hardened placement: walk the Hungarian -> Greedy
 * chain, giving each solver options.maxAttemptsPerStage tries and
 * catching poco::FatalError between them. If the whole chain fails
 * the terminal fallback is the preference-free identity assignment
 * (BE i -> server i), which is always feasible since #BE <= #servers
 * — so this function never throws for a valid matrix.
 *
 * @return Outcome whose value is the assignment (value[i] = server
 *         for BE i, never empty), whose tier names the solver rung
 *         that produced it (Conservative for the identity terminal,
 *         with degradation.conservative set), and whose attempts
 *         counts every solver try across every stage (>= 1).
 */
Outcome<std::vector<int>>
placeWithFallback(const PerformanceMatrix& matrix,
                  const SolverContext& context = {},
                  const FallbackOptions& options = {});

} // namespace poco::cluster
