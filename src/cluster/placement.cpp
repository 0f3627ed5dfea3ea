#include "cluster/placement.hpp"

#include "math/hungarian.hpp"
#include "math/simplex.hpp"
#include "math/solver_cache.hpp"
#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace poco::cluster
{

namespace
{

math::LpOptions
lpOptions(const SolverContext& context)
{
    math::LpOptions options;
    options.pool = context.pool;
    options.pivotCutoff = context.pivotCutoff;
    options.pricingGrain = context.pricingGrain;
    return options;
}

/** Repeated argmax; lowest (row, col) wins ties. */
std::vector<int>
solveGreedy(const PerformanceMatrix& matrix)
{
    const std::size_t rows = matrix.rows();
    const std::size_t cols = matrix.cols();
    std::vector<int> assignment(rows, -1);
    std::vector<bool> col_used(cols, false);
    for (std::size_t step = 0; step < rows; ++step) {
        std::size_t best_i = 0, best_j = 0;
        double best = 0.0;
        bool found = false;
        for (std::size_t i = 0; i < rows; ++i) {
            if (assignment[i] >= 0)
                continue;
            const double* row = matrix.row(i);
            for (std::size_t j = 0; j < cols; ++j) {
                if (col_used[j])
                    continue;
                if (!found || row[j] > best) {
                    best = row[j];
                    best_i = i;
                    best_j = j;
                    found = true;
                }
            }
        }
        POCO_ASSERT(found, "greedy ran out of columns");
        assignment[best_i] = static_cast<int>(best_j);
        col_used[best_j] = true;
    }
    return assignment;
}

/** Run the named exact solver (no memo). */
std::vector<int>
solveExact(const PerformanceMatrix& matrix, PlacementKind kind,
           const SolverContext& context)
{
    switch (kind) {
      case PlacementKind::Lp:
        return math::solveAssignmentLp(matrix.view(),
                                       lpOptions(context));
      case PlacementKind::Hungarian:
        return math::solveAssignmentMax(matrix.view());
      case PlacementKind::Exhaustive:
        return math::solveAssignmentExhaustive(matrix.view());
      case PlacementKind::Greedy:
        return solveGreedy(matrix);
      case PlacementKind::Random:
        break;
    }
    poco::panic("unreachable exact placement kind");
}

} // namespace

void
validateMatrix(const PerformanceMatrix& matrix)
{
    POCO_REQUIRE(matrix.rows() > 0, "empty performance matrix");
    POCO_REQUIRE(matrix.rows() <= matrix.cols(),
                 "placement needs BE apps <= LC servers");
}

const char*
placementKindName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::Random:     return "random";
      case PlacementKind::Lp:         return "lp";
      case PlacementKind::Hungarian:  return "hungarian";
      case PlacementKind::Exhaustive: return "exhaustive";
      case PlacementKind::Greedy:     return "greedy";
    }
    return "?";
}

std::vector<int>
place(const PerformanceMatrix& matrix, PlacementKind kind, Rng& rng,
      const SolverContext& context)
{
    if (kind == PlacementKind::Random) {
        validateMatrix(matrix);
        const std::size_t rows = matrix.rows();
        const std::vector<int> perm =
            rng.permutation(static_cast<int>(matrix.cols()));
        return std::vector<int>(perm.begin(),
                                perm.begin() +
                                    static_cast<std::ptrdiff_t>(rows));
    }
    return place(matrix, kind, context);
}

std::vector<int>
place(const PerformanceMatrix& matrix, PlacementKind kind,
      const SolverContext& context)
{
    POCO_REQUIRE(kind != PlacementKind::Random,
                 "random placement needs an Rng");
    validateMatrix(matrix);
    if (context.cache == nullptr)
        return solveExact(matrix, kind, context);
    return context.cache->getOrCompute(
        placementKindName(kind), matrix.view(),
        [&] { return solveExact(matrix, kind, context); });
}

double
placementValue(const PerformanceMatrix& matrix,
               const std::vector<int>& assignment)
{
    return math::assignmentValue(matrix.view(), assignment);
}

std::vector<int>
admitAndPlace(const PerformanceMatrix& matrix,
              const SolverContext& context)
{
    const std::size_t n_be = matrix.rows();
    POCO_REQUIRE(n_be > 0, "empty performance matrix");
    const std::size_t n_srv = matrix.cols();

    if (n_be <= n_srv) {
        // Everyone fits: ordinary (deterministic) assignment.
        return place(matrix, PlacementKind::Hungarian, context);
    }

    auto solve = [&] {
        // Transpose: servers are the agents, candidates the tasks.
        // Each server's candidate-score row is an independent slice
        // of one flat buffer, so the scoring batch fans out over the
        // pool; slot-addressed writes keep the result identical for
        // any worker count.
        std::vector<double> transposed(n_srv * n_be);
        runtime::parallelFor(
            context.pool, n_srv, [&](std::size_t j) {
                double* __restrict__ scores =
                    transposed.data() + j * n_be;
                for (std::size_t i = 0; i < n_be; ++i)
                    scores[i] = matrix(i, j);
            });
        const std::vector<int> choice = math::solveAssignmentMax(
            math::MatrixView{transposed.data(), n_srv, n_be});

        std::vector<int> admitted(n_be, -1);
        for (std::size_t j = 0; j < n_srv; ++j) {
            const int be = choice[j];
            POCO_ASSERT(be >= 0 &&
                        static_cast<std::size_t>(be) < n_be,
                        "transposed assignment out of range");
            admitted[static_cast<std::size_t>(be)] =
                static_cast<int>(j);
        }
        return admitted;
    };
    if (context.cache == nullptr)
        return solve();
    // Memoized across admission rounds: the queue-drain loop asks
    // again every round, usually with an unchanged matrix.
    return context.cache->getOrCompute("admit", matrix.view(), solve);
}

Outcome<std::vector<int>>
placeWithFallback(const PerformanceMatrix& matrix,
                  const SolverContext& context,
                  const FallbackOptions& options)
{
    validateMatrix(matrix);
    POCO_REQUIRE(options.maxAttemptsPerStage >= 1,
                 "fallback needs at least one attempt per stage");

    Outcome<std::vector<int>> outcome;
    static constexpr PlacementKind kChain[] = {
        PlacementKind::Hungarian,
        PlacementKind::Greedy,
    };
    for (const PlacementKind kind : kChain) {
        for (int attempt = 0;
             attempt < options.maxAttemptsPerStage; ++attempt) {
            ++outcome.attempts;
            try {
                if (options.failInjection &&
                    options.failInjection(kind, attempt))
                    poco::fatal(
                        std::string("injected solver failure: ") +
                        placementKindName(kind));
                // Bypass the memo on retries: a cached result would
                // short-circuit genuine recomputation, and a failed
                // stage must not poison the cache either way.
                SolverContext stage = context;
                if (attempt > 0)
                    stage.cache = nullptr;
                const bool greedy = kind == PlacementKind::Greedy;
                outcome.value = greedy ? solveGreedy(matrix)
                                       : place(matrix, kind, stage);
                outcome.tier =
                    greedy ? SolverTier::Greedy : SolverTier::Hungarian;
                return outcome;
            } catch (const FatalError&) {
                // Fall through to the next attempt or solver.
            }
        }
    }
    // Terminal fallback: the preference-free identity map. Always
    // feasible (#BE <= #servers) and requires no solver at all.
    const std::size_t rows = matrix.rows();
    outcome.value.resize(rows);
    for (std::size_t i = 0; i < rows; ++i)
        outcome.value[i] = static_cast<int>(i);
    outcome.tier = SolverTier::Conservative;
    outcome.degradation.conservative = true;
    return outcome;
}

} // namespace poco::cluster
