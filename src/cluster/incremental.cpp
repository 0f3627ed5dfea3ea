#include "cluster/incremental.hpp"

#include "math/solver_cache.hpp"
#include "util/check.hpp"

namespace poco::cluster
{

namespace
{

/** Memo tag for exact incremental optima (kept apart from the batch
 *  solvers' per-kind tags so a rung never reads another's answer). */
constexpr const char* kCacheTag = "incremental";

} // namespace

const char*
placementDeltaKindName(PlacementDelta::Kind kind)
{
    switch (kind) {
      case PlacementDelta::Kind::FullRefresh: return "full-refresh";
      case PlacementDelta::Kind::Row:         return "row";
      case PlacementDelta::Kind::Column:      return "column";
      case PlacementDelta::Kind::Shape:       return "shape";
    }
    return "?";
}

Outcome<std::vector<int>>
IncrementalPlacer::resolve(const PerformanceMatrix& matrix,
                           const PlacementDelta& delta)
{
    validateMatrix(matrix);
    const std::size_t rows = matrix.rows();
    const std::size_t cols = matrix.cols();

    const bool single_subject =
        delta.kind == PlacementDelta::Kind::Row ||
        delta.kind == PlacementDelta::Kind::Column;
    if (delta.kind == PlacementDelta::Kind::Row)
        POCO_REQUIRE(delta.index < rows, "delta row out of range");
    if (delta.kind == PlacementDelta::Kind::Column)
        POCO_REQUIRE(delta.index < cols, "delta column out of range");

    // Rung 0 — memo. Flapping event pairs (crash/recover, A<->B load
    // oscillation) revisit byte-identical matrices; the exact-match
    // cache answers without touching a solver. The hit leaves the
    // engine pointing at some *other* matrix, so mark it stale.
    if (context_.cache != nullptr) {
        if (auto hit = context_.cache->lookup(kCacheTag,
                                              matrix.view())) {
            ++stats_.cached;
            repair_fresh_ = false;
            return {*std::move(hit), SolverTier::Cached,
                    /*tries=*/0};
        }
    }

    // Rung 1 — single-subject Hungarian repair: one augmenting stage
    // from the retained duals, self-verified against the optimality
    // conditions.
    if (single_subject && repair_fresh_ &&
        repair_.hasState(rows, cols)) {
        std::optional<std::vector<int>> fixed;
        if (delta.kind == PlacementDelta::Kind::Row) {
            fixed = repair_.repairRow(delta.index,
                                      matrix.row(delta.index), cols);
        } else {
            std::vector<double> column(rows);
            for (std::size_t i = 0; i < rows; ++i)
                column[i] = matrix(i, delta.index);
            fixed = repair_.repairColumn(delta.index, column);
        }
        if (fixed.has_value()) {
            ++stats_.repaired;
            if (context_.cache != nullptr)
                context_.cache->insert(kCacheTag, matrix.view(),
                                       *fixed);
            return {*std::move(fixed), SolverTier::Repair};
        }
        // The engine invalidated itself; the cold rung re-arms it.
    }

    return coldResolve(matrix);
}

Outcome<std::vector<int>>
IncrementalPlacer::coldResolve(const PerformanceMatrix& matrix)
{
    // Rung 2 — cold Kuhn-Munkres solve: the same engine (and so the
    // same optimum) as placeWithFallback's first stage, and it leaves
    // the duals behind so the next one-subject event can repair.
    // Honors the chain's injection hook for that first attempt so
    // the degradation tests can force the escape path through this
    // placer too.
    const bool injected_failure =
        fallback_.failInjection &&
        fallback_.failInjection(PlacementKind::Hungarian, 0);
    if (!injected_failure) {
        try {
            std::vector<int> sol = repair_.solveFull(matrix.view());
            ++stats_.cold;
            repair_fresh_ = true;
            if (context_.cache != nullptr)
                context_.cache->insert(kCacheTag, matrix.view(),
                                       sol);
            return {std::move(sol), SolverTier::Hungarian};
        } catch (const FatalError&) {
            repair_.invalidate();
        }
    }

    // Escape hatch: the degradation-hardened batch chain. Its answer
    // may be inexact (Greedy / Conservative), so only exact tiers are
    // allowed into the memo.
    ++stats_.fallback;
    Outcome<std::vector<int>> outcome =
        placeWithFallback(matrix, context_, fallback_);
    ++outcome.attempts; // the cold try above
    repair_fresh_ = false;
    if (context_.cache != nullptr &&
        outcome.tier == SolverTier::Hungarian)
        context_.cache->insert(kCacheTag, matrix.view(),
                               outcome.value);
    return outcome;
}

Outcome<std::vector<int>>
IncrementalPlacer::shed(const PerformanceMatrix& matrix)
{
    validateMatrix(matrix);
    ++stats_.shed;
    // The engine saw neither this matrix nor this answer; anything
    // it retains describes a state the stream has moved past.
    repair_fresh_ = false;
    std::vector<int> identity(matrix.rows());
    for (std::size_t i = 0; i < identity.size(); ++i)
        identity[i] = static_cast<int>(i);
    Degradation flags;
    flags.conservative = true;
    return {std::move(identity), SolverTier::Conservative,
            /*tries=*/0, flags};
}

void
IncrementalPlacer::reset()
{
    repair_.invalidate();
    repair_fresh_ = false;
}

} // namespace poco::cluster
