/**
 * @file
 * Tied-matrix agreement: every production placement entry point runs
 * the one Kuhn-Munkres engine, so on matrices with exact ties
 * (duplicated server columns, small integer cells — what replicated
 * LC apps and Zipf-duplicated platforms produce) they must return the
 * *identical* vector, not merely an equally good one. The simplex
 * oracle and exhaustive search may pick another optimum and are held
 * to the objective only.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/incremental.hpp"
#include "cluster/placement.hpp"
#include "math/hungarian.hpp"
#include "math/hungarian_repair.hpp"
#include "math/simplex.hpp"
#include "util/rng.hpp"

namespace poco::cluster
{
namespace
{

constexpr int kSeeds = 320;

/**
 * rows x cols matrix whose columns are copies of fewer prototypes
 * (so at least two columns coincide whenever cols >= 2) with cells
 * drawn from {0, 1, 2, 3}. Every fifth seed is a 1 x n row.
 */
PerformanceMatrix
tiedMatrix(Rng& rng, int seed)
{
    const int rows = seed % 5 == 0 ? 1 : rng.uniformInt(2, 6);
    const int cols = rng.uniformInt(rows, 8);
    const int protos = rng.uniformInt(1, cols > 1 ? cols - 1 : 1);

    std::vector<double> proto(static_cast<std::size_t>(rows * protos));
    for (double& cell : proto)
        cell = rng.uniformInt(0, 3);

    PerformanceMatrix matrix;
    matrix.resize(static_cast<std::size_t>(rows),
                  static_cast<std::size_t>(cols));
    for (std::size_t j = 0; j < matrix.cols(); ++j) {
        const auto k = static_cast<std::size_t>(
            rng.uniformInt(0, protos - 1));
        for (std::size_t i = 0; i < matrix.rows(); ++i)
            matrix(i, j) = proto[i * static_cast<std::size_t>(protos) + k];
    }
    return matrix;
}

/** The same matrix with its last BE row dropped (a BeDepart). */
PerformanceMatrix
withoutLastRow(const PerformanceMatrix& matrix)
{
    PerformanceMatrix smaller;
    smaller.resize(matrix.rows() - 1, matrix.cols());
    for (std::size_t i = 0; i < smaller.rows(); ++i)
        for (std::size_t j = 0; j < smaller.cols(); ++j)
            smaller(i, j) = matrix(i, j);
    return smaller;
}

TEST(TiedAgreement, EveryEntryPointReturnsTheSameVector)
{
    int rectangular = 0;
    int single_row = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        const PerformanceMatrix matrix = tiedMatrix(rng, seed);
        const std::size_t rows = matrix.rows();
        const std::size_t cols = matrix.cols();
        rectangular += rows < cols ? 1 : 0;
        single_row += rows == 1 ? 1 : 0;
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " (" << rows << "x" << cols
                     << ")");

        const Outcome<std::vector<int>> chain =
            placeWithFallback(matrix);
        EXPECT_EQ(chain.tier, SolverTier::Hungarian);
        const std::vector<int>& want = chain.value;

        EXPECT_EQ(place(matrix, PlacementKind::Hungarian), want);
        EXPECT_EQ(admitAndPlace(matrix), want);

        // The streaming ladder's cold rung (a fresh placer has no
        // engine state, so even a column delta solves cold).
        IncrementalPlacer fresh;
        const auto cold =
            fresh.resolve(matrix, PlacementDelta::shape());
        EXPECT_EQ(cold.tier, SolverTier::Hungarian);
        EXPECT_EQ(cold.value, want);
        const auto column = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(cols) - 1));
        IncrementalPlacer unarmed;
        EXPECT_EQ(unarmed.resolve(matrix, PlacementDelta::column(column))
                      .value,
                  want);

        // A column delta right after a shape change: the engine holds
        // duals for the old shape, so the ladder must not repair
        // across it and must land on the cold vector.
        if (rows > 1) {
            IncrementalPlacer placer;
            (void)placer.resolve(withoutLastRow(matrix),
                                 PlacementDelta::shape());
            const auto after_shape =
                placer.resolve(matrix, PlacementDelta::column(column));
            EXPECT_EQ(after_shape.tier, SolverTier::Hungarian);
            EXPECT_EQ(after_shape.value, want);
            EXPECT_EQ(placer.stats().repaired, 0u);
        }

        // The LP and exhaustive oracles may choose another optimum of
        // a tied matrix; the value must still match exactly (integer
        // cells, so the sums are exact).
        const double best = placementValue(matrix, want);
        EXPECT_EQ(placementValue(
                      matrix, math::solveAssignmentLp(matrix.view())),
                  best);
        if (cols <= 7) {
            EXPECT_EQ(placementValue(matrix,
                                     math::solveAssignmentExhaustive(
                                         matrix.view())),
                      best);
        }
    }
    EXPECT_GT(rectangular, kSeeds / 2);
    EXPECT_GE(single_row, kSeeds / 5);
}

TEST(TiedAgreement, RepairColumnAfterShapeChangeMatchesColdVector)
{
    // HungarianRepair re-armed on a new shape, then asked to repair a
    // column whose values did not move (a LoadShift that re-priced a
    // server to the same cells): the retained duals are already
    // optimal, so the one augmenting stage must hand back the cold
    // solve's vector, ties and all. (A column that *does* move may
    // repair onto another optimum of a tied matrix; picking one
    // canonical optimum is a separate ROADMAP item.)
    int repaired = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) + 7919);
        const PerformanceMatrix matrix = tiedMatrix(rng, seed);
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        const std::vector<int> want = placeWithFallback(matrix).value;

        math::HungarianRepair engine;
        if (matrix.rows() > 1)
            (void)engine.solveFull(withoutLastRow(matrix).view());
        EXPECT_EQ(engine.solveFull(matrix.view()), want);

        const auto col = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(matrix.cols()) - 1));
        std::vector<double> values(matrix.rows());
        for (std::size_t i = 0; i < matrix.rows(); ++i)
            values[i] = matrix(i, col);
        const auto fixed = engine.repairColumn(col, values);
        if (fixed.has_value()) {
            ++repaired;
            EXPECT_EQ(*fixed, want);
        }
    }
    EXPECT_GT(repaired, kSeeds / 2);
}

} // namespace
} // namespace poco::cluster
