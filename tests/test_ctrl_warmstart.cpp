/**
 * @file
 * Warm-start equivalence: every incremental solve rung must return
 * exactly what a cold solve would. HungarianRepair matches
 * solveAssignmentMax after single-row/column repairs; the
 * IncrementalPlacer ladder matches placeWithFallback event by event.
 * Runs under tier-ctrl.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/incremental.hpp"
#include "cluster/placement.hpp"
#include "flat_matrix.hpp"
#include "math/hungarian.hpp"
#include "util/rng.hpp"

namespace poco
{
namespace
{

using poco::test::FlatMatrix;

FlatMatrix
randomMatrix(Rng& rng, std::size_t rows, std::size_t cols)
{
    FlatMatrix value(rows, cols);
    for (double& cell : value.cells)
        cell = rng.uniform(0.0, 100.0);
    return value;
}

TEST(CtrlWarmstart, HungarianRepairMatchesOracleAfterRowChange)
{
    Rng rng(404);
    math::HungarianRepair engine;
    for (int instance = 0; instance < 5; ++instance) {
        const std::size_t n = 3 + static_cast<std::size_t>(instance);
        auto value = randomMatrix(rng, n, n + 1);
        EXPECT_EQ(engine.solveFull(value),
                  math::solveAssignmentMax(value));

        for (int round = 0; round < 20; ++round) {
            const auto row = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(n) - 1));
            for (std::size_t j = 0; j < value.cols; ++j)
                value.at(row, j) = rng.uniform(0.0, 100.0);
            const auto repaired = engine.repairRow(
                row, value.cells.data() + row * value.cols,
                value.cols);
            const std::vector<int> oracle =
                math::solveAssignmentMax(value);
            if (repaired.has_value()) {
                EXPECT_EQ(*repaired, oracle)
                    << "instance " << instance << " round " << round;
            } else {
                // Self-verification rejected the repair; re-arm.
                engine.solveFull(value);
            }
        }
    }
}

TEST(CtrlWarmstart, HungarianRepairMatchesOracleAfterColumnChange)
{
    Rng rng(505);
    math::HungarianRepair engine;
    const std::size_t n = 6;
    auto value = randomMatrix(rng, n, n);
    engine.solveFull(value);
    for (int round = 0; round < 40; ++round) {
        const auto col = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) - 1));
        std::vector<double> column(n);
        for (std::size_t i = 0; i < n; ++i) {
            value.at(i, col) = rng.uniform(0.0, 100.0);
            column[i] = value.at(i, col);
        }
        const auto repaired = engine.repairColumn(col, column);
        const std::vector<int> oracle =
            math::solveAssignmentMax(value);
        if (repaired.has_value()) {
            EXPECT_EQ(*repaired, oracle) << "round " << round;
        } else {
            engine.solveFull(value);
        }
    }
}

TEST(CtrlWarmstart, IncrementalPlacerMatchesColdChainEventByEvent)
{
    // The full ladder vs the batch path over a randomized storm of
    // single-event perturbations. Every resolve must equal the
    // placeWithFallback answer on assignment and objective, whatever
    // rung served it.
    Rng rng(606);
    const std::size_t rows = 6;
    const std::size_t cols = 8;

    cluster::PerformanceMatrix matrix;
    matrix.resize(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);

    cluster::IncrementalPlacer placer;

    auto check = [&](const cluster::PlacementDelta& delta,
                     int round) {
        const auto incremental = placer.resolve(matrix, delta);
        const auto cold = cluster::placeWithFallback(matrix);
        EXPECT_EQ(incremental.value, cold.value)
            << "round " << round << " delta "
            << cluster::placementDeltaKindName(delta.kind);
        EXPECT_DOUBLE_EQ(
            cluster::placementValue(matrix, incremental.value),
            cluster::placementValue(matrix, cold.value));
    };

    check(cluster::PlacementDelta::shape(), -1);
    std::uint64_t single_subject = 0;
    for (int round = 0; round < 50; ++round) {
        switch (rng.uniformInt(0, 2)) {
          case 0: { // LoadShift: one server column re-priced
            const auto col = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(cols) - 1));
            for (std::size_t i = 0; i < rows; ++i)
                matrix(i, col) = rng.uniform(0.0, 100.0);
            check(cluster::PlacementDelta::column(col), round);
            ++single_subject;
            break;
          }
          case 1: { // BE profile refresh: one row re-priced
            const auto row = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(rows) - 1));
            for (std::size_t j = 0; j < cols; ++j)
                matrix(row, j) = rng.uniform(0.0, 100.0);
            check(cluster::PlacementDelta::row(row), round);
            ++single_subject;
            break;
          }
          default: { // BudgetChange: same shape, everything scaled
            const double scale = rng.uniform(0.5, 1.5);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    matrix(i, j) *= scale;
            check(cluster::PlacementDelta::fullRefresh(), round);
            break;
          }
        }
    }

    // The ladder must actually have been exercised, not just have
    // fallen cold every time: most single-subject events should take
    // the repair rung (a repair whose self-check fails re-arms cold),
    // and every other solve is a cold Hungarian re-arm.
    const cluster::IncrementalStats& stats = placer.stats();
    EXPECT_GE(2 * (stats.repaired + stats.cached), single_subject)
        << "incremental rungs barely fired: repaired="
        << stats.repaired << " cached=" << stats.cached
        << " of " << single_subject << " single-subject events";
    EXPECT_EQ(stats.repaired + stats.cached + stats.cold, 51u);
    EXPECT_EQ(stats.fallback, 0u);
}

TEST(CtrlWarmstart, IncrementalPlacerResetForcesColdPath)
{
    Rng rng(707);
    cluster::PerformanceMatrix matrix;
    matrix.resize(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);
    cluster::IncrementalPlacer placer;
    const auto first =
        placer.resolve(matrix, cluster::PlacementDelta::shape());
    placer.reset();
    const auto second =
        placer.resolve(matrix, cluster::PlacementDelta::shape());
    EXPECT_EQ(first.value, second.value);
    EXPECT_GE(placer.stats().cold + placer.stats().cached, 2u);
}

} // namespace
} // namespace poco
