/**
 * @file
 * Tests for cluster-level degradation: the greedy solver, the
 * Hungarian -> Greedy fallback chain, the fit-health gate, and
 * crash-plan evaluation with bounded-retry re-placement.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster_evaluator.hpp"
#include "cluster/placement.hpp"
#include "fault/fault_plan.hpp"
#include "util/check.hpp"
#include "wl/registry.hpp"

namespace poco::cluster
{
namespace
{

PerformanceMatrix
handMatrix()
{
    return PerformanceMatrix::fromRows({{9.0, 2.0, 1.0, 1.0},
                                        {2.0, 8.0, 1.0, 1.0},
                                        {1.0, 2.0, 7.0, 1.0},
                                        {1.0, 1.0, 2.0, 6.0}});
}

TEST(Placement, GreedyMatchesOptimumOnDominantDiagonal)
{
    const auto greedy = place(handMatrix(), PlacementKind::Greedy);
    const auto exact = place(handMatrix(), PlacementKind::Hungarian);
    EXPECT_EQ(greedy, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(placementValue(handMatrix(), greedy),
              placementValue(handMatrix(), exact));
}

TEST(Placement, GreedyNeverBeatsExactButStaysValid)
{
    // Greedy grabs (0,0)=10 first and forfeits the optimal pairing.
    const PerformanceMatrix m =
        PerformanceMatrix::fromRows({{10.0, 9.0}, {9.0, 1.0}});
    const auto greedy = place(m, PlacementKind::Greedy);
    const auto exact = place(m, PlacementKind::Hungarian);
    EXPECT_EQ(greedy, (std::vector<int>{0, 1}));
    EXPECT_LE(placementValue(m, greedy), placementValue(m, exact));
    std::vector<int> sorted = greedy;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1}));
}

TEST(Placement, FallbackUsesHungarianFirst)
{
    FallbackOptions options;
    std::vector<PlacementKind> tried;
    options.failInjection = [&tried](PlacementKind kind, int) {
        tried.push_back(kind);
        return false;
    };
    const auto report = placeWithFallback(handMatrix(), {}, options);
    EXPECT_EQ(report.tier, SolverTier::Hungarian);
    EXPECT_EQ(report.attempts, 1);
    EXPECT_FALSE(report.degradation.conservative);
    EXPECT_EQ(tried, std::vector<PlacementKind>{PlacementKind::Hungarian})
        << "the simplex is a policy, not a rung of the chain";
    EXPECT_EQ(report.value,
              place(handMatrix(), PlacementKind::Hungarian));
}

TEST(Placement, FallbackWalksTheChain)
{
    FallbackOptions options;
    options.failInjection = [](PlacementKind kind, int) {
        return kind == PlacementKind::Hungarian;
    };
    const auto report =
        placeWithFallback(handMatrix(), {}, options);
    EXPECT_EQ(report.tier, SolverTier::Greedy);
    EXPECT_EQ(report.attempts, 3); // 2 failed Hungarian tries + Greedy
    EXPECT_FALSE(report.degradation.conservative);
    EXPECT_EQ(report.value, place(handMatrix(), PlacementKind::Greedy));
}

TEST(Placement, FallbackTerminatesWithIdentity)
{
    FallbackOptions options;
    options.maxAttemptsPerStage = 1;
    options.failInjection = [](PlacementKind, int) { return true; };
    const auto report =
        placeWithFallback(handMatrix(), {}, options);
    EXPECT_TRUE(report.degradation.conservative);
    EXPECT_EQ(report.tier, SolverTier::Conservative);
    EXPECT_EQ(report.attempts, 2); // one Hungarian + one Greedy try
    EXPECT_EQ(report.value, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Placement, FallbackRetriesWithinAStage)
{
    // First Hungarian attempt fails, second succeeds: no fallback.
    FallbackOptions options;
    options.failInjection = [](PlacementKind kind, int attempt) {
        return kind == PlacementKind::Hungarian && attempt == 0;
    };
    const auto report =
        placeWithFallback(handMatrix(), {}, options);
    EXPECT_EQ(report.tier, SolverTier::Hungarian);
    EXPECT_EQ(report.attempts, 2);
}

class FaultClusterTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        set_ = new wl::AppSet(wl::defaultAppSet());
        FleetConfig config;
        config.dwell = 30 * kSecond;
        config.loadPoints = {0.2, 0.5, 0.8};
        evaluator_ = new ClusterEvaluator(*set_, config);
    }

    static void
    TearDownTestSuite()
    {
        delete evaluator_;
        evaluator_ = nullptr;
        delete set_;
        set_ = nullptr;
    }

    static wl::AppSet* set_;
    static ClusterEvaluator* evaluator_;
};

wl::AppSet* FaultClusterTest::set_ = nullptr;
ClusterEvaluator* FaultClusterTest::evaluator_ = nullptr;

TEST_F(FaultClusterTest, HealthyModelsPassTheGate)
{
    EXPECT_TRUE(evaluator_->modelsHealthy());
    const auto report = evaluator_->placeBeRobust({0, 1, 2, 3});
    EXPECT_FALSE(report.degradation.conservative);
    EXPECT_EQ(report.value,
              evaluator_->placeBe(PlacementKind::Hungarian));
}

TEST_F(FaultClusterTest, UnreachableGateForcesConservative)
{
    FleetConfig config = evaluator_->config();
    config.minPerfR2 = 1.1; // no fit can clear this
    const ClusterEvaluator gated(*set_, config);
    EXPECT_FALSE(gated.modelsHealthy());
    const auto report = gated.placeBeRobust({0, 1, 2, 3});
    EXPECT_TRUE(report.degradation.conservative);
    EXPECT_EQ(report.value, gated.placeConservative({0, 1, 2, 3}));
}

TEST_F(FaultClusterTest, RobustPlacementAvoidsDownServers)
{
    const std::vector<int> up{1, 3};
    const auto report = evaluator_->placeBeRobust(up);
    int placed = 0;
    for (const int j : report.value) {
        if (j < 0)
            continue;
        ++placed;
        EXPECT_TRUE(j == 1 || j == 3);
    }
    EXPECT_EQ(placed, 2); // 4 BEs, 2 survivors
}

TEST_F(FaultClusterTest, CrashPlanDrivesReplacement)
{
    std::vector<fault::FaultWindow> windows{
        {100 * kSecond, 200 * kSecond, fault::FaultKind::ServerCrash,
         0.0, 1},
        {250 * kSecond, 300 * kSecond, fault::FaultKind::ServerCrash,
         0.0, 2}};
    const auto plan = fault::FaultPlan::fromWindows(windows);
    const auto outcome =
        evaluator_->runWithServerFaults(plan, ManagerKind::Pom);

    ASSERT_EQ(outcome.epochs.size(), 4u);
    EXPECT_EQ(outcome.horizon, 300 * kSecond);
    // Down servers never appear in their epoch's assignment.
    EXPECT_EQ(outcome.epochs[1].down, std::vector<int>{1});
    for (const int j : outcome.epochs[1].placement.value)
        EXPECT_NE(j, 1);
    EXPECT_EQ(outcome.epochs[3].down, std::vector<int>{2});
    for (const int j : outcome.epochs[3].placement.value)
        EXPECT_NE(j, 2);
    // 4 BEs onto 3 survivors: one parks in each crash epoch.
    EXPECT_EQ(outcome.epochs[1].unplaced, 1);
    EXPECT_EQ(outcome.epochs[0].unplaced, 0);
    EXPECT_GE(outcome.replacements, 2);
    EXPECT_GT(outcome.timeWeightedThroughput, 0.0);
    // Healthy epochs out-produce the degraded ones.
    EXPECT_GE(outcome.epochs[0].beThroughput,
              outcome.epochs[1].beThroughput);
}

TEST_F(FaultClusterTest, CrashPlanWithSolverFaultsStaysBounded)
{
    std::vector<fault::FaultWindow> windows{
        {100 * kSecond, 200 * kSecond, fault::FaultKind::ServerCrash,
         0.0, 0}};
    const auto plan = fault::FaultPlan::fromWindows(windows);
    FallbackOptions options;
    options.failInjection = [](PlacementKind kind, int) {
        return kind == PlacementKind::Hungarian;
    };
    const auto outcome = evaluator_->runWithServerFaults(
        plan, ManagerKind::Pom, options);
    ASSERT_EQ(outcome.epochs.size(), 2u);
    for (const auto& epoch : outcome.epochs) {
        EXPECT_EQ(epoch.placement.tier, SolverTier::Greedy);
        // Bounded retry: 2 failed Hungarian tries + 1 Greedy success.
        EXPECT_EQ(epoch.placement.attempts, 3);
    }
    EXPECT_EQ(outcome.solverAttempts, 6);
}

TEST_F(FaultClusterTest, BroadcastCrashParksEverything)
{
    std::vector<fault::FaultWindow> windows{
        {0, 50 * kSecond, fault::FaultKind::ServerCrash, 0.0, -1}};
    const auto plan = fault::FaultPlan::fromWindows(windows);
    const auto outcome =
        evaluator_->runWithServerFaults(plan, ManagerKind::Pom);
    ASSERT_GE(outcome.epochs.size(), 1u);
    EXPECT_EQ(outcome.epochs[0].down.size(), set_->lc.size());
    EXPECT_EQ(outcome.epochs[0].unplaced,
              static_cast<int>(set_->be.size()));
    EXPECT_EQ(outcome.epochs[0].beThroughput, 0.0);
}

TEST_F(FaultClusterTest, CrashOutsideClusterIsRejected)
{
    std::vector<fault::FaultWindow> windows{
        {0, 50 * kSecond, fault::FaultKind::ServerCrash, 0.0, 99}};
    const auto plan = fault::FaultPlan::fromWindows(windows);
    EXPECT_THROW(
        evaluator_->runWithServerFaults(plan, ManagerKind::Pom),
        poco::FatalError);
}

} // namespace
} // namespace poco::cluster
