/**
 * @file
 * Extension — deterministic fault injection and the degradation
 * ladder (poco::fault).
 *
 * Section A sweeps the per-server fault rate on one colocated pair
 * and compares a naive manager (watchdog off — the paper's
 * implicit assumption of honest telemetry) against the guarded
 * manager. Three properties are asserted and the bench exits
 * non-zero if the ladder fails any of them:
 *
 *   P1  the guarded manager's ground-truth cap damage stays inside
 *       a small detection-latency budget of the fault-free envelope
 *   P2  the guarded primary's slack shortfall stays bounded
 *   P3  the naive manager demonstrably violates the cap under at
 *       least one fault intensity (the faults are real, not noise)
 *
 * Section B cuts a generated crash schedule into epochs and
 * re-places the best-effort jobs over the survivors, then repeats
 * the run with an injected Hungarian-solver failure to show the
 * bounded Hungarian -> Greedy fallback chain (P4).
 */

#include <cstdio>

#include "cluster/cluster_evaluator.hpp"
#include "common.hpp"
#include "fault/fault_plan.hpp"
#include "server/server_manager.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

/** Fault rates scaled by one intensity knob (events/min/server). */
fault::FaultPlanConfig
faultConfig(double intensity, SimTime horizon)
{
    fault::FaultPlanConfig config;
    config.horizon = horizon;
    config.servers = 1;
    config.sensorStuckRate = 0.5 * intensity;
    config.sensorDropoutRate = 0.25 * intensity;
    config.sensorBiasRate = 0.25 * intensity;
    config.actuatorStuckRate = 0.5 * intensity;
    config.telemetryStaleRate = 0.25 * intensity;
    config.loadSpikeRate = 0.25 * intensity;
    config.seed = 2026;
    return config;
}

server::ServerRunResult
runPair(bench::Context& ctx, const fault::FaultPlan* plan,
        bool watchdog, SimTime duration)
{
    const auto& lc = ctx.apps.lcByName("xapian");
    const auto& be = ctx.apps.beByName("graph");
    server::ServerManagerConfig config;
    config.watchdog.enabled = watchdog;
    // High load first: the frozen-sensor hazard is the hand-off
    // returning the spare to the secondary when the load drops.
    auto trace = wl::LoadTrace::stepped({0.9, 0.3, 0.7, 0.2},
                                        60 * kSecond);
    return server::runServerScenario(
        lc, &be, lc.provisionedPower(),
        std::make_unique<server::PomController>(
            ctx.lcModel("xapian")),
        std::move(trace), duration, config, plan);
}

int
sectionServer(bench::Context& ctx)
{
    const SimTime duration = 5 * kMinute;
    const auto clean = runPair(ctx, nullptr, true, duration);

    std::printf("fault-free envelope: overshoot %.1f J "
                "(peak %.2f W over cap), slack shortfall %.1f%%\n\n",
                clean.faults.capOvershootJoules.value(),
                clean.faults.maxOvershoot.value(),
                100.0 * clean.slackShortfallFraction);

    // The random sweep plus one hand-built worst case: the sensor
    // freezes during the high-load epoch, so every later hand-off
    // returns the spare to the secondary against a frozen-low
    // reading that the throttler trusts.
    const auto adversarial = fault::FaultPlan::fromWindows(
        {{50 * kSecond, duration, fault::FaultKind::SensorStuck, 0.0,
          0}});

    struct Row
    {
        std::string label;
        fault::FaultPlan plan;
    };
    std::vector<Row> rows;
    for (const double intensity : {0.5, 1.0, 2.0, 4.0})
        rows.push_back({fmt(intensity, 1),
                        fault::FaultPlan::generate(
                            faultConfig(intensity, duration))});
    rows.push_back({"adversarial", adversarial});

    TextTable table({"intensity", "windows", "naive overshoot J",
                     "guarded overshoot J", "degraded ticks",
                     "evictions", "guarded shortfall"});
    int failures = 0;
    bool naive_violates = false;
    for (const Row& row : rows) {
        const auto naive = runPair(ctx, &row.plan, false, duration);
        const auto guarded = runPair(ctx, &row.plan, true, duration);

        table.addRow(
            {row.label, std::to_string(row.plan.windows().size()),
             fmt(naive.faults.capOvershootJoules, 1),
             fmt(guarded.faults.capOvershootJoules, 1),
             std::to_string(guarded.faults.degradedTicks),
             std::to_string(guarded.faults.evictions),
             fmtPercent(guarded.slackShortfallFraction, 1)});

        // P1: cap damage bounded by the detection-latency budget.
        if (guarded.faults.capOvershootJoules >
            clean.faults.capOvershootJoules + Joules{60.0}) {
            std::printf("P1 FAIL at intensity %s: guarded overshoot "
                        "%.1f J exceeds the fault-free envelope "
                        "%.1f J + 60 J\n",
                        row.label.c_str(),
                        guarded.faults.capOvershootJoules.value(),
                        clean.faults.capOvershootJoules.value());
            ++failures;
        }
        // P2: the watchdog must not starve the primary — under the
        // same faults (load spikes hit both), the guarded manager's
        // slack shortfall stays within a hair of the naive one.
        if (guarded.slackShortfallFraction >
            naive.slackShortfallFraction + 0.05) {
            std::printf("P2 FAIL at intensity %s: guarded slack "
                        "shortfall %.1f%% vs naive %.1f%% + 5%%\n",
                        row.label.c_str(),
                        100.0 * guarded.slackShortfallFraction,
                        100.0 * naive.slackShortfallFraction);
            ++failures;
        }
        if (naive.faults.capOvershootJoules >
            clean.faults.capOvershootJoules + Joules{100.0})
            naive_violates = true;
    }
    std::printf("%s", table.render().c_str());

    // P3: the sweep must contain a demonstrable naive cap violation,
    // otherwise P1/P2 passed against toothless faults.
    if (!naive_violates) {
        std::printf("P3 FAIL: no scenario made the naive manager "
                    "violate the cap by more than 100 J\n");
        ++failures;
    }
    std::printf("\nP1 (guarded cap damage bounded): %s\n"
                "P2 (guarded slack shortfall bounded): %s\n"
                "P3 (naive demonstrably violates the cap): %s\n",
                failures == 0 ? "PASS" : "see above",
                failures == 0 ? "PASS" : "see above",
                naive_violates ? "PASS" : "FAIL");
    return failures;
}

int
sectionCluster(bench::Context& ctx)
{
    std::printf("\n== cluster: crash epochs and the fallback chain "
                "==\n\n");
    const cluster::ClusterEvaluator evaluator(ctx.apps);

    fault::FaultPlanConfig config;
    config.horizon = 10 * kMinute;
    config.servers = static_cast<int>(ctx.apps.lc.size());
    config.crashRate = 0.3;
    config.seed = 77;
    const auto plan = fault::FaultPlan::generate(config);
    const auto outcome = evaluator.runWithServerFaults(
        plan, cluster::ManagerKind::Pom);

    TextTable table({"epoch", "down servers", "solver", "attempts",
                     "unplaced BE", "cluster BE thr"});
    for (std::size_t e = 0; e < outcome.epochs.size(); ++e) {
        const auto& epoch = outcome.epochs[e];
        std::string down;
        for (const int j : epoch.down)
            down += (down.empty() ? "" : ",") + std::to_string(j);
        table.addRow(
            {"[" + fmt(toSeconds(epoch.start), 0) + "s, " +
                 fmt(toSeconds(epoch.end), 0) + "s)",
             down.empty() ? "-" : down,
             poco::solverTierName(epoch.placement.tier),
             std::to_string(epoch.placement.attempts),
             std::to_string(epoch.unplaced),
             fmt(epoch.beThroughput, 3)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nre-placements: %d, solver attempts: %d, "
                "time-weighted BE throughput: %.3f\n",
                outcome.replacements, outcome.solverAttempts,
                outcome.timeWeightedThroughput);

    // Same crash schedule, but every exact solve fails: the chain
    // must land on Greedy with bounded attempts in every epoch.
    cluster::FallbackOptions broken_exact;
    broken_exact.failInjection = [](cluster::PlacementKind kind, int) {
        return kind == cluster::PlacementKind::Hungarian;
    };
    const auto degraded = evaluator.runWithServerFaults(
        plan, cluster::ManagerKind::Pom, broken_exact);

    int failures = 0;
    const int per_epoch_bound = 2 * 2; // maxAttemptsPerStage x chain
    for (const auto& epoch : degraded.epochs) {
        if (epoch.placement.attempts > per_epoch_bound) {
            std::printf("P4 FAIL: epoch solver attempts %d exceed "
                        "the bound %d\n",
                        epoch.placement.attempts, per_epoch_bound);
            ++failures;
        }
        if (epoch.placement.tier == poco::SolverTier::Hungarian) {
            std::printf("P4 FAIL: an epoch still reports the broken "
                        "Hungarian solver\n");
            ++failures;
        }
    }
    if (outcome.replacements < 1) {
        std::printf("P4 FAIL: the crash schedule drove no "
                    "re-placement\n");
        ++failures;
    }
    std::printf("\nwith Hungarian broken: every epoch fell back to %s, "
                "solver attempts %d (bound %d: %d per epoch)\n",
                poco::solverTierName(
                    degraded.epochs.empty()
                        ? poco::SolverTier::Greedy
                        : degraded.epochs.front().placement.tier),
                degraded.solverAttempts,
                per_epoch_bound *
                    static_cast<int>(degraded.epochs.size()),
                per_epoch_bound);
    std::printf("P4 (bounded fallback re-placement): %s\n",
                failures == 0 ? "PASS" : "FAIL");
    return failures;
}

} // namespace

int
main()
{
    bench::banner(
        "Ext: faults",
        "deterministic fault injection and graceful degradation",
        "a watchdog-guarded manager bounds ground-truth cap damage "
        "under sensor/actuator faults, and crash-driven re-placement "
        "stays bounded through the solver fallback chain");

    auto& ctx = bench::context();
    int failures = 0;
    failures += sectionServer(ctx);
    failures += sectionCluster(ctx);
    if (failures != 0) {
        std::printf("\n%d degradation-ladder propert%s failed\n",
                    failures, failures == 1 ? "y" : "ies");
        return 1;
    }
    std::printf("\nall degradation-ladder properties hold\n");
    return 0;
}
