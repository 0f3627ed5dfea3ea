/**
 * @file
 * poco::FleetConfig — the one knob surface for evaluation runs.
 *
 * Earlier revisions scattered run configuration across three places:
 * cluster::EvaluatorConfig (load schedule, profiler, fit gate),
 * cluster::SolverConfig (LP cutoffs, memo cache), and loose
 * `threads` / `seed` arguments threaded through benches and the CLI.
 * Every consumer stitched them together slightly differently, and
 * the fleet layer would have added a fourth bundle on top.
 *
 * FleetConfig subsumes all of them: one value type, builder-style
 * `withX()` setters validated by POCO_CHECK at the call site, and a
 * `validated()` gate the evaluators run before using it. The old
 * structs survived one PR as deprecated shims and are now gone; the
 * poco_lint `deprecated-config` rule flags any reappearance.
 *
 * The struct lives in namespace poco (not poco::fleet) because every
 * layer consumes it: ClusterEvaluator takes it directly, and
 * fleet::FleetEvaluator adds no config type of its own. The header
 * lives under cluster/ — the lowest layer that consumes it — so that
 * no cluster header reaches *up* into fleet/ (the poco_lint
 * `layering` rule enforces the downward-only include DAG).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "model/profiler.hpp"
#include "server/server_manager.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::math
{
class AssignmentCache;
}

namespace poco
{

/** Unified evaluation configuration (cluster and fleet layers). */
struct FleetConfig
{
    // ----- cluster evaluation (formerly cluster::EvaluatorConfig) --

    /** LC load points (uniform distribution, paper: 10%..90%). */
    std::vector<double> loadPoints =
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
    /** Dwell per load point in the stepped trace. */
    SimTime dwell = 120 * kSecond;
    /** Per-server manager configuration. */
    server::ServerManagerConfig server;
    /** Profiler settings for the model-fitting stage. */
    model::ProfilerConfig profiler;
    /**
     * Root seed mixed into every stochastic stream (profiling noise,
     * the baseline controller's random indifference-curve draws, and
     * the fleet layer's per-cluster stream splits). Re-running a
     * policy under several seeds measures how much of a result is
     * seed luck; see bench_fig12_throughput.
     */
    std::uint64_t seed = 0;
    /**
     * Controller-seed replicas averaged into the Random baseline.
     * Its server manager draws random indifference-curve points, so
     * a single sequence is a high-variance estimate of the policy's
     * expectation; each extra replica re-runs the pair with a fresh
     * seed. POM/POColo are deterministic given the fitted models and
     * ignore this.
     */
    int heraclesReplicas = 3;
    /**
     * Fit-health gate for robust placement: when any fitted model's
     * perf/power R^2 falls below these thresholds, placeBeRobust()
     * stops trusting the preference matrix and uses the conservative
     * preference-free allocation instead. 0 disables the gate.
     */
    double minPerfR2 = 0.0;
    double minPowerR2 = 0.0;

    // ----- execution (formerly loose threads args + SolverConfig) --

    /**
     * Worker threads for the evaluation pipeline (profiling, fits,
     * matrix cells, and per-server simulation runs): 1 runs serial
     * on the calling thread, 0 uses the process-wide pool (hardware
     * concurrency), N > 1 uses a dedicated pool of N workers. Every
     * setting produces bit-identical results — tasks draw from
     * deterministic split streams and write index-addressed slots.
     * Ignored when `pool` is set.
     */
    int threads = 0;
    /**
     * Borrowed pool overriding `threads`. The fleet layer sets this
     * so every per-cluster evaluator shares ONE pool — nested joins
     * help execute queued tasks instead of blocking, so there is no
     * pool-in-pool deadlock and no thread explosion.
     */
    runtime::ThreadPool* pool = nullptr;
    /**
     * Assignment-solve memo override; null lets each evaluator use
     * its own. Results never depend on this — only wall-clock does.
     */
    math::AssignmentCache* solverCache = nullptr;
    /** Minimum tableau cells before an LP pivot fans out over rows. */
    std::size_t solverPivotCutoff = 4096;
    /** Columns per LP pricing/ratio-test reduction chunk. */
    std::size_t solverPricingGrain = 2048;

    // ----- fleet layer -------------------------------------------

    /**
     * Shards the fleet's clusters are distributed over for
     * evaluation. Sharding is an execution detail only: rollups are
     * bit-identical for any shard count (per-cluster seeds key to
     * the canonical cluster index, never the shard).
     */
    int shards = 1;
    /**
     * Fleet epoch schedule: one entry per epoch, each the LC load
     * fraction every cluster serves for that epoch. Budget
     * redistribution runs between consecutive epochs.
     */
    std::vector<double> epochLoads = {0.3, 0.6, 0.9};
    /**
     * Optional per-cluster epoch loads from a generated scenario,
     * flattened epoch-major: epochClusterLoads[e * width + c] is
     * cluster c's load in epoch e. Empty (width 0) means every
     * cluster serves epochLoads[e] — the pre-scenario behaviour.
     * When set, epochLoads still holds one entry per epoch (the
     * per-epoch fleet mean) so epoch counting and reports are
     * unchanged, and the evaluator checks width against the
     * partitioned cluster count.
     */
    std::vector<double> epochClusterLoads;
    /** Clusters per epoch row of epochClusterLoads (0 = unset). */
    std::size_t epochClusterWidth = 0;
    /** Fingerprint of the generating scenario (0 = none). */
    std::uint64_t scenarioFingerprint = 0;
    /**
     * Total fleet power budget. Zero means "sum of the member
     * servers' provisioned budgets"; a non-zero value is split over
     * clusters proportionally to their provisioned sums.
     */
    Watts fleetBudget{};
    /** Move unused per-cluster budget to capped clusters each epoch. */
    bool redistributeBudget = true;
    /** Fold telemetry rollups off-thread (double-buffered epochs). */
    bool asyncTelemetry = true;

    // ----- streaming control plane (fleet::runStreaming) ---------
    //
    // Plain-typed knobs (no ctrl:: includes) that the fleet layer
    // assembles into a ctrl::ControlPlaneConfig; the epoch loop
    // above and the event loop below are alternative drivers over
    // the same fitted models.

    /** Nominal heartbeat period in logical ticks. */
    SimTime heartbeatPeriod = kSecond;
    /** Uniform per-beat jitter in [0, heartbeatJitter] ticks. */
    SimTime heartbeatJitter = kSecond / 10;
    /** Consecutive misses before Alive demotes to Suspect. */
    int heartbeatSuspectMisses = 2;
    /** Consecutive misses before Suspect demotes to Dead. */
    int heartbeatDeadMisses = 4;
    /** LC load fraction every server starts the event loop at. */
    double streamingInitialLoad = 0.5;
    /** Solver baseline: cold placeWithFallback on every event (the
     *  solver ladder only; the cell table still serves the matrix). */
    bool streamingForceCold = false;
    /**
     * Masters in the control-plane group for
     * runStreamingWithFailover (primary + standbys). The lease
     * ladder reuses the heartbeat knobs above with a seed split off
     * config.seed, so master elections are replayable.
     */
    std::size_t ctrlMasters = 2;
    /** Checkpoint the primary every this many applied events. */
    std::size_t ctrlCheckpointEvery = 16;
    /** Bound the master's event-admission queue (shed past it). */
    bool backpressureEnabled = false;
    /** Maximum admitted-but-unfinished re-solves before shedding. */
    std::size_t backpressureWindow = 8;
    /** Logical ticks one admitted ladder re-solve occupies. */
    SimTime backpressureResolveCost = 100 * kMillisecond;

    // ----- builder setters ---------------------------------------

    FleetConfig& withLoadPoints(std::vector<double> points)
    {
        POCO_CHECK(!points.empty(), "loadPoints must be non-empty");
        for (const double p : points)
            POCO_CHECK(p > 0.0 && p <= 1.0,
                       "load points must be in (0, 1]");
        loadPoints = std::move(points);
        return *this;
    }
    FleetConfig& withDwell(SimTime value)
    {
        POCO_CHECK(value > 0, "dwell must be positive");
        dwell = value;
        return *this;
    }
    FleetConfig& withSeed(std::uint64_t value)
    {
        seed = value;
        return *this;
    }
    FleetConfig& withHeraclesReplicas(int value)
    {
        POCO_CHECK(value >= 1,
                   "heraclesReplicas must be at least 1");
        heraclesReplicas = value;
        return *this;
    }
    FleetConfig& withFitHealthGate(double perf_r2, double power_r2)
    {
        // Above 1 is allowed: an unreachable gate means "never
        // trust the fitted models" (always place conservatively).
        POCO_CHECK(perf_r2 >= 0.0,
                   "minPerfR2 must be non-negative");
        POCO_CHECK(power_r2 >= 0.0,
                   "minPowerR2 must be non-negative");
        minPerfR2 = perf_r2;
        minPowerR2 = power_r2;
        return *this;
    }
    FleetConfig& withThreads(int value)
    {
        POCO_CHECK(value >= 0,
                   "threads must be >= 0 (0 = shared pool)");
        threads = value;
        return *this;
    }
    FleetConfig& withPool(runtime::ThreadPool* value)
    {
        pool = value;
        return *this;
    }
    FleetConfig& withSolverCache(math::AssignmentCache* value)
    {
        solverCache = value;
        return *this;
    }
    FleetConfig& withSolverCutoffs(std::size_t pivot_cutoff,
                                   std::size_t pricing_grain)
    {
        POCO_CHECK(pivot_cutoff >= 1,
                   "solverPivotCutoff must be at least 1");
        POCO_CHECK(pricing_grain >= 1,
                   "solverPricingGrain must be at least 1");
        solverPivotCutoff = pivot_cutoff;
        solverPricingGrain = pricing_grain;
        return *this;
    }
    FleetConfig& withShards(int value)
    {
        POCO_CHECK(value >= 1, "shards must be at least 1");
        shards = value;
        return *this;
    }
    FleetConfig& withEpochLoads(std::vector<double> loads)
    {
        POCO_CHECK(!loads.empty(), "epochLoads must be non-empty");
        for (const double p : loads)
            POCO_CHECK(p > 0.0 && p <= 1.0,
                       "epoch loads must be in (0, 1]");
        epochLoads = std::move(loads);
        return *this;
    }
    /**
     * Adopt a generated scenario's per-cluster epoch schedule:
     * @p loads is epoch-major with @p width clusters per row (see
     * epochClusterLoads). epochLoads is rewritten to the per-epoch
     * means so the epoch count and fleet-level reporting stay
     * consistent, and @p fingerprint records which scenario produced
     * the schedule.
     */
    FleetConfig& withScenarioLoads(std::vector<double> loads,
                                   std::size_t width,
                                   std::uint64_t fingerprint)
    {
        POCO_CHECK(width >= 1,
                   "scenario loads need at least one cluster");
        POCO_CHECK(!loads.empty() && loads.size() % width == 0,
                   "scenario loads must be whole epoch rows");
        for (const double p : loads)
            POCO_CHECK(p > 0.0 && p <= 1.0,
                       "scenario loads must be in (0, 1]");
        const std::size_t n_epochs = loads.size() / width;
        std::vector<double> means(n_epochs, 0.0);
        for (std::size_t e = 0; e < n_epochs; ++e) {
            for (std::size_t c = 0; c < width; ++c)
                means[e] += loads[e * width + c];
            means[e] /= static_cast<double>(width);
        }
        epochClusterLoads = std::move(loads);
        epochClusterWidth = width;
        scenarioFingerprint = fingerprint;
        epochLoads = std::move(means);
        return *this;
    }

    /**
     * Adopt a scen::ScenarioSpec or generated scen::Scenario.
     * Duck-typed (the cluster layer cannot name scen types): a spec
     * — anything with generate() — is expanded first; a scenario
     * contributes its epoch-major loads, width and fingerprint via
     * withScenarioLoads. The scenario's servers() still need to be
     * handed to the evaluator (fleet::serversFromScenario does
     * both).
     */
    template <typename S>
    FleetConfig& withScenario(const S& scenario)
    {
        if constexpr (requires { scenario.generate(); }) {
            return withScenario(scenario.generate());
        } else {
            return withScenarioLoads(scenario.epochClusterLoads(),
                                     scenario.epochClusterWidth(),
                                     scenario.fingerprint());
        }
    }

    FleetConfig& withFleetBudget(Watts value)
    {
        POCO_CHECK(value >= Watts{},
                   "fleetBudget must be non-negative");
        fleetBudget = value;
        return *this;
    }
    FleetConfig& withBudgetRedistribution(bool value)
    {
        redistributeBudget = value;
        return *this;
    }
    FleetConfig& withAsyncTelemetry(bool value)
    {
        asyncTelemetry = value;
        return *this;
    }
    FleetConfig& withHeartbeat(SimTime period, SimTime jitter,
                               int suspect_misses, int dead_misses)
    {
        POCO_CHECK(period > 0, "heartbeatPeriod must be positive");
        POCO_CHECK(jitter >= 0,
                   "heartbeatJitter must be non-negative");
        POCO_CHECK(suspect_misses >= 1,
                   "heartbeatSuspectMisses must be at least 1");
        POCO_CHECK(dead_misses >= suspect_misses,
                   "heartbeatDeadMisses must be >= suspectMisses");
        heartbeatPeriod = period;
        heartbeatJitter = jitter;
        heartbeatSuspectMisses = suspect_misses;
        heartbeatDeadMisses = dead_misses;
        return *this;
    }
    FleetConfig& withStreaming(double initial_load, bool force_cold)
    {
        POCO_CHECK(initial_load > 0.0 && initial_load <= 1.0,
                   "streamingInitialLoad must be in (0, 1]");
        streamingInitialLoad = initial_load;
        streamingForceCold = force_cold;
        return *this;
    }
    FleetConfig& withFailover(std::size_t masters,
                              std::size_t checkpoint_every)
    {
        POCO_CHECK(masters >= 1,
                   "ctrlMasters must be at least 1");
        POCO_CHECK(checkpoint_every >= 1,
                   "ctrlCheckpointEvery must be at least 1");
        ctrlMasters = masters;
        ctrlCheckpointEvery = checkpoint_every;
        return *this;
    }
    FleetConfig& withBackpressure(std::size_t window,
                                  SimTime resolve_cost)
    {
        POCO_CHECK(window >= 1,
                   "backpressureWindow must be at least 1");
        POCO_CHECK(resolve_cost > 0,
                   "backpressureResolveCost must be positive");
        backpressureEnabled = true;
        backpressureWindow = window;
        backpressureResolveCost = resolve_cost;
        return *this;
    }

    /**
     * Validate every field (the setters validate incrementally; this
     * re-checks a config assembled by direct field writes). Returns
     * *this so evaluator constructors can chain on it.
     */
    const FleetConfig& validated() const
    {
        POCO_CHECK(!loadPoints.empty(),
                   "loadPoints must be non-empty");
        for (const double p : loadPoints)
            POCO_CHECK(p > 0.0 && p <= 1.0,
                       "load points must be in (0, 1]");
        POCO_CHECK(dwell > 0, "dwell must be positive");
        POCO_CHECK(heraclesReplicas >= 1,
                   "heraclesReplicas must be at least 1");
        POCO_CHECK(minPerfR2 >= 0.0,
                   "minPerfR2 must be non-negative");
        POCO_CHECK(minPowerR2 >= 0.0,
                   "minPowerR2 must be non-negative");
        POCO_CHECK(threads >= 0,
                   "threads must be >= 0 (0 = shared pool)");
        POCO_CHECK(solverPivotCutoff >= 1,
                   "solverPivotCutoff must be at least 1");
        POCO_CHECK(solverPricingGrain >= 1,
                   "solverPricingGrain must be at least 1");
        POCO_CHECK(shards >= 1, "shards must be at least 1");
        POCO_CHECK(!epochLoads.empty(),
                   "epochLoads must be non-empty");
        for (const double p : epochLoads)
            POCO_CHECK(p > 0.0 && p <= 1.0,
                       "epoch loads must be in (0, 1]");
        if (epochClusterWidth > 0) {
            POCO_CHECK(!epochClusterLoads.empty() &&
                           epochClusterLoads.size() %
                                   epochClusterWidth ==
                               0,
                       "scenario loads must be whole epoch rows");
            POCO_CHECK(epochClusterLoads.size() /
                               epochClusterWidth ==
                           epochLoads.size(),
                       "scenario loads disagree with epoch count");
            for (const double p : epochClusterLoads)
                POCO_CHECK(p > 0.0 && p <= 1.0,
                           "scenario loads must be in (0, 1]");
        } else {
            POCO_CHECK(epochClusterLoads.empty(),
                       "epochClusterLoads set without a width");
        }
        POCO_CHECK(fleetBudget >= Watts{},
                   "fleetBudget must be non-negative");
        POCO_CHECK(heartbeatPeriod > 0,
                   "heartbeatPeriod must be positive");
        POCO_CHECK(heartbeatJitter >= 0,
                   "heartbeatJitter must be non-negative");
        POCO_CHECK(heartbeatSuspectMisses >= 1,
                   "heartbeatSuspectMisses must be at least 1");
        POCO_CHECK(heartbeatDeadMisses >= heartbeatSuspectMisses,
                   "heartbeatDeadMisses must be >= suspectMisses");
        POCO_CHECK(streamingInitialLoad > 0.0 &&
                       streamingInitialLoad <= 1.0,
                   "streamingInitialLoad must be in (0, 1]");
        POCO_CHECK(ctrlMasters >= 1,
                   "ctrlMasters must be at least 1");
        POCO_CHECK(ctrlCheckpointEvery >= 1,
                   "ctrlCheckpointEvery must be at least 1");
        POCO_CHECK(backpressureWindow >= 1,
                   "backpressureWindow must be at least 1");
        POCO_CHECK(backpressureResolveCost > 0,
                   "backpressureResolveCost must be positive");
        return *this;
    }
};

} // namespace poco
