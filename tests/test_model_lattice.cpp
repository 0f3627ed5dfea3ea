/**
 * @file
 * The minimum-power lattice search against its independent oracle.
 *
 * model::minPowerAllocationFor() is the one-shot form of
 * model::AllocationGrid::minPowerFor(), and PomController scans a grid
 * it builds once per server. Both must equal the scalar two-pass scan
 * in lattice_oracle.hpp bit for bit — same cell, bit-equal modeled
 * power and performance, same nullopt — over a seeded sweep of fitted
 * and synthetic utilities, tie-valued and infeasible targets, every
 * headroom / tie band the callers use, and degenerate lattices. A
 * grid-backed PomController must drive a managed server exactly like
 * one that re-scans through the oracle on every decision, DVFS
 * tuning and shortfall boost included. The pinned fingerprints were
 * produced by the tree whose controller re-scanned the lattice on
 * every decision. Runs under tier-asan (grid indexing) and tier-tsan
 * (pooled scenario runs, one controller per worker).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ctrl/event_log.hpp"
#include "fleet/fleet_evaluator.hpp"
#include "lattice_oracle.hpp"
#include "managed_run.hpp"
#include "model/demand.hpp"
#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "server/server_manager.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "wl/registry.hpp"

namespace poco::model
{
namespace
{

using test::oracleMinPowerAllocation;

struct NamedUtility
{
    std::string name;
    CobbDouglasUtility utility;
};

/** Every registry app's fitted utility (LC and BE). */
const std::vector<NamedUtility>&
fittedUtilities()
{
    static const std::vector<NamedUtility> out = [] {
        const wl::AppSet apps = wl::defaultAppSet();
        const Profiler profiler;
        const UtilityFitter fitter;
        std::vector<NamedUtility> fitted;
        for (const auto& app : apps.lc)
            fitted.push_back({"lc:" + app.name(),
                              fitter.fit(profiler.profileLc(app))});
        for (const auto& app : apps.be)
            fitted.push_back({"be:" + app.name(),
                              fitter.fit(profiler.profileBe(app))});
        return fitted;
    }();
    return out;
}

/**
 * Seeded synthetic utilities. Half use small integer power slopes,
 * so many lattice cells draw exactly the same modeled power and the
 * tie band decides the answer.
 */
std::vector<NamedUtility>
syntheticUtilities(std::uint64_t seed, int count)
{
    Rng rng(seed);
    std::vector<NamedUtility> out;
    for (int k = 0; k < count; ++k) {
        const std::vector<double> alpha = {rng.uniform(0.05, 1.2),
                                           rng.uniform(0.05, 1.2)};
        const bool integer_slopes = k % 2 == 0;
        const std::vector<double> p_coef =
            integer_slopes
                ? std::vector<double>{
                      static_cast<double>(rng.uniformInt(1, 4)),
                      static_cast<double>(rng.uniformInt(1, 4))}
                : std::vector<double>{rng.uniform(0.3, 9.0),
                                      rng.uniform(0.1, 3.0)};
        const double log_a0 = rng.uniform(-1.0, 6.0);
        const double p_static = rng.uniform(20.0, 80.0);
        out.push_back({"synthetic#" + std::to_string(k),
                       CobbDouglasUtility(log_a0, alpha, p_static,
                                          p_coef)});
    }
    return out;
}

sim::ServerSpec
lattice(int cores, int ways)
{
    sim::ServerSpec spec;
    spec.cores = cores;
    spec.llcWays = ways;
    return spec;
}

/** 1x1, 1xn, nx1 and the paper's 12x20. */
std::vector<sim::ServerSpec>
lattices()
{
    return {lattice(1, 1), lattice(1, 20), lattice(12, 1),
            lattice(12, 20)};
}

/**
 * Targets for @p utility on @p spec: every distinct cell value (a
 * target exactly on a cell's modeled performance is a tie at
 * headroom 1), seeded points in between, and infeasible ones.
 */
std::vector<double>
targetsFor(const CobbDouglasUtility& utility,
           const sim::ServerSpec& spec, Rng& rng)
{
    std::vector<double> cells;
    for (int c = 1; c <= spec.cores; ++c)
        for (int w = 1; w <= spec.llcWays; ++w)
            cells.push_back(utility.performance(
                {static_cast<double>(c), static_cast<double>(w)}));
    const double top = *std::max_element(cells.begin(), cells.end());

    std::vector<double> targets;
    // Every cell value on small lattices; a seeded sample of them on
    // the 240-cell one keeps the sweep fast under the sanitizers.
    const std::size_t stride = cells.size() > 40 ? 7 : 1;
    for (std::size_t i = 0; i < cells.size(); i += stride)
        targets.push_back(cells[i]);
    for (int k = 0; k < 12; ++k)
        targets.push_back(rng.uniform(1e-9, top));
    targets.push_back(std::nextafter(top, 0.0));
    targets.push_back(std::nextafter(top, 2.0 * top)); // infeasible
    targets.push_back(top * 1.7);                       // infeasible
    targets.push_back(1e12);                            // infeasible
    return targets;
}

void
expectSamePlan(const std::optional<AllocationPlan>& got,
               const std::optional<AllocationPlan>& want,
               const std::string& label)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << label;
    if (!got)
        return;
    EXPECT_EQ(got->alloc, want->alloc) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got->modeledPower.value()),
              std::bit_cast<std::uint64_t>(want->modeledPower.value()))
        << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got->modeledPerf),
              std::bit_cast<std::uint64_t>(want->modeledPerf))
        << label;
}

/** Sweep every target x headroom x tie band; returns how many
 *  queries were infeasible (the caller checks both outcomes ran). */
int
sweep(const std::vector<NamedUtility>& utilities, std::uint64_t seed)
{
    Rng rng(seed);
    int infeasible = 0;
    for (const NamedUtility& u : utilities) {
        for (const sim::ServerSpec& spec : lattices()) {
            const AllocationGrid grid(u.utility, spec);
            for (const double target : targetsFor(u.utility, spec, rng)) {
                for (const double headroom : {1.0, 1.05, 1.3}) {
                    for (const double eps : {0.0, 0.002, 0.05}) {
                        std::ostringstream label;
                        label << u.name << " " << spec.cores << "x"
                              << spec.llcWays << " target=" << target
                              << " headroom=" << headroom
                              << " eps=" << eps;
                        const auto want = oracleMinPowerAllocation(
                            u.utility, target, spec, headroom, eps);
                        if (!want)
                            ++infeasible;
                        expectSamePlan(
                            grid.minPowerFor(target, headroom, eps),
                            want, "grid " + label.str());
                        expectSamePlan(
                            minPowerAllocationFor(u.utility, target,
                                                  spec, headroom, eps),
                            want, "one-shot " + label.str());
                    }
                }
            }
        }
    }
    return infeasible;
}

TEST(ModelLattice, FittedUtilitiesMatchTheOracle)
{
    EXPECT_GT(sweep(fittedUtilities(), 2020), 0);
}

TEST(ModelLattice, SyntheticUtilitiesMatchTheOracle)
{
    EXPECT_GT(sweep(syntheticUtilities(77, 8), 31), 0);
}

TEST(ModelLattice, PowerTiesResolveLikeTheOracle)
{
    // Slopes 2 and 1 give every anti-diagonal 2c + w the same power:
    // the zero band keeps the first cheapest cell, wider bands the
    // fewest cores.
    const CobbDouglasUtility u(0.0, {0.5, 0.5}, 10.0, {2.0, 1.0});
    const sim::ServerSpec spec = lattice(12, 20);
    const AllocationGrid grid(u, spec);
    int ties = 0;
    for (int c = 1; c <= spec.cores; ++c) {
        for (int w = 1; w <= spec.llcWays; ++w) {
            const double target = u.performance(
                {static_cast<double>(c), static_cast<double>(w)});
            for (const double eps : {0.0, 0.002, 0.05}) {
                const auto want =
                    oracleMinPowerAllocation(u, target, spec, 1.0, eps);
                ASSERT_TRUE(want.has_value());
                if (want->alloc.cores != c || want->alloc.ways != w)
                    ++ties;
                const std::string label = std::to_string(c) + "c/" +
                                          std::to_string(w) + "w";
                expectSamePlan(grid.minPowerFor(target, 1.0, eps), want,
                               label);
                expectSamePlan(
                    minPowerAllocationFor(u, target, spec, 1.0, eps),
                    want, label);
            }
        }
    }
    EXPECT_GT(ties, 0) << "the sweep must hit cells the band re-picks";
}

TEST(ModelLattice, PreconditionsThrow)
{
    const CobbDouglasUtility& u = fittedUtilities().front().utility;
    const CobbDouglasUtility k3(1.0, {0.3, 0.3, 0.3}, 40.0,
                                {3.0, 1.0, 2.0});
    const sim::ServerSpec spec = lattice(12, 20);
    const AllocationGrid grid(u, spec);

    EXPECT_THROW(minPowerAllocationFor(k3, 10.0, spec), FatalError);
    EXPECT_THROW(AllocationGrid(k3, spec), FatalError);
    for (const double target : {0.0, -1.0}) {
        EXPECT_THROW(minPowerAllocationFor(u, target, spec), FatalError);
        EXPECT_THROW(grid.minPowerFor(target), FatalError);
    }
    EXPECT_THROW(minPowerAllocationFor(u, 10.0, spec, 0.99), FatalError);
    EXPECT_THROW(grid.minPowerFor(10.0, 0.99), FatalError);
    EXPECT_THROW(minPowerAllocationFor(u, 10.0, spec, 1.0, -1e-9),
                 FatalError);
    EXPECT_THROW(grid.minPowerFor(10.0, 1.0, -1e-9), FatalError);
}

} // namespace
} // namespace poco::model

namespace poco::server
{
namespace
{

/**
 * PomController's decision rule with the lattice re-scanned through
 * the oracle on every decision — what the controller did before it
 * kept a grid. Counts the shortfall and DVFS paths it takes so the
 * comparison can show both were exercised.
 */
class OraclePomController : public PrimaryController
{
  public:
    OraclePomController(model::CobbDouglasUtility utility,
                        ControllerConfig config, int* shortfalls,
                        int* freq_steps)
        : utility_(std::move(utility)), config_(config),
          shortfalls_(shortfalls), freq_steps_(freq_steps)
    {}

    const std::string& name() const override { return name_; }

    sim::Allocation decide(const ColocatedServer& server) override
    {
        const sim::ServerSpec& spec = server.spec();
        const double slack = server.slack99();
        const Rps load = server.load();
        const Rps peak = server.lc().peakLoad();

        if (anchor_load_ < 0.0 ||
            std::abs(load.value() - anchor_load_) > 0.05 * peak.value()) {
            anchor_load_ = load.value();
            feedback_boost_ = std::max(feedback_boost_ - 4, 0);
            freq_ = spec.freqMax;
            high_slack_streak_ = 0;
        }
        const bool freq_relaxed =
            config_.tunePrimaryFrequency && freq_ > GHz{} &&
            freq_ < spec.freqMax - GHz{1e-9};
        if (slack < config_.minSlack && !freq_relaxed)
            feedback_boost_ = std::min(feedback_boost_ + 1, 16);

        const double target =
            std::max(server.load().value(), 1e-6) * config_.headroom *
            (1.0 + 0.02 * feedback_boost_);
        const auto plan =
            test::oracleMinPowerAllocation(utility_, target, spec);
        if (!plan)
            return sim::Allocation{spec.cores, spec.llcWays,
                                   spec.freqMax, 1.0};

        sim::Allocation alloc = plan->alloc;
        if (slack < config_.minSlack) {
            ++*shortfalls_;
            alloc.cores = std::max(alloc.cores,
                                   server.primaryAlloc().cores);
            alloc.ways =
                std::max(alloc.ways, server.primaryAlloc().ways);
            const auto pref = utility_.indirectPreference();
            if (pref[0] >= pref[1] && alloc.cores < spec.cores)
                ++alloc.cores;
            else if (alloc.ways < spec.llcWays)
                ++alloc.ways;
            else if (alloc.cores < spec.cores)
                ++alloc.cores;
        }

        if (config_.tunePrimaryFrequency) {
            if (freq_ <= GHz{})
                freq_ = spec.freqMax;
            if (slack < config_.minSlack) {
                freq_ = spec.freqMax;
                high_slack_streak_ = 0;
            } else if (slack >
                       config_.minSlack + config_.freqSlackMargin) {
                if (++high_slack_streak_ >= config_.freqStepPatience) {
                    freq_ = spec.stepDown(freq_);
                    ++*freq_steps_;
                    high_slack_streak_ = 0;
                }
            } else {
                high_slack_streak_ = 0;
            }
            alloc.freq = freq_;
        }
        return alloc;
    }

  private:
    std::string name_ = "pom-oracle";
    model::CobbDouglasUtility utility_;
    ControllerConfig config_;
    int* shortfalls_;
    int* freq_steps_;
    int feedback_boost_ = 0;
    double anchor_load_ = -1.0;
    GHz freq_{0.0};
    int high_slack_streak_ = 0;
};

void
expectSameRun(const test::ManagedRun& got_run,
              const test::ManagedRun& want_run, const std::string& label)
{
    const ServerRunResult& got = got_run.result;
    const ServerRunResult& want = want_run.result;
    EXPECT_EQ(got.stats.elapsed, want.stats.elapsed) << label;
    EXPECT_EQ(got.stats.energyJoules, want.stats.energyJoules) << label;
    EXPECT_EQ(got.stats.beWorkDone, want.stats.beWorkDone) << label;
    EXPECT_EQ(got.stats.sloViolationTime, want.stats.sloViolationTime)
        << label;
    EXPECT_EQ(got.stats.cappedTime, want.stats.cappedTime) << label;
    EXPECT_EQ(got.stats.maxPower, want.stats.maxPower) << label;
    EXPECT_EQ(got.stats.capOvershootJoules,
              want.stats.capOvershootJoules)
        << label;
    EXPECT_EQ(got.powerUtilization, want.powerUtilization) << label;
    EXPECT_EQ(got.averageSlack, want.averageSlack) << label;
    EXPECT_EQ(got.slackShortfallFraction, want.slackShortfallFraction)
        << label;
    ASSERT_EQ(got_run.samples.size(), want_run.samples.size()) << label;
    ASSERT_FALSE(got_run.samples.empty()) << label;
    for (std::size_t i = 0; i < got_run.samples.size(); ++i) {
        const sim::TelemetrySample& a = got_run.samples[i];
        const sim::TelemetrySample& b = want_run.samples[i];
        EXPECT_EQ(a.when, b.when) << label << " sample " << i;
        EXPECT_EQ(a.lcLoad, b.lcLoad) << label << " sample " << i;
        EXPECT_EQ(a.lcLatencyP95, b.lcLatencyP95)
            << label << " sample " << i;
        EXPECT_EQ(a.lcLatencyP99, b.lcLatencyP99)
            << label << " sample " << i;
        EXPECT_EQ(a.lcAlloc, b.lcAlloc) << label << " sample " << i;
        EXPECT_EQ(a.beThroughput, b.beThroughput)
            << label << " sample " << i;
        EXPECT_EQ(a.beAlloc, b.beAlloc) << label << " sample " << i;
        EXPECT_EQ(a.power, b.power) << label << " sample " << i;
    }
}

TEST(ModelLatticeServer, GridControllerMatchesTheOracleController)
{
    const wl::AppSet apps = wl::defaultAppSet();
    const model::Profiler profiler;
    const model::UtilityFitter fitter;
    // Sharp load steps up and down: upward steps open slack
    // shortfalls (feedback boost), long flat stretches give the DVFS
    // tuner persistent excess slack to step the frequency down.
    const wl::LoadTrace trace = wl::LoadTrace::stepped(
        {0.2, 0.9, 0.3, 0.95, 0.5, 0.1}, 40 * kSecond);
    constexpr SimTime kDuration = 240 * kSecond;

    for (const bool tune : {false, true}) {
        ServerManagerConfig config;
        config.warmup = 5 * kSecond;
        config.controller.tunePrimaryFrequency = tune;

        std::vector<ServerScenario> grid_runs;
        std::vector<ServerScenario> oracle_runs;
        std::vector<std::string> labels;
        std::vector<int> shortfalls(apps.lc.size() * 2, 0);
        std::vector<int> freq_steps(apps.lc.size() * 2, 0);
        std::size_t k = 0;
        for (const auto& lc : apps.lc) {
            const model::CobbDouglasUtility utility =
                fitter.fit(profiler.profileLc(lc));
            for (const wl::BeApp* be :
                 {static_cast<const wl::BeApp*>(nullptr),
                  &apps.be.front()}) {
                ServerScenario s;
                s.lc = &lc;
                s.be = be;
                s.powerCap = lc.provisionedPower();
                s.trace = trace;
                s.duration = kDuration;
                s.config = config;
                s.controller = std::make_unique<PomController>(
                    utility, config.controller);
                grid_runs.push_back(std::move(s));

                ServerScenario o;
                o.lc = &lc;
                o.be = be;
                o.powerCap = lc.provisionedPower();
                o.trace = trace;
                o.duration = kDuration;
                o.config = config;
                o.controller = std::make_unique<OraclePomController>(
                    utility, config.controller, &shortfalls[k],
                    &freq_steps[k]);
                oracle_runs.push_back(std::move(o));

                labels.push_back(lc.name() + (be ? "+" + be->name()
                                                 : std::string{}) +
                                 (tune ? " tuned" : ""));
                ++k;
            }
        }

        runtime::ThreadPool pool(4);
        const auto got = runtime::parallelMap(
            &pool, grid_runs.size(),
            [&](std::size_t i) { return test::runManaged(grid_runs[i]); });
        std::vector<test::ManagedRun> want;
        for (ServerScenario& o : oracle_runs)
            want.push_back(test::runManaged(o));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expectSameRun(got[i], want[i], labels[i]);

        int total_shortfalls = 0;
        int total_steps = 0;
        for (std::size_t i = 0; i < shortfalls.size(); ++i) {
            total_shortfalls += shortfalls[i];
            total_steps += freq_steps[i];
        }
        EXPECT_GT(total_shortfalls, 0)
            << "the trace must drive the shortfall-boost path";
        if (tune) {
            EXPECT_GT(total_steps, 0)
                << "the trace must drive the DVFS down-steps";
        }
    }
}

} // namespace
} // namespace poco::server

namespace poco::fleet
{
namespace
{

// Pinned rollup fingerprints.
//
// Produced by commit 229783e, whose PomController and
// estimateCellAtLoad re-scanned the lattice cell by cell on every
// call. The grid-backed controller and the one-shot grid must
// reproduce them bit for bit.

constexpr std::uint64_t kPomFleetFingerprint =
    0xe921ba1cdf422691ull;
constexpr std::uint64_t kStreamingFingerprint =
    0xae4aa72842fd49a4ull;

TEST(LatticePinned, PomFleetRunMatchesTheScalarScan)
{
    const wl::AppSet apps_a = wl::defaultAppSet();
    const wl::AppSet apps_b = wl::defaultAppSet();
    std::vector<FleetServer> servers;
    for (std::size_t j = 0; j < 2; ++j)
        servers.push_back({&apps_a, j, Watts{}});
    servers.push_back({&apps_b, 1, Watts{}});
    servers.push_back({&apps_b, 1, Watts{}});

    const FleetEvaluator evaluator(
        servers, FleetConfig{}
                     .withLoadPoints({0.3, 0.7})
                     .withDwell(60 * kSecond)
                     .withHeraclesReplicas(1)
                     .withSeed(23)
                     .withEpochLoads({0.4, 0.9}));
    EXPECT_EQ(evaluator.run().value.fingerprint(), kPomFleetFingerprint);
}

TEST(LatticePinned, StreamingRollupMatchesTheScalarScan)
{
    const wl::AppSet apps = wl::defaultAppSet();
    std::vector<FleetServer> servers;
    for (std::size_t j = 0; j < 2; ++j)
        servers.push_back({&apps, j, Watts{}});

    ctrl::EventLogConfig log_config;
    log_config.horizon = 12 * kSecond;
    log_config.servers = 2;
    log_config.bePool = 3;
    log_config.loadShiftRate = 0.8;
    log_config.beChurnRate = 0.2;
    log_config.crashRate = 0.08;
    log_config.budgetChangeRate = 0.05;
    log_config.seed = 73;
    const ctrl::EventLog log = ctrl::EventLog::generate(log_config);

    const FleetEvaluator evaluator(
        servers, FleetConfig{}
                     .withLoadPoints({0.3, 0.7})
                     .withDwell(20 * kSecond)
                     .withHeraclesReplicas(1)
                     .withSeed(9)
                     .withHeartbeat(kSecond, kSecond / 10, 2, 4)
                     .withStreaming(0.5, false));
    const auto rollup = evaluator.runStreaming(log).value;
    EXPECT_FALSE(rollup.records.empty());
    EXPECT_EQ(rollup.fingerprint, kStreamingFingerprint);
}

} // namespace
} // namespace poco::fleet
