#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>

#include "cluster/performance_matrix.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/scenario_fleet.hpp"
#include "runtime/thread_pool.hpp"
#include "scen/scenario.hpp"
#include "sim/telemetry_rollup.hpp"
#include "calibrate.hpp"
#include "trace.hpp"
#include "util/milliwatts.hpp"
#include "util/rng.hpp"

namespace perfbench
{

using namespace poco;
using Clock = std::chrono::steady_clock;

namespace
{

// ---- workload shapes ----------------------------------------------
//
// fleet-day: a few hundred 4-server clusters, two LC apps each (so
// every LC app runs on two replicas) and two BE candidates, over
// several diurnal + flash-crowd epochs. One region per four clusters
// keeps flash crowds partly correlated without letting a handful of
// regional spikes decide the fleet total. Dwell and warm-up are
// halved from the library defaults to keep a repetition near 2-3 s
// and the process near 400 MB; the profiler grid is the default.
constexpr std::size_t kFleetClusters = 256;
constexpr int kFleetEpochs = 4;
constexpr SimTime kFleetDwell = 60 * kSecond;
constexpr SimTime kFleetWarmup = 30 * kSecond;

// ctrl-*: 16 clusters x 4 servers = 64 server columns, 2 fitted BE
// candidates per cluster = 32 BE rows, streamed as one cluster;
// several such fleets per run, each with its own log. The 16
// clusters are 4 of each of the 4 app-set types, taken from a
// 64-cluster scenario (see fleetServers). A pass over every fleet
// takes ~5 s (shift) / ~7 s (churn) on a 4-core host.
constexpr std::size_t kCtrlPoolClusters = 64;
constexpr std::size_t kCtrlPerType = 4;
constexpr std::size_t kShiftFleets = 4;
constexpr std::size_t kChurnFleets = 3;

// End-to-end timings are put on one host scale: each is multiplied by
// kReferenceS over the time the reference kernel (calibrate.hpp) took
// just before it, so they read as on a host where one reference unit
// takes 0.1 s (about a quiet 4-core host of the kind these numbers were
// first taken on). On a shared host whose speed drifts by 2-3x over
// minutes, this is what keeps runs taken minutes apart comparable.
constexpr double kReferenceS = 0.02;

// Repetition floors: a median needs at least three samples; the
// traced run needs one untraced/traced pair.
constexpr int kMinReps = 3;
constexpr int kMinTracedReps = 1;
// ctrl set-up is tens of ms, so it is repeated to give setup_s a median.
constexpr int kCtrlSetups = 5;

const char* const kTiers[] = {"none",      "cached",    "repair",
                              "warm-lp",   "lp",        "hungarian",
                              "greedy",    "conservative"};
const char* const kPlaceTiers[] = {"cached", "lp", "hungarian",
                                   "greedy", "conservative"};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Peak resident memory of this process's address space (not of its
 * helper), from VmHWM. getrusage's ru_maxrss would not do: Linux keeps
 * it across execve, so it reports the launching interpreter's peak
 * whenever that is the larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Factor that puts a timing taken now on the kReferenceS host scale. */
double
hostScale(const Options& options)
{
    return kReferenceS / options.reference->seconds();
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Repeat until the budget is spent, but at least @p floor times. */
class RepLoop
{
  public:
    RepLoop(double seconds, int floor)
        : start_(Clock::now()), seconds_(seconds), floor_(floor)
    {}
    bool more() const { return reps_ < floor_ || since(start_) < seconds_; }
    int next() { return reps_++; }
    int reps() const { return reps_; }

  private:
    Clock::time_point start_;
    double seconds_;
    int floor_;
    int reps_ = 0;
};

/** A check that failed clears correct and says why on stdout. */
void
check(Result& result, bool ok, const std::string& what)
{
    if (!ok) {
        result.correct = false;
        std::printf("# CHECK FAILED: %s\n", what.c_str());
    }
}

bool
failedTier(SolverTier tier)
{
    return tier == SolverTier::Greedy || tier == SolverTier::Conservative;
}

// ---- set-up (shared by every workload) ----------------------------

struct Setup
{
    std::unique_ptr<scen::Scenario> scenario;
    std::unique_ptr<fleet::FleetEvaluator> evaluator;
    /** Scenario::generate + FleetEvaluator construction. */
    double seconds = 0.0;
};

/** Span around @p fn when tracing, a plain call otherwise. */
template <typename F>
void
maybeSpan(Tracer* tracer, const char* name, F&& fn)
{
    std::optional<ScopedSpan> span;
    if (tracer != nullptr)
        span.emplace(*tracer, name);
    fn();
}

/**
 * The servers the evaluator is built over. With @p per_type == 0,
 * every server of the scenario. Otherwise a stratified subset: the
 * first @p per_type clusters (canonical order) of each app-set type,
 * where the type is the cluster's rotation through the registry (its
 * first LC and BE app). Every scenario cluster is one of a handful of
 * such types, so a small fleet drawn freely swings its type counts,
 * and with them every ctrl number, from seed to seed.
 */
std::vector<fleet::FleetServer>
fleetServers(const scen::Scenario& scenario, std::size_t per_type)
{
    std::vector<fleet::FleetServer> all = fleet::serversFromScenario(scenario);
    if (per_type == 0)
        return all;
    std::map<std::string, std::size_t> taken;
    std::set<const wl::AppSet*> kept;
    for (const scen::ClusterScenario& c : scenario.clusters()) {
        const std::string type =
            c.apps->lc.front().name() + "/" + c.apps->be.front().name();
        if (taken[type]++ < per_type)
            kept.insert(c.apps.get());
    }
    std::vector<fleet::FleetServer> servers;
    for (const fleet::FleetServer& s : all)
        if (kept.count(s.apps) != 0)
            servers.push_back(s);
    return servers;
}

Setup
setUp(const scen::ScenarioSpec& spec, const FleetConfig& base,
      runtime::ThreadPool& pool, Tracer* tracer, std::size_t per_type = 0)
{
    Setup s;
    const auto t0 = Clock::now();
    maybeSpan(tracer, "scen.generate", [&] {
        s.scenario = std::make_unique<scen::Scenario>(
            scen::Scenario::generate(spec, &pool));
    });
    maybeSpan(tracer, "fleet.build", [&] {
        FleetConfig config = base;
        // The scenario's epoch schedule covers all its clusters; a
        // stratified subset only streams, which reads no epoch loads.
        if (per_type == 0)
            config.withScenario(*s.scenario);
        s.evaluator = std::make_unique<fleet::FleetEvaluator>(
            fleetServers(*s.scenario, per_type), config);
    });
    s.seconds = since(t0);
    return s;
}

std::size_t
fittedModels(const fleet::FleetEvaluator& ev)
{
    std::size_t fits = 0;
    for (std::size_t c = 0; c < ev.clusters().size(); ++c)
        fits += ev.clusterEvaluator(c).lcModels().size() +
                ev.clusterEvaluator(c).beModels().size();
    return fits;
}

FleetConfig
baseConfig(std::uint64_t seed, runtime::ThreadPool& pool, int threads)
{
    return FleetConfig{}.withSeed(seed).withPool(&pool).withShards(
        threads);
}

// ---- per-layer bookkeeping ----------------------------------------

/** Per-layer values by name; absent names report 0. */
struct Layers
{
    std::map<std::string, double> values;

    void set(const std::string& name, double v) { values[name] = v; }
    void add(const std::string& name, double v) { values[name] += v; }

    void emit(Result& result) const
    {
        for (const auto& [name, unit] : perLayerMetrics()) {
            const auto it = values.find(name);
            result.add(name, it == values.end() ? 0.0 : it->second,
                       unit);
        }
    }
};

/** Spans of one name: durations in order, total, total self time. */
struct NameStats
{
    std::vector<double> ms;
    double total = 0.0;
    double self = 0.0;
};

std::map<std::string, NameStats>
byName(const std::vector<SpanRecord>& spans)
{
    const std::vector<double> self = selfTimesMs(spans);
    std::map<std::string, NameStats> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        NameStats& stats = out[spans[i].name];
        stats.ms.push_back(spans[i].ms());
        stats.total += spans[i].ms();
        stats.self += self[i];
    }
    return out;
}

void
setTail(Layers& layers, const std::string& prefix,
        const std::vector<double>& ms)
{
    const TailSummary tail = summarize(ms);
    layers.set(prefix + "_p50_ms", tail.p50);
    layers.set(prefix + "_tail_ms", tail.tail);
    layers.set(prefix + "_tail_pct", tail.tailPct);
    layers.set(prefix + "_samples", static_cast<double>(tail.samples));
    layers.set(prefix + "_max_ms", tail.max);
}

/** Setup spans, span count, overhead; values are per repetition. */
void
commonLayers(Layers& layers, const std::map<std::string, NameStats>& names,
             std::size_t spans, int reps, double untraced_s,
             double traced_s)
{
    const double per = 1.0 / reps;
    auto total = [&](const char* name) {
        const auto it = names.find(name);
        return it == names.end() ? 0.0 : it->second.total;
    };
    auto count = [&](const char* name) {
        const auto it = names.find(name);
        return it == names.end() ? 0.0
                                 : static_cast<double>(it->second.ms.size());
    };
    layers.set("scen.generate_ms",
               total("scen.generate") / std::max(count("scen.generate"), 1.0));
    layers.set("fleet.build_ms",
               total("fleet.build") / std::max(count("fleet.build"), 1.0));
    layers.set("trace.spans", static_cast<double>(spans) * per);
    layers.set("trace.reps", reps);
    layers.set("trace.untraced_ms", untraced_s * 1e3);
    layers.set("trace.traced_ms", traced_s * 1e3);
    layers.set("trace.overhead_ms", (traced_s - untraced_s) * 1e3);
    layers.set("trace.overhead_share",
               untraced_s > 0 ? (traced_s - untraced_s) / untraced_s : 0.0);
}

void
writeTrace(const Options& options, const std::vector<SpanRecord>& spans)
{
    if (options.traceOut.empty())
        return;
    std::ofstream out(options.traceOut);
    writeChromeTrace(out, spans, options.provenance);
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + options.traceOut);
    std::printf("# trace: %zu spans -> %s\n", spans.size(),
                options.traceOut.c_str());
}

// ---- fleet-day ----------------------------------------------------

scen::ScenarioSpec
fleetSpec(std::uint64_t seed)
{
    return scen::ScenarioSpec{}
        .withClusters(kFleetClusters)
        .withServersPerCluster(4)
        .withApps(2, 2)
        .withRegions(kFleetClusters / 4)
        .withEpochs(kFleetEpochs)
        .withFlashCrowds(1, 0.5, 1 * kHour)
        .withSeed(seed);
}

FleetConfig
fleetConfig(std::uint64_t seed, runtime::ThreadPool& pool, int threads)
{
    FleetConfig config =
        baseConfig(seed, pool, threads).withDwell(kFleetDwell);
    config.server.warmup = kFleetWarmup;
    return config;
}

std::size_t
clusterEpochs(const fleet::FleetRollup& rollup)
{
    std::size_t n = 0;
    for (const fleet::FleetEpoch& epoch : rollup.epochs)
        n += epoch.clusters.size();
    return n;
}

bool
failedClusterEpoch(const fleet::ClusterEpochOutcome& c)
{
    return failedTier(c.tier) || c.degradation.conservative ||
           c.degradation.modelsUntrusted;
}

/** Σ cluster budgets == fleet budget, to the milliwatt, every epoch. */
bool
budgetConserved(const fleet::FleetRollup& rollup)
{
    if (rollup.epochs.empty())
        return false;
    const Milliwatts fleet_mw =
        toMilliwatts(rollup.epochs.front().fleetBudget);
    for (const fleet::FleetEpoch& epoch : rollup.epochs) {
        Milliwatts sum = 0;
        for (const fleet::ClusterEpochOutcome& c : epoch.clusters)
            sum += toMilliwatts(c.budget);
        if (sum != fleet_mw || toMilliwatts(epoch.fleetBudget) != fleet_mw)
            return false;
    }
    return true;
}

Result
fleetDay(const Options& options)
{
    runtime::ThreadPool pool(static_cast<unsigned>(options.threads));
    const scen::ScenarioSpec spec = fleetSpec(options.seed);
    const FleetConfig base = fleetConfig(options.seed, pool, options.threads);

    Result result;
    std::vector<double> setup_s, ops_rate, raw_ops_rate, sim_rate, scales;
    std::uint64_t scen_fp = 0, roll_fp = 0;
    double be = 0.0, overshoot = 0.0;

    RepLoop loop(options.seconds, kMinReps);
    while (loop.more()) {
        const int rep = loop.next();
        const double scale = hostScale(options);
        scales.push_back(scale);
        // A fresh evaluator every repetition: a second run() on one
        // evaluator is answered from ClusterEvaluator's pair memo.
        Setup s = setUp(spec, base, pool, nullptr);
        setup_s.push_back(s.seconds * scale);
        const auto t0 = Clock::now();
        const Outcome<fleet::FleetRollup> out = s.evaluator->run();
        const double wall = since(t0);

        const fleet::FleetRollup& rollup = out.value;
        const std::size_t ops = clusterEpochs(rollup);
        const double sim_seconds =
            static_cast<double>(fleet::serversFromScenario(*s.scenario).size()) *
            static_cast<double>(rollup.epochs.size()) *
            static_cast<double>(kFleetWarmup + kFleetDwell) /
            static_cast<double>(kSecond);
        ops_rate.push_back(static_cast<double>(ops) / (wall * scale));
        raw_ops_rate.push_back(static_cast<double>(ops) / wall);
        sim_rate.push_back(sim_seconds / wall);

        result.attempted += ops;
        for (const fleet::FleetEpoch& epoch : rollup.epochs)
            for (const fleet::ClusterEpochOutcome& c : epoch.clusters)
                result.failed += failedClusterEpoch(c) ? 1 : 0;

        check(result, budgetConserved(rollup),
              "fleet budget not conserved to the milliwatt");
        if (rep == 0) {
            scen_fp = s.scenario->fingerprint();
            roll_fp = rollup.fingerprint();
            be = rollup.totalBeThroughput.value();
            overshoot = rollup.totalCapOvershoot.value();
        } else {
            check(result, s.scenario->fingerprint() == scen_fp,
                  "scenario fingerprint changed between repetitions");
            check(result, rollup.fingerprint() == roll_fp,
                  "rollup fingerprint changed between repetitions");
        }
    }

    result.add("setup_s", median(setup_s), "s");
    result.add("ops_per_s", median(ops_rate), "1/s");
    result.add("be_throughput_rps", be, "rps");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    for (const Metric& m : result.metrics)
        check(result, std::isfinite(m.value), m.name + " is not finite");

    std::printf("# scenario_fingerprint = %s\n", hex(scen_fp).c_str());
    std::printf("# rollup_fingerprint = %s\n", hex(roll_fp).c_str());
    std::printf("# repetitions = %d (fresh evaluator each)\n", loop.reps());
    std::printf("# host_scale = %.6g (median); unscaled ops_per_s = %.6g\n",
                median(scales), median(raw_ops_rate));
    std::printf("# fleet_sim_rate = %.6g server*s/s (median, unscaled)\n",
                median(sim_rate));
    std::printf("# cap_overshoot_j = %.6g J\n", overshoot);
    return result;
}

/** One cluster-epoch of the traced replay. */
struct ReplaySlot
{
    Outcome<std::vector<int>> placement;
    Rps beThroughput{};
    /** (lc, be, load bits, cap bits) of each runPairAtLoad call. */
    std::vector<std::tuple<std::size_t, int, std::uint64_t, std::uint64_t>>
        calls;
};

std::uint64_t
bits(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/**
 * FleetEvaluator::runClusterEpoch, rebuilt from public calls: place
 * the cluster's BE candidates over its distinct LC servers, then run
 * each member at the member cap the untraced run() chose.
 */
void
replayClusterEpoch(Tracer& tracer, std::uint64_t parent,
                   const fleet::FleetEvaluator& ev, std::size_t index,
                   double load, Watts member_cap, ReplaySlot& slot)
{
    ScopedSpan span(tracer, "fleet.cluster_epoch", parent);
    const fleet::FleetCluster& home = ev.clusters()[index];
    const cluster::ClusterEvaluator& evaluator = ev.clusterEvaluator(index);

    std::vector<int> up;
    for (const std::size_t j : home.lcIndices)
        up.push_back(static_cast<int>(j));
    std::sort(up.begin(), up.end());
    up.erase(std::unique(up.begin(), up.end()), up.end());
    {
        ScopedSpan place(tracer, "cluster.place");
        slot.placement = evaluator.placeBeRobust(up);
    }
    std::vector<int> be_of(home.apps->lc.size(), -1);
    for (std::size_t i = 0; i < slot.placement.value.size(); ++i)
        if (slot.placement.value[i] >= 0)
            be_of[static_cast<std::size_t>(slot.placement.value[i])] =
                static_cast<int>(i);

    for (std::size_t k = 0; k < home.members.size(); ++k) {
        const std::size_t j = home.lcIndices[k];
        slot.calls.emplace_back(j, be_of[j], bits(load),
                                bits(member_cap.value()));
        ScopedSpan sim(tracer, "server.sim");
        const cluster::ServerOutcome run = evaluator.runPairAtLoad(
            j, be_of[j], cluster::ManagerKind::Pom, load, member_cap);
        slot.beThroughput += run.run.stats.averageBeThroughput();
    }
}

Result
fleetDayTraced(const Options& options)
{
    runtime::ThreadPool pool(static_cast<unsigned>(options.threads));
    const scen::ScenarioSpec spec = fleetSpec(options.seed);
    const FleetConfig base = fleetConfig(options.seed, pool, options.threads);

    Result result;
    Tracer tracer;
    Layers layers;
    std::vector<double> untraced_s, traced_s;
    std::size_t calls = 0, repeated = 0;
    std::map<std::string, double> place_tiers;

    RepLoop loop(options.seconds, kMinTracedReps);
    while (loop.more()) {
        const int rep = loop.next();
        // Untraced reference: member caps, loads and the rollup the
        // traced replay must reproduce.
        const Setup ref = setUp(spec, base, pool, nullptr);
        auto t0 = Clock::now();
        const Outcome<fleet::FleetRollup> out = ref.evaluator->run();
        untraced_s.push_back(since(t0));
        const fleet::FleetRollup& rollup = out.value;
        layers.add("sim.telemetry_fold_ms", rollup.aggregatorSeconds * 1e3);
        layers.set("sim.cap_overshoot_j", rollup.totalCapOvershoot.value());

        tracer.setRun(static_cast<std::uint32_t>(rep + 1));
        const Setup s = setUp(spec, base, pool, &tracer);
        layers.set("model.fits", static_cast<double>(fittedModels(*s.evaluator)));
        const fleet::FleetEvaluator& ev = *s.evaluator;
        const FleetConfig& config = ev.config();
        const std::size_t n = ev.clusters().size();
        if (config.epochClusterWidth != n)
            throw std::runtime_error(
                "scenario loads do not cover the fleet's clusters");
        const std::size_t shards = std::max<std::size_t>(
            1, std::min<std::size_t>(static_cast<std::size_t>(config.shards), n));

        std::vector<std::vector<ReplaySlot>> slots(rollup.epochs.size());
        t0 = Clock::now();
        {
            ScopedSpan run(tracer, "fleet.run");
            for (std::size_t e = 0; e < rollup.epochs.size(); ++e) {
                ScopedSpan epoch(tracer, "fleet.epoch");
                const std::uint64_t parent = epoch.id();
                slots[e].resize(n);
                runtime::TaskGroup group(&pool);
                for (std::size_t shard = 0; shard < shards; ++shard)
                    group.run([&, e, shard, parent] {
                        for (std::size_t c = shard; c < n; c += shards)
                            replayClusterEpoch(
                                tracer, parent, ev, c,
                                config.epochClusterLoads[e * n + c],
                                rollup.epochs[e].clusters[c].memberCap,
                                slots[e][c]);
                    });
                group.wait();
            }
        }
        traced_s.push_back(since(t0));

        std::set<std::tuple<std::size_t, std::size_t, int, std::uint64_t,
                            std::uint64_t>>
            seen;
        bool same = true;
        for (std::size_t e = 0; e < slots.size(); ++e)
            for (std::size_t c = 0; c < n; ++c) {
                const ReplaySlot& slot = slots[e][c];
                const fleet::ClusterEpochOutcome& want =
                    rollup.epochs[e].clusters[c];
                same = same &&
                       slot.beThroughput.value() == want.beThroughput.value() &&
                       slot.placement.tier == want.tier &&
                       slot.placement.attempts == want.solverAttempts;
                place_tiers[solverTierName(slot.placement.tier)] += 1;
                for (const auto& [j, be, load, cap] : slot.calls) {
                    ++calls;
                    if (!seen.emplace(c, j, be, load, cap).second)
                        ++repeated;
                }
            }
        check(result, same,
              "traced replay differs from run() (per-layer numbers invalid)");
        result.attempted += clusterEpochs(rollup);
        for (const fleet::FleetEpoch& epoch : rollup.epochs)
            for (const fleet::ClusterEpochOutcome& c : epoch.clusters)
                result.failed += failedClusterEpoch(c) ? 1 : 0;
        if (rep == 0)
            std::printf("# scenario_fingerprint = %s\n"
                        "# rollup_fingerprint = %s (reference run)\n",
                        hex(s.scenario->fingerprint()).c_str(),
                        hex(rollup.fingerprint()).c_str());
    }

    const std::vector<SpanRecord> spans = tracer.merged();
    const auto names = byName(spans);
    const int reps = loop.reps();
    const double per = 1.0 / reps;
    commonLayers(layers, names, spans.size(), reps, median(untraced_s),
                 median(traced_s));
    layers.set("sim.telemetry_fold_ms",
               layers.values["sim.telemetry_fold_ms"] * per);
    auto stats = [&](const char* name) -> const NameStats& {
        static const NameStats empty;
        const auto it = names.find(name);
        return it == names.end() ? empty : it->second;
    };
    layers.set("server.sim_ms", stats("server.sim").total * per);
    layers.set("server.sim_calls",
               static_cast<double>(stats("server.sim").ms.size()) * per);
    layers.set("server.pair_reuse_share",
               calls ? static_cast<double>(repeated) / calls : 0.0);
    layers.set("cluster.place_ms", stats("cluster.place").total * per);
    layers.set("cluster.place_calls",
               static_cast<double>(stats("cluster.place").ms.size()) * per);
    for (const char* tier : kPlaceTiers)
        layers.set(std::string("cluster.place_tier.") + tier,
                   place_tiers[tier] * per);
    setTail(layers, "fleet.cluster_epoch", stats("fleet.cluster_epoch").ms);
    layers.set("fleet.cluster_epoch_self_ms",
               stats("fleet.cluster_epoch").self * per);
    layers.set("fleet.epoch_wait_ms", stats("fleet.epoch").self * per);
    layers.emit(result);
    writeTrace(options, spans);
    return result;
}

// ---- ctrl-shift / ctrl-churn --------------------------------------
//
// One run streams several independent scenario fleets (each 64
// servers x 32 fitted BE rows, with its own event log), drawn from
// the workload seed: one fleet's composition and one log's loads move
// the rung mix and the objective too much for a single fleet to
// speak for the controller.

scen::ScenarioSpec
ctrlSpec(std::uint64_t seed)
{
    return scen::ScenarioSpec{}
        .withClusters(kCtrlPoolClusters)
        .withServersPerCluster(4)
        .withApps(2, 2)
        .withRegions(4)
        .withSeed(seed);
}

/** One streamed fleet: its evaluator plus its inputs. */
struct CtrlFleet
{
    Setup setup;
    ctrl::EventLog log;
    /** MasterKill windows (ctrl-churn only). */
    fault::FaultPlan masterFaults;

    const fleet::FleetEvaluator& ev() const { return *setup.evaluator; }
};

std::uint64_t
fleetSeed(std::uint64_t seed, std::size_t fleet)
{
    return Rng(seed).split(fleet).nextU64();
}

/** How many events of each kind one fleet's log holds. */
struct LogShape
{
    SimTime horizon = 0;
    std::size_t shifts = 0;
    /** A BE departs, and 0.5-3 s later the pool refills one slot. */
    std::size_t beSwaps = 0;
    /** A server crashes and recovers 5-7 s later, after it is dead. */
    std::size_t crashes = 0;
    /** The budget drops to 60-90% and is restored 1-2 s later. */
    std::size_t budgetDips = 0;
};

// ctrl-shift: 60 single-server shifts at 8 per simulated second.
// ctrl-churn: 15 s in which BE swaps and crashes make most re-solves
// change the matrix shape, with budget dips (full same-shape refreshes)
// and 30 shifts in between.
const LogShape kShiftLog{7500 * kMillisecond, 60, 0, 0, 0};
const LogShape kChurnLog{15 * kSecond, 30, 6, 3, 3};

/** @p n distinct indices below @p bound, in draw order. */
std::vector<int>
distinct(Rng& rng, std::size_t n, std::size_t bound)
{
    std::vector<int> all(bound);
    for (std::size_t i = 0; i < bound; ++i)
        all[i] = static_cast<int>(i);
    for (std::size_t i = 0; i < std::min(n, bound); ++i)
        std::swap(all[i], all[static_cast<std::size_t>(rng.uniformInt(
                              static_cast<int>(i), static_cast<int>(bound) - 1))]);
    all.resize(std::min(n, bound));
    return all;
}

/**
 * A fleet's event log: a fixed count of each kind at uniformly drawn
 * ticks, every event effective. EventLog::generate draws the counts
 * from Poisson streams, makes one LoadShift in eight fleet-wide (a
 * full refresh, not a single-column delta), lets arrivals hit a full
 * pool and departures hit departed BEs (no-ops), lets a server recover
 * before the lease ladder declares it dead, and holds random budget
 * levels for random spans (every cell scales with the budget). Across
 * seeds those draws decided the event rate and the mean objective
 * (5-seed spreads of 11-30%), so the logs here keep the kinds and value
 * ranges of EventLog::generate but fix what each event does.
 */
ctrl::EventLog
makeLog(std::uint64_t seed, std::size_t servers, std::size_t be_pool,
        const LogShape& shape)
{
    Rng rng(seed);
    const double horizon = static_cast<double>(shape.horizon);
    const double second = static_cast<double>(kSecond);
    auto tick = [&rng](double from, double to) {
        return std::max<SimTime>(1, static_cast<SimTime>(rng.uniform(from, to)));
    };
    std::vector<ctrl::ControlEvent> events;
    auto push = [&events](SimTime at, ctrl::EventKind kind, int subject,
                          double value) {
        events.push_back({at, kind, subject, value});
    };
    for (std::size_t i = 0; i < shape.shifts; ++i)
        push(tick(0, horizon), ctrl::EventKind::LoadShift,
             rng.uniformInt(0, static_cast<int>(servers) - 1),
             rng.uniform(0.1, 0.95));
    for (const int be : distinct(rng, shape.beSwaps, be_pool)) {
        const SimTime leave = tick(0, horizon - 3 * second);
        push(leave, ctrl::EventKind::BeDepart, be, 0.0);
        push(leave + tick(0.5 * second, 3 * second),
             ctrl::EventKind::BeArrive, -1, 0.0);
    }
    for (const int server : distinct(rng, shape.crashes, servers)) {
        const SimTime down = tick(0, horizon - 7 * second);
        push(down, ctrl::EventKind::ServerCrash, server, 0.0);
        push(down + tick(5 * second, 7 * second),
             ctrl::EventKind::ServerRecover, server, 0.0);
    }
    for (std::size_t i = 0; i < shape.budgetDips; ++i) {
        const SimTime cut = tick(0, horizon - 2 * second);
        push(cut, ctrl::EventKind::BudgetChange, -1, rng.uniform(0.6, 0.9));
        push(cut + tick(1 * second, 2 * second), ctrl::EventKind::BudgetChange,
             -1, 1.0);
    }
    return ctrl::EventLog::fromEvents(std::move(events));
}

/**
 * The fleet's inputs (workload generation, not timed). On ctrl-churn
 * the fault plan kills the primary master long enough for the lease
 * ladder to declare it dead and the standby to take over.
 */
void
makeInputs(CtrlFleet& f, std::uint64_t seed, std::size_t index, bool churn)
{
    const fleet::FleetEvaluator& ev = f.ev();
    std::size_t servers = 0, be = 0;
    for (std::size_t c = 0; c < ev.clusters().size(); ++c) {
        servers += ev.clusters()[c].members.size();
        be += ev.clusterEvaluator(c).beModels().size();
    }
    f.log = makeLog(Rng(seed).split(1000 + index).nextU64(), servers, be,
                    churn ? kChurnLog : kShiftLog);
    if (churn) {
        fault::FaultWindow kill;
        kill.kind = fault::FaultKind::MasterKill;
        kill.server = 0; // the primary
        kill.start = kChurnLog.horizon / 3;
        kill.end = 2 * kChurnLog.horizon / 3;
        f.masterFaults = fault::FaultPlan::fromWindows({kill});
    }
}

/** Set up every fleet; returns the wall time of the whole set-up. */
double
setUpCtrl(std::vector<CtrlFleet>& fleets, bool churn, std::uint64_t seed,
          runtime::ThreadPool& pool, int threads, Tracer* tracer)
{
    const auto t0 = Clock::now();
    fleets.clear();
    fleets.resize(churn ? kChurnFleets : kShiftFleets);
    for (std::size_t i = 0; i < fleets.size(); ++i) {
        const std::uint64_t s = fleetSeed(seed, i);
        fleets[i].setup =
            setUp(ctrlSpec(s), baseConfig(s, pool, threads), pool, tracer,
                  kCtrlPerType);
    }
    return since(t0);
}

std::size_t
totalEvents(const std::vector<CtrlFleet>& fleets)
{
    std::size_t n = 0;
    for (const CtrlFleet& f : fleets)
        n += f.log.size();
    return n;
}

/**
 * Failover result vs the uninterrupted single-master oracle. The
 * semantic fingerprints must match; where they do not, every record
 * must still agree on everything but the chosen assignment, with an
 * equal objective: on fitted cells with replicated LC apps, a cold
 * catch-up solve may pick another optimum of a tied matrix. That
 * known defect is counted (ctrl.tie_divergent_records), not hidden.
 */
struct SemanticCheck
{
    bool ok = true;
    std::size_t tieDivergent = 0;
};

SemanticCheck
compareSemantics(const ctrl::CtrlRollup& got, const ctrl::CtrlRollup& oracle)
{
    SemanticCheck out;
    if (got.records.size() != oracle.records.size() ||
        got.livenessFingerprint != oracle.livenessFingerprint ||
        toMilliwatts(got.budgetPool) != toMilliwatts(oracle.budgetPool)) {
        out.ok = false;
        return out;
    }
    if (got.semanticFingerprint == oracle.semanticFingerprint)
        return out;
    for (std::size_t i = 0; i < got.records.size(); ++i) {
        const ctrl::EventRecord& a = got.records[i];
        const ctrl::EventRecord& b = oracle.records[i];
        const double scale = std::max({std::fabs(a.objective),
                                       std::fabs(b.objective), 1.0});
        if (a.tick != b.tick || a.kind != b.kind || a.subject != b.subject ||
            a.shed != b.shed || a.activeBe != b.activeBe ||
            a.placeableServers != b.placeableServers ||
            std::fabs(a.objective - b.objective) > 1e-12 * scale) {
            out.ok = false;
            return out;
        }
        if (a.assignmentFingerprint != b.assignmentFingerprint)
            ++out.tieDivergent;
    }
    return out;
}

void
countCtrlOps(Result& result, const ctrl::CtrlRollup& rollup)
{
    result.attempted += rollup.records.size();
    for (const ctrl::EventRecord& r : rollup.records)
        result.failed += (r.shed || failedTier(r.tier)) ? 1 : 0;
}

void
printFleets(const std::vector<CtrlFleet>& fleets,
            const std::vector<std::uint64_t>& rollup_fps)
{
    for (std::size_t i = 0; i < fleets.size(); ++i)
        std::printf("# fleet %zu: scenario_fingerprint = %s, %zu events "
                    "(log %s), rollup_fingerprint = %s\n",
                    i, hex(fleets[i].setup.scenario->fingerprint()).c_str(),
                    fleets[i].log.size(),
                    hex(fleets[i].log.fingerprint()).c_str(),
                    hex(rollup_fps[i]).c_str());
}

Result
ctrlRun(const Options& options, bool churn)
{
    runtime::ThreadPool pool(static_cast<unsigned>(options.threads));
    Result result;
    std::vector<CtrlFleet> fleets;
    std::vector<double> setup_s;
    for (int i = 0; i < kCtrlSetups; ++i) {
        const double scale = hostScale(options);
        setup_s.push_back(setUpCtrl(fleets, churn, options.seed, pool,
                                    options.threads, nullptr) *
                          scale);
    }
    for (std::size_t i = 0; i < fleets.size(); ++i)
        makeInputs(fleets[i], options.seed, i, churn);
    const std::size_t events = totalEvents(fleets);

    // ctrl-churn's oracle: the same logs through plain runStreaming.
    std::vector<ctrl::CtrlRollup> oracle;
    if (churn)
        for (const CtrlFleet& f : fleets)
            oracle.push_back(f.ev().runStreaming(f.log).value);

    // Per fleet, the host-scaled wall time of each of its streaming
    // calls. The rate divides all events by the sum of the per-fleet
    // medians, so a host stall that hits one call of a pass is voted
    // out.
    std::vector<std::vector<double>> call_s(fleets.size()), raw_s(fleets.size());
    std::vector<double> scales;
    std::vector<std::uint64_t> fps(fleets.size());
    double objective = 0.0;
    std::size_t tie_divergent = 0, failovers = 0;
    RepLoop loop(options.seconds, kMinReps);
    while (loop.more()) {
        const int rep = loop.next();
        std::vector<ctrl::CtrlRollup> rollups;
        std::size_t rep_failovers = 0;
        for (std::size_t i = 0; i < fleets.size(); ++i) {
            const CtrlFleet& f = fleets[i];
            const double scale = hostScale(options);
            scales.push_back(scale);
            const auto t0 = Clock::now();
            if (churn) {
                Outcome<ctrl::MasterGroupRollup> out =
                    f.ev().runStreamingWithFailover(f.log, f.masterFaults);
                raw_s[i].push_back(since(t0));
                rep_failovers += out.value.failovers.size();
                rollups.push_back(std::move(out.value.rollup));
            } else {
                rollups.push_back(f.ev().runStreaming(f.log).value);
                raw_s[i].push_back(since(t0));
            }
            call_s[i].push_back(raw_s[i].back() * scale);
        }

        std::size_t rep_ties = 0;
        double sum = 0.0;
        std::size_t placed = 0;
        for (std::size_t i = 0; i < fleets.size(); ++i) {
            const ctrl::CtrlRollup& rollup = rollups[i];
            check(result, rollup.records.size() == fleets[i].log.size(),
                  "records.size() != log.size()");
            if (churn) {
                const SemanticCheck sem = compareSemantics(rollup, oracle[i]);
                check(result, sem.ok,
                      "failover result differs semantically from "
                      "runStreaming");
                rep_ties += sem.tieDivergent;
            }
            countCtrlOps(result, rollup);
            // Events that re-placed nothing carry no objective (0).
            for (const ctrl::EventRecord& r : rollup.records)
                if (r.tier != SolverTier::None) {
                    sum += r.objective;
                    ++placed;
                }
            if (rep == 0)
                fps[i] = rollup.fingerprint;
            else
                check(result, rollup.fingerprint == fps[i],
                      "ctrl rollup fingerprint changed between repetitions");
        }
        objective = placed ? sum / static_cast<double>(placed) : 0.0;
        tie_divergent = rep_ties;
        failovers = rep_failovers;
    }

    double pass_s = 0.0, raw_pass_s = 0.0;
    for (std::size_t i = 0; i < fleets.size(); ++i) {
        pass_s += median(call_s[i]);
        raw_pass_s += median(raw_s[i]);
    }
    const double rate = static_cast<double>(events) / pass_s;
    result.add("setup_s", median(setup_s), "s");
    result.add("ops_per_s", rate, "1/s");
    result.add("be_throughput_rps", objective, "rps");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    for (const Metric& m : result.metrics)
        check(result, std::isfinite(m.value), m.name + " is not finite");

    printFleets(fleets, fps);
    std::printf("# repetitions = %d (each streams every fleet once)\n",
                loop.reps());
    std::printf("# host_scale = %.6g (median); ctrl_events_per_s = %.6g "
                "events/s scaled, %.6g unscaled (per-fleet medians)\n",
                median(scales), rate,
                static_cast<double>(events) / raw_pass_s);
    if (churn) {
        std::printf("# failovers = %zu per repetition\n", failovers);
        if (tie_divergent > 0)
            std::printf("# KNOWN DEFECT: %zu records pick another optimum "
                        "of a tied matrix after failover (equal objective)\n",
                        tie_divergent);
    }
    return result;
}

/** Everything ControlPlane needs, derived as runStreaming derives it. */
struct StreamingMirror
{
    ctrl::CellModel cells;
    ctrl::ControlPlaneConfig config;
    cluster::SolverContext context;
    std::vector<std::size_t> clusterOf;
};

StreamingMirror
mirrorStreamingSetup(const fleet::FleetEvaluator& ev)
{
    const FleetConfig& fc = ev.config();
    const auto& clusters = ev.clusters();
    std::vector<std::pair<std::size_t, std::size_t>> be_table;
    std::size_t servers = 0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        for (std::size_t b = 0; b < ev.clusterEvaluator(c).beModels().size(); ++b)
            be_table.emplace_back(c, b);
        servers += clusters[c].members.size();
    }
    std::vector<std::pair<std::size_t, std::size_t>> server_table(servers);
    long long provisioned_mw = 0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        for (std::size_t k = 0; k < clusters[c].members.size(); ++k)
            server_table[clusters[c].members[k]] = {c, clusters[c].lcIndices[k]};
        provisioned_mw += toMilliwatts(clusters[c].provisioned);
    }

    StreamingMirror m;
    const double headroom = fc.server.controller.headroom;
    const fleet::FleetEvaluator* evp = &ev;
    m.cells = [evp, be_table, server_table, headroom](
                  std::size_t be, std::size_t server, double load) {
        const auto [bc, bi] = be_table[be];
        const auto [hc, hl] = server_table[server];
        return cluster::estimateCellAtLoad(
            evp->clusterEvaluator(bc).beModels()[bi],
            evp->clusterEvaluator(hc).lcModels()[hl],
            evp->clusters()[hc].apps->spec, load, headroom);
    };
    ctrl::ControlPlaneConfig& cfg = m.config;
    cfg.servers = servers;
    cfg.bePool = be_table.size();
    cfg.initialBe = be_table.size();
    cfg.initialLoad = fc.streamingInitialLoad;
    cfg.perServerBudget =
        fromMilliwatts(provisioned_mw / static_cast<long long>(servers));
    cfg.heartbeat.periodTicks = fc.heartbeatPeriod;
    cfg.heartbeat.jitterTicks = fc.heartbeatJitter;
    cfg.heartbeat.suspectMisses = fc.heartbeatSuspectMisses;
    cfg.heartbeat.deadMisses = fc.heartbeatDeadMisses;
    cfg.heartbeat.seed = fc.seed;
    cfg.backpressure.enabled = fc.backpressureEnabled;
    cfg.backpressure.window = fc.backpressureWindow;
    cfg.backpressure.resolveCost = fc.backpressureResolveCost;
    cfg.forceCold = fc.streamingForceCold;
    m.context.pool = ev.pool();
    m.context.cache = nullptr;
    m.context.pivotCutoff = fc.solverPivotCutoff;
    m.context.pricingGrain = fc.solverPricingGrain;
    m.clusterOf.resize(servers);
    for (std::size_t s = 0; s < servers; ++s)
        m.clusterOf[s] = server_table[s].first;
    return m;
}

/** ControlPlane::replay stepped event by event, one span per apply. */
ctrl::CtrlRollup
tracedReplay(Tracer& tracer, const fleet::FleetEvaluator& ev,
             const ctrl::EventLog& log)
{
    ScopedSpan span(tracer, "ctrl.replay");
    StreamingMirror m = mirrorStreamingSetup(ev);
    sim::TelemetryAggregator aggregator(std::move(m.clusterOf),
                                        ev.clusters().size(), ev.pool(),
                                        ev.config().asyncTelemetry);
    ctrl::ReplayEngine engine(m.cells, m.config, m.context, &aggregator);
    engine.reserveRecords(log.size());
    for (const ctrl::ControlEvent& e : log.events()) {
        ScopedSpan apply(tracer, "ctrl.apply");
        engine.apply(e);
    }
    Outcome<ctrl::CtrlRollup> out = [&] {
        ScopedSpan finish(tracer, "ctrl.finish");
        return engine.finish(log.horizon());
    }();
    (void)aggregator.drain();
    return std::move(out.value);
}

Result
ctrlTraced(const Options& options, bool churn)
{
    runtime::ThreadPool pool(static_cast<unsigned>(options.threads));
    Result result;
    Tracer tracer;
    Layers layers;
    std::vector<CtrlFleet> fleets;
    setUpCtrl(fleets, churn, options.seed, pool, options.threads, &tracer);
    double fits = 0.0;
    for (std::size_t i = 0; i < fleets.size(); ++i) {
        makeInputs(fleets[i], options.seed, i, churn);
        fits += static_cast<double>(fittedModels(fleets[i].ev()));
    }
    layers.set("model.fits", fits);

    // Records of every fleet in stream order: the k-th apply span of
    // a repetition is the k-th of these events.
    std::vector<ctrl::EventRecord> records;
    std::vector<ctrl::CtrlRollup> traced(fleets.size());
    std::vector<std::uint64_t> fps(fleets.size());
    std::vector<double> untraced_s, traced_s;
    RepLoop loop(options.seconds, kMinTracedReps);
    while (loop.more()) {
        const int rep = loop.next();
        std::vector<ctrl::CtrlRollup> ref;
        auto t0 = Clock::now();
        for (const CtrlFleet& f : fleets)
            ref.push_back(f.ev().runStreaming(f.log).value);
        untraced_s.push_back(since(t0));

        tracer.setRun(static_cast<std::uint32_t>(rep + 1));
        t0 = Clock::now();
        for (std::size_t i = 0; i < fleets.size(); ++i)
            traced[i] = tracedReplay(tracer, fleets[i].ev(), fleets[i].log);
        traced_s.push_back(since(t0));

        for (std::size_t i = 0; i < fleets.size(); ++i) {
            check(result, traced[i].fingerprint == ref[i].fingerprint,
                  "traced replay fingerprint differs from runStreaming "
                  "(per-layer numbers invalid)");
            check(result, traced[i].records.size() == fleets[i].log.size(),
                  "records.size() != log.size()");
            if (rep == 0)
                fps[i] = ref[i].fingerprint;
            check(result, ref[i].fingerprint == fps[i],
                  "ctrl rollup fingerprint changed between repetitions");
            countCtrlOps(result, traced[i]);
        }
    }
    for (const ctrl::CtrlRollup& r : traced)
        records.insert(records.end(), r.records.begin(), r.records.end());
    printFleets(fleets, fps);

    if (churn) {
        double failovers = 0, checkpoints = 0, staleness = 0, ties = 0;
        for (std::size_t i = 0; i < fleets.size(); ++i) {
            Outcome<ctrl::MasterGroupRollup> out;
            {
                ScopedSpan span(tracer, "ctrl.failover_run");
                out = fleets[i].ev().runStreamingWithFailover(
                    fleets[i].log, fleets[i].masterFaults);
            }
            const SemanticCheck sem =
                compareSemantics(out.value.rollup, traced[i]);
            check(result, sem.ok,
                  "failover result differs semantically from runStreaming");
            ties += static_cast<double>(sem.tieDivergent);
            failovers += static_cast<double>(out.value.failovers.size());
            checkpoints += static_cast<double>(out.value.checkpoints);
            staleness = std::max(
                staleness, static_cast<double>(out.value.maxStalenessEvents));
        }
        layers.set("ctrl.tie_divergent_records", ties);
        layers.set("ctrl.failovers", failovers);
        layers.set("ctrl.checkpoints", checkpoints);
        layers.set("ctrl.max_staleness_events", staleness);
    }

    const std::vector<SpanRecord> spans = tracer.merged();
    const auto names = byName(spans);
    const int reps = loop.reps();
    const double per = 1.0 / reps;
    commonLayers(layers, names, spans.size(), reps, median(untraced_s),
                 median(traced_s));

    // Bucket each apply span by the rung its event's record names.
    // Apply spans of one repetition run on one thread in stream
    // order, so the k-th span of a repetition is records[k].
    std::map<std::string, std::pair<double, double>> rungs; // count, ms
    std::vector<double> apply_ms;
    std::size_t k = 0;
    std::uint32_t run = 0;
    for (const SpanRecord& span : spans) {
        if (std::strcmp(span.name, "ctrl.apply") != 0)
            continue;
        if (span.run != run) {
            run = span.run;
            k = 0;
        }
        auto& [count, ms] = rungs[solverTierName(records.at(k++).tier)];
        count += 1;
        ms += span.ms();
        apply_ms.push_back(span.ms());
    }
    for (const char* tier : kTiers) {
        layers.set(std::string("ctrl.rung.") + tier + ".count",
                   rungs[tier].first * per);
        layers.set(std::string("ctrl.rung.") + tier + ".ms",
                   rungs[tier].second * per);
    }
    const auto it = names.find("ctrl.apply");
    layers.set("ctrl.apply_ms", it == names.end() ? 0.0 : it->second.total * per);
    setTail(layers, "ctrl.apply", apply_ms);

    double resolves = 0.0, cached = 0.0, repaired = 0.0;
    for (const ctrl::CtrlRollup& r : traced) {
        resolves += static_cast<double>(r.resolves);
        cached += static_cast<double>(r.solver.cached);
        repaired += static_cast<double>(r.solver.repaired);
    }
    double attempts = 0.0, idle = 0.0;
    for (const ctrl::EventRecord& r : records) {
        attempts += r.attempts;
        idle += r.tier == SolverTier::None ? 1 : 0;
    }
    layers.set("ctrl.resolves", resolves);
    layers.set("ctrl.idle_events", idle);
    layers.set("ctrl.memo_hit_ratio", resolves > 0 ? cached / resolves : 0.0);
    layers.set("ctrl.repair_hit_ratio",
               resolves > cached ? repaired / (resolves - cached) : 0.0);
    layers.set("ctrl.attempts_per_resolve",
               resolves > 0 ? attempts / resolves : 0.0);
    layers.emit(result);
    writeTrace(options, spans);
    return result;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"fleet-day", "ctrl-shift",
                                                   "ctrl-churn"};
    return names;
}

const std::vector<std::pair<std::string, std::string>>&
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = [] {
        std::vector<std::pair<std::string, std::string>> l = {
            {"scen.generate_ms", "ms"},
            {"fleet.build_ms", "ms"},
            {"model.fits", "count"},
            {"server.sim_ms", "ms"},
            {"server.sim_calls", "count"},
            {"server.pair_reuse_share", "ratio"},
            {"sim.telemetry_fold_ms", "ms"},
            {"sim.cap_overshoot_j", "J"},
            {"cluster.place_ms", "ms"},
            {"cluster.place_calls", "count"},
        };
        for (const char* tier : kPlaceTiers)
            l.emplace_back(std::string("cluster.place_tier.") + tier, "count");
        for (const char* prefix : {"fleet.cluster_epoch", "ctrl.apply"}) {
            const std::string p = prefix;
            l.emplace_back(p + "_p50_ms", "ms");
            l.emplace_back(p + "_tail_ms", "ms");
            l.emplace_back(p + "_tail_pct", "%");
            l.emplace_back(p + "_samples", "count");
            l.emplace_back(p + "_max_ms", "ms");
        }
        l.emplace_back("fleet.cluster_epoch_self_ms", "ms");
        l.emplace_back("fleet.epoch_wait_ms", "ms");
        l.emplace_back("ctrl.apply_ms", "ms");
        for (const char* tier : kTiers) {
            l.emplace_back(std::string("ctrl.rung.") + tier + ".count", "count");
            l.emplace_back(std::string("ctrl.rung.") + tier + ".ms", "ms");
        }
        for (const char* name :
             {"ctrl.resolves", "ctrl.idle_events", "ctrl.failovers",
              "ctrl.checkpoints", "ctrl.max_staleness_events",
              "ctrl.tie_divergent_records"})
            l.emplace_back(name, "count");
        for (const char* name : {"ctrl.memo_hit_ratio", "ctrl.repair_hit_ratio",
                                 "ctrl.attempts_per_resolve"})
            l.emplace_back(name, "ratio");
        l.emplace_back("trace.spans", "count");
        l.emplace_back("trace.reps", "count");
        l.emplace_back("trace.untraced_ms", "ms");
        l.emplace_back("trace.traced_ms", "ms");
        l.emplace_back("trace.overhead_ms", "ms");
        l.emplace_back("trace.overhead_share", "ratio");
        return l;
    }();
    return list;
}

Result
runWorkload(const Options& options)
{
    if (options.workload == "fleet-day")
        return options.trace ? fleetDayTraced(options) : fleetDay(options);
    if (options.workload == "ctrl-shift")
        return options.trace ? ctrlTraced(options, false)
                             : ctrlRun(options, false);
    if (options.workload == "ctrl-churn")
        return options.trace ? ctrlTraced(options, true)
                             : ctrlRun(options, true);
    throw std::invalid_argument("unknown workload " + options.workload);
}

} // namespace perfbench
