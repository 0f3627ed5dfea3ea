/**
 * @file
 * Telemetry epoch rollups and the delta aggregator.
 *
 * Per-server TelemetryRecorders answer windowed queries, but the
 * fleet layer only ever needs one compact summary of a run: an
 * EpochRollup (time-weighted power and throughput integrals,
 * cap-overshoot joules, worst p99). runServerScenario folds its own
 * recorder into one over the run's statistics window, so no sample
 * vector leaves the run; members combine in fixed server order into
 * cluster totals, and clusters in canonical cluster order into the
 * fleet total.
 *
 * TelemetryAggregator collects samples pushed from outside a run
 * (the control plane's heartbeat-cadence deltas) into server-indexed
 * slots and folds them per sealed epoch with the same foldTelemetry
 * loop. Within an epoch each writer owns its slot (no locks);
 * sealEpoch() moves the filled buffers into a self-contained fold
 * task — a Future on the shared pool when async, an inline call when
 * not. Both paths run the same fold in the same order, so async mode
 * changes wall-clock only, never a single output bit.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "runtime/parallel.hpp"
#include "sim/telemetry.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace poco::sim
{

/** Aggregates of one epoch's telemetry (server, cluster, or fleet). */
struct EpochRollup
{
    /** Epoch window the samples were folded over. */
    SimTime start = 0;
    SimTime end = 0;
    /** Samples folded in (summed across members on combine). */
    std::uint64_t samples = 0;
    /**
     * Time-weighted mean power over the window. Combining sums the
     * members, so a cluster/fleet rollup holds total mean draw.
     */
    Watts meanPower;
    /** Time-weighted mean BE throughput (summed on combine). */
    Rps meanBeThroughput;
    /** Integral of power over the window. */
    Joules energy;
    /** Integral of max(0, power - cap): budget violation severity. */
    Joules capOvershoot;
    /** Worst p99 latency seen in the window (seconds). */
    double maxLatencyP99 = 0.0;

    /** Fixed-order combine (member into aggregate). */
    EpochRollup& operator+=(const EpochRollup& other);
};

/**
 * Fold one server's time-sorted samples [first, last) over the
 * window [start, end) against its power cap @p cap. Samples are
 * zero-order-hold: each holds until the next sample (or the window
 * end), matching PowerMeter's integration. The one integration loop:
 * runs fold their recorder's deque, the aggregator its vectors.
 */
template <typename It>
EpochRollup
foldTelemetry(It first, It last, Watts cap, SimTime start, SimTime end)
{
    POCO_REQUIRE(end > start, "epoch window must be non-empty");
    EpochRollup rollup;
    rollup.start = start;
    rollup.end = end;

    // Find the window by binary search — the sample at or before
    // `start` still holds at the window open (zero-order hold).
    It lo = std::lower_bound(first, last, start,
                             [](const TelemetrySample& s, SimTime t) {
                                 return s.when < t;
                             });
    if (lo != first && (lo == last || lo->when > start))
        --lo;

    double energy_j = 0.0;
    double overshoot_j = 0.0;
    double be_units = 0.0;
    for (It it = lo; it != last && it->when < end; ++it) {
        const SimTime hold_from = std::max(it->when, start);
        const SimTime hold_to = std::next(it) != last
                                    ? std::min(std::next(it)->when, end)
                                    : end;
        if (hold_to <= hold_from)
            continue;
        const double dt = toSeconds(hold_to - hold_from);
        energy_j += it->power.value() * dt;
        overshoot_j += std::max(0.0, (it->power - cap).value()) * dt;
        be_units += it->beThroughput.value() * dt;
        rollup.maxLatencyP99 =
            std::max(rollup.maxLatencyP99, it->lcLatencyP99);
        ++rollup.samples;
    }
    const double window = toSeconds(end - start);
    rollup.energy = Joules{energy_j};
    rollup.capOvershoot = Joules{overshoot_j};
    rollup.meanPower = Watts{energy_j / window};
    rollup.meanBeThroughput = Rps{be_units / window};
    return rollup;
}

/** foldTelemetry over a whole sample vector. */
inline EpochRollup
foldTelemetry(const std::vector<TelemetrySample>& samples, Watts cap,
              SimTime start, SimTime end)
{
    return foldTelemetry(samples.begin(), samples.end(), cap, start,
                         end);
}

/**
 * Double-buffered epoch aggregator.
 *
 * Threading contract: within an epoch, any task may call add() for
 * a server slot as long as no two tasks share a slot; sealEpoch()
 * and drain() belong to the coordinating thread, which must join
 * the epoch's tasks first (their writes become visible through that
 * join). Sealed buffers are immutable — the fold task owns them.
 */
class TelemetryAggregator
{
  public:
    /**
     * @param cluster_of_server cluster index for each server slot;
     *        its size fixes the fleet's server count.
     * @param clusters total cluster count (> every entry above).
     * @param pool Fold-task pool; null folds inline even when async.
     * @param async Fold off-thread (true) or inline at seal (false).
     */
    TelemetryAggregator(std::vector<std::size_t> cluster_of_server,
                        std::size_t clusters,
                        runtime::ThreadPool* pool, bool async);

    TelemetryAggregator(const TelemetryAggregator&) = delete;
    TelemetryAggregator& operator=(const TelemetryAggregator&) =
        delete;

    std::size_t servers() const { return cluster_of_server_.size(); }
    std::size_t clusters() const { return clusters_; }

    /**
     * Deposit @p samples for @p server into the current epoch's
     * front buffer. Slot-exclusive: one writer per server per epoch.
     */
    void add(std::size_t server,
             std::vector<TelemetrySample> samples, Watts cap);

    /**
     * Streaming hook: append a heartbeat-cadence *delta* — a few
     * samples pushed mid-epoch — to the server's front buffer. Same
     * slot-exclusivity contract as add(), but semantically the
     * writer calls it many times per epoch (the control plane pushes
     * one delta per re-placement), and pushes are counted so the
     * streaming tests can assert the cadence. Samples must arrive in
     * non-decreasing time order across pushes (the fold assumes it).
     */
    void appendDelta(std::size_t server,
                     std::vector<TelemetrySample> samples,
                     Watts cap);

    /** Total appendDelta() calls since construction (all slots). */
    std::uint64_t deltaPushes() const { return delta_pushes_; }

    /**
     * Seal the current epoch over [start, end): hand the filled
     * buffers to the fold (async: a Future on the pool; sync: run
     * here, which is the inline cost the async path avoids) and
     * reset the front buffers for the next epoch.
     */
    void sealEpoch(SimTime start, SimTime end);

    /** One sealed epoch's folded result. */
    struct EpochResult
    {
        /** Per-cluster rollups, canonical cluster order. */
        std::vector<EpochRollup> clusters;
        /** Fleet-wide rollup (clusters combined in order). */
        EpochRollup fleet;
        /** Wall-clock seconds the fold itself took (timing only). */
        double foldSeconds = 0.0;
    };

    /**
     * Collect every sealed epoch, in seal order, blocking on folds
     * still in flight. Leaves the aggregator empty and reusable.
     */
    std::vector<EpochResult> drain();

  private:
    struct ServerBuffer
    {
        std::vector<TelemetrySample> samples;
        Watts cap;
    };

    std::vector<std::size_t> cluster_of_server_;
    std::size_t clusters_;
    runtime::ThreadPool* pool_;
    bool async_;
    std::uint64_t delta_pushes_ = 0;
    std::vector<ServerBuffer> front_;
    /**
     * Sealed epochs in seal order. The fold tasks are self-contained
     * (they capture the buffers and an index copy, never `this`), so
     * async ones may still be folding while the front refills.
     */
    std::vector<runtime::Future<EpochResult>> pending_;
};

} // namespace poco::sim
