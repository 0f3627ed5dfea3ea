#include "sim/telemetry_rollup.hpp"

#include <algorithm>
#include <chrono>

namespace poco::sim
{

EpochRollup&
EpochRollup::operator+=(const EpochRollup& other)
{
    if (samples == 0) {
        start = other.start;
        end = other.end;
    } else if (other.samples != 0) {
        start = std::min(start, other.start);
        end = std::max(end, other.end);
    }
    samples += other.samples;
    meanPower += other.meanPower;
    meanBeThroughput += other.meanBeThroughput;
    energy += other.energy;
    capOvershoot += other.capOvershoot;
    maxLatencyP99 = std::max(maxLatencyP99, other.maxLatencyP99);
    return *this;
}

TelemetryAggregator::TelemetryAggregator(
    std::vector<std::size_t> cluster_of_server, std::size_t clusters,
    runtime::ThreadPool* pool, bool async)
    : cluster_of_server_(std::move(cluster_of_server)),
      clusters_(clusters), pool_(pool), async_(async),
      front_(cluster_of_server_.size())
{
    POCO_REQUIRE(clusters_ > 0, "aggregator needs a cluster");
    for (const std::size_t c : cluster_of_server_)
        POCO_REQUIRE(c < clusters_,
                     "server mapped to a cluster out of range");
}

void
TelemetryAggregator::add(std::size_t server,
                         std::vector<TelemetrySample> samples,
                         Watts cap)
{
    POCO_REQUIRE(server < front_.size(),
                 "telemetry server slot out of range");
    ServerBuffer& slot = front_[server];
    slot.cap = cap;
    if (slot.samples.empty()) {
        slot.samples = std::move(samples);
    } else {
        slot.samples.insert(slot.samples.end(), samples.begin(),
                            samples.end());
    }
}

void
TelemetryAggregator::appendDelta(std::size_t server,
                                 std::vector<TelemetrySample> samples,
                                 Watts cap)
{
    POCO_REQUIRE(server < front_.size(),
                 "telemetry server slot out of range");
    if (!front_[server].samples.empty() && !samples.empty())
        POCO_REQUIRE(front_[server].samples.back().when <=
                         samples.front().when,
                     "telemetry deltas must arrive in time order");
    ++delta_pushes_;
    add(server, std::move(samples), cap);
}

void
TelemetryAggregator::sealEpoch(SimTime start, SimTime end)
{
    // Move the filled buffers into a self-contained task: it owns
    // everything it reads, so the front can refill immediately and
    // the aggregator can even be destroyed while folds run.
    std::vector<ServerBuffer> sealed(front_.size());
    sealed.swap(front_);
    auto task = [sealed = std::move(sealed),
                 cluster_of = cluster_of_server_,
                 n_clusters = clusters_, start, end]() {
        const auto t0 = std::chrono::steady_clock::now();
        EpochResult result;
        result.clusters.resize(n_clusters);
        for (auto& rollup : result.clusters) {
            rollup.start = start;
            rollup.end = end;
        }
        // Per-server folds combine in server-index order, clusters
        // combine in canonical cluster order: the result is a pure
        // function of the sealed buffers, independent of which
        // thread folds or when.
        for (std::size_t s = 0; s < sealed.size(); ++s) {
            if (sealed[s].samples.empty())
                continue;
            result.clusters[cluster_of[s]] += foldTelemetry(
                sealed[s].samples, sealed[s].cap, start, end);
        }
        result.fleet.start = start;
        result.fleet.end = end;
        for (const EpochRollup& rollup : result.clusters)
            result.fleet += rollup;
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - t0;
        result.foldSeconds = elapsed.count();
        return result;
    };
    // Async: a Future on the pool, folding while the next epoch
    // simulates. Sync: a null-pool launch runs the same task inline
    // right here — that inline time is what async mode removes.
    pending_.push_back(runtime::Future<EpochResult>::launch(
        async_ ? pool_ : nullptr, std::move(task)));
}

std::vector<TelemetryAggregator::EpochResult>
TelemetryAggregator::drain()
{
    std::vector<EpochResult> results;
    results.reserve(pending_.size());
    for (auto& future : pending_)
        results.push_back(future.get());
    pending_.clear();
    return results;
}

} // namespace poco::sim
