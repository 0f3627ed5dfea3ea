/**
 * @file
 * The benchmark's workloads: fleet-day (POM server management across
 * a scenario fleet), ctrl-shift and ctrl-churn (the streaming control
 * plane's re-solve ladder). README.md says why each exists and which
 * layer metric should move which end-to-end metric.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "result.hpp"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Measurement budget: repetitions continue until it is spent. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Pool size every workload runs on. */
    int threads = 1;
    /** Where the traced run writes its Chrome trace (empty = none). */
    std::string traceOut;
    /** Times the reference kernel for the host scale (untraced runs). */
    Reference* reference = nullptr;
    /** Provenance key/value pairs copied into the trace file. */
    std::vector<std::pair<std::string, std::string>> provenance;
};

const std::vector<std::string>& workloadNames();

/** (name, unit) of every per-layer metric, in output order. */
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/**
 * Run one workload. Human-readable lines (fingerprints, derived
 * rates, check outcomes) go to stdout prefixed with '#'; the returned
 * result carries every end-to-end metric (untraced) or every
 * per-layer metric (traced). A failed correctness check clears
 * Result::correct.
 */
Result runWorkload(const Options& options);

} // namespace perfbench
