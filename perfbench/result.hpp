/**
 * @file
 * The benchmark's result line and the statistics helpers it reports
 * with: the percentile rule, metric-name and unit checks, and the
 * result schema check.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The last line of the benchmark's standard output: exactly the keys
 * correct, attempted, failed and metrics, in that order.
 */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** In insertion order; names are unique. */
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit);
    /** One-line JSON object, numbers printed with all their digits. */
    std::string json() const;
};

/** Metric names: 1-64 of [A-Za-z0-9_.-], starting alphanumeric. */
bool validMetricName(std::string_view name);

/** Units: 1-16 of [A-Za-z0-9_/%.-]. */
bool validUnit(std::string_view unit);

/**
 * Every schema rule a result must meet before it is printed: at least
 * one attempted operation, no more failures than attempts, valid and
 * unique names, valid units, finite values. Returns the first
 * violation, or an empty string.
 */
std::string schemaError(const Result& result);

/** Median with the mean-of-middle-pair rule for even counts. */
double median(std::vector<double> samples);

/**
 * A timing summary under the reporting rule: the median, plus the
 * highest of the 50th/90th/99th/99.9th/99.99th percentiles that has at
 * least ten samples beyond it, plus the sample count. When fewer than
 * 20 samples exist no percentile qualifies: tailPct and tail are 0.
 */
struct TailSummary
{
    std::size_t samples = 0;
    double p50 = 0.0;
    /** The qualifying percentile (e.g. 99), or 0 when none does. */
    double tailPct = 0.0;
    /** Nearest-rank value at tailPct. */
    double tail = 0.0;
    double max = 0.0;
};

TailSummary summarize(std::vector<double> samples);

} // namespace perfbench
