#include "result.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "trace.hpp"

namespace perfbench
{

namespace
{

bool
alnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

/** Shortest decimal form that reads back as exactly @p v. */
std::string
number(double v)
{
    char buf[40];
    if (v == std::trunc(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    for (int digits = 1; digits <= 17; ++digits) {
        std::snprintf(buf, sizeof buf, "%.*g", digits, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

} // namespace

void
Result::add(std::string name, double value_, std::string unit)
{
    metrics.push_back({std::move(name), value_, std::move(unit)});
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + number(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}}";
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return alnum(c) || c == '_' || c == '/' || c == '%' ||
               c == '.' || c == '-';
    });
}

std::string
schemaError(const Result& result)
{
    if (result.attempted < 1)
        return "attempted must be at least 1";
    if (result.failed > result.attempted)
        return "failed exceeds attempted";
    if (result.metrics.empty())
        return "no metrics";
    std::set<std::string> seen;
    for (const Metric& m : result.metrics) {
        if (!validMetricName(m.name))
            return "bad metric name '" + m.name + "'";
        if (!seen.insert(m.name).second)
            return "duplicate metric name '" + m.name + "'";
        if (!validUnit(m.unit))
            return "bad unit '" + m.unit + "' on " + m.name;
        if (!std::isfinite(m.value))
            return "non-finite value on " + m.name;
    }
    return {};
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

TailSummary
summarize(std::vector<double> samples)
{
    TailSummary out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    out.p50 = median(samples);
    out.max = samples.back();
    const double n = static_cast<double>(samples.size());
    for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
        // Samples beyond the pct-th percentile: the top (1 - pct)
        // share. Compared in integer hundredths of a sample to keep
        // exact boundaries (n = 1000 at 99) on the right side.
        const double beyond = n * (100.0 - pct) / 100.0;
        if (std::llround(beyond * 100.0) < 1000)
            continue;
        const auto rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * n - 1e-9));
        out.tailPct = pct;
        out.tail = samples[std::max<std::size_t>(rank, 1) - 1];
        break;
    }
    return out;
}

} // namespace perfbench
