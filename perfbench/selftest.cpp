/**
 * @file
 * Self-tests for the benchmark's own helpers: the percentile rule,
 * self-time arithmetic, the metric-name charset, the result schema,
 * and the per-thread span buffers. Exit 0 when every check passes;
 * run.py runs this before every benchmark run.
 */

#include <sys/wait.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "result.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace
{

int g_failures = 0;

void
expect(bool ok, const char* what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
        ++g_failures;
    }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
ramp(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
percentileRule()
{
    // Fewer than 20 samples: no percentile has ten beyond it.
    TailSummary s = summarize(ramp(19));
    EXPECT(s.samples == 19 && s.tailPct == 0.0 && s.tail == 0.0);
    EXPECT(near(s.p50, 10.0) && near(s.max, 19.0));
    // 20 samples: exactly ten beyond the median.
    s = summarize(ramp(20));
    EXPECT(s.tailPct == 50.0 && near(s.tail, 10.0) && near(s.p50, 10.5));
    // 99 samples: p90 has 9.9 beyond it, so the median is reported.
    EXPECT(summarize(ramp(99)).tailPct == 50.0);
    // 100 samples: p90 has exactly ten beyond it.
    s = summarize(ramp(100));
    EXPECT(s.tailPct == 90.0 && near(s.tail, 90.0));
    // 999 vs 1000 samples: the p99 boundary.
    EXPECT(summarize(ramp(999)).tailPct == 90.0);
    s = summarize(ramp(1000));
    EXPECT(s.tailPct == 99.0 && near(s.tail, 990.0));
    EXPECT(summarize(ramp(10000)).tailPct == 99.9);
    EXPECT(summarize({}).samples == 0);
}

SpanRecord
span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
     std::int64_t end)
{
    SpanRecord s;
    s.name = "x";
    s.id = id;
    s.parent = parent;
    s.startNs = start * 1000000; // milliseconds in, nanoseconds stored
    s.endNs = end * 1000000;
    return s;
}

void
selfTime()
{
    // Root 0-100 ms with two overlapping children 10-40 and 30-60
    // (union 50 ms) and one sticking out past the end, 90-120
    // (10 ms inside); a grandchild 15-20 only affects its parent.
    const std::vector<SpanRecord> spans = {
        span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60),
        span(4, 1, 90, 120), span(5, 2, 15, 20), span(6, 0, 0, 5)};
    const std::vector<double> self = selfTimesMs(spans);
    EXPECT(near(self[0], 40.0));
    EXPECT(near(self[1], 25.0));
    EXPECT(near(self[2], 30.0));
    EXPECT(near(self[3], 30.0));
    EXPECT(near(self[4], 5.0));
    EXPECT(near(self[5], 5.0)); // a root with no children
}

void
names()
{
    EXPECT(validMetricName("setup_s"));
    EXPECT(validMetricName("ctrl.rung.warm-lp.ms"));
    EXPECT(validMetricName("0ok"));
    EXPECT(!validMetricName(""));
    EXPECT(!validMetricName("_lead"));
    EXPECT(!validMetricName(".lead"));
    EXPECT(!validMetricName("has space"));
    EXPECT(!validMetricName("slash/no"));
    EXPECT(!validMetricName("ctrl.rung.warm+lp"));
    EXPECT(validMetricName(std::string(64, 'a')));
    EXPECT(!validMetricName(std::string(65, 'a')));
    EXPECT(validUnit("1/s") && validUnit("%") && validUnit("MB"));
    EXPECT(!validUnit("") && !validUnit("server s") &&
           !validUnit(std::string(17, 'u')));
}

void
schema()
{
    Result r;
    r.attempted = 3;
    r.failed = 1;
    r.add("latency_ms", 1.2034, "ms");
    r.add("setup_s", 0.8127, "s");
    EXPECT(schemaError(r).empty());
    EXPECT(r.json() ==
           "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
           "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
           "\"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}");
    // Values keep every digit they have.
    Result digits = r;
    digits.metrics[0].value = 0.1 + 0.2;
    EXPECT(digits.json().find("0.30000000000000004") != std::string::npos);

    Result bad = r;
    bad.attempted = 0;
    EXPECT(!schemaError(bad).empty());
    bad = r;
    bad.failed = 4;
    EXPECT(!schemaError(bad).empty());
    bad = r;
    bad.add("setup_s", 1.0, "s");
    EXPECT(!schemaError(bad).empty());
    bad = r;
    bad.add("bad name", 1.0, "s");
    EXPECT(!schemaError(bad).empty());
    bad = r;
    bad.add("nan_ms", std::numeric_limits<double>::quiet_NaN(), "ms");
    EXPECT(!schemaError(bad).empty());
    bad = r;
    bad.add("unitless", 1.0, "");
    EXPECT(!schemaError(bad).empty());
    bad = r;
    bad.metrics.clear();
    EXPECT(!schemaError(bad).empty());
}

void
threadBuffers()
{
    // Four threads record nested spans into their own buffers; the
    // merge keeps every span, orders by (run, start, id), and keeps
    // each child's parent link.
    Tracer tracer;
    tracer.setRun(1);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&tracer] {
            for (int i = 0; i < 50; ++i) {
                ScopedSpan outer(tracer, "outer");
                ScopedSpan inner(tracer, "inner");
            }
        });
    for (std::thread& t : threads)
        t.join();
    const std::vector<SpanRecord> spans = tracer.merged();
    EXPECT(spans.size() == 400);
    bool ordered = true, linked = true;
    for (std::size_t i = 1; i < spans.size(); ++i)
        ordered = ordered && (spans[i - 1].startNs < spans[i].startNs ||
                              (spans[i - 1].startNs == spans[i].startNs &&
                               spans[i - 1].id < spans[i].id));
    for (const SpanRecord& s : spans)
        linked = linked && (std::string(s.name) == "outer"
                                ? s.parent == 0
                                : s.parent != 0 && s.parent < s.id);
    EXPECT(ordered);
    EXPECT(linked);

    std::ostringstream out;
    writeChromeTrace(out, spans, {{"seed", "1"}});
    const std::string json = out.str();
    EXPECT(json.rfind("{\"displayTimeUnit\":\"ms\"", 0) == 0);
    EXPECT(json.find("\"otherData\":{\"seed\":\"1\"}") != std::string::npos);
    EXPECT(json.find("\"ph\":\"X\"") != std::string::npos);
}

void
reference()
{
    // The helper answers with a plausible time and is reaped on
    // destruction (a leaked child would keep this process's wait()
    // from reporting no children).
    {
        Reference ref(2);
        const double s = ref.seconds();
        EXPECT(std::isfinite(s) && s > 0.0 && s < 10.0);
    }
    EXPECT(wait(nullptr) == -1 && errno == ECHILD);
}

} // namespace

int
main()
{
    percentileRule();
    selfTime();
    names();
    schema();
    threadBuffers();
    reference();
    if (g_failures == 0)
        std::printf("selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
