/**
 * @file
 * In-memory span tracing for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own files around the calls
 * it makes into each layer's public functions; nothing inside the
 * library is instrumented. Each thread appends to its own buffer (no
 * lock on the hot path), and merged() combines the buffers into one
 * list in a fixed order once every task has been joined. The list is
 * written out as Chrome trace-event JSON after the run, so it opens in
 * chrome://tracing or Perfetto.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** One closed span. Times are nanoseconds since the tracer's origin. */
struct SpanRecord
{
    /** Static string: every span name is a literal. */
    const char* name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Unique within one tracer; 0 is never used. */
    std::uint64_t id = 0;
    /** Id of the span that caused this one; 0 for a root span. */
    std::uint64_t parent = 0;
    /** Repetition the span belongs to (spans of one run share it). */
    std::uint32_t run = 0;
    /** Index of the per-thread buffer that recorded it. */
    std::uint32_t thread = 0;

    double ms() const { return static_cast<double>(endNs - startNs) * 1e-6; }
};

/**
 * Owner of the per-thread span buffers. One tracer is meant to be
 * alive at a time; record from any thread, call merged() only after
 * every recording task has been joined.
 */
class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Tag spans opened from now on with repetition @p run. */
    void setRun(std::uint32_t run) { run_ = run; }

    /** Nanoseconds since this tracer was created. */
    std::int64_t nowNs() const;

    /**
     * Every recorded span, ordered by (run, start, id): the order is
     * a function of the recorded data alone, not of which thread's
     * buffer happened to register first.
     */
    std::vector<SpanRecord> merged() const;

  private:
    friend class ScopedSpan;

    struct Buffer
    {
        std::vector<SpanRecord> spans;
    };

    /** This thread's buffer, registered on first use. */
    Buffer& localBuffer(std::uint32_t& index);
    std::uint64_t nextId();

    const std::chrono::steady_clock::time_point origin_;
    const std::uint64_t generation_;
    std::atomic<std::uint32_t> run_{0};
    std::atomic<std::uint64_t> next_id_{0};
    mutable std::mutex mutex_;
    /** Guarded by mutex_; each Buffer is written by one thread only. */
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/**
 * RAII span: opens at construction, records at destruction. The
 * parent defaults to the innermost span open on this thread; a task
 * running on a pool worker passes its logical parent explicitly.
 */
class ScopedSpan
{
  public:
    static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

    ScopedSpan(Tracer& tracer, const char* name,
               std::uint64_t parent = kInheritParent);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const { return record_.id; }

  private:
    Tracer& tracer_;
    SpanRecord record_;
    std::uint64_t saved_current_ = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children (children running in
 * parallel are not double-subtracted, and a child sticking out of its
 * parent only counts inside it). Parallel to @p spans, milliseconds.
 */
std::vector<double> selfTimesMs(const std::vector<SpanRecord>& spans);

/**
 * Write @p spans as a Chrome trace-event JSON object ("X" complete
 * events, microsecond timestamps, one tid per thread buffer). Each
 * entry of @p metadata lands in the top-level "otherData" object.
 */
void writeChromeTrace(
    std::ostream& out, const std::vector<SpanRecord>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata);

/** JSON string literal for @p text (quotes and escapes included). */
std::string jsonString(const std::string& text);

} // namespace perfbench
