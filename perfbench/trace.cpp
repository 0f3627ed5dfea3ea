#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** Distinguishes tracers that reuse one address. */
std::atomic<std::uint64_t> g_generation{0};

/** This thread's cached buffer, valid while generation matches. */
struct LocalSlot
{
    std::uint64_t generation = 0;
    void* buffer = nullptr;
    std::uint32_t index = 0;
};
thread_local LocalSlot t_slot;

/** Innermost open span on this thread (0 = none). */
thread_local std::uint64_t t_current = 0;

} // namespace

Tracer::Tracer()
    : origin_(std::chrono::steady_clock::now()),
      generation_(++g_generation)
{}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint64_t
Tracer::nextId()
{
    return ++next_id_;
}

Tracer::Buffer&
Tracer::localBuffer(std::uint32_t& index)
{
    if (t_slot.generation != generation_) {
        std::lock_guard<std::mutex> guard(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        t_slot.generation = generation_;
        t_slot.buffer = buffers_.back().get();
        t_slot.index = static_cast<std::uint32_t>(buffers_.size() - 1);
    }
    index = t_slot.index;
    return *static_cast<Buffer*>(t_slot.buffer);
}

std::vector<SpanRecord>
Tracer::merged() const
{
    std::vector<SpanRecord> all;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        for (const auto& buffer : buffers_)
            all.insert(all.end(), buffer->spans.begin(),
                       buffer->spans.end());
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                  if (a.run != b.run)
                      return a.run < b.run;
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  return a.id < b.id;
              });
    return all;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name,
                       std::uint64_t parent)
    : tracer_(tracer), saved_current_(t_current)
{
    record_.name = name;
    record_.id = tracer_.nextId();
    record_.parent = parent == kInheritParent ? t_current : parent;
    record_.run = tracer_.run_;
    t_current = record_.id;
    record_.startNs = tracer_.nowNs();
}

ScopedSpan::~ScopedSpan()
{
    record_.endNs = tracer_.nowNs();
    t_current = saved_current_;
    Tracer::Buffer& buffer = tracer_.localBuffer(record_.thread);
    buffer.spans.push_back(record_);
}

std::vector<double>
selfTimesMs(const std::vector<SpanRecord>& spans)
{
    std::unordered_map<std::uint64_t, std::size_t> slot;
    for (std::size_t i = 0; i < spans.size(); ++i)
        slot.emplace(spans[i].id, i);

    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const SpanRecord& s : spans) {
        const auto it = slot.find(s.parent);
        if (s.parent != 0 && it != slot.end())
            children[it->second].emplace_back(s.startNs, s.endNs);
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& span = spans[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = span.startNs;
        for (const auto& [start, end] : kids) {
            const std::int64_t from = std::max(start, reach);
            const std::int64_t to = std::min(end, span.endNs);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        self[i] = static_cast<double>(span.endNs - span.startNs -
                                      covered) *
                  1e-6;
    }
    return self;
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

void
writeChromeTrace(
    std::ostream& out, const std::vector<SpanRecord>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata)
{
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    for (std::size_t i = 0; i < metadata.size(); ++i)
        out << (i ? "," : "") << jsonString(metadata[i].first) << ":"
            << jsonString(metadata[i].second);
    out << "},\"traceEvents\":[";

    std::uint32_t threads = 0;
    for (const SpanRecord& s : spans)
        threads = std::max(threads, s.thread + 1);
    bool first = true;
    for (std::uint32_t t = 0; t < threads; ++t) {
        out << (first ? "" : ",")
            << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":"
            << t << ",\"args\":{\"name\":\"buffer-" << t << "\"}}";
        first = false;
    }
    char buf[256];
    for (const SpanRecord& s : spans) {
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
            "\"parent\":%llu,\"run\":%u}}",
            jsonString(s.name).c_str(), s.thread,
            static_cast<double>(s.startNs) * 1e-3,
            static_cast<double>(s.endNs - s.startNs) * 1e-3,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent), s.run);
        out << (first ? "" : ",") << buf;
        first = false;
    }
    out << "]}\n";
}

} // namespace perfbench
