#include "calibrate.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench
{

namespace
{

/** A single cycle over 2 Mi slots (8 MiB), walked by every lane. */
const std::vector<std::uint32_t>&
cycle()
{
    static const std::vector<std::uint32_t> next = [] {
        const std::size_t n = std::size_t{1} << 21;
        std::vector<std::uint32_t> v(n);
        // Stride coprime with n (a power of two): one cycle, fixed order.
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint32_t>((i + 1048573) % n);
        return v;
    }();
    return next;
}

/** One thread's reference data, built once and reused. */
struct Lane
{
    /** 128 Ki doubles (1 MiB): streamed by the FP part. */
    std::vector<double> stream = std::vector<double>(std::size_t{1} << 17, 1.0);

    std::uint64_t run(std::uint64_t salt)
    {
        const double x = 1.0 + static_cast<double>(salt % 7) * 1e-9;
        for (int pass = 0; pass < 48; ++pass)
            for (double& v : stream)
                v = v * 0.999999 + x;
        const std::vector<std::uint32_t>& next = cycle();
        std::uint32_t at = static_cast<std::uint32_t>(salt * 524287);
        for (int step = 0; step < 1000000; ++step)
            at = next[at];
        std::uint64_t h = salt ^ 0x9e3779b97f4a7c15ULL;
        for (int i = 0; i < 1500000; ++i) {
            h ^= h >> 31;
            h *= (h & 1) ? 0xbf58476d1ce4e5b9ULL : 0x94d049bb133111ebULL;
        }
        return h ^ at ^ static_cast<std::uint64_t>(stream[salt]);
    }
};

/** Wall seconds for the first @p threads lanes to run at once. */
double
once(std::vector<std::unique_ptr<Lane>>& lanes, int threads)
{
    std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < sums.size(); ++t)
        workers.emplace_back(
            [&lanes, &sums, t] { sums[t] = lanes[t]->run(t); });
    for (std::thread& w : workers)
        w.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Keep the work observable so it cannot be optimised away.
    volatile std::uint64_t sink = 0;
    for (const std::uint64_t s : sums)
        sink = sink ^ s;
    (void)sink;
    return seconds;
}

/** The helper's loop: one median-of-three timing per request byte. */
[[noreturn]] void
serve(int request, int reply, int threads)
{
    // Built once and kept: page-faulting the buffers in on every run
    // would time the kernel's memory manager, not the host.
    (void)cycle();
    std::vector<std::unique_ptr<Lane>> lanes;
    for (int t = 0; t < threads; ++t)
        lanes.push_back(std::make_unique<Lane>());
    char command = 0;
    while (read(request, &command, 1) == 1) {
        double samples[3];
        for (double& s : samples)
            s = once(lanes, threads);
        std::sort(samples, samples + 3);
        if (write(reply, &samples[1], sizeof samples[1]) !=
            static_cast<ssize_t>(sizeof samples[1]))
            break;
    }
    _exit(0); // no atexit handlers or stdio flushes of the parent's state
}

} // namespace

Reference::Reference(int threads)
{
    int req[2];
    int rep[2];
    if (pipe(req) != 0)
        throw std::runtime_error("reference: pipe failed");
    if (pipe(rep) != 0) {
        close(req[0]);
        close(req[1]);
        throw std::runtime_error("reference: pipe failed");
    }
    // A helper that died must surface as an error, not kill us.
    std::signal(SIGPIPE, SIG_IGN);
    child_ = fork();
    if (child_ == 0) {
        close(req[1]);
        close(rep[0]);
        serve(req[0], rep[1], threads);
    }
    close(req[0]);
    close(rep[1]);
    request_ = req[1];
    reply_ = rep[0];
    if (child_ < 0) {
        close(request_);
        close(reply_);
        throw std::runtime_error("reference: fork failed");
    }
}

Reference::~Reference()
{
    close(request_); // the helper reads end-of-file and exits
    close(reply_);
    int status = 0;
    while (waitpid(child_, &status, 0) < 0 && errno == EINTR) {
    }
}

double
Reference::seconds()
{
    const char command = 'r';
    double s = 0.0;
    if (write(request_, &command, 1) != 1 ||
        read(reply_, &s, sizeof s) != static_cast<ssize_t>(sizeof s))
        throw std::runtime_error("reference: helper did not answer");
    return s;
}

} // namespace perfbench
