/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload <fleet-day|ctrl-shift|ctrl-churn> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <file>]
 *             [--source <id>]
 *
 * Prints a provenance header and human-readable lines prefixed with
 * '#', then, as the last line, one JSON object with exactly the keys
 * correct, attempted, failed and metrics. Exit status: 0 when every
 * correctness check passed, 1 when one failed (the result line is
 * still printed), 2 on a usage or runtime error (no result line).
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "util/parse.hpp"
#include "workloads.hpp"

namespace
{

/** The seed every comparison uses. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Held out: only for confirming a claim made on the default seed. */
constexpr std::uint64_t kHeldOutSeed = 9;

/**
 * Pool size: at most four threads, never more than the host has.
 * ctrl-churn runs on one: its cold re-solves gain nothing from the pool
 * (17-19 events/s on one thread, 18.3-18.4 on four, same seed), and on
 * four their fork-join solver steps made it the workload most exposed
 * to a shared host's scheduling noise (10-seed spread 0.26).
 */
int
poolThreads(const std::string& workload)
{
    if (workload == "ctrl-churn")
        return 1;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(std::min(4u, hw));
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<fleet-day|ctrl-shift|ctrl-churn> --seed <n> --seconds "
                 "<s> --trace <0|1> [--trace-out <file>] [--source <id>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options options;
    options.seed = kDefaultSeed;
    std::string source = "unknown";
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc)
                return usage(("missing value for " + flag).c_str());
            const std::string value = argv[++i];
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = poco::parseU64(value, "--seed");
            else if (flag == "--seconds")
                options.seconds = poco::parseDouble(value, "--seconds");
            else if (flag == "--trace")
                options.trace = poco::parseInt(value, "--trace") != 0;
            else if (flag == "--trace-out")
                options.traceOut = value;
            else if (flag == "--source")
                source = value;
            else
                return usage(("unknown flag " + flag).c_str());
        }
    } catch (const std::exception& e) {
        return usage(e.what());
    }
    const auto& names = perfbench::workloadNames();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end())
        return usage("unknown or missing --workload");
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");
    options.threads = poolThreads(options.workload);

    options.provenance = {
        {"workload", options.workload},
        {"seed", std::to_string(options.seed)},
        {"default_seed", std::to_string(kDefaultSeed)},
        {"held_out_seed", std::to_string(kHeldOutSeed)},
        {"threads", std::to_string(options.threads)},
        {"cores", std::to_string(std::thread::hardware_concurrency())},
        {"compiler", compiler()},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"source", source},
        {"seconds", std::to_string(options.seconds)},
        {"trace", options.trace ? "1" : "0"},
    };
    for (const auto& [key, value] : options.provenance)
        std::printf("# %s = %s\n", key.c_str(), value.c_str());
    std::fflush(stdout);

    perfbench::Result result;
    try {
        // Forked before the workload starts its pool (see calibrate.hpp).
        std::optional<perfbench::Reference> reference;
        if (!options.trace) {
            reference.emplace(options.threads);
            options.reference = &*reference;
        }
        result = perfbench::runWorkload(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    const std::string error = perfbench::schemaError(result);
    if (!error.empty()) {
        std::fprintf(stderr, "perfbench: bad result: %s\n", error.c_str());
        return 2;
    }
    for (const perfbench::Metric& m : result.metrics)
        std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("# failed_frac = %.6g (%llu of %llu operations)\n",
                static_cast<double>(result.failed) /
                    static_cast<double>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    std::printf("%s\n", result.json().c_str());
    return result.correct ? 0 : 1;
}
