/**
 * @file
 * The control-plane suites' synthetic cell model.
 *
 * A pure integer-mix hash of (be, server) shaped by load. The
 * avalanche finalizer keeps cell values generically distinct (a bare
 * xor-multiply leaves near-tie cycles within solver tolerance at
 * larger sizes), so optima are unique and incremental answers must
 * equal cold ones exactly.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace poco::test
{

inline double
syntheticCell(std::size_t be, std::size_t server, double load)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t w) {
        h ^= w;
        h *= 1099511628211ull;
    };
    mix(be + 1);
    mix(server + 17);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    const double base =
        static_cast<double>(h >> 11) * 0x1p-53 * 90.0 + 5.0;
    return base * (1.2 - load);
}

} // namespace poco::test
