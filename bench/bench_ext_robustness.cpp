/**
 * @file
 * Extension — robustness of the placement decision to model error.
 *
 * Pocolo's placement is only as good as its fitted preference
 * vectors. This study perturbs every fitted coefficient by a random
 * relative error and measures: how often the assignment changes,
 * and how much *realized* throughput the perturbed decisions lose —
 * i.e. how much model accuracy the placement actually needs.
 */

#include <cstdio>

#include "cluster/cluster_evaluator.hpp"
#include "cluster/placement.hpp"
#include "common.hpp"
#include "fault/fault_plan.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

model::CobbDouglasUtility
perturb(const model::CobbDouglasUtility& m, double rel, Rng& rng)
{
    std::vector<double> alpha = m.alpha();
    std::vector<double> p = m.pCoef();
    for (auto& a : alpha)
        a *= rng.noiseFactor(rel);
    for (auto& v : p)
        v *= rng.noiseFactor(rel);
    model::CobbDouglasUtility out(m.logA0(), std::move(alpha),
                                  m.pStatic().value(),
                                  std::move(p));
    out.perfR2 = m.perfR2;
    out.powerR2 = m.powerR2;
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "Ext: robustness",
        "placement stability under model-coefficient error",
        "the assignment is driven by coarse preference differences, "
        "so it should tolerate sizable coefficient error");

    auto& ctx = bench::context();
    const cluster::ClusterEvaluator evaluator(ctx.apps);
    const auto baseline =
        evaluator.placeBe(cluster::PlacementKind::Hungarian);
    const double baseline_thr =
        evaluator.runAssignment(baseline, cluster::ManagerKind::Pom)
            .meanBeThroughput();

    constexpr int kTrials = 24;
    TextTable table({"coefficient error", "assignment changed",
                     "mean realized thr", "worst realized thr",
                     "vs exact-model placement"});
    for (double rel : {0.05, 0.10, 0.20, 0.35}) {
        int changed = 0;
        double sum_thr = 0.0;
        double worst_thr = 1e18;
        Rng rng(static_cast<std::uint64_t>(rel * 1000) + 5);
        for (int trial = 0; trial < kTrials; ++trial) {
            // Rebuild the matrix from perturbed models.
            std::vector<cluster::LcServerModel> lc =
                evaluator.lcModels();
            std::vector<cluster::BeCandidateModel> be =
                evaluator.beModels();
            for (auto& s : lc)
                s.utility = perturb(s.utility, rel, rng);
            for (auto& c : be)
                c.utility = perturb(c.utility, rel, rng);
            const auto matrix = cluster::buildPerformanceMatrix(
                be, lc, ctx.apps.spec);
            Rng placement_rng(1);
            const auto assignment = cluster::place(
                matrix, cluster::PlacementKind::Hungarian,
                placement_rng);
            changed += assignment != baseline;
            // Realize the perturbed decision with the TRUE system.
            const double thr =
                evaluator
                    .runAssignment(assignment,
                                   cluster::ManagerKind::Pom)
                    .meanBeThroughput();
            sum_thr += thr;
            worst_thr = std::min(worst_thr, thr);
        }
        const double mean_thr = sum_thr / kTrials;
        table.addRow(
            {fmtPercent(rel, 0),
             std::to_string(changed) + "/" +
                 std::to_string(kTrials),
             fmt(mean_thr, 3), fmt(worst_thr, 3),
             fmtPercent(mean_thr / baseline_thr - 1.0)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nexact-model placement realizes %.3f\n",
                baseline_thr);

    // Second study: solver faults instead of model faults. Each row
    // derives a deterministic failure schedule from a FaultPlan
    // fingerprint (so re-runs are seed-stable bit for bit) and walks
    // the Hungarian -> Greedy fallback chain with it: attempt
    // k of solver s fails when bit (s*8 + k) of the fingerprint is
    // set. The placement must survive every schedule — at worst on
    // the conservative identity assignment — and lose no throughput
    // unless the chain bottomed out.
    std::printf("\n== placement under injected solver failures ==\n\n");
    TextTable chain({"fault seed", "fingerprint", "solver used",
                     "attempts", "assignment", "realized thr"});
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL, 99ULL}) {
        fault::FaultPlanConfig fc;
        fc.horizon = 10 * kMinute;
        fc.servers = static_cast<int>(ctx.apps.lc.size());
        fc.sensorStuckRate = 1.0;
        fc.actuatorStuckRate = 1.0;
        fc.crashRate = 0.5;
        fc.seed = seed;
        const std::uint64_t print =
            fault::FaultPlan::generate(fc).fingerprint();

        cluster::FallbackOptions options;
        options.failInjection = [print](cluster::PlacementKind kind,
                                        int attempt) {
            const int bit = static_cast<int>(kind) * 8 + attempt;
            return ((print >> (bit & 63)) & 1ULL) != 0ULL;
        };
        const auto report = cluster::placeWithFallback(
            evaluator.matrix(), evaluator.solverContext(), options);
        const double thr =
            evaluator
                .runAssignment(report.value,
                               cluster::ManagerKind::Pom)
                .meanBeThroughput();
        chain.addRow(
            {std::to_string(seed),
             [&] {
                 char buf[20];
                 std::snprintf(buf, sizeof buf, "%016llx",
                               static_cast<unsigned long long>(print));
                 return std::string(buf);
             }(),
             poco::solverTierName(report.tier),
             std::to_string(report.attempts),
             report.degraded() ? "conservative" : "solved",
             fmt(thr, 3)});
    }
    std::printf("%s", chain.render().c_str());
    std::printf("\nevery schedule is a pure function of the fault "
                "fingerprint: re-running this bench reproduces the "
                "table bit for bit\n");
    return 0;
}
