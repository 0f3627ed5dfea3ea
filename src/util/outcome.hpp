/**
 * @file
 * Structured result wrapper for degradation-aware computations.
 *
 * Several layers of the system can succeed at different quality
 * levels: the placement fallback chain walks Hungarian -> Greedy
 * before settling for a preference-free assignment, the fleet
 * evaluator can finish an epoch with its power budget clamped, and
 * the fit-health gate can refuse to trust the preference matrix
 * entirely. Earlier revisions reported these side channels through
 * ad-hoc report structs and out-params; Outcome<T> carries them next
 * to the value itself so every caller sees *what* was computed and
 * *how much the result should be trusted* in one object.
 */

#pragma once

#include <utility>

namespace poco
{

/**
 * Which rung of the solver/degradation ladder produced a value.
 * Ordered from most to least preferred; larger enumerators mean a
 * deeper fallback. Every exact solve is Hungarian: the simplex
 * (PlacementKind::Lp) is a paper-fidelity policy, not a rung.
 */
enum class SolverTier
{
    None,         ///< nothing ran (empty/unsolved outcome)
    Cached,       ///< exact hit in the assignment cache (no solve)
    Repair,       ///< incremental Hungarian repair of a prior optimum
    Hungarian,    ///< exact cold Kuhn-Munkres solve (primary path)
    Greedy,       ///< heuristic fallback (still preference-driven)
    Conservative, ///< preference-free terminal fallback
};

inline const char*
solverTierName(SolverTier tier)
{
    switch (tier) {
      case SolverTier::None:         return "none";
      case SolverTier::Cached:       return "cached";
      case SolverTier::Repair:       return "repair";
      case SolverTier::Hungarian:    return "hungarian";
      case SolverTier::Greedy:       return "greedy";
      case SolverTier::Conservative: return "conservative";
    }
    return "?";
}

/** Of two tiers, the one further down the ladder. */
inline SolverTier
worseTier(SolverTier a, SolverTier b)
{
    return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/** Degradation flags accumulated while producing a value. */
struct Degradation
{
    /** The preference-free terminal fallback produced the value. */
    bool conservative = false;
    /** The fit-health gate stopped trusting the fitted models. */
    bool modelsUntrusted = false;
    /** Work was shed (e.g. best-effort apps parked unplaced). */
    bool workShed = false;
    /** A power budget ran against its floor or ceiling. */
    bool budgetClamped = false;

    bool any() const
    {
        return conservative || modelsUntrusted || workShed ||
               budgetClamped;
    }

    /** Union of two flag sets (for aggregating sub-results). */
    Degradation operator|(const Degradation& other) const
    {
        Degradation merged;
        merged.conservative = conservative || other.conservative;
        merged.modelsUntrusted =
            modelsUntrusted || other.modelsUntrusted;
        merged.workShed = workShed || other.workShed;
        merged.budgetClamped = budgetClamped || other.budgetClamped;
        return merged;
    }
    Degradation& operator|=(const Degradation& other)
    {
        *this = *this | other;
        return *this;
    }
};

/**
 * A value plus the story of how it was obtained: the solver tier
 * that produced it, how many attempts the fallback chain spent, and
 * any degradation flags picked up along the way.
 *
 * [[nodiscard]]: an Outcome dropped on the floor silently discards
 * the degradation flags with it — exactly the failure mode the
 * fallback chain exists to report. The compiler warns on any
 * expression-statement discard; the poco_lint `discarded-outcome`
 * rule covers the fingerprint/conservesBudget family the same way.
 */
template <typename T>
struct [[nodiscard]] Outcome
{
    T value{};
    SolverTier tier = SolverTier::None;
    /** Total solver attempts across every fallback stage. */
    int attempts = 0;
    Degradation degradation;

    Outcome() = default;
    Outcome(T v, SolverTier t, int tries = 1, Degradation flags = {})
        : value(std::move(v)), tier(t), attempts(tries),
          degradation(flags)
    {}

    /** True when any degradation flag is set. */
    bool degraded() const { return degradation.any(); }
};

} // namespace poco
