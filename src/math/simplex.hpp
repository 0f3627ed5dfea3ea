/**
 * @file
 * Two-phase dense simplex solver for small-to-medium linear programs.
 *
 * The paper formulates placement as an assignment LP (Section IV-B
 * cites standard LP/Hungarian methods). The assignment polytope is
 * integral, so the LP optimum is a permutation matrix. Production
 * placement runs on the Hungarian engine (math/hungarian.hpp), which
 * reaches the same optimum thousands of times faster; this solver is
 * reachable only through solveLp, solveAssignmentLp, and the
 * paper-fidelity cluster::PlacementKind::Lp policy, and it doubles
 * as the tests' LP oracle.
 *
 * The solver handles: maximize c'x subject to a mix of <=, =, >=
 * constraints and x >= 0.
 *
 * Layout and parallelism:
 *  - The tableau lives in one contiguous row-major buffer (rhs folded
 *    in as the last column), so a pivot streams through cache lines
 *    instead of chasing a row-pointer per constraint.
 *  - A maintained reduced-cost row makes pricing O(ncols) per
 *    iteration instead of O(m * ncols).
 *  - Pricing, the ratio test, and the pivot row-elimination run over
 *    poco::runtime parallel loops when an LpOptions pool is supplied.
 *    Chunking is a pure function of the problem size (never of the
 *    worker count) and every reduction combines in fixed order with
 *    exact comparisons, so the pivot sequence — and therefore every
 *    output field — is bit-identical for any thread count, including
 *    the serial path. Small instances stay under the serial cutoffs
 *    and never pay a dispatch.
 *
 * Pivot rule: Dantzig pricing (most positive reduced cost, ties to
 * the lowest column index) with an exact lexicographic
 * (ratio, basic-variable index) ratio test. After a long run of
 * consecutive degenerate pivots the solver falls back to Bland's rule
 * (lowest-index entering column; the ratio tie-break is already
 * Bland's), which guarantees termination on cycling instances.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "math/matrix_view.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::math
{

/** Constraint relation. */
enum class Relation
{
    LessEqual,
    Equal,
    GreaterEqual,
};

/** One linear constraint: coeffs . x (rel) rhs. */
struct LpConstraint
{
    std::vector<double> coeffs;
    Relation rel = Relation::LessEqual;
    double rhs = 0.0;
};

/** A linear program: maximize objective . x, subject to constraints. */
struct LpProblem
{
    std::vector<double> objective;
    std::vector<LpConstraint> constraints;

    /** Convenience builder. */
    void
    addConstraint(std::vector<double> coeffs, Relation rel, double rhs)
    {
        constraints.push_back({std::move(coeffs), rel, rhs});
    }
};

/** Outcome classification. */
enum class LpStatus
{
    Optimal,
    Infeasible,
    Unbounded,
};

/** Solver result. x is meaningful only when status == Optimal. */
struct LpSolution
{
    LpStatus status = LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> x;
};

/**
 * Execution knobs for the solver. The defaults keep paper-scale
 * instances (4x4 assignment: a 9x40 tableau) strictly serial; results
 * never depend on the settings, only wall-clock does.
 */
struct LpOptions
{
    /** Pool for the parallel kernels; null runs everything serially. */
    runtime::ThreadPool* pool = nullptr;
    /** Minimum tableau cells before a pivot fans out over rows. */
    std::size_t pivotCutoff = 4096;
    /** Columns (rows for the ratio test) per reduction chunk. */
    std::size_t pricingGrain = 2048;
};

/**
 * Dense simplex tableau backed by one contiguous row-major buffer.
 *
 * Layout: (m + 1) rows of stride (ncols + 1) doubles. Rows [0, m) are
 * the constraint rows, row m is the maintained reduced-cost row, and
 * the last column of every row is its right-hand side (the objective
 * row's rhs cell holds -z). basis()[r] names the basic variable of
 * constraint row r.
 *
 * Exposed (rather than buried in solveLp) so the micro-benchmarks and
 * the determinism tests can drive the pivot/pricing kernels directly.
 */
class SimplexTableau
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    SimplexTableau() = default;

    /** Zero-filled tableau with @p m constraint rows, @p ncols vars. */
    SimplexTableau(std::size_t m, std::size_t ncols);

    std::size_t constraintRows() const { return m_; }
    std::size_t cols() const { return ncols_; }
    /** Doubles per row (ncols + 1; the rhs is the last column). */
    std::size_t stride() const { return stride_; }

    double* row(std::size_t r) { return data_.data() + r * stride_; }
    const double*
    row(std::size_t r) const
    {
        return data_.data() + r * stride_;
    }

    double& at(std::size_t r, std::size_t c) { return row(r)[c]; }
    double at(std::size_t r, std::size_t c) const { return row(r)[c]; }

    double& rhs(std::size_t r) { return row(r)[ncols_]; }
    double rhs(std::size_t r) const { return row(r)[ncols_]; }

    /** Reduced cost of column j under the current basis. */
    double reducedCost(std::size_t j) const { return row(m_)[j]; }

    /** Objective value of the current basic solution. */
    double objective() const { return -rhs(m_); }

    std::vector<std::size_t>& basis() { return basis_; }
    const std::vector<std::size_t>& basis() const { return basis_; }

    /**
     * Install objective @p cost (one entry per column) by pricing it
     * out over the current basis: the reduced-cost row becomes
     * c - c_B B^-1 A and the objective rhs cell -c_B B^-1 b.
     */
    void setObjective(const std::vector<double>& cost,
                      const LpOptions& options = {});

    /**
     * Dantzig pricing: the column with the most positive reduced cost
     * (ties to the lowest index), or npos when none exceeds the
     * optimality tolerance. Bit-identical for any pool size.
     */
    std::size_t priceDantzig(const LpOptions& options = {}) const;

    /** Bland pricing: lowest-index column with positive reduced cost. */
    std::size_t priceBland() const;

    /**
     * Leaving row for entering column @p enter: the exact minimum of
     * rhs/coefficient over rows with a positive coefficient, ties
     * broken toward the lowest basic-variable index (Bland's leaving
     * rule). @return npos when the column is an unbounded direction.
     */
    std::size_t ratioTest(std::size_t enter,
                          const LpOptions& options = {}) const;

    /**
     * Pivot at (@p prow, @p pcol): normalize the pivot row, eliminate
     * the column from every other row (including the reduced-cost
     * row). Rows are eliminated in parallel once the tableau reaches
     * options.pivotCutoff cells; every row's arithmetic is
     * independent, so the result is identical either way.
     */
    void pivot(std::size_t prow, std::size_t pcol,
               const LpOptions& options = {});

    /**
     * Run simplex iterations until optimal or unbounded. Dantzig
     * pricing with a Bland's-rule fallback after a long run of
     * degenerate pivots (anti-cycling).
     *
     * @return true when an optimum was reached, false when unbounded.
     */
    bool iterate(const LpOptions& options = {});

  private:
    std::size_t m_ = 0;      // constraint rows
    std::size_t ncols_ = 0;  // variables (excluding the rhs column)
    std::size_t stride_ = 0; // ncols_ + 1
    std::vector<double> data_;
    std::vector<std::size_t> basis_;
};

/**
 * Solve the LP with the two-phase simplex method.
 *
 * @param problem LP in the form above; all variables implicitly >= 0.
 * @param options Pool and cutoffs; defaults run serially.
 * @throws poco::FatalError on malformed input (empty objective, ragged
 *         constraint rows).
 */
LpSolution solveLp(const LpProblem& problem,
                   const LpOptions& options = {});

/**
 * Solve a maximum-total-value assignment problem as an LP.
 *
 * Builds the standard doubly-stochastic formulation: variable x_ij is
 * the fraction of "agent" i assigned to "task" j; row and column sums
 * are constrained to 1 (rows <= 1 when rectangular). Integrality of
 * the assignment polytope makes the optimum a 0/1 matrix.
 *
 * @param value value(i, j) is the benefit of assigning agent i to
 *              task j. Requires rows <= cols.
 * @param options Pool and cutoffs; defaults run serially.
 * @return assignment[i] = chosen task j for each agent i.
 */
std::vector<int> solveAssignmentLp(MatrixView value,
                                   const LpOptions& options = {});

} // namespace poco::math
