/**
 * @file
 * Stateful Kuhn-Munkres engine with single-row / single-column repair.
 *
 * The streaming control plane mostly sees one-subject perturbations:
 * a LoadShift re-prices one server's column, a BE profile refresh
 * re-prices one job's row. A full O(n^3) re-solve throws away n-1
 * still-valid augmenting stages; this engine instead retains the dual
 * potentials and matching from the previous optimum, patches the one
 * changed row/column back to dual feasibility, and runs a single
 * O(n*m) augmenting stage.
 *
 * Safety over cleverness: every repair ends with an O(n*m) check of
 * the LP optimality conditions (dual feasibility, complementary
 * slackness on matched edges, column-price signs). When the check
 * fails — degenerate ties, a column the stage could not re-match —
 * the state is invalidated and the caller falls back to a cold solve,
 * so a repaired answer is never worse than a cold one. Row *deletion*
 * is deliberately not offered: removing a matched row can leave the
 * remaining matching non-extreme (cost [[0,1],[0,10]]: deleting row 2
 * strands row 1 on its column-2 edge), so shape changes always take
 * the cold path.
 *
 * All public values are max-form (benefit matrices, matching the
 * placement layer); costs are negated internally to the min-form the
 * potentials method wants.
 */

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "math/matrix_view.hpp"

namespace poco::math
{

class HungarianRepair
{
  public:
    /**
     * Cold solve: maximum-value assignment of @p value (rectangular,
     * rows <= cols), retaining potentials and matching for repairs.
     * solveAssignmentMax is this call on a throwaway engine.
     */
    std::vector<int> solveFull(MatrixView value);

    /** True when state for a (rows, cols) instance is retained. */
    bool
    hasState(std::size_t rows, std::size_t cols) const
    {
        return valid_ && rows == rows_ && cols == cols_;
    }

    /** Drop the retained state (next solve must be solveFull). */
    void invalidate() { valid_ = false; }

    /**
     * Re-optimize after row @p row changed to @p rowValues (@p n ==
     * cols entries, e.g. a PerformanceMatrix row pointer — no copy).
     * One augmenting stage plus an optimality check.
     * @return The new optimal assignment, or nullopt (state
     *         invalidated) when the check fails — fall back cold.
     */
    std::optional<std::vector<int>>
    repairRow(std::size_t row, const double* rowValues,
              std::size_t n);
    std::optional<std::vector<int>>
    repairRow(std::size_t row, const std::vector<double>& rowValues)
    {
        return repairRow(row, rowValues.data(), rowValues.size());
    }

    /**
     * Re-optimize after column @p col changed to @p colValues (size
     * rows). Analogous to repairRow.
     */
    std::optional<std::vector<int>>
    repairColumn(std::size_t col,
                 const std::vector<double>& colValues);

    /** Augmenting stages spent by the most recent call. */
    std::size_t lastStages() const { return last_stages_; }

  private:
    /** One shortest-augmenting-path stage for 1-based row @p row1. */
    void augment(int row1);
    /** LP optimality conditions for the current matching. */
    bool verify() const;
    /** Matching as assignment[row] = col (0-based, max-form). */
    std::vector<int> extract() const;

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    bool valid_ = false;
    std::size_t last_stages_ = 0;
    /** Min-form costs (negated benefits), flat row-major, 0-based. */
    std::vector<double> cost_;
    double costAt(std::size_t i, std::size_t j) const
    {
        return cost_[i * cols_ + j];
    }
    /** Dual potentials, 1-based with sentinel slot 0. */
    std::vector<double> u_;
    std::vector<double> v_;
    /** p_[j] = 1-based row matched to 1-based column j; 0 = free. */
    std::vector<int> p_;
};

} // namespace poco::math
