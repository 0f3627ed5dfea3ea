/**
 * @file
 * Hungarian (Kuhn-Munkres) algorithm for the assignment problem.
 *
 * O(n^3) potentials-based implementation (math::HungarianRepair is
 * the one engine). The cluster manager's production placements all
 * run on it; the assignment LP (math/simplex.hpp) stays as the
 * paper-fidelity policy and, with exhaustive search, as a test
 * oracle (the paper cites Munkres [30] among the standard methods).
 *
 * Every entry point takes a math::MatrixView over flat row-major
 * storage (the cluster layer's PerformanceMatrix buffer). The
 * nested-vector compatibility shims are gone: callers that assemble
 * rows incrementally pack them flat and view the buffer.
 */

#pragma once

#include <vector>

#include "math/matrix_view.hpp"

namespace poco::math
{

/**
 * Maximum-value assignment: a one-shot math::HungarianRepair cold
 * solve, so batch placement, admission, and the streaming ladder's
 * cold rung all return the same optimum, ties included. (Minimum
 * cost: negate the matrix.)
 *
 * @param value value(i, j) is the benefit of assigning agent i to
 *              task j. Requires rows <= cols.
 * @return assignment[i] = task chosen for agent i (distinct tasks).
 */
std::vector<int> solveAssignmentMax(MatrixView value);

/** Total value of an assignment under a value matrix. */
double assignmentValue(MatrixView value,
                       const std::vector<int>& assignment);

/**
 * Exhaustive assignment search (reference oracle, O(cols!/(cols-rows)!)).
 * Only suitable for tiny instances such as the paper's 4x4 study.
 */
std::vector<int> solveAssignmentExhaustive(MatrixView value);

} // namespace poco::math
