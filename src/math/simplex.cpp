#include "math/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace poco::math
{

namespace
{

constexpr double kEps = 1e-9;

/** Phase-2 price of an artificial column: a degenerate basic
 *  artificial (redundant constraint) must never rise above zero. */
constexpr double kArtificialPenalty = -1e15;

/**
 * A canonicalized LP: the zero-initialized tableau with slack /
 * surplus / artificial columns laid out and the starting basis
 * installed.
 */
struct Canonical
{
    SimplexTableau t;
    std::size_t n = 0;         // real (structural) variables
    std::size_t art_begin = 0; // first artificial column
    std::size_t num_art = 0;
};

Canonical
canonicalize(const LpProblem& problem)
{
    const std::size_t n = problem.objective.size();
    POCO_REQUIRE(n > 0, "LP needs at least one variable");
    for (const auto& con : problem.constraints)
        POCO_REQUIRE(con.coeffs.size() == n,
                     "constraint arity must match objective");

    const std::size_t m = problem.constraints.size();

    // Count auxiliary columns. Each <= / >= gets one slack/surplus;
    // each >= and = gets one artificial; a <= with negative rhs is
    // flipped to >= first.
    struct Row
    {
        std::vector<double> coeffs;
        Relation rel;
        double rhs;
    };
    std::vector<Row> rows;
    rows.reserve(m);
    for (const auto& con : problem.constraints) {
        Row row{con.coeffs, con.rel, con.rhs};
        if (row.rhs < 0.0) {
            for (auto& c : row.coeffs)
                c = -c;
            row.rhs = -row.rhs;
            if (row.rel == Relation::LessEqual)
                row.rel = Relation::GreaterEqual;
            else if (row.rel == Relation::GreaterEqual)
                row.rel = Relation::LessEqual;
        }
        rows.push_back(std::move(row));
    }

    std::size_t num_slack = 0;
    std::size_t num_art = 0;
    for (const auto& row : rows) {
        if (row.rel != Relation::Equal)
            ++num_slack;
        if (row.rel != Relation::LessEqual)
            ++num_art;
    }

    Canonical c{SimplexTableau(m, n + num_slack + num_art), n,
                n + num_slack, num_art};
    SimplexTableau& t = c.t;

    std::size_t slack_at = n;
    std::size_t art_at = c.art_begin;

    for (std::size_t r = 0; r < m; ++r) {
        const Row& row = rows[r];
        double* dst = t.row(r);
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = row.coeffs[j];
        t.rhs(r) = row.rhs;
        switch (row.rel) {
          case Relation::LessEqual:
            dst[slack_at] = 1.0;
            t.basis()[r] = slack_at++;
            break;
          case Relation::GreaterEqual:
            dst[slack_at] = -1.0;
            ++slack_at;
            dst[art_at] = 1.0;
            t.basis()[r] = art_at++;
            break;
          case Relation::Equal:
            dst[art_at] = 1.0;
            t.basis()[r] = art_at++;
            break;
        }
    }
    return c;
}

/**
 * Spread a structural objective over the full column set: artificials
 * get the large negative penalty so a degenerate basic artificial
 * never re-enters at a positive level.
 */
std::vector<double>
phase2Costs(const Canonical& c, const std::vector<double>& objective)
{
    const std::size_t ncols = c.t.cols();
    std::vector<double> cost(ncols, 0.0);
    for (std::size_t j = 0; j < c.n; ++j)
        cost[j] = objective[j];
    for (std::size_t j = c.art_begin; j < ncols; ++j)
        cost[j] = kArtificialPenalty;
    return cost;
}

/**
 * Two-phase simplex over a freshly canonicalized tableau: phase 1
 * drives the artificials to zero (infeasible when it cannot), then
 * phase 2 optimizes @p objective (one entry per structural variable).
 */
LpStatus
runTwoPhase(Canonical& c, const std::vector<double>& objective,
            const LpOptions& options)
{
    SimplexTableau& t = c.t;
    const std::size_t m = t.constraintRows();
    const std::size_t ncols = t.cols();

    // Phase 1: maximize -(sum of artificials); feasible iff optimum 0.
    if (c.num_art > 0) {
        std::vector<double> phase1(ncols, 0.0);
        for (std::size_t j = c.art_begin; j < ncols; ++j)
            phase1[j] = -1.0;
        t.setObjective(phase1, options);
        if (!t.iterate(options)) {
            // Cannot be unbounded: the phase-1 objective is bounded
            // above by zero.
            poco::panic("phase-1 simplex reported unbounded");
        }
        if (t.objective() < -1e-7)
            return LpStatus::Infeasible;
        // Drive any artificial still basic (at zero level) out of the
        // basis so phase 2 never re-enters it.
        for (std::size_t r = 0; r < m; ++r) {
            if (t.basis()[r] >= c.art_begin) {
                std::size_t enter = ncols;
                for (std::size_t j = 0; j < c.art_begin; ++j) {
                    if (std::abs(t.at(r, j)) > kEps) {
                        enter = j;
                        break;
                    }
                }
                if (enter != ncols)
                    t.pivot(r, enter, options);
                // else: the row is all-zero over real variables, i.e. a
                // redundant constraint; the artificial stays basic at 0
                // and is harmless because phase 2 gives it a huge
                // negative cost.
            }
        }
    }

    // Phase 2: the real objective.
    t.setObjective(phase2Costs(c, objective), options);
    if (!t.iterate(options))
        return LpStatus::Unbounded;
    return LpStatus::Optimal;
}

/** Structural-variable values of the current basic solution. */
std::vector<double>
extractX(const SimplexTableau& t, std::size_t n)
{
    std::vector<double> x(n, 0.0);
    for (std::size_t r = 0; r < t.constraintRows(); ++r)
        if (t.basis()[r] < n)
            x[t.basis()[r]] = t.rhs(r);
    return x;
}

/**
 * The doubly-stochastic assignment formulation: x_ij with per-agent
 * Equal-1 rows followed by per-task <=1 rows, objective flattened
 * row-major. Validates the matrix shape.
 */
LpProblem
buildAssignmentProblem(MatrixView value)
{
    const std::size_t rows = value.rows;
    POCO_REQUIRE(rows > 0, "assignment needs at least one agent");
    const std::size_t cols = value.cols;
    POCO_REQUIRE(cols > 0, "assignment matrix must have columns");
    POCO_REQUIRE(rows <= cols,
                 "assignment LP requires agents <= tasks");

    const std::size_t n = rows * cols;
    LpProblem lp;
    lp.objective.resize(n);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            lp.objective[i * cols + j] = value(i, j);

    // Each agent assigned exactly once.
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<double> coeffs(n, 0.0);
        for (std::size_t j = 0; j < cols; ++j)
            coeffs[i * cols + j] = 1.0;
        lp.addConstraint(std::move(coeffs), Relation::Equal, 1.0);
    }
    // Each task used at most once.
    for (std::size_t j = 0; j < cols; ++j) {
        std::vector<double> coeffs(n, 0.0);
        for (std::size_t i = 0; i < rows; ++i)
            coeffs[i * cols + j] = 1.0;
        lp.addConstraint(std::move(coeffs), Relation::LessEqual, 1.0);
    }
    return lp;
}

/**
 * Per-row argmax of the flattened LP solution. The optimal vertex of
 * the assignment polytope is a permutation matrix, so every row's
 * best cell must be (near) 1.
 */
std::vector<int>
extractAssignment(const std::vector<double>& x, std::size_t rows,
                  std::size_t cols)
{
    std::vector<int> assignment(rows, -1);
    for (std::size_t i = 0; i < rows; ++i) {
        double best = -1.0;
        for (std::size_t j = 0; j < cols; ++j) {
            const double xij = x[i * cols + j];
            if (xij > best) {
                best = xij;
                assignment[i] = static_cast<int>(j);
            }
        }
        POCO_ASSERT(best > 0.5,
                    "assignment LP produced a fractional solution");
    }
    return assignment;
}

} // namespace

SimplexTableau::SimplexTableau(std::size_t m, std::size_t ncols)
    : m_(m), ncols_(ncols), stride_(ncols + 1),
      data_((m + 1) * (ncols + 1), 0.0), basis_(m, 0)
{
    POCO_REQUIRE(m > 0 && ncols > 0,
                 "tableau needs rows and columns");
}

void
SimplexTableau::setObjective(const std::vector<double>& cost,
                             const LpOptions& options)
{
    POCO_REQUIRE(cost.size() == ncols_,
                 "objective arity must match tableau columns");
    // Price out: d_j = c_j - sum_r c_basis[r] * a[r][j]. Column
    // blocks sweep the tableau row by row, so each constraint row's
    // cache lines are touched once per block instead of once per
    // column and the inner loop is a straight vectorizable axpy.
    // Every column still accumulates its rows in the fixed r order,
    // so the reduced-cost row is bit-identical for any pool size and
    // any block width.
    constexpr std::size_t kBlock = 256;
    const std::size_t nblocks = (ncols_ + kBlock - 1) / kBlock;
    runtime::ThreadPool* pool =
        m_ * ncols_ >= options.pivotCutoff ? options.pool : nullptr;
    double* obj = row(m_);
    runtime::parallelFor(
        pool, nblocks,
        [this, &cost, obj](std::size_t b) {
            const std::size_t lo = b * kBlock;
            const std::size_t hi = std::min(ncols_, lo + kBlock);
            const std::size_t width = hi - lo;
            double acc[kBlock] = {};
            for (std::size_t r = 0; r < m_; ++r) {
                const double cb = cost[basis_[r]];
                const double* __restrict__ arow = row(r) + lo;
                for (std::size_t j = 0; j < width; ++j)
                    acc[j] += cb * arow[j];
            }
            for (std::size_t j = 0; j < width; ++j)
                obj[lo + j] = cost[lo + j] - acc[j];
        },
        /*grain=*/1);
    double z0 = 0.0;
    for (std::size_t r = 0; r < m_; ++r)
        z0 += cost[basis_[r]] * rhs(r);
    rhs(m_) = -z0;
}

std::size_t
SimplexTableau::priceDantzig(const LpOptions& options) const
{
    struct Best
    {
        double d;
        std::size_t j;
    };
    const double* __restrict__ obj = row(m_);

    // Each range keeps its first strict maximum; chunks combine left
    // to right preferring the left side on exact ties, so any
    // chunking returns the serial scan's index.
    auto scanRange = [obj](std::size_t lo, std::size_t hi,
                           Best acc) {
        for (std::size_t j = lo; j < hi; ++j)
            if (obj[j] > acc.d)
                acc = Best{obj[j], j};
        return acc;
    };

    const Best init{kEps, npos};
    const std::size_t grain =
        std::max<std::size_t>(options.pricingGrain, 1);
    const std::size_t nchunks = (ncols_ + grain - 1) / grain;
    if (options.pool == nullptr || nchunks <= 1)
        return scanRange(0, ncols_, init).j;

    const std::vector<Best> partials = runtime::parallelMap(
        options.pool, nchunks, [&](std::size_t chunk) {
            const std::size_t lo = chunk * grain;
            const std::size_t hi = std::min(ncols_, lo + grain);
            return scanRange(lo, hi, init);
        });
    Best best = init;
    for (const Best& part : partials)
        if (part.d > best.d)
            best = part;
    return best.j;
}

std::size_t
SimplexTableau::priceBland() const
{
    const double* __restrict__ obj = row(m_);
    for (std::size_t j = 0; j < ncols_; ++j)
        if (obj[j] > kEps)
            return j;
    return npos;
}

std::size_t
SimplexTableau::ratioTest(std::size_t enter,
                          const LpOptions& options) const
{
    struct Cand
    {
        double ratio;
        std::size_t row;
        std::size_t var; // basic variable of `row` (tie-break key)
    };
    constexpr double inf = std::numeric_limits<double>::infinity();
    const Cand init{inf, npos, npos};
    auto better = [](const Cand& a, const Cand& b) {
        return a.ratio < b.ratio ||
               (a.ratio == b.ratio && a.var < b.var);
    };
    // Exact comparisons make the lexicographic min associative, so
    // the chunked reduction equals the serial scan for any chunking.
    const Cand pick = runtime::parallelReduce(
        options.pool, m_, init,
        [this, enter, &better](Cand acc, std::size_t r) {
            const double a = at(r, enter);
            if (a > kEps) {
                const Cand cand{rhs(r) / a, r, basis_[r]};
                if (better(cand, acc))
                    return cand;
            }
            return acc;
        },
        [&better](Cand lhs, Cand rhs) {
            return better(rhs, lhs) ? rhs : lhs;
        },
        options.pricingGrain);
    return pick.row;
}

void
SimplexTableau::pivot(std::size_t prow, std::size_t pcol,
                      const LpOptions& options)
{
    double* __restrict__ src = row(prow);
    const double p = src[pcol];
    POCO_ASSERT(std::abs(p) > kEps, "pivot on a ~zero element");
    const double inv = 1.0 / p;
    for (std::size_t c = 0; c < stride_; ++c)
        src[c] *= inv;
    src[pcol] = 1.0;

    // Eliminate the pivot column from every other row, including the
    // reduced-cost row at index m_. Rows are independent, so the
    // elimination fans out once the tableau is big enough to pay for
    // the dispatch; the arithmetic per row is identical either way.
    runtime::ThreadPool* pool =
        (m_ + 1) * stride_ >= options.pivotCutoff ? options.pool
                                                  : nullptr;
    const double* __restrict__ piv = src;
    runtime::parallelFor(pool, m_ + 1, [this, prow, pcol,
                                        piv](std::size_t r) {
        if (r == prow)
            return;
        double* __restrict__ dst = row(r);
        const double factor = dst[pcol];
        if (std::abs(factor) < kEps) {
            dst[pcol] = 0.0;
            return;
        }
        for (std::size_t c = 0; c < stride_; ++c)
            dst[c] -= factor * piv[c];
        dst[pcol] = 0.0;
    });
    basis_[prow] = pcol;
}

bool
SimplexTableau::iterate(const LpOptions& options)
{
    // Dantzig pricing can cycle on degenerate vertices; after this
    // many consecutive zero-progress pivots, switch to Bland's rule
    // (the ratio test already uses Bland's leaving tie-break), which
    // terminates unconditionally.
    const std::size_t degenerate_limit = 64 + 8 * (m_ + ncols_);
    std::size_t degenerate = 0;
    bool bland = false;
    for (;;) {
        const std::size_t enter =
            bland ? priceBland() : priceDantzig(options);
        if (enter == npos)
            return true; // optimal
        const std::size_t leave = ratioTest(enter, options);
        if (leave == npos)
            return false; // unbounded direction
        if (rhs(leave) <= kEps) {
            if (!bland && ++degenerate > degenerate_limit)
                bland = true;
        } else {
            degenerate = 0;
        }
        pivot(leave, enter, options);
    }
}

LpSolution
solveLp(const LpProblem& problem, const LpOptions& options)
{
    Canonical c = canonicalize(problem);

    LpSolution solution;
    solution.status = runTwoPhase(c, problem.objective, options);
    if (solution.status != LpStatus::Optimal)
        return solution;

    solution.x = extractX(c.t, c.n);
    solution.objective = 0.0;
    for (std::size_t j = 0; j < c.n; ++j)
        solution.objective += problem.objective[j] * solution.x[j];
    return solution;
}

std::vector<int>
solveAssignmentLp(MatrixView value, const LpOptions& options)
{
    const LpProblem lp = buildAssignmentProblem(value);
    const LpSolution sol = solveLp(lp, options);
    POCO_ASSERT(sol.status == LpStatus::Optimal,
                "assignment LP must be feasible and bounded");

    return extractAssignment(sol.x, value.rows, value.cols);
}

} // namespace poco::math
