/**
 * @file
 * The performance matrix (Fig. 7-II of the paper).
 *
 * Entry (i, j) estimates the throughput best-effort application i
 * would achieve alongside latency-critical server j, averaged over
 * the LC app's whole operating range. The estimate is purely
 * model-driven: the LC app's fitted utility gives its power-efficient
 * allocation (and modeled draw) at each load, the complement gives
 * the spare resources and power headroom, and the BE app's fitted
 * utility maps that spare capacity to throughput.
 */

#pragma once

#include <string>
#include <vector>

#include "math/matrix_view.hpp"
#include "model/cobb_douglas.hpp"
#include "sim/server_spec.hpp"
#include "util/units.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::cluster
{

/** A latency-critical server's model inputs for matrix building. */
struct LcServerModel
{
    std::string name;
    model::CobbDouglasUtility utility;
    /** Peak load the utility's performance unit is measured in. */
    Rps peakLoad;
    /** Provisioned power capacity of the server. */
    Watts powerCap;
};

/** A best-effort candidate's model inputs. */
struct BeCandidateModel
{
    std::string name;
    model::CobbDouglasUtility utility;
};

/** Matrix-construction knobs. */
struct MatrixConfig
{
    /** LC load points averaged over (uniform 10%..90%, paper V-D). */
    std::vector<double> loadPoints =
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
    /** Demand inflation applied to the LC model (see controllers). */
    double headroom = 1.05;
};

/**
 * Cell (i, j): estimated throughput of BE i on LC server j.
 *
 * Cells live in one contiguous row-major buffer (structure-of-arrays
 * for the solvers: a whole row or the full matrix streams through
 * cache, and the flat buffer feeds math::MatrixView without copies).
 */
struct PerformanceMatrix
{
    std::vector<std::string> beNames;
    std::vector<std::string> lcNames;

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /** Reshape to rows x cols, every cell set to @p fill. */
    void resize(std::size_t rows, std::size_t cols,
                double fill = 0.0)
    {
        rows_ = rows;
        cols_ = cols;
        cells_.assign(rows * cols, fill);
    }

    double& operator()(std::size_t i, std::size_t j)
    {
        return cells_[i * cols_ + j];
    }
    double operator()(std::size_t i, std::size_t j) const
    {
        return cells_[i * cols_ + j];
    }

    double* row(std::size_t i) { return cells_.data() + i * cols_; }
    const double* row(std::size_t i) const
    {
        return cells_.data() + i * cols_;
    }

    /** Solver-facing view of the flat cell buffer. */
    math::MatrixView view() const
    {
        return {cells_.data(), rows_, cols_, cols_};
    }

    /** Build from nested rows (test/bench convenience). */
    static PerformanceMatrix
    fromRows(const std::vector<std::vector<double>>& rows) // poco-lint: allow(nested-vector)
    {
        POCO_REQUIRE(!rows.empty(), "matrix must be non-empty");
        const std::size_t cols = rows.front().size();
        POCO_REQUIRE(cols > 0, "matrix must have columns");
        PerformanceMatrix m;
        m.cells_.reserve(rows.size() * cols);
        for (const auto& row : rows) {
            POCO_REQUIRE(row.size() == cols, "ragged matrix");
            m.cells_.insert(m.cells_.end(), row.begin(), row.end());
        }
        m.rows_ = rows.size();
        m.cols_ = cols;
        return m;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> cells_;
};

/**
 * Build the matrix from fitted models (batched SoA path).
 *
 * The per-cell cost is dominated by the LC-side allocation search —
 * a log/exp pair per (cores, ways) lattice cell — which depends only
 * on the LC model, not on the BE row or the load point. The build
 * therefore evaluates each LC's lattice once with one batched
 * log/exp sweep per resource column (model::AllocationGrid over
 * CobbDouglasUtility::performanceBatch), scans it once per load
 * point for the spare capacity, and leaves only the cheap BE-side
 * estimate per cell. Cells and per-LC grids are evaluated in
 * parallel when @p pool is non-null.
 *
 * Bit-identity contract: every cell equals the retained scalar
 * reference (buildPerformanceMatrixScalar) bit for bit, for any
 * worker count — gated by test_matrix_soa and the bench_micro
 * divergence gate.
 *
 * @param spec The (homogeneous) server platform.
 */
PerformanceMatrix
buildPerformanceMatrix(const std::vector<BeCandidateModel>& be,
                       const std::vector<LcServerModel>& lc,
                       const sim::ServerSpec& spec,
                       const MatrixConfig& config = {},
                       runtime::ThreadPool* pool = nullptr);

/**
 * Reference per-cell build: one estimateCellAtLoad() call (a one-shot
 * lattice search) per (cell, load point), as the pre-SoA
 * implementation. Retained as the bit-identity reference for the
 * batched path's hoisting and load-point order.
 */
PerformanceMatrix
buildPerformanceMatrixScalar(const std::vector<BeCandidateModel>& be,
                             const std::vector<LcServerModel>& lc,
                             const sim::ServerSpec& spec,
                             const MatrixConfig& config = {},
                             runtime::ThreadPool* pool = nullptr);

/**
 * Single-cell estimate: BE throughput beside one LC server at one
 * load fraction (exposed for tests and the Edgeworth analysis).
 */
double estimateCellAtLoad(const BeCandidateModel& be,
                          const LcServerModel& lc,
                          const sim::ServerSpec& spec,
                          double load_fraction, double headroom);

} // namespace poco::cluster
