// Overdetermined coefficient solvers of Section 4:
//   eq. 11 — ordinary least squares for homogeneous sensors,
//   eq. 12 — generalized least squares weighting by the inverse sensor
//            covariance V for heterogeneous phone populations.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.h"
#include "linalg/updatable_qr.h"

namespace sensedroid::cs {

using linalg::Matrix;
using linalg::Vector;

/// OLS estimate alpha = (A^T A)^{-1} A^T y, computed via Householder QR
/// for numerical stability (the paper's eq. 11 with A = Phi~_K).
/// Requires rows >= cols; throws std::invalid_argument otherwise and
/// std::runtime_error on numerical rank deficiency.
Vector solve_ols(const Matrix& a, std::span<const double> y);

/// GLS estimate alpha = (A^T V^{-1} A)^{-1} A^T V^{-1} y (eq. 12).
/// Implemented by whitening: V = L L^T, solve the OLS problem on
/// (L^{-1} A, L^{-1} y).  V must be SPD with V.rows() == a.rows().
Vector solve_gls(const Matrix& a, std::span<const double> y, const Matrix& v);

/// GLS with a diagonal covariance given as per-measurement stddevs — the
/// common case for phone fleets; avoids the dense Cholesky.
/// Zero stddevs are clamped to the smallest positive stddev (exact sensors
/// get the highest finite weight) to keep the weighting well-defined.
Vector solve_gls_diag(const Matrix& a, std::span<const double> y,
                      std::span<const double> stddev);

/// Row weights of the diagonal GLS whitening: w_i = 1 / stddev_i, with
/// zero stddevs clamped to the smallest positive one (exact sensors get
/// the highest finite weight).  Empty when no stddev is positive — GLS
/// then degenerates to OLS.  solve_gls_diag weights by exactly these.
Vector gls_row_weights(std::span<const double> stddev);

/// The cached refit of CHS step (e): OLS (eq. 11), or diagonal GLS
/// (eq. 12) as OLS on whitened rows, over a support that only grows or
/// drops its newest columns.  The row weights and the whitened y are
/// formed once at construction; the incremental factorization
/// (linalg::UpdatableQR) holds Q^T y for that y.  Each solve() receives
/// the support's columns from the caller's column-major store and
/// factors only those past the ones already factored, whitening each on
/// the way in, so no whitened copy of the dictionary exists.  Agrees
/// with solve_gls_diag / solve_ols to rounding (an incrementally updated
/// CGS2 QR rounds differently from Householder).
class CachedRefit {
 public:
  /// An empty `stddev` selects OLS; otherwise it holds one stddev per
  /// row of y and selects GLS weighted by gls_row_weights(stddev).
  /// `capacity` columns are preallocated.  Throws std::invalid_argument
  /// when stddev is neither empty nor one per row.
  CachedRefit(std::span<const double> y, std::span<const double> stddev,
              std::size_t capacity);

  /// Least-squares coefficients on the k columns `cols` holds, column t
  /// at cols[t m, (t + 1) m) with m = y.size(): the first k columns of
  /// an append-only store, whose columns already factored must not have
  /// changed.  Fewer columns than factored truncates to them.  Writes the
  /// k coefficients to `coef` and returns true; false, with `coef`
  /// unspecified, when a column is numerically dependent on the ones
  /// before it (the factorization is cleared, and the caller falls back
  /// to a dense solve).  Throws std::invalid_argument when cols.size() is
  /// not a multiple of m or coef.size() is not k.
  bool solve(std::span<const double> cols, std::span<double> coef);

  /// Columns already factored when the last solve() started.
  std::size_t reused_columns() const noexcept { return reused_; }

 private:
  Vector weights_;  // empty: OLS
  linalg::UpdatableQR qr_;
  Vector col_buf_;  // one whitened column
  std::size_t reused_ = 0;
};

/// Ridge-regularized least squares (A^T A + lambda I)^{-1} A^T y; the
/// fallback brokers use when Phi~_K is too ill-conditioned for plain OLS
/// (the epsilon_c regime of the error model).  lambda must be >= 0.
Vector solve_ridge(const Matrix& a, std::span<const double> y, double lambda);

}  // namespace sensedroid::cs
