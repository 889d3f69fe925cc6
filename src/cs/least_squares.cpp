#include "cs/least_squares.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/decomposition.h"

namespace sensedroid::cs {

Vector solve_ols(const Matrix& a, std::span<const double> y) {
  linalg::QR qr(a);
  return qr.solve(y);
}

Vector solve_gls(const Matrix& a, std::span<const double> y,
                 const Matrix& v) {
  if (v.rows() != a.rows() || v.cols() != a.rows()) {
    throw std::invalid_argument("solve_gls: covariance shape mismatch");
  }
  if (y.size() != a.rows()) {
    throw std::invalid_argument("solve_gls: y size mismatch");
  }
  // Whitening transform: with V = L L^T, the GLS problem equals OLS on
  // L^{-1} A and L^{-1} y.
  linalg::Cholesky chol(v);
  Matrix wa(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const Vector col = chol.forward(a.col(j));
    for (std::size_t i = 0; i < a.rows(); ++i) wa(i, j) = col[i];
  }
  const Vector wy = chol.forward(y);
  return solve_ols(wa, wy);
}

Vector gls_row_weights(std::span<const double> stddev) {
  double min_pos = std::numeric_limits<double>::infinity();
  for (double s : stddev) {
    if (s > 0.0) min_pos = std::min(min_pos, s);
  }
  if (!std::isfinite(min_pos)) return {};  // all sensors exact
  Vector w(stddev.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 1.0 / std::max(stddev[i], min_pos);
  }
  return w;
}

Vector solve_gls_diag(const Matrix& a, std::span<const double> y,
                      std::span<const double> stddev) {
  if (stddev.size() != a.rows() || y.size() != a.rows()) {
    throw std::invalid_argument("solve_gls_diag: size mismatch");
  }
  const Vector w = gls_row_weights(stddev);
  if (w.empty()) return solve_ols(a, y);  // GLS degenerates to OLS
  Matrix wa(a.rows(), a.cols());
  Vector wy(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) wa(i, j) = a(i, j) * w[i];
    wy[i] = y[i] * w[i];
  }
  return solve_ols(wa, wy);
}

namespace {
// The GLS row weights for y, checked first: whitening y reads one per row.
Vector refit_weights(std::span<const double> y,
                     std::span<const double> stddev) {
  if (!stddev.empty() && stddev.size() != y.size()) {
    throw std::invalid_argument("CachedRefit: noise model size mismatch");
  }
  return gls_row_weights(stddev);
}

Vector whiten(std::span<const double> y, std::span<const double> weights) {
  Vector wy(y.begin(), y.end());
  for (std::size_t i = 0; i < weights.size(); ++i) wy[i] *= weights[i];
  return wy;
}
}  // namespace

CachedRefit::CachedRefit(std::span<const double> y,
                         std::span<const double> stddev, std::size_t capacity)
    : weights_(refit_weights(y, stddev)),
      qr_(y.size(), whiten(y, weights_), capacity),
      col_buf_(y.size()) {}

bool CachedRefit::solve(std::span<const double> cols,
                        std::span<double> coef) {
  const std::size_t m = qr_.rows();
  const std::size_t k = m == 0 ? 0 : cols.size() / m;
  if (k * m != cols.size()) {
    throw std::invalid_argument("CachedRefit::solve: ragged column store");
  }
  if (coef.size() != k) {
    throw std::invalid_argument("CachedRefit::solve: coefficient size");
  }
  while (qr_.size() > k) qr_.remove_last();
  reused_ = qr_.size();
  for (std::size_t t = reused_; t < k; ++t) {
    std::span<const double> col = cols.subspan(t * m, m);
    if (!weights_.empty()) {
      for (std::size_t i = 0; i < m; ++i) col_buf_[i] = col[i] * weights_[i];
      col = col_buf_;
    }
    if (!qr_.append_column(col)) {
      qr_.clear();
      return false;
    }
  }
  qr_.solve_into(coef);
  return true;
}

Vector solve_ridge(const Matrix& a, std::span<const double> y,
                   double lambda) {
  if (lambda < 0.0) {
    throw std::invalid_argument("solve_ridge: lambda must be >= 0");
  }
  if (y.size() != a.rows()) {
    throw std::invalid_argument("solve_ridge: y size mismatch");
  }
  Matrix normal = a.gram();
  for (std::size_t i = 0; i < normal.rows(); ++i) normal(i, i) += lambda;
  const Vector aty = a.transpose_times(y);
  linalg::Cholesky chol(normal);
  return chol.solve(aty);
}

}  // namespace sensedroid::cs
