#include "cs/least_squares.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

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

CachedRefit::CachedRefit(std::span<const double> y,
                         std::span<const double> stddev, std::size_t capacity,
                         linalg::SupportQrCache::ColumnFn column)
    : weights_(gls_row_weights(stddev)),
      wy_(y.begin(), y.end()),
      column_(std::move(column)),
      cache_(y.size(), capacity,
             [this](std::size_t j, std::span<double> out) {
               column_(j, out);
               for (std::size_t i = 0; i < weights_.size(); ++i) {
                 out[i] *= weights_[i];
               }
             }) {
  if (!stddev.empty() && stddev.size() != y.size()) {
    throw std::invalid_argument("CachedRefit: noise model size mismatch");
  }
  for (std::size_t i = 0; i < weights_.size(); ++i) wy_[i] *= weights_[i];
}

std::optional<Vector> CachedRefit::solve(
    std::span<const std::size_t> support) {
  if (!cache_.refit(support)) return std::nullopt;
  return cache_.solve(wy_);
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
