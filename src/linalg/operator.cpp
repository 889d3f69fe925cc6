#include "linalg/operator.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace sensedroid::linalg {

// ---------------------------------------------------------------------------
// SubsampledDctOperator
// ---------------------------------------------------------------------------

namespace {

// Naive unscaled DCT-II base case (odd lengths): X_k = sum_m x_m
// cos(pi (2m+1) k / (2 len)).
void naive_forward(double* x, double* tmp, std::size_t len) {
  const double denom = 2.0 * static_cast<double>(len);
  for (std::size_t k = 0; k < len; ++k) {
    double acc = 0.0;
    for (std::size_t m = 0; m < len; ++m) {
      acc += x[m] * std::cos(std::numbers::pi *
                             (2.0 * static_cast<double>(m) + 1.0) *
                             static_cast<double>(k) / denom);
    }
    tmp[k] = acc;
  }
  for (std::size_t k = 0; k < len; ++k) x[k] = tmp[k];
}

// Naive unscaled DCT-III base case: y_m = sum_k x_k
// cos(pi (2m+1) k / (2 len)) — the transpose of naive_forward.
void naive_inverse(double* x, double* tmp, std::size_t len) {
  const double denom = 2.0 * static_cast<double>(len);
  for (std::size_t m = 0; m < len; ++m) {
    double acc = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      acc += x[k] * std::cos(std::numbers::pi *
                             (2.0 * static_cast<double>(m) + 1.0) *
                             static_cast<double>(k) / denom);
    }
    tmp[m] = acc;
  }
  for (std::size_t m = 0; m < len; ++m) x[m] = tmp[m];
}

void forward_rec(double* x, double* tmp, std::size_t len, std::size_t level,
                 const std::vector<std::vector<double>>& recip) {
  if (len == 1) return;
  if (len % 2 != 0) {
    naive_forward(x, tmp, len);
    return;
  }
  const std::size_t half = len / 2;
  const std::vector<double>& rc = recip[level];
  for (std::size_t i = 0; i < half; ++i) {
    const double a = x[i];
    const double b = x[len - 1 - i];
    tmp[i] = a + b;
    tmp[i + half] = (a - b) * rc[i];
  }
  forward_rec(tmp, x, half, level + 1, recip);
  forward_rec(tmp + half, x, half, level + 1, recip);
  for (std::size_t i = 0; i + 1 < half; ++i) {
    x[2 * i] = tmp[i];
    x[2 * i + 1] = tmp[i + half] + tmp[i + half + 1];
  }
  x[len - 2] = tmp[half - 1];
  x[len - 1] = tmp[len - 1];
}

void inverse_rec(double* x, double* tmp, std::size_t len, std::size_t level,
                 const std::vector<std::vector<double>>& recip) {
  if (len == 1) return;
  if (len % 2 != 0) {
    naive_inverse(x, tmp, len);
    return;
  }
  const std::size_t half = len / 2;
  const std::vector<double>& rc = recip[level];
  tmp[0] = x[0];
  tmp[half] = x[1];
  for (std::size_t i = 1; i < half; ++i) {
    tmp[i] = x[2 * i];
    tmp[i + half] = x[2 * i - 1] + x[2 * i + 1];
  }
  inverse_rec(tmp, x, half, level + 1, recip);
  inverse_rec(tmp + half, x, half, level + 1, recip);
  for (std::size_t i = 0; i < half; ++i) {
    const double a = tmp[i];
    const double b = tmp[i + half] * rc[i];
    x[i] = a + b;
    x[len - 1 - i] = a - b;
  }
}

// Exact dct_basis entry phi(m, k) for an n-point basis — kept textually
// in sync with dct_basis so gathered columns match the dense build
// bit-for-bit.
double dct_entry(std::size_t n, double scale0, double scale, std::size_t m,
                 std::size_t k) {
  const double c = k == 0 ? scale0 : scale;
  return c * std::cos(std::numbers::pi *
                      (2.0 * static_cast<double>(m) + 1.0) *
                      static_cast<double>(k) /
                      (2.0 * static_cast<double>(n)));
}

}  // namespace

void SubsampledDctOperator::Plan::build(std::size_t n) {
  len = n;
  recip.clear();
  std::size_t l = n;
  while (l > 1 && l % 2 == 0) {
    std::vector<double> rc(l / 2);
    for (std::size_t i = 0; i < rc.size(); ++i) {
      rc[i] = 1.0 / (2.0 * std::cos((static_cast<double>(i) + 0.5) *
                                    std::numbers::pi /
                                    static_cast<double>(l)));
    }
    recip.push_back(std::move(rc));
    l /= 2;
  }
}

void SubsampledDctOperator::Plan::forward(double* x, double* tmp) const {
  forward_rec(x, tmp, len, 0, recip);
}

void SubsampledDctOperator::Plan::inverse(double* x, double* tmp) const {
  inverse_rec(x, tmp, len, 0, recip);
}

SubsampledDctOperator::SubsampledDctOperator(std::size_t n,
                                             std::vector<std::size_t> row_idx)
    : n_(n), row_idx_(std::move(row_idx)) {
  if (n_ == 0) {
    throw std::invalid_argument("SubsampledDctOperator: n must be positive");
  }
  for (std::size_t r : row_idx_) {
    if (r >= n_) {
      throw std::out_of_range("SubsampledDctOperator: row index >= n");
    }
  }
  plan_.build(n_);
  scale0_ = std::sqrt(1.0 / static_cast<double>(n_));
  scale_ = std::sqrt(2.0 / static_cast<double>(n_));
}

std::size_t SubsampledDctOperator::state_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  bytes += row_idx_.size() * sizeof(std::size_t);
  for (const auto& rc : plan_.recip) bytes += rc.size() * sizeof(double);
  return bytes;
}

void SubsampledDctOperator::full_synthesis(std::span<const double> alpha,
                                           std::span<double> grid) const {
  grid[0] = alpha[0] * scale0_;
  for (std::size_t k = 1; k < n_; ++k) grid[k] = alpha[k] * scale_;
  Vector tmp(n_);
  plan_.inverse(grid.data(), tmp.data());
}

void SubsampledDctOperator::full_analysis(std::span<const double> grid,
                                          std::span<double> alpha) const {
  for (std::size_t k = 0; k < n_; ++k) alpha[k] = grid[k];
  Vector tmp(n_);
  plan_.forward(alpha.data(), tmp.data());
  alpha[0] *= scale0_;
  for (std::size_t k = 1; k < n_; ++k) alpha[k] *= scale_;
}

void SubsampledDctOperator::apply_into(std::span<const double> x,
                                       std::span<double> out) const {
  if (x.size() != cols() || out.size() != rows()) {
    throw std::invalid_argument("SubsampledDctOperator::apply_into: size");
  }
  if (row_idx_.empty()) {
    full_synthesis(x, out);
    return;
  }
  Vector grid(n_);
  full_synthesis(x, grid);
  for (std::size_t r = 0; r < row_idx_.size(); ++r) {
    out[r] = grid[row_idx_[r]];
  }
}

void SubsampledDctOperator::apply_transpose_into(std::span<const double> y,
                                                 std::span<double> out) const {
  if (y.size() != rows() || out.size() != cols()) {
    throw std::invalid_argument(
        "SubsampledDctOperator::apply_transpose_into: size");
  }
  if (row_idx_.empty()) {
    full_analysis(y, out);
    return;
  }
  Vector grid(n_, 0.0);
  for (std::size_t r = 0; r < row_idx_.size(); ++r) {
    grid[row_idx_[r]] += y[r];
  }
  full_analysis(grid, out);
}

void SubsampledDctOperator::column_into(std::size_t c,
                                        std::span<double> out) const {
  if (c >= cols()) {
    throw std::out_of_range("SubsampledDctOperator::column_into");
  }
  if (out.size() != rows()) {
    throw std::invalid_argument("SubsampledDctOperator::column_into: size");
  }
  for (std::size_t r = 0; r < rows(); ++r) {
    const std::size_t g = row_idx_.empty() ? r : row_idx_[r];
    out[r] = dct_entry(n_, scale0_, scale_, g, c);
  }
}

Matrix SubsampledDctOperator::to_dense() const {
  Matrix a(rows(), cols());
  Vector col(rows());
  for (std::size_t c = 0; c < cols(); ++c) {
    column_into(c, col);
    for (std::size_t r = 0; r < rows(); ++r) a(r, c) = col[r];
  }
  return a;
}

}  // namespace sensedroid::linalg
