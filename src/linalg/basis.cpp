#include "linalg/basis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "linalg/decomposition.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"

namespace sensedroid::linalg {

std::string to_string(BasisKind kind) {
  switch (kind) {
    case BasisKind::kIdentity: return "identity";
    case BasisKind::kDct: return "dct";
    case BasisKind::kHaar: return "haar";
    case BasisKind::kGaussian: return "gaussian";
    case BasisKind::kPca: return "pca";
  }
  return "unknown";
}

Matrix dct_basis(std::size_t n) {
  if (n == 0) throw std::invalid_argument("dct_basis: n must be positive");
  Matrix phi(n, n);
  const double scale0 = std::sqrt(1.0 / static_cast<double>(n));
  const double scale = std::sqrt(2.0 / static_cast<double>(n));
  // Synthesis matrix: x[m] = sum_k phi(m,k) alpha[k]; columns are cosines.
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t k = 0; k < n; ++k) {
      const double c = k == 0 ? scale0 : scale;
      phi(m, k) = c * std::cos(std::numbers::pi *
                               (2.0 * static_cast<double>(m) + 1.0) *
                               static_cast<double>(k) /
                               (2.0 * static_cast<double>(n)));
    }
  }
  return phi;
}

Matrix haar_basis(std::size_t n) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("haar_basis: n must be a power of two");
  }
  Matrix phi(n, n);
  const double root_n = std::sqrt(static_cast<double>(n));
  // Column 0: the scaling function.
  for (std::size_t m = 0; m < n; ++m) phi(m, 0) = 1.0 / root_n;
  // Wavelets psi_{j,k}: scale j has 2^j wavelets of support n / 2^j.
  std::size_t col = 1;
  for (std::size_t scale = 1; scale < n; scale *= 2) {
    const std::size_t support = n / scale;
    const double amp = std::sqrt(static_cast<double>(scale) /
                                 static_cast<double>(n));
    for (std::size_t k = 0; k < scale; ++k, ++col) {
      const std::size_t start = k * support;
      for (std::size_t m = 0; m < support / 2; ++m) {
        phi(start + m, col) = amp;
        phi(start + support / 2 + m, col) = -amp;
      }
    }
  }
  return phi;
}

Matrix identity_basis(std::size_t n) { return Matrix::identity(n); }

Matrix kronecker(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double aij = a(i, j);
      if (aij == 0.0) continue;
      for (std::size_t k = 0; k < b.rows(); ++k) {
        for (std::size_t l = 0; l < b.cols(); ++l) {
          out(i * b.rows() + k, j * b.cols() + l) = aij * b(k, l);
        }
      }
    }
  }
  return out;
}

namespace {

// kron(a, b) for square factors, the dense form of a separable basis.
// The entries are the same a(i,j) * b(k,l) products the generic
// kronecker() writes, but each (i,j) pass writes h contiguous runs
// instead of strided scatter.
Matrix kron_square(const Matrix& a, const Matrix& b) {
  const std::size_t w = a.rows(), h = b.rows();
  Matrix out(w * h, w * h);
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      const double aij = a(i, j);
      for (std::size_t k = 0; k < h; ++k) {
        const double* __restrict bk = b.row(k).data();
        double* __restrict dst = out.row(i * h + k).data() + j * h;
        for (std::size_t l = 0; l < h; ++l) dst[l] = aij * bk[l];
      }
    }
  }
  return out;
}

// dst[0..len) = sum over t < terms of coef[t * stride] * src[t * len ..],
// four source rows per pass so each dst element is loaded and stored
// once per four multiply-adds.
void combine_rows(const double* coef, std::size_t stride, const double* src,
                  std::size_t terms, std::size_t len, double* __restrict dst) {
  std::fill(dst, dst + len, 0.0);
  std::size_t t = 0;
  for (; t + 4 <= terms; t += 4) {
    const double c0 = coef[t * stride], c1 = coef[(t + 1) * stride];
    const double c2 = coef[(t + 2) * stride], c3 = coef[(t + 3) * stride];
    const double* __restrict s0 = src + t * len;
    const double* __restrict s1 = s0 + len;
    const double* __restrict s2 = s1 + len;
    const double* __restrict s3 = s2 + len;
    for (std::size_t l = 0; l < len; ++l) {
      dst[l] += c0 * s0[l] + c1 * s1[l] + c2 * s2[l] + c3 * s3[l];
    }
  }
  for (; t < terms; ++t) {
    const double c = coef[t * stride];
    const double* __restrict s = src + t * len;
    for (std::size_t l = 0; l < len; ++l) dst[l] += c * s[l];
  }
}

}  // namespace

Matrix dct2_basis(std::size_t width, std::size_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("dct2_basis: dimensions must be positive");
  }
  // Column stacking puts the row index (height) in the fast dimension, so
  // the height-DCT is the inner factor of the separable product.  Square
  // grids build one 1-D DCT for both factors.
  const Matrix a = dct_basis(width);
  if (width == height) return kron_square(a, a);
  return kron_square(a, dct_basis(height));
}

namespace {

void require_square(const Matrix& dense) {
  if (dense.rows() != dense.cols()) {
    throw std::invalid_argument("Basis: the matrix must be square");
  }
}

void require_indices(std::span<const std::size_t> idx, std::size_t n) {
  for (const std::size_t i : idx) {
    if (i >= n) throw std::out_of_range("Basis: index out of range");
  }
}

// Grid index g of a factored basis as (g / h, g % h), its outer and inner
// factor indices.  separable() keeps N below 2^32, so the division runs
// in 32 bits, which costs less than a 64-bit one.
std::pair<std::size_t, std::size_t> split(std::size_t g, std::size_t h) {
  const auto g32 = static_cast<std::uint32_t>(g);
  const auto h32 = static_cast<std::uint32_t>(h);
  return {g32 / h32, g32 % h32};
}

}  // namespace

Basis::Basis(Matrix dense) : owned_(std::move(dense)) {
  require_square(owned_);
}

Basis Basis::borrow(const Matrix& dense) {
  require_square(dense);
  Basis b;
  b.borrowed_ = &dense;
  return b;
}

Basis Basis::separable(Matrix outer, Matrix inner) {
  const auto square = [](const Matrix& f) {
    return !f.empty() && f.rows() == f.cols();
  };
  if (!square(outer) || !(inner.empty() || square(inner))) {
    throw std::invalid_argument("Basis::separable: factors must be square");
  }
  if (outer.rows() * (inner.empty() ? outer : inner).rows() >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Basis::separable: grid too large");
  }
  Basis b;
  b.outer_ = std::move(outer);
  b.inner_ = std::move(inner);
  return b;
}

std::size_t Basis::state_bytes() const noexcept {
  const auto bytes = [](const Matrix& m) {
    return m.rows() * m.cols() * sizeof(double);
  };
  return factored() ? bytes(outer_) + bytes(inner_) : bytes(dense());
}

void Basis::analyze_into(std::span<const double> u, std::span<double> out,
                         std::span<double> scratch) const {
  if (!factored()) {
    dense().transpose_times_into(u, out);
    return;
  }
  const Matrix& a = outer_;
  const Matrix& b = inner();
  const std::size_t w = a.rows(), h = b.rows(), n = w * h;
  if (u.size() != n || out.size() != n || scratch.size() < n) {
    throw std::invalid_argument("Basis::analyze_into: size mismatch");
  }
  // Phi(i h + k, j h + l) = A(i,j) B(k,l), so alpha(j,l) =
  // sum_i A(i,j) sum_k U(i,k) B(k,l): S = A^T U row by row (row j of S
  // combines the rows of U by column j of A), then alpha = S B.
  double* s = scratch.data();
  for (std::size_t j = 0; j < w; ++j) {
    combine_rows(a.data().data() + j, w, u.data(), w, h, s + j * h);
  }
  for (std::size_t j = 0; j < w; ++j) {
    combine_rows(s + j * h, 1, b.data().data(), h, h, out.data() + j * h);
  }
}

Basis::Rows Basis::rows(std::span<const std::size_t> points) const {
  require_indices(points, size());
  Rows out;
  out.n_ = size();
  out.outer_.resize(points.size());
  if (!factored()) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      out.outer_[i] = dense().row(points[i]).data();
    }
    return out;
  }
  out.h_ = inner().rows();
  out.inner_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [q, r] = split(points[i], out.h_);
    out.outer_[i] = outer_.row(q).data();
    out.inner_[i] = inner().row(r).data();
  }
  return out;
}

void Basis::Rows::column_into(std::size_t j, std::span<double> out) const {
  if (out.size() != size()) {
    throw std::invalid_argument("Basis::Rows::column_into: size mismatch");
  }
  if (j >= n_) throw std::out_of_range("Basis: index out of range");
  if (inner_.empty()) {
    for (std::size_t i = 0; i < size(); ++i) out[i] = outer_[i][j];
    return;
  }
  const auto [jo, jl] = split(j, h_);
  for (std::size_t i = 0; i < size(); ++i) {
    out[i] = outer_[i][jo] * inner_[i][jl];
  }
}

void Basis::synthesize_into(std::span<const std::size_t> cols,
                            std::span<const double> coef,
                            std::span<double> out) const {
  const std::size_t n = size();
  if (coef.size() != cols.size() || out.size() != n) {
    throw std::invalid_argument("Basis::synthesize_into: size mismatch");
  }
  require_indices(cols, n);
  std::fill(out.begin(), out.end(), 0.0);
  if (!factored()) {
    const Matrix& d = dense();
    for (std::size_t t = 0; t < cols.size(); ++t) {
      const std::size_t j = cols[t];
      const double c = coef[t];
      for (std::size_t i = 0; i < n; ++i) out[i] += d(i, j) * c;
    }
    return;
  }
  const Matrix& a = outer_;
  const Matrix& b = inner();
  const std::size_t w = a.rows(), h = b.rows();
  Vector b_col(h);
  for (std::size_t t = 0; t < cols.size(); ++t) {
    const auto [jo, jl] = split(cols[t], h);
    b.col_into(jl, b_col);
    const double c = coef[t];
    for (std::size_t i = 0; i < w; ++i) {
      const double aij = a(i, jo);
      double* __restrict dst = out.data() + i * h;
      for (std::size_t k = 0; k < h; ++k) {
        const double entry = aij * b_col[k];  // Phi(i h + k, cols[t])
        dst[k] += entry * c;
      }
    }
  }
}

Basis dct2_factored(std::size_t width, std::size_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("dct2_factored: dimensions must be positive");
  }
  return Basis::separable(dct_basis(width),
                          width == height ? Matrix() : dct_basis(height));
}

Matrix gaussian_basis(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.gaussian();
  }
  std::size_t rank = 0;
  Matrix q = orthonormalize_columns(g, 1e-10, &rank);
  // A random Gaussian square matrix is full rank with probability 1, but
  // guard against the measure-zero event by re-drawing.
  while (rank < n) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.gaussian();
    }
    q = orthonormalize_columns(g, 1e-10, &rank);
  }
  return q;
}

Matrix pca_basis(const Matrix& traces) {
  if (traces.rows() == 0 || traces.cols() == 0) {
    throw std::invalid_argument("pca_basis: empty trace matrix");
  }
  const std::size_t t = traces.rows();
  const std::size_t n = traces.cols();
  // Mean-remove across traces.
  Matrix centered = traces;
  for (std::size_t j = 0; j < n; ++j) {
    double m = 0.0;
    for (std::size_t i = 0; i < t; ++i) m += traces(i, j);
    m /= static_cast<double>(t);
    for (std::size_t i = 0; i < t; ++i) centered(i, j) -= m;
  }
  // Covariance C = X^T X / T (N x N) and its eigenvectors.
  Matrix cov = centered.gram();
  cov *= 1.0 / static_cast<double>(t);
  EigenResult eig = jacobi_eigen(cov);

  // Keep directions carrying real variance, then complete to a full
  // orthonormal N x N basis so downstream code can treat it like DCT.
  const double total =
      std::max(1e-300, std::abs(eig.eigenvalues.empty()
                                    ? 0.0
                                    : eig.eigenvalues.front()));
  std::size_t keep = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (eig.eigenvalues[i] > 1e-12 * total) ++keep;
  }
  if (keep == 0) keep = 1;

  Matrix combined(n, n + keep);
  for (std::size_t j = 0; j < keep; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      combined(i, j) = eig.eigenvectors(i, j);
    }
  }
  // Append the identity; Gram-Schmidt keeps the principal directions first
  // and fills the remaining dimensions from the spikes.
  for (std::size_t j = 0; j < n; ++j) combined(j, keep + j) = 1.0;
  std::size_t rank = 0;
  Matrix full = orthonormalize_columns(combined, 1e-10, &rank);
  if (rank != n) {
    throw std::runtime_error("pca_basis: failed to complete basis");
  }
  return full;
}

Matrix make_basis(BasisKind kind, std::size_t n, std::uint64_t seed) {
  switch (kind) {
    case BasisKind::kIdentity: return identity_basis(n);
    case BasisKind::kDct: return dct_basis(n);
    case BasisKind::kHaar: return haar_basis(n);
    case BasisKind::kGaussian: return gaussian_basis(n, seed);
    case BasisKind::kPca:
      throw std::invalid_argument(
          "make_basis: PCA basis requires traces; call pca_basis()");
  }
  throw std::invalid_argument("make_basis: unknown kind");
}

Vector analyze(const Matrix& basis, std::span<const double> x) {
  return basis.transpose_times(x);
}

Vector synthesize(const Matrix& basis, std::span<const double> alpha) {
  return basis * alpha;
}

std::size_t effective_sparsity(const Matrix& basis, std::span<const double> x,
                               double tol) {
  const Vector alpha = analyze(basis, x);
  const double full = norm2(alpha);
  if (full == 0.0) return 0;
  // Binary search would need a monotone predicate; the K-term error is
  // monotone non-increasing in K, so it applies.
  std::size_t lo = 0, hi = alpha.size();
  auto err_at = [&](std::size_t k) {
    const Vector thr = hard_threshold(alpha, k);
    return norm2(subtract(thr, alpha)) / full;
  };
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (err_at(mid) <= tol) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool is_orthonormal(const Matrix& b, double tol) {
  if (b.rows() != b.cols()) return false;
  const Matrix g = b.gram();
  const Matrix i = Matrix::identity(b.cols());
  return approx_equal(g, i, tol);
}

}  // namespace sensedroid::linalg
