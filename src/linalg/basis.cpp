#include "linalg/basis.h"

#include <algorithm>
#include <cmath>
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

Basis::Basis(Matrix dense) : dense_(std::move(dense)) {}

Basis Basis::separable(Matrix outer, Matrix inner) {
  const auto square = [](const Matrix& f) {
    return !f.empty() && f.rows() == f.cols();
  };
  if (!square(outer) || !(inner.empty() || square(inner))) {
    throw std::invalid_argument("Basis::separable: factors must be square");
  }
  Basis b(kron_square(outer, inner.empty() ? outer : inner));
  b.outer_ = std::move(outer);
  b.inner_ = std::move(inner);
  return b;
}

void Basis::analyze_into(std::span<const double> u, std::span<double> out,
                         std::span<double> scratch) const {
  if (!factored()) {
    dense_.transpose_times_into(u, out);
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
