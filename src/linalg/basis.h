// Orthonormal sparsifying bases Phi (eq. 2).  The paper calls out FFT/DCT
// explicitly and additionally motivates exploiting "prior available data of
// different regions" — that is the PCA (Karhunen-Loeve) basis built from a
// trace matrix of historical fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "linalg/matrix.h"

namespace sensedroid::linalg {

/// The family of sparsifying bases SenseDroid brokers can deploy per zone.
enum class BasisKind : std::uint8_t {
  kIdentity,   ///< spike basis — signals sparse in the sample domain
  kDct,        ///< DCT-II, the workhorse for smooth spatial fields
  kHaar,       ///< Haar wavelet — piecewise-constant fields, fire fronts
  kGaussian,   ///< orthonormalized Gaussian random basis
  kPca,        ///< data-driven basis from prior traces (needs training data)
};

/// Human-readable name ("dct", "haar", ...).
std::string to_string(BasisKind kind);

/// N x N orthonormal DCT-II matrix: Phi[k][n] = c(k) cos(pi (2n+1) k / 2N).
/// Columns of the *transpose* synthesize; we return the synthesis matrix,
/// i.e. x = Phi * alpha reconstructs from DCT coefficients.
Matrix dct_basis(std::size_t n);

/// N x N orthonormal Haar wavelet synthesis matrix.  Throws
/// std::invalid_argument unless n is a power of two (callers pad).
Matrix haar_basis(std::size_t n);

/// N x N identity (spike) basis.
Matrix identity_basis(std::size_t n);

/// N x N orthonormalized Gaussian random basis, deterministic in `seed`.
Matrix gaussian_basis(std::size_t n, std::uint64_t seed);

/// Kronecker product A (x) B: the (i*rowsB + k, j*colsB + l) entry is
/// A(i,j) * B(k,l).  Used to assemble separable 2-D bases.
Matrix kronecker(const Matrix& a, const Matrix& b);

/// Separable 2-D DCT synthesis basis for a width x height field under the
/// eq.-1 column stacking (x[k] = f[k mod H, k / H]): columns are outer
/// products of 1-D DCT atoms, i.e. kron(dct_W, dct_H).  Smooth physical
/// fields are far sparser here than in the 1-D DCT of the stacked vector,
/// which ignores the 2-D neighborhood structure.
Matrix dct2_basis(std::size_t width, std::size_t height);

/// A synthesis basis Phi as the solvers read it: the dense N x N matrix
/// and, when Phi is a Kronecker product kron(A, B) of a w x w outer
/// factor A and an h x h inner factor B (N = w h), those factors, so that
/// Phi^T u runs as two factor products in O(w h (w + h)) instead of one
/// O(N^2) sweep.  A factored basis fills its dense matrix from its own
/// factors and the class is immutable, so the two cannot drift.  A basis
/// built from a bare matrix carries no factors, whatever that matrix
/// holds: the factorization travels with the basis and is never inferred.
class Basis {
 public:
  /// A basis without factors; analyze_into() sweeps the dense matrix.
  explicit Basis(Matrix dense);

  /// kron(outer, inner) with its dense matrix filled from the factors.
  /// An empty `inner` means a square grid: inner == outer, stored once.
  /// Throws std::invalid_argument when a factor is empty or not square.
  static Basis separable(Matrix outer, Matrix inner = {});

  const Matrix& dense() const noexcept { return dense_; }
  bool factored() const noexcept { return !outer_.empty(); }
  /// The w x w factor A; empty when the basis is not factored.
  const Matrix& outer() const noexcept { return outer_; }
  /// The h x h factor B (outer() for a square grid); empty when the basis
  /// is not factored.
  const Matrix& inner() const noexcept {
    return inner_.empty() ? outer_ : inner_;
  }

  /// Phi^T u into `out` (size N).  Factored: alpha = A^T U B, with U the
  /// w x h row-major view of u, through `scratch` (size >= N) for A^T U;
  /// it agrees with dense().transpose_times(u) to rounding (~1e-15 ||u||).
  /// Unfactored: exactly dense().transpose_times_into(u, out), and
  /// `scratch` is not touched.  Throws std::invalid_argument on a size
  /// mismatch.
  void analyze_into(std::span<const double> u, std::span<double> out,
                    std::span<double> scratch) const;

 private:
  Matrix dense_;
  Matrix outer_;
  Matrix inner_;  // empty for a square grid
};

/// The separable 2-D DCT with its 1-D factors: dct_basis(width) outer,
/// dct_basis(height) inner (one factor when width == height).  dense()
/// is bit-identical to dct2_basis(width, height).
Basis dct2_factored(std::size_t width, std::size_t height);

/// Data-driven PCA basis from a trace matrix X (T traces x N grid points),
/// the paper's "prior available data" Gamma = {x_1..x_T}: columns are the
/// principal directions of the (mean-removed) traces, padded with an
/// orthonormal completion so the result is a full N x N orthonormal basis.
/// Throws std::invalid_argument when X has no rows or columns.
Matrix pca_basis(const Matrix& traces);

/// Factory dispatching on kind; PCA is not constructible here (needs
/// traces) and throws std::invalid_argument.
Matrix make_basis(BasisKind kind, std::size_t n, std::uint64_t seed = 0);

/// Forward transform alpha = Phi^T x for an orthonormal basis.
Vector analyze(const Matrix& basis, std::span<const double> x);

/// Inverse transform x = Phi alpha.
Vector synthesize(const Matrix& basis, std::span<const double> alpha);

/// Measures how compressible x is in the basis: the smallest K such that
/// the best K-term approximation achieves relative L2 error <= tol.
std::size_t effective_sparsity(const Matrix& basis, std::span<const double> x,
                               double tol = 0.05);

/// True when B^T B == I within `tol` (orthonormality check used by tests
/// and by brokers validating a freshly trained PCA basis).
bool is_orthonormal(const Matrix& b, double tol = 1e-9);

}  // namespace sensedroid::linalg
