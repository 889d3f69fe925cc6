// Orthonormal sparsifying bases Phi (eq. 2).  The paper calls out FFT/DCT
// explicitly and additionally motivates exploiting "prior available data of
// different regions" — that is the PCA (Karhunen-Loeve) basis built from a
// trace matrix of historical fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

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

/// A synthesis basis Phi as CHS reads it.  A factored basis is a
/// Kronecker product kron(A, B) of a w x w outer factor A and an h x h
/// inner factor B (N = w h) and holds only those factors: its state is
/// O(w^2 + h^2), never the N x N matrix.  Each entry
/// Phi(i h + k, j h + l) is formed as the one product A(i,j) B(k,l) when
/// it is read, the product dct2_basis stores, so every column and
/// synthesis reads the dense matrix's bits.  A basis built from a bare
/// matrix carries no factors, whatever that matrix holds, and reads the
/// matrix: the factorization travels with the basis and is never
/// inferred.  The class is immutable.
class Basis {
 public:
  /// A basis without factors over a square matrix.  Throws
  /// std::invalid_argument when `dense` is not square.
  explicit Basis(Matrix dense);

  /// A basis without factors that reads `dense` in place rather than a
  /// copy; `dense` must outlive the basis and every copy of it.  Throws
  /// as the owning constructor does.
  static Basis borrow(const Matrix& dense);

  /// kron(outer, inner), holding only the factors.  An empty `inner`
  /// means a square grid: inner == outer, stored once.  Throws
  /// std::invalid_argument when a factor is empty or not square, or when
  /// N reaches 2^32.
  static Basis separable(Matrix outer, Matrix inner = {});

  /// N, the grid size.
  std::size_t size() const noexcept {
    return factored() ? outer_.rows() * inner().rows() : dense().rows();
  }
  bool factored() const noexcept { return !outer_.empty(); }
  /// The N x N matrix of a basis without factors; empty when factored.
  const Matrix& dense() const noexcept {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }
  /// The w x w factor A; empty when the basis is not factored.
  const Matrix& outer() const noexcept { return outer_; }
  /// The h x h factor B (outer() for a square grid); empty when the basis
  /// is not factored.
  const Matrix& inner() const noexcept {
    return inner_.empty() ? outer_ : inner_;
  }
  /// Bytes of matrix entries the basis reads: 8 N^2 without factors,
  /// 8 (w^2 + h^2) factored (8 w^2 for a square grid's one factor).
  std::size_t state_bytes() const noexcept;

  /// Phi^T u into `out` (size N).  Factored: alpha = A^T U B, with U the
  /// w x h row-major view of u, through `scratch` (size >= N) for A^T U;
  /// it agrees with dct2_basis(w, h).transpose_times(u) to rounding
  /// (~1e-15 ||u||).  Unfactored: exactly
  /// dense().transpose_times_into(u, out), and `scratch` is not touched.
  /// Throws std::invalid_argument on a size mismatch.
  void analyze_into(std::span<const double> u, std::span<double> out,
                    std::span<double> scratch) const;

  class Rows;

  /// Phi's rows at the grid points `points` (a solve's sampled
  /// locations), resolved once for the column reads a solve repeats.
  /// The result points into this basis, which must outlive it.  Throws
  /// std::out_of_range on a point >= N.
  Rows rows(std::span<const std::size_t> points) const;

  /// The K-term synthesis out = sum_t coef[t] Phi(:, cols[t]), into `out`
  /// (size N), accumulated column by column in the order of `cols`.
  /// Throws std::invalid_argument on a size mismatch and
  /// std::out_of_range on an index >= N.
  void synthesize_into(std::span<const std::size_t> cols,
                       std::span<const double> coef,
                       std::span<double> out) const;

 private:
  Basis() = default;

  Matrix owned_;                      // the matrix of an owning basis
  const Matrix* borrowed_ = nullptr;  // the matrix of a borrowing one
  Matrix outer_;
  Matrix inner_;  // empty for a square grid
};

/// Basis::rows(): for each point, its outer- and inner-factor rows
/// (factored) or its matrix row, so each entry read is one product (or
/// one load) with no index arithmetic per point.
class Basis::Rows {
 public:
  /// The number of points.
  std::size_t size() const noexcept { return outer_.size(); }

  /// Column j at the points: out[i] = Phi(points[i], j).  Throws
  /// std::invalid_argument when out.size() != size() and
  /// std::out_of_range on j >= N.
  void column_into(std::size_t j, std::span<double> out) const;

 private:
  friend class Basis;
  Rows() = default;

  // Entry (i, j) is outer_[i][j / h_] * inner_[i][j % h_] for a factored
  // basis and outer_[i][j] for one without factors, whose inner_ is
  // empty.
  std::size_t n_ = 0;
  std::size_t h_ = 0;
  std::vector<const double*> outer_;
  std::vector<const double*> inner_;
};

/// The separable 2-D DCT with its 1-D factors: dct_basis(width) outer,
/// dct_basis(height) inner (one factor when width == height).  Its
/// entries are bit-identical to dct2_basis(width, height)'s.
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
