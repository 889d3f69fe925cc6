// Incremental thin-QR factorization for growing/shrinking column sets.
//
// The greedy CS solvers (eq. 13) extend their support by one atom per
// iteration and occasionally retract the last pick.  Refactorizing from
// scratch makes each refit O(m k^2) and the whole solve O(m k^3); this
// engine keeps an explicit thin Q (m x k, orthonormal columns), a packed
// upper-triangular R and Q^T y for the right-hand side y it was built
// with, so that
//
//   append_column  — orthogonalize one new column against Q, then one
//                    dot q_k . y for the new Q^T y entry:    O(m k)
//   remove_last    — drop the last column of Q and R:          O(1)
//   solve          — back-substitution on the held Q^T y:      O(k^2)
//
// Orthogonalization is classical Gram-Schmidt with selective
// reorthogonalization (CGS2, the DGKS "twice is enough" criterion): each
// round forms all projections Q^T w from the same w — k independent dot
// products, throughput-bound, where modified Gram-Schmidt serializes a
// project-subtract chain — and a second round runs only when the first
// cancels more than half of the column's mass.  This keeps Q orthonormal
// to ~machine epsilon at condition numbers where a single CGS round
// drifts badly — the solvers rely on this to match a from-scratch
// Householder QR to ~1e-14 — while the well-conditioned common case pays
// for a single round.
//
// Contract notes:
//  - append_column returns false (and leaves the factorization
//    untouched) when the new column is numerically dependent on the
//    current ones; callers fall back to a dense/ridge path.
//  - remove_last is exact only because the *last* column leaves: R stays
//    upper-triangular by construction, no Givens downdating needed, and
//    the last Q^T y entry leaves with it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace sensedroid::linalg {

class UpdatableQR {
 public:
  /// Factorization over columns of length `rows` against the right-hand
  /// side `y` (copied; length rows, else std::invalid_argument);
  /// `capacity` columns are preallocated so appends up to that count
  /// never allocate.
  UpdatableQR(std::size_t rows, std::span<const double> y,
              std::size_t capacity = 0);

  std::size_t rows() const noexcept { return rows_; }

  /// Number of columns currently factored (k).
  std::size_t size() const noexcept { return size_; }

  /// Extends the factorization with one column (length rows()).  Returns
  /// false without changing state when the column's component orthogonal
  /// to the current span has norm <= dep_tol * ||col|| (numerically
  /// dependent, or rows() exhausted).  Throws std::invalid_argument on a
  /// length mismatch.
  bool append_column(std::span<const double> col, double dep_tol = 1e-12);

  /// Removes the most recently appended column.  No-op precondition:
  /// size() > 0 (throws std::logic_error otherwise).
  void remove_last();

  /// Resets to the empty factorization, keeping allocated capacity.
  void clear() noexcept { size_ = 0; }

  /// Q^T y, one entry per factored column: entry j is q_j . y, formed
  /// once when column j was appended.
  std::span<const double> qty() const noexcept { return {qty_.data(), size_}; }

  /// Least-squares coefficients x minimizing ||A x - y|| against the
  /// cached factors, where A is the appended column set: back-substitution
  /// on the held Q^T y.  O(k^2).
  Vector solve() const;

  /// solve() into a caller-owned buffer of size(), overwriting it: the
  /// per-refit form that allocates nothing.  Throws std::invalid_argument
  /// on a size mismatch.
  void solve_into(std::span<double> x) const;

  /// j-th orthonormal basis column of Q (valid until the next append or
  /// remove_last).
  std::span<const double> q_column(std::size_t j) const;

  /// R(i, j) for i <= j < size().
  double r(std::size_t i, std::size_t j) const;

 private:
  std::size_t rows_ = 0;
  std::size_t size_ = 0;
  std::vector<double> q_;     // column-major, size_ columns of length rows_
  std::vector<double> r_;     // packed upper triangle: col j at j*(j+1)/2
  std::vector<double> y_;     // the right-hand side
  std::vector<double> qty_;   // Q^T y, entry j formed when column j joined
  std::vector<double> work_;  // scratch column for orthogonalization
  std::vector<double> h_;     // scratch projections (one round of Q^T w)
};

}  // namespace sensedroid::linalg
