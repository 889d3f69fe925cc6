// Incremental thin-QR factorization for growing/shrinking column sets.
//
// The greedy CS solvers (eq. 13) extend their support by one atom per
// iteration and occasionally retract the last pick.  Refactorizing from
// scratch makes each refit O(m k^2) and the whole solve O(m k^3); this
// engine keeps an explicit thin Q (m x k, orthonormal columns) and a
// packed upper-triangular R so that
//
//   append_column  — orthogonalize one new column against Q:   O(m k)
//   remove_last    — drop the last column of Q and R:          O(1)
//   solve          — Q^T y then back-substitution:             O(m k + k^2)
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
//    upper-triangular by construction, no Givens downdating needed.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace sensedroid::linalg {

class UpdatableQR {
 public:
  /// Factorization over columns of length `rows`; `capacity` columns are
  /// preallocated so appends up to that count never allocate.
  explicit UpdatableQR(std::size_t rows, std::size_t capacity = 0);

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

  /// Least-squares coefficients x minimizing ||A x - y|| against the
  /// cached factors, where A is the appended column set.  O(mk + k^2).
  Vector solve(std::span<const double> y) const;

  /// Back-substitution only: solves R x = qty where qty = Q^T y has
  /// already been formed (the OMP loop maintains it incrementally).
  Vector solve_from_qty(std::span<const double> qty) const;

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
  std::vector<double> work_;  // scratch column for orthogonalization
  std::vector<double> h_;     // scratch projections (one round of Q^T w)
};

/// Least-squares refit cache over the columns of a fixed dictionary.
///
/// Greedy solvers refit against supports that mostly grow monotonically
/// (CHS keeps its support in selection order, so each refit extends the
/// previous one by a batch).  refit() downdates the factorization to the
/// longest common prefix of the previous and requested supports and
/// appends only the new tail, so an append-only sequence costs O(m k)
/// per new column instead of a fresh O(m k^2) factorization.
///
/// The dictionary is read one column at a time through a ColumnFn, so it
/// can be a materialized matrix, a structured operator's exact columns,
/// or row-scaled (whitened) columns that are never stored as a matrix.
///
/// Bypass conditions — refit() returns false and clears the cache when a
/// requested column is numerically dependent on the columns before it;
/// callers then use the dense (Householder QR / ridge) path for that
/// support.
class SupportQrCache {
 public:
  /// Writes dictionary column j (one entry per row) into `out`.
  using ColumnFn = std::function<void(std::size_t j, std::span<double> out)>;

  /// Cache over the columns `column` supplies, each of length `rows`;
  /// `capacity` columns are preallocated (more grow the factors).
  SupportQrCache(std::size_t rows, std::size_t capacity, ColumnFn column);

  /// Makes the factorization match exactly the given columns of the
  /// dictionary, reusing the longest common prefix with the previous
  /// call.  False = numerically dependent column encountered (cache
  /// cleared; use the dense fallback).
  bool refit(std::span<const std::size_t> support, double dep_tol = 1e-12);

  /// Length of the longest common prefix between `support` and the
  /// currently factored column list — what refit() would reuse.  Callers
  /// with wildly changing supports (CoSaMP's merged candidate sets) use
  /// this to decide whether the incremental path beats a dense refactor.
  std::size_t common_prefix(std::span<const std::size_t> support) const;

  /// Coefficients for the support passed to the last successful refit().
  Vector solve(std::span<const double> y) const { return qr_.solve(y); }

  const UpdatableQR& qr() const noexcept { return qr_; }

  /// Columns reused (prefix length) by the last refit — instrumentation.
  std::size_t reused_columns() const noexcept { return reused_; }

 private:
  ColumnFn column_;
  UpdatableQR qr_;
  std::vector<std::size_t> cols_;
  Vector col_buf_;
  std::size_t reused_ = 0;
};

}  // namespace sensedroid::linalg
