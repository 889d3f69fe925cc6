// The subsampled 1-D DCT sensing operator (ROADMAP item 3b).
//
// A zone's sensing matrix is (selected rows) x (structured orthonormal
// basis), e.g. the m sensor locations of a zone reading a DCT-sparse
// field.  Materializing it as a dense m x n Matrix costs O(mn) memory
// and O(mn) per correlation sweep; SubsampledDctOperator runs the same
// A x and A^T y products through O(n log n) fast transforms on O(m + n)
// state.  It is the fast side of bench/micro_solvers' correlation-sweep
// gate; the greedy solvers read a dense Matrix.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace sensedroid::linalg {

/// Phi = (selected rows) x (orthonormal 1-D DCT synthesis basis), the
/// measurement operator of eq. 7 when the zone basis is kDct — without
/// ever forming the n x n basis.  apply_into runs a fast inverse DCT
/// (DCT-III butterfly recursion) then gathers the selected rows;
/// apply_transpose_into scatters into the full grid then runs a fast
/// forward DCT (DCT-II).  O(n log n) per sweep for any n whose
/// factorization is 2^a * q (the odd tail q falls back to a naive O(q^2)
/// base case, so non-power-of-two sizes stay exact, just less fast).
/// State is O(m + n): the row list and per-level twiddle factors.
/// Column entries are computed with the exact expression dct_basis
/// uses, so gathered columns match the dense basis bit-for-bit.  Every
/// method is const and reentrant.
class SubsampledDctOperator final {
 public:
  /// 1-D basis of size n; `row_idx` selects the measured grid points in
  /// order (values < n; an empty list means "all n rows", i.e. the full
  /// square synthesis operator).
  SubsampledDctOperator(std::size_t n, std::vector<std::size_t> row_idx);

  std::size_t rows() const noexcept {
    return row_idx_.empty() ? n_ : row_idx_.size();
  }
  std::size_t cols() const noexcept { return n_; }

  /// Bytes of state this operator holds to represent A — the "per-zone
  /// operator memory" number E25 reports (a dense matrix is 8mn).
  std::size_t state_bytes() const noexcept;

  /// out = A x.  x.size() == cols(), out.size() == rows().
  void apply_into(std::span<const double> x, std::span<double> out) const;

  /// out = A^T y.  y.size() == rows(), out.size() == cols().
  void apply_transpose_into(std::span<const double> y,
                            std::span<double> out) const;

  /// Column c of A into out (size rows()), from the closed form.
  void column_into(std::size_t c, std::span<double> out) const;

  /// Assembles the explicit dense matrix column by column (the dense
  /// twin the sweep benchmark and the tests compare against).
  Matrix to_dense() const;

 private:
  // Per-length butterfly plan: level v holds the 1/(2 cos((i+0.5)pi/L))
  // factors for L = len >> v while even.  Shared by forward and inverse.
  struct Plan {
    std::size_t len = 0;
    std::vector<std::vector<double>> recip;
    void build(std::size_t n);
    void forward(double* x, double* tmp) const;   // unscaled DCT-II
    void inverse(double* x, double* tmp) const;   // unscaled DCT-III
  };

  void full_synthesis(std::span<const double> alpha,
                      std::span<double> grid) const;
  void full_analysis(std::span<const double> grid,
                     std::span<double> alpha) const;

  std::size_t n_ = 0;
  std::vector<std::size_t> row_idx_;
  Plan plan_;
  double scale0_ = 0.0, scale_ = 0.0;
};

}  // namespace sensedroid::linalg
