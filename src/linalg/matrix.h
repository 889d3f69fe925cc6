// SenseDroid linear-algebra substrate: dense row-major matrix.
//
// This is the foundation every compressive-sensing routine in the paper
// builds on (eqs. 2-14).  It is deliberately a small, fully-owned dense
// implementation: field maps in a NanoCloud are a few thousand grid points
// at most, so dense O(N^2) storage and O(N^3) factorizations are the right
// tool, and owning the code lets the broker run identical numerics on every
// tier of the hierarchy.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace sensedroid::linalg {

/// Dense column vector of doubles.  Kept as a plain std::vector so that
/// sensor buffers, field vectorizations (eq. 1) and coefficient vectors
/// interoperate without copies.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
///
/// Invariant: data_.size() == rows_ * cols_ at all times; a default-
/// constructed matrix is the valid 0x0 matrix.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill` (default 0).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from nested initializer lists; all rows must have
  /// equal length.  Throws std::invalid_argument on ragged input.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// The n x n identity matrix.
  static Matrix identity(std::size_t n);

  /// Builds a matrix from its dimensions and a flat row-major buffer.
  /// Throws std::invalid_argument if buffer size != rows*cols.
  static Matrix from_rows(std::size_t rows, std::size_t cols,
                          std::span<const double> row_major);

  /// Builds an n x n diagonal matrix from `diag`.
  static Matrix diagonal(std::span<const double> diag);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Row r as a span over contiguous storage.
  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copies column c into a new vector.
  Vector col(std::size_t c) const;

  /// Flat row-major storage.
  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  Matrix transpose() const;

  /// Matrix product; throws std::invalid_argument on dimension mismatch.
  Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product; throws std::invalid_argument on mismatch.
  Vector operator*(std::span<const double> v) const;

  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix operator*(double s) const;
  Matrix& operator*=(double s);

  bool operator==(const Matrix& rhs) const = default;

  /// A^T * v without forming the transpose.
  Vector transpose_times(std::span<const double> v) const;

  /// A^T * v into a caller-owned buffer of size cols() — the hot-loop
  /// form used by the greedy solvers (no allocation per call).  Throws
  /// std::invalid_argument on size mismatch.
  void transpose_times_into(std::span<const double> v,
                            std::span<double> out) const;

  /// select_rows(rows).transpose_times_into(v, out) without the copy:
  /// the same sweep, bit for bit, reading the selected rows in place.
  /// Throws std::invalid_argument on a size mismatch and
  /// std::out_of_range on a row index >= rows().
  void transpose_times_rows_into(std::span<const std::size_t> rows,
                                 std::span<const double> v,
                                 std::span<double> out) const;

  /// Copies column c into a caller-owned buffer of size rows().
  void col_into(std::size_t c, std::span<double> out) const;

  /// Squared Euclidean norm of every column into a caller-owned buffer of
  /// size cols(), in one blocked sweep over the matrix.  Throws
  /// std::invalid_argument on size mismatch.
  void col_sqnorms_into(std::span<double> out) const;

  /// Fused A^T * v and column squared norms in a single sweep over the
  /// matrix — the two outputs share one pass of memory traffic, which is
  /// what the greedy solvers' first iteration is bound by.  Equivalent to
  /// transpose_times_into(v, out) followed by col_sqnorms_into(sqnorms).
  void transpose_times_sqnorms_into(std::span<const double> v,
                                    std::span<double> out,
                                    std::span<double> sqnorms) const;

  /// Batch A^T R: `rs` holds `count` vectors of length rows(), signal-
  /// major (vector b occupies rs[b*rows() .. b*rows()+rows())); writes
  /// A^T r_b into row b of `out` (count x cols(), signal-major).  Each
  /// signal's arithmetic runs in exactly the order of
  /// transpose_times_into, so per-signal outputs are bit-identical to
  /// one-signal sweeps; the batch form only reorders the MATRIX reads so
  /// each row block of A is reused across all `count` signals while it
  /// is cache-resident — the GEMM win that turns m matvecs into one
  /// blocked pass.  Throws std::invalid_argument on size mismatch.
  void transpose_times_block(std::span<const double> rs, std::size_t count,
                             std::span<double> out) const;

  /// Gram matrix A^T A (cols x cols), computed directly.
  Matrix gram() const;

  /// Selects the given rows, in order, into a new matrix (eq. 7: rows of
  /// Phi_K at sensor locations L).  Throws std::out_of_range on bad index.
  Matrix select_rows(std::span<const std::size_t> idx) const;

  /// Selects the given columns, in order (eq. 5: the K support columns J).
  Matrix select_cols(std::span<const std::size_t> idx) const;

  /// Frobenius norm.
  double frobenius_norm() const noexcept;

  /// Maximum absolute element.
  double max_abs() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Scalar * matrix.
inline Matrix operator*(double s, const Matrix& m) { return m * s; }

/// True when a and b have equal shape and match elementwise within tol.
bool approx_equal(const Matrix& a, const Matrix& b, double tol = 1e-12);

}  // namespace sensedroid::linalg
