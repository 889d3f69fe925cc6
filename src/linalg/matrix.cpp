#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace sensedroid::linalg {

namespace {

// Blocked saxpy sweep for A^T v: out[c] += sum over a block of rows of
// a(r, c) * v[r], streaming the matrix row-contiguously (one pass per
// 8 input rows, with 4/2/1-row tail blocks so short remainders do not
// degenerate into one full output sweep per row).  Straight-line, no
// zero-skip: 0 * NaN must stay NaN.
//
// The intrinsic path exists because with runtime strides the
// autovectorizer peels/epilogues each strip, which costs ~20% on the
// m=30, n=256 Fig. 4 regime where this kernel is the single largest
// term of an OMP solve.  256-bit vectors are deliberate: 512-bit FMA
// throttles the clock on the build machines this was tuned on.
// Each saxpy_rowsN helper folds one N-row block (row k of the block
// starts at rows(k), with scalars v[0..N-1]) into o[0..cols).
// saxpy_sweep, the batched transpose_times_block and the row-gathered
// transpose_times_rows_into all dispatch onto these helpers with the
// same 8/4/2/1 block partition of the row range, so a signal sees the
// exact same floating-point operation order on every path.

// The rows of a block: `stride` apart from `p`, or the rows `idx` of a
// row-major matrix at `d` with `cols` columns.
struct Strided {
  const double* p;
  std::size_t stride;
  const double* operator()(std::size_t k) const { return p + k * stride; }
};
struct Gathered {
  const double* d;
  const std::size_t* idx;
  std::size_t cols;
  const double* operator()(std::size_t k) const { return d + idx[k] * cols; }
};

#if defined(__AVX2__) && defined(__FMA__)
template <class Rows>
inline void saxpy_rows8(Rows rows, const double* __restrict v,
                        double* __restrict o, std::size_t cols) {
  const double *p0 = rows(0), *p1 = rows(1), *p2 = rows(2), *p3 = rows(3);
  const double *p4 = rows(4), *p5 = rows(5), *p6 = rows(6), *p7 = rows(7);
  const __m256d v0 = _mm256_set1_pd(v[0]), v1 = _mm256_set1_pd(v[1]),
                v2 = _mm256_set1_pd(v[2]), v3 = _mm256_set1_pd(v[3]),
                v4 = _mm256_set1_pd(v[4]), v5 = _mm256_set1_pd(v[5]),
                v6 = _mm256_set1_pd(v[6]), v7 = _mm256_set1_pd(v[7]);
  std::size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    // Two accumulator chains per tile: a single chain of 8 dependent
    // FMAs is latency-bound (~4 cycles each), not load-bound.
    __m256d acc0 = _mm256_loadu_pd(o + c);
    __m256d acc1 = _mm256_setzero_pd();
    acc0 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(p0 + c), acc0);
    acc1 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(p1 + c), acc1);
    acc0 = _mm256_fmadd_pd(v2, _mm256_loadu_pd(p2 + c), acc0);
    acc1 = _mm256_fmadd_pd(v3, _mm256_loadu_pd(p3 + c), acc1);
    acc0 = _mm256_fmadd_pd(v4, _mm256_loadu_pd(p4 + c), acc0);
    acc1 = _mm256_fmadd_pd(v5, _mm256_loadu_pd(p5 + c), acc1);
    acc0 = _mm256_fmadd_pd(v6, _mm256_loadu_pd(p6 + c), acc0);
    acc1 = _mm256_fmadd_pd(v7, _mm256_loadu_pd(p7 + c), acc1);
    _mm256_storeu_pd(o + c, _mm256_add_pd(acc0, acc1));
  }
  for (; c < cols; ++c) {
    o[c] += p0[c] * v[0] + p1[c] * v[1] + p2[c] * v[2] + p3[c] * v[3] +
            p4[c] * v[4] + p5[c] * v[5] + p6[c] * v[6] + p7[c] * v[7];
  }
}

template <class Rows>
inline void saxpy_rows4(Rows rows, const double* __restrict v,
                        double* __restrict o, std::size_t cols) {
  const double *p0 = rows(0), *p1 = rows(1), *p2 = rows(2), *p3 = rows(3);
  const __m256d v0 = _mm256_set1_pd(v[0]), v1 = _mm256_set1_pd(v[1]),
                v2 = _mm256_set1_pd(v[2]), v3 = _mm256_set1_pd(v[3]);
  std::size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    __m256d acc0 = _mm256_loadu_pd(o + c);
    __m256d acc1 = _mm256_setzero_pd();
    acc0 = _mm256_fmadd_pd(v0, _mm256_loadu_pd(p0 + c), acc0);
    acc1 = _mm256_fmadd_pd(v1, _mm256_loadu_pd(p1 + c), acc1);
    acc0 = _mm256_fmadd_pd(v2, _mm256_loadu_pd(p2 + c), acc0);
    acc1 = _mm256_fmadd_pd(v3, _mm256_loadu_pd(p3 + c), acc1);
    _mm256_storeu_pd(o + c, _mm256_add_pd(acc0, acc1));
  }
  for (; c < cols; ++c) {
    o[c] += p0[c] * v[0] + p1[c] * v[1] + p2[c] * v[2] + p3[c] * v[3];
  }
}

template <class Rows>
inline void saxpy_rows2(Rows rows, const double* __restrict v,
                        double* __restrict o, std::size_t cols) {
  const double *p0 = rows(0), *p1 = rows(1);
  const __m256d v0 = _mm256_set1_pd(v[0]), v1 = _mm256_set1_pd(v[1]);
  std::size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    __m256d acc = _mm256_loadu_pd(o + c);
    acc = _mm256_fmadd_pd(v0, _mm256_loadu_pd(p0 + c), acc);
    acc = _mm256_fmadd_pd(v1, _mm256_loadu_pd(p1 + c), acc);
    _mm256_storeu_pd(o + c, acc);
  }
  for (; c < cols; ++c) o[c] += p0[c] * v[0] + p1[c] * v[1];
}

template <class Rows>
inline void saxpy_rows1(Rows rows, const double* __restrict v,
                        double* __restrict o, std::size_t cols) {
  const double* p0 = rows(0);
  const __m256d vr = _mm256_set1_pd(v[0]);
  std::size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    _mm256_storeu_pd(o + c, _mm256_fmadd_pd(vr, _mm256_loadu_pd(p0 + c),
                                            _mm256_loadu_pd(o + c)));
  }
  for (; c < cols; ++c) o[c] += p0[c] * v[0];
}
#else
template <class Rows>
inline void saxpy_rows8(Rows rows, const double* __restrict v,
                        double* __restrict o, std::size_t cols) {
  const double *p0 = rows(0), *p1 = rows(1), *p2 = rows(2), *p3 = rows(3);
  const double *p4 = rows(4), *p5 = rows(5), *p6 = rows(6), *p7 = rows(7);
  const double v0 = v[0], v1 = v[1], v2 = v[2], v3 = v[3];
  const double v4 = v[4], v5 = v[5], v6 = v[6], v7 = v[7];
  for (std::size_t c = 0; c < cols; ++c) {
    o[c] += p0[c] * v0 + p1[c] * v1 + p2[c] * v2 + p3[c] * v3 +
            p4[c] * v4 + p5[c] * v5 + p6[c] * v6 + p7[c] * v7;
  }
}

template <class Rows>
inline void saxpy_rows4(Rows rows, const double* __restrict v,
                        double* __restrict o, std::size_t cols) {
  const double *p0 = rows(0), *p1 = rows(1), *p2 = rows(2), *p3 = rows(3);
  const double v0 = v[0], v1 = v[1], v2 = v[2], v3 = v[3];
  for (std::size_t c = 0; c < cols; ++c) {
    o[c] += p0[c] * v0 + p1[c] * v1 + p2[c] * v2 + p3[c] * v3;
  }
}

template <class Rows>
inline void saxpy_rows2(Rows rows, const double* __restrict v,
                        double* __restrict o, std::size_t cols) {
  const double *p0 = rows(0), *p1 = rows(1);
  const double v0 = v[0], v1 = v[1];
  for (std::size_t c = 0; c < cols; ++c) o[c] += p0[c] * v0 + p1[c] * v1;
}

template <class Rows>
inline void saxpy_rows1(Rows rows, const double* __restrict v,
                        double* __restrict o, std::size_t cols) {
  const double* p0 = rows(0);
  const double vr = v[0];
  for (std::size_t c = 0; c < cols; ++c) o[c] += p0[c] * vr;
}
#endif

// o[0..cols) += sum over the `count` rows rows(r) of rows(r)[c] * v[r],
// in the 8/4/2/1 block partition.  `block(r)` addresses the block whose
// first row is r.
template <class Block>
void saxpy_sweep(Block block, const double* __restrict v,
                 double* __restrict o, std::size_t count, std::size_t cols) {
  std::size_t r = 0;
  for (; r + 8 <= count; r += 8) saxpy_rows8(block(r), v + r, o, cols);
  for (; r + 4 <= count; r += 4) saxpy_rows4(block(r), v + r, o, cols);
  for (; r + 2 <= count; r += 2) saxpy_rows2(block(r), v + r, o, cols);
  for (; r < count; ++r) saxpy_rows1(block(r), v + r, o, cols);
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_rows(std::size_t rows, std::size_t cols,
                         std::span<const double> row_major) {
  if (row_major.size() != rows * cols) {
    throw std::invalid_argument("Matrix::from_rows: buffer size mismatch");
  }
  Matrix m(rows, cols);
  std::copy(row_major.begin(), row_major.end(), m.data_.begin());
  return m;
}

Matrix Matrix::diagonal(std::span<const double> diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

Vector Matrix::col(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::operator*: dimension mismatch");
  }
  Matrix out(rows_, rhs.cols_);
  const std::size_t p = rhs.cols_;
  // i-k-j loop order keeps both reads and writes streaming row-major;
  // the k-dimension is blocked 4-wide so each sweep of the output row
  // folds four rhs rows in one pass.  Straight-line (no zero-skip): a
  // 0 * NaN product must poison the output, and a branch per element
  // costs more than the multiply it saves.
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* __restrict ai = data_.data() + i * cols_;
    double* __restrict oo = out.data_.data() + i * p;
    std::size_t k = 0;
    for (; k + 4 <= cols_; k += 4) {
      const double a0 = ai[k], a1 = ai[k + 1], a2 = ai[k + 2],
                   a3 = ai[k + 3];
      const double* __restrict r0 = rhs.data_.data() + k * p;
      for (std::size_t j = 0; j < p; ++j) {
        oo[j] += a0 * r0[j] + a1 * r0[j + p] + a2 * r0[j + 2 * p] +
                 a3 * r0[j + 3 * p];
      }
    }
    for (; k < cols_; ++k) {
      const double a = ai[k];
      const double* __restrict rr = rhs.data_.data() + k * p;
      for (std::size_t j = 0; j < p; ++j) oo[j] += a * rr[j];
    }
  }
  return out;
}

Vector Matrix::operator*(std::span<const double> v) const {
  if (v.size() != cols_) {
    throw std::invalid_argument("Matrix::operator*(vec): dimension mismatch");
  }
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  Matrix out = *this;
  out += rhs;
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  Matrix out = *this;
  out -= rhs;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::operator-=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Vector Matrix::transpose_times(std::span<const double> v) const {
  Vector out(cols_, 0.0);
  transpose_times_into(v, out);
  return out;
}

void Matrix::transpose_times_into(std::span<const double> v,
                                  std::span<double> out) const {
  if (v.size() != rows_) {
    throw std::invalid_argument("Matrix::transpose_times: dimension mismatch");
  }
  if (out.size() != cols_) {
    throw std::invalid_argument("Matrix::transpose_times_into: out size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  const double* d = data_.data();
  const std::size_t cols = cols_;
  saxpy_sweep([d, cols](std::size_t r) { return Strided{d + r * cols, cols}; },
              v.data(), out.data(), rows_, cols_);
}

void Matrix::transpose_times_rows_into(std::span<const std::size_t> rows,
                                       std::span<const double> v,
                                       std::span<double> out) const {
  if (v.size() != rows.size() || out.size() != cols_) {
    throw std::invalid_argument("Matrix::transpose_times_rows_into: size");
  }
  for (const std::size_t r : rows) {
    if (r >= rows_) {
      throw std::out_of_range("Matrix::transpose_times_rows_into: row");
    }
  }
  std::fill(out.begin(), out.end(), 0.0);
  const double* d = data_.data();
  const std::size_t* idx = rows.data();
  const std::size_t cols = cols_;
  saxpy_sweep(
      [d, idx, cols](std::size_t r) { return Gathered{d, idx + r, cols}; },
      v.data(), out.data(), rows.size(), cols_);
}

void Matrix::transpose_times_sqnorms_into(std::span<const double> v,
                                          std::span<double> out,
                                          std::span<double> sqnorms) const {
  if (v.size() != rows_) {
    throw std::invalid_argument("Matrix::transpose_times: dimension mismatch");
  }
  if (out.size() != cols_ || sqnorms.size() != cols_) {
    throw std::invalid_argument(
        "Matrix::transpose_times_sqnorms_into: out size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  std::fill(sqnorms.begin(), sqnorms.end(), 0.0);
  double* __restrict o = out.data();
  double* __restrict s = sqnorms.data();
  const double* __restrict d = data_.data();
  std::size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* __restrict p0 = d + r * cols_;
    const double v0 = v[r], v1 = v[r + 1], v2 = v[r + 2], v3 = v[r + 3];
    for (std::size_t c = 0; c < cols_; ++c) {
      const double a0 = p0[c], a1 = p0[c + cols_];
      const double a2 = p0[c + 2 * cols_], a3 = p0[c + 3 * cols_];
      o[c] += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
      s[c] += a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3;
    }
  }
  for (; r < rows_; ++r) {
    const double* __restrict p0 = d + r * cols_;
    const double vr = v[r];
    for (std::size_t c = 0; c < cols_; ++c) {
      const double a0 = p0[c];
      o[c] += a0 * vr;
      s[c] += a0 * a0;
    }
  }
}

void Matrix::transpose_times_block(std::span<const double> rs,
                                   std::size_t count,
                                   std::span<double> out) const {
  if (rs.size() != count * rows_) {
    throw std::invalid_argument("Matrix::transpose_times_block: rs size");
  }
  if (out.size() != count * cols_) {
    throw std::invalid_argument("Matrix::transpose_times_block: out size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  // Column tiles outer, row blocks middle, signals inner: the output
  // tiles of every signal (count * kColTile doubles) and the current
  // row-strip tile of A stay cache-resident, so each element of A and
  // of out is streamed through memory exactly once.  Each output
  // element still accumulates its row blocks in saxpy_sweep's exact
  // 8/4/2/1 order — tiling splits the column extent, never the
  // accumulation chain — so each output row matches a one-signal
  // transpose_times_into bit-for-bit.
  constexpr std::size_t kColTile = 64;
  const double* __restrict d = data_.data();
  const double* __restrict v = rs.data();
  double* __restrict o = out.data();
  for (std::size_t c0 = 0; c0 < cols_; c0 += kColTile) {
    const std::size_t tw = std::min(kColTile, cols_ - c0);
    std::size_t r = 0;
    for (; r + 8 <= rows_; r += 8) {
      const double* p = d + r * cols_ + c0;
      for (std::size_t b = 0; b < count; ++b) {
        saxpy_rows8(Strided{p, cols_}, v + b * rows_ + r,
                    o + b * cols_ + c0, tw);
      }
    }
    for (; r + 4 <= rows_; r += 4) {
      const double* p = d + r * cols_ + c0;
      for (std::size_t b = 0; b < count; ++b) {
        saxpy_rows4(Strided{p, cols_}, v + b * rows_ + r,
                    o + b * cols_ + c0, tw);
      }
    }
    for (; r + 2 <= rows_; r += 2) {
      const double* p = d + r * cols_ + c0;
      for (std::size_t b = 0; b < count; ++b) {
        saxpy_rows2(Strided{p, cols_}, v + b * rows_ + r,
                    o + b * cols_ + c0, tw);
      }
    }
    for (; r < rows_; ++r) {
      const double* p = d + r * cols_ + c0;
      for (std::size_t b = 0; b < count; ++b) {
        saxpy_rows1(Strided{p, cols_}, v + b * rows_ + r,
                    o + b * cols_ + c0, tw);
      }
    }
  }
}

void Matrix::col_sqnorms_into(std::span<double> out) const {
  if (out.size() != cols_) {
    throw std::invalid_argument("Matrix::col_sqnorms_into: out size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  // Same blocked-sweep structure as transpose_times_into: the naive
  // row-at-a-time accumulation re-reads out[] once per row, which at
  // m = 30 costs more than the matrix itself.
  double* __restrict o = out.data();
  const double* __restrict d = data_.data();
  std::size_t r = 0;
  for (; r + 8 <= rows_; r += 8) {
    const double* __restrict p0 = d + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) {
      o[c] += p0[c] * p0[c] + p0[c + cols_] * p0[c + cols_] +
              p0[c + 2 * cols_] * p0[c + 2 * cols_] +
              p0[c + 3 * cols_] * p0[c + 3 * cols_] +
              p0[c + 4 * cols_] * p0[c + 4 * cols_] +
              p0[c + 5 * cols_] * p0[c + 5 * cols_] +
              p0[c + 6 * cols_] * p0[c + 6 * cols_] +
              p0[c + 7 * cols_] * p0[c + 7 * cols_];
    }
  }
  for (; r + 2 <= rows_; r += 2) {
    const double* __restrict p0 = d + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) {
      o[c] += p0[c] * p0[c] + p0[c + cols_] * p0[c + cols_];
    }
  }
  for (; r < rows_; ++r) {
    const double* __restrict row = d + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) o[c] += row[c] * row[c];
  }
}

void Matrix::col_into(std::size_t c, std::span<double> out) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col_into");
  if (out.size() != rows_) {
    throw std::invalid_argument("Matrix::col_into: out size");
  }
  const double* src = data_.data() + c;
  for (std::size_t r = 0; r < rows_; ++r) out[r] = src[r * cols_];
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  // Upper-triangle rank-1 accumulation per input row, straight-line:
  // the old `a == 0.0` skip silently masked NaN/Inf entries (0 * NaN
  // never reached the sum) and paid a branch per element.
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* __restrict row = data_.data() + r * cols_;
    for (std::size_t i = 0; i < cols_; ++i) {
      const double a = row[i];
      double* __restrict gi = g.data_.data() + i * cols_;
      for (std::size_t j = i; j < cols_; ++j) gi[j] += a * row[j];
    }
  }
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

Matrix Matrix::select_rows(std::span<const std::size_t> idx) const {
  Matrix out(idx.size(), cols_);
  for (std::size_t r = 0; r < idx.size(); ++r) {
    if (idx[r] >= rows_) throw std::out_of_range("Matrix::select_rows");
    auto src = row(idx[r]);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  return out;
}

Matrix Matrix::select_cols(std::span<const std::size_t> idx) const {
  Matrix out(rows_, idx.size());
  for (std::size_t c = 0; c < idx.size(); ++c) {
    if (idx[c] >= cols_) throw std::out_of_range("Matrix::select_cols");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = data_.data() + r * cols_;
    double* dst = out.data_.data() + r * idx.size();
    for (std::size_t c = 0; c < idx.size(); ++c) dst[c] = src[idx[c]];
  }
  return out;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Matrix::max_abs() const noexcept {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - b(i, j)) > tol) return false;
    }
  }
  return true;
}

}  // namespace sensedroid::linalg
