#include "linalg/updatable_qr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "linalg/vector_ops.h"

namespace sensedroid::linalg {

namespace {
constexpr std::size_t tri_offset(std::size_t j) { return j * (j + 1) / 2; }

// Multi-chain reduction: the refit loops are latency-bound on a
// single-chain scalar sum (~4 cycles per element at m = 30), not on
// throughput.  The reassociation is fixed either way, so results stay
// deterministic run-to-run.
#if defined(__AVX2__) && defined(__FMA__)
inline double hsum_sd(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

double dot4(const double* __restrict a, const double* __restrict b,
            std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double s = hsum_sd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}
#else
double dot4(const double* __restrict a, const double* __restrict b,
            std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}
#endif

double norm4(const double* v, std::size_t n) {
  return std::sqrt(dot4(v, v, n));
}

// Blocked CGS kernels for append_column: h = Q^T w wants size_ dots of
// the SAME w, and w -= Q h wants size_ folds into the same w, so both
// run four rows per pass over w — one w load feeds four FMAs instead of
// being re-streamed per row.  Each projection keeps its own accumulator
// (a 4-lane reduce + scalar tail), and each subtract element applies
// rows left-to-right, so results are deterministic run-to-run.
#if defined(__AVX2__) && defined(__FMA__)
// out[0..3] = <q_row_l, w> for four consecutive rows of stride n.
inline void project_rows4(const double* __restrict q,
                          const double* __restrict w, std::size_t n,
                          double* __restrict out) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd(),
          a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    a0 = _mm256_fmadd_pd(_mm256_loadu_pd(q + i), wv, a0);
    a1 = _mm256_fmadd_pd(_mm256_loadu_pd(q + n + i), wv, a1);
    a2 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 2 * n + i), wv, a2);
    a3 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 3 * n + i), wv, a3);
  }
  double t0 = hsum_sd(a0), t1 = hsum_sd(a1), t2 = hsum_sd(a2), t3 = hsum_sd(a3);
  for (; i < n; ++i) {
    const double wi = w[i];
    t0 += q[i] * wi;
    t1 += q[n + i] * wi;
    t2 += q[2 * n + i] * wi;
    t3 += q[3 * n + i] * wi;
  }
  out[0] = t0;
  out[1] = t1;
  out[2] = t2;
  out[3] = t3;
}

// w -= h[0]*q_row_0 + ... + h[3]*q_row_3 (rows of stride n).
inline void subtract_rows4(const double* __restrict q,
                           const double* __restrict h, std::size_t n,
                           double* __restrict w) {
  const __m256d h0 = _mm256_set1_pd(h[0]), h1 = _mm256_set1_pd(h[1]),
                h2 = _mm256_set1_pd(h[2]), h3 = _mm256_set1_pd(h[3]);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d wv = _mm256_loadu_pd(w + i);
    wv = _mm256_fnmadd_pd(h0, _mm256_loadu_pd(q + i), wv);
    wv = _mm256_fnmadd_pd(h1, _mm256_loadu_pd(q + n + i), wv);
    wv = _mm256_fnmadd_pd(h2, _mm256_loadu_pd(q + 2 * n + i), wv);
    wv = _mm256_fnmadd_pd(h3, _mm256_loadu_pd(q + 3 * n + i), wv);
    _mm256_storeu_pd(w + i, wv);
  }
  for (; i < n; ++i) {
    w[i] = w[i] - h[0] * q[i] - h[1] * q[n + i] - h[2] * q[2 * n + i] -
           h[3] * q[3 * n + i];
  }
}
#endif

// h[0..k) = Q^T w over the k live rows of Q (each of stride n).
void project_all(const double* __restrict q, std::size_t k, std::size_t n,
                 const double* __restrict w, double* __restrict h) {
  std::size_t j = 0;
#if defined(__AVX2__) && defined(__FMA__)
  for (; j + 4 <= k; j += 4) project_rows4(q + j * n, w, n, h + j);
#endif
  for (; j < k; ++j) h[j] = dot4(q + j * n, w, n);
}

// w -= sum_j h[j] * q_row_j over the k live rows of Q.
void subtract_all(const double* __restrict q, std::size_t k, std::size_t n,
                  const double* __restrict h, double* __restrict w) {
  std::size_t j = 0;
#if defined(__AVX2__) && defined(__FMA__)
  for (; j + 4 <= k; j += 4) subtract_rows4(q + j * n, h + j, n, w);
#endif
  for (; j < k; ++j) {
    const double* __restrict qj = q + j * n;
    const double hj = h[j];
    for (std::size_t i = 0; i < n; ++i) w[i] -= hj * qj[i];
  }
}
}  // namespace

UpdatableQR::UpdatableQR(std::size_t rows, std::span<const double> y,
                         std::size_t capacity)
    : rows_(rows), y_(y.begin(), y.end()) {
  if (y.size() != rows_) {
    throw std::invalid_argument("UpdatableQR: y length mismatch");
  }
  // Pre-size to capacity so the hot append path never touches vector
  // bookkeeping; size_ alone tracks the live prefix.
  const std::size_t cap = std::min(capacity, rows);
  q_.resize(cap * rows_);
  r_.resize(tri_offset(cap));
  qty_.resize(cap);
  work_.resize(rows_);
  h_.resize(cap);
}

bool UpdatableQR::append_column(std::span<const double> col, double dep_tol) {
  if (col.size() != rows_) {
    throw std::invalid_argument("UpdatableQR::append_column: length mismatch");
  }
  if (size_ >= rows_) return false;  // already a full basis of R^m
  if ((size_ + 1) * rows_ > q_.size()) {
    q_.resize((size_ + 1) * rows_);
    r_.resize(tri_offset(size_ + 1));
    qty_.resize(size_ + 1);
    h_.resize(size_ + 1);
  }

  // Classical Gram-Schmidt with selective reorthogonalization (CGS2 /
  // DGKS): one round forms all projections h = Q^T w from the same w —
  // k independent dots instead of MGS's serialized project-subtract
  // chain — then subtracts Q h; a second round runs only when the first
  // cancelled more than half the mass, which is when a single round can
  // leave a non-negligible component along Q.  Two CGS rounds are as
  // orthogonal as two MGS passes ("twice is enough").
  double* w = work_.data();
  std::copy(col.begin(), col.end(), w);
  const double col_norm = norm4(w, rows_);

  double* rcol = r_.data() + tri_offset(size_);
  for (std::size_t i = 0; i <= size_; ++i) rcol[i] = 0.0;
  double w_norm = col_norm;
  double* h = h_.data();
  for (int round = 0; round < 2 && size_ > 0; ++round) {
    const double before = w_norm;
    project_all(q_.data(), size_, rows_, w, h);
    for (std::size_t j = 0; j < size_; ++j) rcol[j] += h[j];
    subtract_all(q_.data(), size_, rows_, h, w);
    w_norm = norm4(w, rows_);
    if (w_norm > 0.5 * before) break;  // little cancellation: orthogonal enough
  }
  if (!(w_norm > dep_tol * std::max(col_norm, 1e-300))) {
    // Reject.  rcol scribbles past the live triangle are harmless: every
    // accessor bounds by size_, and the next append rewrites the column.
    return false;
  }
  rcol[size_] = w_norm;
  double* qk = q_.data() + size_ * rows_;
  const double inv = 1.0 / w_norm;
  for (std::size_t i = 0; i < rows_; ++i) qk[i] = w[i] * inv;
  qty_[size_] = dot4(qk, y_.data(), rows_);
  ++size_;
  return true;
}

void UpdatableQR::remove_last() {
  if (size_ == 0) {
    throw std::logic_error("UpdatableQR::remove_last: empty factorization");
  }
  --size_;  // storage beyond the live prefix is inert until re-appended
}

Vector UpdatableQR::solve() const {
  Vector x(size_);
  solve_into(x);
  return x;
}

void UpdatableQR::solve_into(std::span<double> x) const {
  if (x.size() != size_) {
    throw std::invalid_argument("UpdatableQR::solve_into: size mismatch");
  }
  std::copy(qty_.begin(), qty_.begin() + size_, x.begin());
  for (std::size_t ii = size_; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < size_; ++j) {
      x[ii] -= r_[tri_offset(j) + ii] * x[j];
    }
    x[ii] /= r_[tri_offset(ii) + ii];
  }
}

std::span<const double> UpdatableQR::q_column(std::size_t j) const {
  if (j >= size_) throw std::out_of_range("UpdatableQR::q_column");
  return {q_.data() + j * rows_, rows_};
}

double UpdatableQR::r(std::size_t i, std::size_t j) const {
  if (j >= size_ || i > j) throw std::out_of_range("UpdatableQR::r");
  return r_[tri_offset(j) + i];
}

}  // namespace sensedroid::linalg
