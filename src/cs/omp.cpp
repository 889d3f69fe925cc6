#include "cs/omp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "cs/greedy_batch.h"
#include "linalg/gram_cache.h"
#include "linalg/updatable_qr.h"
#include "linalg/vector_ops.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::cs {

using linalg::axpy;
using linalg::norm2;

namespace {

// argmax_j corr[j]^2 * sel[j] in three branch-free-ish passes: a
// vectorizable scale (sel[j] is the reciprocal *squared* column norm,
// or an exact 0.0 for picked / zero-norm columns, whose product is then
// an exact 0 — or NaN for an infinite correlation — and can never win),
// a four-chain max reduction, and a first-index-equal scan.  Comparing
// squared normalized correlations is argmax-equivalent to comparing
// |corr|/norm (squaring is monotone on non-negatives) but replaces a
// sqrt pass and a vdivpd per candidate (~16+ cycles per vector) with
// two vmulpd (1 cycle each); the scaled values differ from the naive
// guarded divide loop by a couple of ulps, so the greedy pick can only
// change on near-exact ties between distinct atoms — the equivalence
// tests against the old algorithm stay support-identical.  The scale
// runs in place: the correlations are spent, corr holds the scaled
// values after.
std::size_t argmax_scaled(double* __restrict corr,
                          const double* __restrict sel, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) corr[j] = corr[j] * corr[j] * sel[j];
  double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    b0 = corr[j] > b0 ? corr[j] : b0;
    b1 = corr[j + 1] > b1 ? corr[j + 1] : b1;
    b2 = corr[j + 2] > b2 ? corr[j + 2] : b2;
    b3 = corr[j + 3] > b3 ? corr[j + 3] : b3;
  }
  for (; j < n; ++j) b0 = corr[j] > b0 ? corr[j] : b0;
  const double b01 = b0 > b1 ? b0 : b1;
  const double b23 = b2 > b3 ? b2 : b3;
  const double best = b01 > b23 ? b01 : b23;
  if (!(best > 0.0)) return n;
  for (j = 0; j < n; ++j) {
    if (corr[j] == best) return j;
  }
  return n;
}

// Single-pass fused argmax for the batch fast path: computes
// corr[j]^2 * sel[j] on the fly and tracks (max, first index) in one
// traversal instead of argmax_scaled's scale/reduce/scan passes.  The
// selection is identical to argmax_scaled — strictly-greater updates
// keep the first occurrence of the maximum within a lane, and the
// cross-lane merge picks the smallest index among lanes tied at the
// global maximum, which is exactly "first j with val[j] == max".  Two
// independent (bestv, bestidx) accumulator pairs halve the loop-carried
// cmp+blendv latency chain — the picked index is a pure function of the
// element values, so the lane split cannot change the result.
#if defined(__AVX2__) && defined(__FMA__)
inline std::size_t argmax_merge8(const __m256d besta, const __m256d idxa,
                                 const __m256d bestb, const __m256d idxb,
                                 double* best_out, std::size_t n) {
  // Branchless: max-reduce the values, then min-reduce the indices of
  // the lanes holding that max (losers' indices are forced to +inf).
  // Lane values are never NaN (they only enter via a strict-greater
  // compare), so max_pd is a true max here.
  __m256d mx = _mm256_max_pd(besta, bestb);
  mx = _mm256_max_pd(mx, _mm256_permute2f128_pd(mx, mx, 1));
  mx = _mm256_max_pd(mx, _mm256_permute_pd(mx, 0x5));
  const double best = _mm256_cvtsd_f64(mx);
  if (!(best > 0.0)) {
    *best_out = 0.0;
    return n;
  }
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d ia =
      _mm256_blendv_pd(inf, idxa, _mm256_cmp_pd(besta, mx, _CMP_EQ_OQ));
  const __m256d ib =
      _mm256_blendv_pd(inf, idxb, _mm256_cmp_pd(bestb, mx, _CMP_EQ_OQ));
  __m256d mi = _mm256_min_pd(ia, ib);
  mi = _mm256_min_pd(mi, _mm256_permute2f128_pd(mi, mi, 1));
  mi = _mm256_min_pd(mi, _mm256_permute_pd(mi, 0x5));
  *best_out = best;
  return static_cast<std::size_t>(_mm256_cvtsd_f64(mi));
}

std::size_t argmax_scaled_fused(const double* __restrict corr,
                                const double* __restrict sel,
                                std::size_t n) {
  __m256d bestva = _mm256_setzero_pd();
  __m256d bestia = _mm256_setzero_pd();
  __m256d bestvb = _mm256_setzero_pd();
  __m256d bestib = _mm256_setzero_pd();
  __m256d curidxa = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  __m256d curidxb = _mm256_set_pd(7.0, 6.0, 5.0, 4.0);
  const __m256d eight = _mm256_set1_pd(8.0);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256d ca = _mm256_loadu_pd(corr + j);
    const __m256d cb = _mm256_loadu_pd(corr + j + 4);
    const __m256d va =
        _mm256_mul_pd(_mm256_mul_pd(ca, ca), _mm256_loadu_pd(sel + j));
    const __m256d vb =
        _mm256_mul_pd(_mm256_mul_pd(cb, cb), _mm256_loadu_pd(sel + j + 4));
    const __m256d maska = _mm256_cmp_pd(va, bestva, _CMP_GT_OQ);
    const __m256d maskb = _mm256_cmp_pd(vb, bestvb, _CMP_GT_OQ);
    bestva = _mm256_blendv_pd(bestva, va, maska);
    bestia = _mm256_blendv_pd(bestia, curidxa, maska);
    bestvb = _mm256_blendv_pd(bestvb, vb, maskb);
    bestib = _mm256_blendv_pd(bestib, curidxb, maskb);
    curidxa = _mm256_add_pd(curidxa, eight);
    curidxb = _mm256_add_pd(curidxb, eight);
  }
  double best = 0.0;
  std::size_t idx = argmax_merge8(bestva, bestia, bestvb, bestib, &best, n);
  for (; j < n; ++j) {
    const double v = corr[j] * corr[j] * sel[j];
    if (v > best) {
      best = v;
      idx = j;
    }
  }
  return best > 0.0 ? idx : n;
}
#else
std::size_t argmax_scaled_fused(const double* __restrict corr,
                                const double* __restrict sel,
                                std::size_t n) {
  double best = 0.0;
  std::size_t idx = n;
  for (std::size_t j = 0; j < n; ++j) {
    const double v = corr[j] * corr[j] * sel[j];
    if (v > best) {
      best = v;
      idx = j;
    }
  }
  return best > 0.0 ? idx : n;
}
#endif

// Batch-OMP correlation update, fused with the NEXT iteration's argmax:
// corr[c] -= sum_i d[i] * gram.row(sup[i])[c], and the returned index is
// argmax_j corr[j]^2 * sel[j] over the *updated* correlations (n if no
// positive value — same contract as argmax_scaled_fused).  Folding the
// argmax into the update's final pass saves one full corr traversal per
// greedy iteration; the caller zeroes sel[] for the just-picked atom
// before calling, so eligibility is already current.  Rows are gathered
// (the support is scattered), so this can't reuse saxpy_sweep's
// contiguous-strip kernels; up to four row streams fold per pass, with
// only the last pass carrying the argmax bookkeeping.
#if defined(__AVX2__) && defined(__FMA__)
inline void sub_rows4_avx(const double* __restrict r0,
                          const double* __restrict r1,
                          const double* __restrict r2,
                          const double* __restrict r3, const double* d,
                          double* __restrict corr, std::size_t n) {
  const __m256d d0 = _mm256_set1_pd(d[0]), d1 = _mm256_set1_pd(d[1]),
                d2 = _mm256_set1_pd(d[2]), d3 = _mm256_set1_pd(d[3]);
  std::size_t c = 0;
  // Two column blocks in flight: each block's accumulator is a serial
  // 4-fnmadd chain, so interleaving two keeps the FMA pipes busy.
  for (; c + 8 <= n; c += 8) {
    __m256d acca = _mm256_loadu_pd(corr + c);
    __m256d accb = _mm256_loadu_pd(corr + c + 4);
    acca = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(r0 + c), acca);
    accb = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(r0 + c + 4), accb);
    acca = _mm256_fnmadd_pd(d1, _mm256_loadu_pd(r1 + c), acca);
    accb = _mm256_fnmadd_pd(d1, _mm256_loadu_pd(r1 + c + 4), accb);
    acca = _mm256_fnmadd_pd(d2, _mm256_loadu_pd(r2 + c), acca);
    accb = _mm256_fnmadd_pd(d2, _mm256_loadu_pd(r2 + c + 4), accb);
    acca = _mm256_fnmadd_pd(d3, _mm256_loadu_pd(r3 + c), acca);
    accb = _mm256_fnmadd_pd(d3, _mm256_loadu_pd(r3 + c + 4), accb);
    _mm256_storeu_pd(corr + c, acca);
    _mm256_storeu_pd(corr + c + 4, accb);
  }
  for (; c + 4 <= n; c += 4) {
    __m256d acc = _mm256_loadu_pd(corr + c);
    acc = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(r0 + c), acc);
    acc = _mm256_fnmadd_pd(d1, _mm256_loadu_pd(r1 + c), acc);
    acc = _mm256_fnmadd_pd(d2, _mm256_loadu_pd(r2 + c), acc);
    acc = _mm256_fnmadd_pd(d3, _mm256_loadu_pd(r3 + c), acc);
    _mm256_storeu_pd(corr + c, acc);
  }
  for (; c < n; ++c) {
    corr[c] = corr[c] - d[0] * r0[c] - d[1] * r1[c] - d[2] * r2[c] -
              d[3] * r3[c];
  }
}

std::size_t subtract_rows_and_argmax(const Matrix& gram,
                                     const std::size_t* sup, const double* d,
                                     std::size_t t, double* __restrict corr,
                                     const double* __restrict sel,
                                     std::size_t n) {
  std::size_t i = 0;
  while (t - i > 4) {
    sub_rows4_avx(gram.row(sup[i]).data(), gram.row(sup[i + 1]).data(),
                  gram.row(sup[i + 2]).data(), gram.row(sup[i + 3]).data(),
                  d + i, corr, n);
    i += 4;
  }
  const std::size_t rem = t - i;  // rem >= 1 always (t >= 1, i < t)

  // One- and two-row finals keep their own fused loops: the final pass
  // is load-port-bound, so folding phantom padding rows would double or
  // quadruple its row traffic for the most common remainders.
  if (rem == 1) {
    const double* __restrict r0 = gram.row(sup[i]).data();
    const __m256d d0 = _mm256_set1_pd(d[i]);
    __m256d bestva = _mm256_setzero_pd(), bestia = _mm256_setzero_pd();
    __m256d bestvb = _mm256_setzero_pd(), bestib = _mm256_setzero_pd();
    __m256d curidxa = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    __m256d curidxb = _mm256_set_pd(7.0, 6.0, 5.0, 4.0);
    const __m256d eight = _mm256_set1_pd(8.0);
    std::size_t c = 0;
    for (; c + 8 <= n; c += 8) {
      const __m256d acca = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(r0 + c),
                                            _mm256_loadu_pd(corr + c));
      const __m256d accb = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(r0 + c + 4),
                                            _mm256_loadu_pd(corr + c + 4));
      _mm256_storeu_pd(corr + c, acca);
      _mm256_storeu_pd(corr + c + 4, accb);
      const __m256d va =
          _mm256_mul_pd(_mm256_mul_pd(acca, acca), _mm256_loadu_pd(sel + c));
      const __m256d vb = _mm256_mul_pd(_mm256_mul_pd(accb, accb),
                                       _mm256_loadu_pd(sel + c + 4));
      const __m256d maska = _mm256_cmp_pd(va, bestva, _CMP_GT_OQ);
      const __m256d maskb = _mm256_cmp_pd(vb, bestvb, _CMP_GT_OQ);
      bestva = _mm256_blendv_pd(bestva, va, maska);
      bestia = _mm256_blendv_pd(bestia, curidxa, maska);
      bestvb = _mm256_blendv_pd(bestvb, vb, maskb);
      bestib = _mm256_blendv_pd(bestib, curidxb, maskb);
      curidxa = _mm256_add_pd(curidxa, eight);
      curidxb = _mm256_add_pd(curidxb, eight);
    }
    double best = 0.0;
    std::size_t idx = argmax_merge8(bestva, bestia, bestvb, bestib, &best, n);
    for (; c < n; ++c) {
      corr[c] = corr[c] - d[i] * r0[c];
      const double v = corr[c] * corr[c] * sel[c];
      if (v > best) {
        best = v;
        idx = c;
      }
    }
    return best > 0.0 ? idx : n;
  }
  if (rem == 2) {
    const double* __restrict r0 = gram.row(sup[i]).data();
    const double* __restrict r1 = gram.row(sup[i + 1]).data();
    const __m256d d0 = _mm256_set1_pd(d[i]);
    const __m256d d1 = _mm256_set1_pd(d[i + 1]);
    __m256d bestva = _mm256_setzero_pd(), bestia = _mm256_setzero_pd();
    __m256d bestvb = _mm256_setzero_pd(), bestib = _mm256_setzero_pd();
    __m256d curidxa = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    __m256d curidxb = _mm256_set_pd(7.0, 6.0, 5.0, 4.0);
    const __m256d eight = _mm256_set1_pd(8.0);
    std::size_t c = 0;
    for (; c + 8 <= n; c += 8) {
      __m256d acca = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(r0 + c),
                                      _mm256_loadu_pd(corr + c));
      __m256d accb = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(r0 + c + 4),
                                      _mm256_loadu_pd(corr + c + 4));
      acca = _mm256_fnmadd_pd(d1, _mm256_loadu_pd(r1 + c), acca);
      accb = _mm256_fnmadd_pd(d1, _mm256_loadu_pd(r1 + c + 4), accb);
      _mm256_storeu_pd(corr + c, acca);
      _mm256_storeu_pd(corr + c + 4, accb);
      const __m256d va =
          _mm256_mul_pd(_mm256_mul_pd(acca, acca), _mm256_loadu_pd(sel + c));
      const __m256d vb = _mm256_mul_pd(_mm256_mul_pd(accb, accb),
                                       _mm256_loadu_pd(sel + c + 4));
      const __m256d maska = _mm256_cmp_pd(va, bestva, _CMP_GT_OQ);
      const __m256d maskb = _mm256_cmp_pd(vb, bestvb, _CMP_GT_OQ);
      bestva = _mm256_blendv_pd(bestva, va, maska);
      bestia = _mm256_blendv_pd(bestia, curidxa, maska);
      bestvb = _mm256_blendv_pd(bestvb, vb, maskb);
      bestib = _mm256_blendv_pd(bestib, curidxb, maskb);
      curidxa = _mm256_add_pd(curidxa, eight);
      curidxb = _mm256_add_pd(curidxb, eight);
    }
    double best = 0.0;
    std::size_t idx = argmax_merge8(bestva, bestia, bestvb, bestib, &best, n);
    for (; c < n; ++c) {
      corr[c] = corr[c] - d[i] * r0[c] - d[i + 1] * r1[c];
      const double v = corr[c] * corr[c] * sel[c];
      if (v > best) {
        best = v;
        idx = c;
      }
    }
    return best > 0.0 ? idx : n;
  }

  // Final 3..4 rows, padded by re-folding row 0 with weight 0 (an exact
  // no-op for any value that padding row can make corr take: a NaN/Inf
  // there already poisons corr through its weighted fold).
  const double* rr[4];
  double dd[4];
  rr[0] = gram.row(sup[i]).data();
  dd[0] = d[i];
  for (std::size_t j = 1; j < 4; ++j) {
    if (j < rem) {
      rr[j] = gram.row(sup[i + j]).data();
      dd[j] = d[i + j];
    } else {
      rr[j] = rr[0];
      dd[j] = 0.0;
    }
  }
  const __m256d d0 = _mm256_set1_pd(dd[0]), d1 = _mm256_set1_pd(dd[1]),
                d2 = _mm256_set1_pd(dd[2]), d3 = _mm256_set1_pd(dd[3]);
  __m256d bestva = _mm256_setzero_pd();
  __m256d bestia = _mm256_setzero_pd();
  __m256d bestvb = _mm256_setzero_pd();
  __m256d bestib = _mm256_setzero_pd();
  __m256d curidxa = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  __m256d curidxb = _mm256_set_pd(7.0, 6.0, 5.0, 4.0);
  const __m256d eight = _mm256_set1_pd(8.0);
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    __m256d acca = _mm256_loadu_pd(corr + c);
    __m256d accb = _mm256_loadu_pd(corr + c + 4);
    acca = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(rr[0] + c), acca);
    accb = _mm256_fnmadd_pd(d0, _mm256_loadu_pd(rr[0] + c + 4), accb);
    acca = _mm256_fnmadd_pd(d1, _mm256_loadu_pd(rr[1] + c), acca);
    accb = _mm256_fnmadd_pd(d1, _mm256_loadu_pd(rr[1] + c + 4), accb);
    acca = _mm256_fnmadd_pd(d2, _mm256_loadu_pd(rr[2] + c), acca);
    accb = _mm256_fnmadd_pd(d2, _mm256_loadu_pd(rr[2] + c + 4), accb);
    acca = _mm256_fnmadd_pd(d3, _mm256_loadu_pd(rr[3] + c), acca);
    accb = _mm256_fnmadd_pd(d3, _mm256_loadu_pd(rr[3] + c + 4), accb);
    _mm256_storeu_pd(corr + c, acca);
    _mm256_storeu_pd(corr + c + 4, accb);
    const __m256d va =
        _mm256_mul_pd(_mm256_mul_pd(acca, acca), _mm256_loadu_pd(sel + c));
    const __m256d vb = _mm256_mul_pd(_mm256_mul_pd(accb, accb),
                                     _mm256_loadu_pd(sel + c + 4));
    const __m256d maska = _mm256_cmp_pd(va, bestva, _CMP_GT_OQ);
    const __m256d maskb = _mm256_cmp_pd(vb, bestvb, _CMP_GT_OQ);
    bestva = _mm256_blendv_pd(bestva, va, maska);
    bestia = _mm256_blendv_pd(bestia, curidxa, maska);
    bestvb = _mm256_blendv_pd(bestvb, vb, maskb);
    bestib = _mm256_blendv_pd(bestib, curidxb, maskb);
    curidxa = _mm256_add_pd(curidxa, eight);
    curidxb = _mm256_add_pd(curidxb, eight);
  }
  double best = 0.0;
  std::size_t idx = argmax_merge8(bestva, bestia, bestvb, bestib, &best, n);
  for (; c < n; ++c) {
    corr[c] = corr[c] - dd[0] * rr[0][c] - dd[1] * rr[1][c] -
              dd[2] * rr[2][c] - dd[3] * rr[3][c];
    const double v = corr[c] * corr[c] * sel[c];
    if (v > best) {
      best = v;
      idx = c;
    }
  }
  return best > 0.0 ? idx : n;
}
#else
std::size_t subtract_rows_and_argmax(const Matrix& gram,
                                     const std::size_t* sup, const double* d,
                                     std::size_t t, double* __restrict corr,
                                     const double* __restrict sel,
                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= t; i += 4) {
    const double* __restrict r0 = gram.row(sup[i]).data();
    const double* __restrict r1 = gram.row(sup[i + 1]).data();
    const double* __restrict r2 = gram.row(sup[i + 2]).data();
    const double* __restrict r3 = gram.row(sup[i + 3]).data();
    const double d0 = d[i], d1 = d[i + 1], d2 = d[i + 2], d3 = d[i + 3];
    for (std::size_t c = 0; c < n; ++c) {
      corr[c] -= d0 * r0[c] + d1 * r1[c] + d2 * r2[c] + d3 * r3[c];
    }
  }
  for (; i + 2 <= t; i += 2) {
    const double* __restrict r0 = gram.row(sup[i]).data();
    const double* __restrict r1 = gram.row(sup[i + 1]).data();
    const double d0 = d[i], d1 = d[i + 1];
    for (std::size_t c = 0; c < n; ++c) {
      corr[c] -= d0 * r0[c] + d1 * r1[c];
    }
  }
  for (; i < t; ++i) {
    const double* __restrict r0 = gram.row(sup[i]).data();
    const double d0 = d[i];
    for (std::size_t c = 0; c < n; ++c) corr[c] -= d0 * r0[c];
  }
  return argmax_scaled_fused(corr, sel, n);
}
#endif

std::size_t omp_k_max(const OmpOptions& opts, std::size_t m,
                      std::size_t n) {
  return opts.max_sparsity == 0 ? std::min(m, n)
                                : std::min({opts.max_sparsity, m, n});
}

// Squared column norms -> the argmax eligibility scale: the reciprocal,
// or an exact 0.0 for a zero-norm column, which scales any finite
// correlation down to an exact 0.
void invert_sqnorms(std::span<double> sqnorms) {
  for (double& s : sqnorms) s = s == 0.0 ? 0.0 : 1.0 / s;
}

// One solve's flight-recorder event and cs.omp.* metrics, emitted in
// signal order by every OMP path.
void record_omp_solve(const SparseSolution& sol, double y_norm) {
  obs::fr_record(obs::FrEvent::kSolverSolve,
                 static_cast<std::uint32_t>(sol.support.size()),
                 sol.residual_norm);
  if (obs::attached()) {
    obs::add_counter("cs.omp.solves");
    obs::add_counter("cs.omp.iterations",
                     static_cast<double>(sol.iterations));
    obs::add_counter("cs.omp.accepted_atoms",
                     static_cast<double>(sol.support.size()));
    obs::observe("cs.omp.residual_rel",
                 sol.residual_norm / std::max(y_norm, 1e-300));
  }
}

// One signal's OMP pursuit under greedy_batch.h's Run contract: omp_solve
// drives one, omp_solve_batch's lockstep drives many, so the two paths
// cannot drift apart.  `sel` is the eligibility scale (invert_sqnorms
// of the column norms, which make the correlation scale-invariant even
// if a caller passes a non-normalized dictionary); picked atoms drop to
// an exact 0.0.
//
// The support columns are factored incrementally (the "orthogonal"
// step).  Appending the picked column extends Q/R in O(mk); because the
// new Q column q is orthonormal to the previous ones, the exact
// least-squares residual updates in place as r -= (q.y) q, so each
// greedy iteration is one correlation pass + O(mk) bookkeeping instead
// of a from-scratch O(mk^2) QR.  The factorization holds Q^T y, so
// q.y is its newest entry, and coefficients are recovered once in
// finish() by a single back-substitution.
struct OmpRun {
  const Matrix& a;
  std::span<const double> y;
  const OmpOptions& opts;
  Vector sel;
  std::size_t k_max;
  SparseSolution sol;
  Vector r;
  Vector col_buf;
  linalg::UpdatableQR qr;
  double y_norm;
  double prev_res;
  double res;
  bool done = false;

  OmpRun(const Matrix& a_in, std::span<const double> y_in,
         const OmpOptions& opts_in, Vector sel_in)
      : a(a_in),
        y(y_in),
        opts(opts_in),
        sel(std::move(sel_in)),
        k_max(omp_k_max(opts, a.rows(), a.cols())),
        r(y.begin(), y.end()),
        col_buf(a.rows()),
        qr(a.rows(), y, k_max),
        y_norm(norm2(y)),
        prev_res(y_norm),
        res(y_norm) {
    sol.coefficients.assign(a.cols(), 0.0);
  }

  bool needs_sweep() {
    done = done || sol.support.size() >= k_max ||
           poll_cancelled(opts.cancel) ||
           res <= opts.residual_tol * std::max(y_norm, 1e-300);
    return !done;
  }

  // Greedy step on corr = A^T r: the column with the largest normalized
  // correlation joins the support.
  void step(std::span<double> corr) {
    const std::size_t n = corr.size();
    const std::size_t best = argmax_scaled(corr.data(), sel.data(), n);
    if (best == n) {  // nothing left correlates
      done = true;
      return;
    }
    a.col_into(best, col_buf);
    if (!qr.append_column(col_buf)) {
      // Numerically dependent on the support already picked: it cannot
      // reduce the residual, and no remaining candidate beat it, so the
      // pursuit has converged to the span it can reach.
      done = true;
      return;
    }
    sel[best] = 0.0;
    sol.support.push_back(best);
    ++sol.iterations;

    const auto q = qr.q_column(qr.size() - 1);
    const double qy = qr.qty().back();
    axpy(-qy, q, r);
    res = norm2(r);
    obs::fr_record(obs::FrEvent::kSolverIteration,
                   static_cast<std::uint32_t>(sol.iterations), res);

    if (opts.min_improvement > 0.0 &&
        prev_res - res < opts.min_improvement * std::max(y_norm, 1e-300)) {
      // The atom bought almost nothing: undo it (restore the residual
      // before the Q column disappears, then downdate) and stop.  Note
      // sol.iterations stays: the work was performed even though the
      // atom was rejected.
      axpy(qy, q, r);
      qr.remove_last();
      sol.support.pop_back();
      res = norm2(r);
      done = true;
      return;
    }
    prev_res = res;
  }

  SparseSolution finish() {
    const Vector coef_on_support = qr.solve();
    for (std::size_t i = 0; i < sol.support.size(); ++i) {
      sol.coefficients[sol.support[i]] = coef_on_support[i];
    }
    sol.residual_norm = res;
    record_omp_solve(sol, y_norm);
    return std::move(sol);
  }
};

}  // namespace

SparseSolution omp_solve(const Matrix& a, std::span<const double> y,
                         const OmpOptions& opts) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m == 0 || n == 0) {
    throw std::invalid_argument("omp_solve: empty matrix");
  }
  if (y.size() != m) {
    throw std::invalid_argument("omp_solve: y size mismatch");
  }
  obs::ScopedSpan span("cs.omp.solve", "cs.omp.solve_us");

  // The column-norm sweep is fused with the first correlation pass
  // (residual == y there), saving one full traversal of the dictionary.
  Vector corr(n);
  Vector sel(n);
  a.transpose_times_sqnorms_into(y, corr, sel);
  invert_sqnorms(sel);
  OmpRun run(a, y, opts, std::move(sel));
  for (bool fused = true; run.needs_sweep(); fused = false) {
    if (!fused) a.transpose_times_into(run.r, corr);
    run.step(corr);
  }
  return run.finish();
}

std::vector<SparseSolution> omp_solve_batch(const Matrix& a,
                                            std::span<const Vector> ys,
                                            const OmpOptions& opts) {
  std::vector<SparseSolution> out;
  const std::size_t bcount = ys.size();
  if (bcount == 0) return out;
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m == 0 || n == 0) {
    throw std::invalid_argument("omp_solve_batch: empty matrix");
  }
  for (const Vector& y : ys) {
    if (y.size() != m) {
      throw std::invalid_argument("omp_solve_batch: y size mismatch");
    }
  }
  if (bcount == 1) {
    out.push_back(omp_solve(a, ys[0], opts));
    return out;
  }
  const std::size_t k_max = omp_k_max(opts, m, n);
  obs::ScopedSpan span("cs.omp.solve_batch", "cs.omp.solve_batch_us");

  // Shared eligibility template: reciprocal squared column norms, built
  // once for the whole batch.  sqnorm == 0 iff a column is identically
  // zero (a sum of squares), so eligibility is order-independent.
  Vector sel_template(n);
  a.col_sqnorms_into(sel_template);
  invert_sqnorms(sel_template);

  // Gram fast path (Rubinstein-style Batch-OMP): with G = A^T A in hand
  // (memoized per dictionary by linalg::shared_gram), each signal's
  // selection loop runs entirely in coefficient space — a progressive
  // Cholesky of G_SS, an in-place O(nk) correlation update per
  // iteration, and the residual recurrence ||r_t||^2 = ||r_{t-1}||^2 -
  // z_t^2 — no O(nm) sweeps and no m-length vectors.  Coefficients come
  // from one final back-substitution L^T alpha = z: the same
  // least-squares solution the sequential QR refit computes, through
  // different arithmetic, so supports match omp_solve except on
  // near-exact correlation ties (the fast correlations equal the swept
  // ones in exact arithmetic) and coefficients/residual_norm agree to
  // machine precision amplified by the support's conditioning — the
  // batch contract pins 1e-12 (DESIGN.md §15).
  //
  // Every per-signal quantity is computed from that signal's own slice,
  // so a signal's output is bitwise-deterministic and independent of
  // which other signals share the batch.  The gate below is therefore
  // deliberately batch-size-independent: however a workload is chunked
  // into solve_batch calls (exec::solve_batch_parallel slices by a
  // batch_size knob), every chunk size >= 2 lands on this path and
  // produces identical bytes per signal.  The Gram build is memoized
  // across calls, so even tiny batches amortize it; oversized batches
  // are processed in fixed-size windows rather than excluded.
  const std::size_t tri = k_max * (k_max + 1) / 2;
  const bool use_gram = n * n * sizeof(double) <= (std::size_t{32} << 20);

  if (use_gram) {
    const std::shared_ptr<const Matrix> gram_sp = linalg::shared_gram(a);
    const Matrix& gram = *gram_sp;
    const bool fr_on = obs::fr_armed();

    // Fixed-size windows bound the flat per-signal state (the packed
    // Cholesky triangles dominate at large k_max) without a batch-size
    // gate: window size only partitions the shared GEMM, whose
    // per-signal columns are bit-identical to one-signal sweeps by
    // construction, so windowing never changes a signal's output.
    const std::size_t window = std::min<std::size_t>(
        {bcount, std::size_t{1024},
         std::max<std::size_t>(
             1, (std::size_t{16} << 20) / (tri * sizeof(double)))});

    // Flat per-signal Cholesky state: packed lower triangle of G_SS
    // (row t at t(t+1)/2), inverted diagonals (divides become
    // multiplies), the progressive z = L^{-1} (A^T y)_S, and the last
    // applied coefficient estimate alpha = L^{-T} z.
    Vector corr0(window * n);
    Vector stacked(window * m);
    Vector chol(window * tri);
    Vector dinv(window * k_max);
    Vector zbuf(window * k_max);
    Vector alpha(window * k_max);
    Vector w(k_max);
    Vector delta(k_max);
    // One shared eligibility buffer: each signal zeroes the entries it
    // picks and restores them (from the template) when it finishes —
    // O(k) undo instead of a fresh n-length copy per signal.
    Vector sel_work = sel_template;
    // Column-major copy of the dictionary for the finalize's exact
    // residual pass: support columns become contiguous (4 cache lines
    // each at m = 30) instead of one line per element, and the one-time
    // transpose amortizes over the whole batch.
    Vector acolmaj(n * m);
    for (std::size_t i = 0; i < m; ++i) {
      const double* __restrict row = a.row(i).data();
      for (std::size_t j = 0; j < n; ++j) acolmaj[j * m + i] = row[j];
    }
    Vector rbuf(m);
    out.reserve(bcount);

    for (std::size_t w0 = 0; w0 < bcount; w0 += window) {
      const std::size_t wc = std::min(window, bcount - w0);
      for (std::size_t b = 0; b < wc; ++b) {
        std::copy(ys[w0 + b].begin(), ys[w0 + b].end(),
                  stacked.begin() + b * m);
      }
      a.transpose_times_block({stacked.data(), wc * m}, wc,
                              {corr0.data(), wc * n});

      // Each signal runs to completion before the next starts: the fast
      // phase has no cross-signal work (the shared GEMM already
      // happened), and finishing a signal keeps its ~k Gram rows, corr
      // slice, and Cholesky triangle hot in L1 across its consecutive
      // iterations.  Per-signal bits are unchanged by the ordering; only
      // cancellation timing shifts (a cancel lands between signals
      // exactly as it does in the sequential fallback).
      for (std::size_t b = 0; b < wc; ++b) {
        const Vector& y = ys[w0 + b];
        SparseSolution sol;
        sol.coefficients.assign(n, 0.0);
        sol.support.reserve(k_max);
        const double y_norm = norm2(y);
        double prev_res = y_norm;
        double res = y_norm;
        double res2 = y_norm * y_norm;
        // Argmax over the updated correlations, precomputed by the
        // fused update kernel at the end of the previous iteration.
        // SIZE_MAX = not precomputed (first iteration); n = precomputed,
        // none left.
        std::size_t next_best = SIZE_MAX;
        bool rejected_last = false;  // min_improvement: last pick dropped

        double* __restrict corr = corr0.data() + b * n;
        double* __restrict lb = chol.data() + b * tri;
        double* __restrict db = dinv.data() + b * k_max;
        double* __restrict zb = zbuf.data() + b * k_max;
        double* __restrict ab = alpha.data() + b * k_max;
        // chol/dinv/zbuf entries are always written before read within a
        // signal; alpha is read (as the previous estimate) before its
        // first write, so it alone needs clearing between slot reuses.
        for (std::size_t i = 0; i < k_max; ++i) ab[i] = 0.0;

        while (true) {
          if (sol.support.size() >= k_max) break;
          if (poll_cancelled(opts.cancel)) break;
          if (res <= opts.residual_tol * std::max(y_norm, 1e-300)) break;
          const std::size_t t = sol.support.size();

          const std::size_t best =
              next_best != SIZE_MAX
                  ? next_best
                  : argmax_scaled_fused(corr, sel_work.data(), n);
          if (best == n) break;
          const double* __restrict g_best = gram.row(best).data();

          // Forward substitution L w = (G_SS extension column), then the
          // new diagonal d^2 = G(best,best) - w.w.  d is the norm of the
          // picked column's component orthogonal to the current support,
          // so d^2 <= (dep_tol * ||col||)^2 mirrors append_column's
          // numerically-dependent rejection (and catches d^2 <= 0 /
          // NaN).
          double wsq = 0.0;
          for (std::size_t i = 0; i < t; ++i) {
            double acc = g_best[sol.support[i]];
            const double* __restrict li = lb + i * (i + 1) / 2;
            for (std::size_t j = 0; j < i; ++j) acc -= li[j] * w[j];
            w[i] = acc * db[i];
            wsq += w[i] * w[i];
          }
          const double d2 = g_best[best] - wsq;
          if (!(d2 > 1e-24 * g_best[best])) break;
          const double ltt = std::sqrt(d2);
          double* __restrict lrow = lb + t * (t + 1) / 2;
          for (std::size_t j = 0; j < t; ++j) lrow[j] = w[j];
          lrow[t] = ltt;
          db[t] = 1.0 / ltt;

          // z_t = q_t . y: the in-place corr entry is <a_best, r_{t-1}>
          // exactly in real arithmetic, and q_t = (orth component) / d.
          const double zt = corr[best] * db[t];
          zb[t] = zt;
          const double res2_new = std::max(res2 - zt * zt, 0.0);
          const double res_new = std::sqrt(res2_new);

          sel_work[best] = 0.0;
          sol.support.push_back(best);
          ++sol.iterations;

          if (opts.min_improvement > 0.0 &&
              prev_res - res_new <
                  opts.min_improvement * std::max(y_norm, 1e-300)) {
            // Atom bought almost nothing: count the iteration (work was
            // done) but drop the pick below and keep the pre-pick
            // residual, exactly as the sequential revert does.
            rejected_last = true;
            break;
          }
          res2 = res2_new;
          res = res_new;
          prev_res = res_new;

          // The correlation update is only needed if this signal will
          // argmax again; the loop-top conditions are re-evaluated from
          // the exact same fields, so skipping here can never leave a
          // stale corr in play.
          const std::size_t tn = t + 1;
          if (tn >= k_max ||
              res <= opts.residual_tol * std::max(y_norm, 1e-300)) {
            continue;
          }

          // alpha_new = L^{-T} z (back substitution over the packed
          // rows), then corr -= G_S (alpha_new - alpha_old), applied in
          // place with the next argmax folded into the update's final
          // pass.
          for (std::size_t ii = tn; ii-- > 0;) {
            double acc = zb[ii];
            for (std::size_t j = ii + 1; j < tn; ++j) {
              acc -= lb[j * (j + 1) / 2 + ii] * w[j];
            }
            w[ii] = acc * db[ii];
          }
          for (std::size_t i = 0; i < tn; ++i) {
            delta[i] = w[i] - ab[i];
            ab[i] = w[i];
          }
          next_best =
              subtract_rows_and_argmax(gram, sol.support.data(),
                                       delta.data(), tn, corr,
                                       sel_work.data(), n);
        }
        // Undo this signal's eligibility zeroes for the next one.  Every
        // zeroed index is in the pick list (rejected picks included —
        // the d2 rejection breaks before zeroing).
        for (const std::size_t idx : sol.support) {
          sel_work[idx] = sel_template[idx];
        }

        // Finalize: one back-substitution over the accepted picks gives
        // the least-squares coefficients; the flight-recorder stream
        // re-walks the residual recurrence so events carry the same
        // per-iteration values the pursuit saw, in the same per-signal
        // order a sequential loop would emit them.
        const std::size_t picks = sol.support.size();
        const std::size_t accepted = picks - (rejected_last ? 1 : 0);
        for (std::size_t ii = accepted; ii-- > 0;) {
          double acc = zb[ii];
          for (std::size_t j = ii + 1; j < accepted; ++j) {
            acc -= lb[j * (j + 1) / 2 + ii] * w[j];
          }
          w[ii] = acc * db[ii];
        }
        for (std::size_t j = 0; j < accepted; ++j) {
          sol.coefficients[sol.support[j]] = w[j];
        }
        sol.support.resize(accepted);
        if (fr_on) {
          double r2 = y_norm * y_norm;
          for (std::size_t t = 0; t < picks; ++t) {
            r2 = std::max(r2 - zb[t] * zb[t], 0.0);
            obs::fr_record(obs::FrEvent::kSolverIteration,
                           static_cast<std::uint32_t>(t + 1),
                           std::sqrt(r2));
          }
        }
        // The recurrence drives stopping (like canonical Batch-OMP) but
        // cancels to ~sqrt(eps)*||y|| when the true residual is near
        // zero, so the REPORTED norm is computed exactly: one pass of
        // r = y - A_S alpha over the support columns.
        double res_out = y_norm;
        if (accepted > 0) {
          double* __restrict r = rbuf.data();
          std::copy(y.begin(), y.end(), r);
          for (std::size_t j = 0; j < accepted; ++j) {
            const double* __restrict c =
                acolmaj.data() + sol.support[j] * m;
            const double wj = w[j];
            for (std::size_t i = 0; i < m; ++i) r[i] -= wj * c[i];
          }
          res_out = norm2(rbuf);
        }
        sol.residual_norm = res_out;
        record_omp_solve(sol, y_norm);
        out.push_back(std::move(sol));
      }
    }
    return out;
  }

  // Above the Gram budget, every signal runs omp_solve's own pursuit and
  // the lockstep driver shares each round's sweeps through one blocked
  // GEMM: bit for bit the sequential result.
  std::vector<OmpRun> runs;
  runs.reserve(bcount);
  for (const Vector& y : ys) runs.emplace_back(a, y, opts, sel_template);
  return greedy_batch(a, runs);
}

Vector reconstruct(const Matrix& basis, const SparseSolution& sol) {
  if (basis.cols() != sol.coefficients.size()) {
    throw std::invalid_argument("reconstruct: basis/coefficient mismatch");
  }
  // Exploit sparsity: synthesize from the support only.  Every support
  // atom participates, even with a zero coefficient — a NaN/Inf basis
  // entry on the support must reach the output, not be skip-masked.
  Vector x(basis.rows(), 0.0);
  for (std::size_t j : sol.support) {
    const double c = sol.coefficients[j];
    for (std::size_t i = 0; i < basis.rows(); ++i) x[i] += basis(i, j) * c;
  }
  return x;
}

}  // namespace sensedroid::cs
