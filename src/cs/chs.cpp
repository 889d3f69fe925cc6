#include "cs/chs.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "cs/basis_pursuit.h"
#include "cs/least_squares.h"
#include "cs/solver.h"
#include "linalg/vector_ops.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::cs {

using linalg::norm2;

namespace {

// The kernel below is written with GCC vector extensions, which GCC
// vectorizes at every optimization level.  Left to the auto-vectorizer,
// the same insertion as a plain 8-lane loop came out vectorized at one of
// -O2 and -O3 and scalar at the other, which of the two depending on the
// loop's shape, and the scalar build ran slower than a per-point scan
// with branches.
constexpr std::size_t kHalves = 2;  // vectors per block of grid points

// For each grid point g of a column-stacked height x (n/height) grid,
// the Slots nearest samples (sample s sits at locations[s]), found by
// insertion in sample order: a sample walks the slots from the nearest,
// swapping with every slot whose distance it is strictly below.  Each
// grid point is one lane of a 32-byte vector of T and each swap a
// select, so the scan takes no data-dependent branch; a sample no nearer
// than the last slot passes through unswapped.  Coordinates, squared
// distances and sample indices are integers, held in T exactly when the
// caller's guard says they fit, and kFar, the distance of a slot no
// sample reached, is above every real one.  Calls finish(g, nd2, ns)
// once per grid point with its squared distances in slot order as
// doubles (1e300 in slots no sample reached) and their sample indices.
template <class T, std::size_t Slots, class Finish>
void nearest_samples_on(std::span<const std::size_t> locations,
                        std::size_t n, std::size_t height, Finish& finish) {
  typedef T Lanes __attribute__((vector_size(32)));
  constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(T);
  constexpr std::size_t kBlock = kLanes * kHalves;
  constexpr T kFar = std::is_floating_point_v<T>
                         ? static_cast<T>(1e300)
                         : std::numeric_limits<T>::max();
  const std::size_t m = locations.size();
  std::vector<T> si(m), sj(m);
  for (std::size_t s = 0; s < m; ++s) {
    si[s] = static_cast<T>(locations[s] % height);
    sj[s] = static_cast<T>(locations[s] / height);
  }
  for (std::size_t base = 0; base < n; base += kBlock) {
    // Tail lanes past n repeat the last grid point, which keeps their
    // distances in range; their results are dropped.
    Lanes gi[kHalves] = {}, gj[kHalves] = {};
    for (std::size_t h = 0; h < kHalves; ++h) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t g = std::min(base + h * kLanes + l, n - 1);
        gi[h][l] = static_cast<T>(g % height);
        gj[h][l] = static_cast<T>(g / height);
      }
    }
    Lanes nd2[Slots][kHalves] = {}, ns[Slots][kHalves] = {};
    for (std::size_t r = 0; r < Slots; ++r) {
      for (std::size_t h = 0; h < kHalves; ++h) nd2[r][h] += kFar;
    }
    for (std::size_t s = 0; s < m; ++s) {
      const T index = static_cast<T>(s);
      for (std::size_t h = 0; h < kHalves; ++h) {
        const Lanes di = si[s] - gi[h];
        const Lanes dj = sj[s] - gj[h];
        Lanes d2 = di * di + dj * dj;
        Lanes idx = Lanes{} + index;
        for (std::size_t r = 0; r < Slots; ++r) {
          // Strict: a sample at a slot's own distance does not displace it.
          const auto nearer = d2 < nd2[r][h];
          const Lanes kept_d2 = nd2[r][h];
          const Lanes kept_idx = ns[r][h];
          nd2[r][h] = nearer ? d2 : kept_d2;
          ns[r][h] = nearer ? idx : kept_idx;
          d2 = nearer ? kept_d2 : d2;
          idx = nearer ? kept_idx : idx;
        }
      }
    }
    for (std::size_t l = 0; l < kBlock && base + l < n; ++l) {
      double lane_d2[Slots];
      std::size_t lane_s[Slots];
      for (std::size_t r = 0; r < Slots; ++r) {
        const T d2 = nd2[r][l / kLanes][l % kLanes];
        lane_d2[r] = d2 == kFar ? 1e300 : static_cast<double>(d2);
        lane_s[r] = static_cast<std::size_t>(ns[r][l / kLanes][l % kLanes]);
      }
      finish(base + l, lane_d2, lane_s);
    }
  }
}

// nearest_samples_on over int16 lanes, 16 grid points per vector, when
// every squared distance on the grid and every sample index is below
// INT16_MAX (every zone up to 128 x 128), else over doubles, 4 per
// vector.  Both compute the same integers, so they find the same slots.
template <std::size_t Slots, class Finish>
void nearest_samples(std::span<const std::size_t> locations, std::size_t n,
                     std::size_t height, Finish&& finish) {
  constexpr std::size_t kNarrow = std::numeric_limits<std::int16_t>::max();
  const std::size_t di = height - 1, dj = n / height - 1;
  if (di * di + dj * dj < kNarrow && locations.size() <= kNarrow) {
    nearest_samples_on<std::int16_t, Slots>(locations, n, height, finish);
  } else {
    nearest_samples_on<double, Slots>(locations, n, height, finish);
  }
}

}  // namespace

Upsilon::Upsilon(std::span<const std::size_t> locations, std::size_t n,
                 std::size_t height, Interpolation kind)
    : n_(n),
      kind_(kind),
      two_d_(height > 0),
      locations_(locations.begin(), locations.end()) {
  if (two_d_ && n % height != 0) {
    throw std::invalid_argument("Upsilon: height must divide n");
  }
  const std::size_t m = locations.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (locations[i] >= n) {
      throw std::invalid_argument("Upsilon: location out of range");
    }
    if (i > 0 && locations[i] <= locations[i - 1]) {
      throw std::invalid_argument(
          "Upsilon: locations must be strictly ascending");
    }
  }
  if (kind != Interpolation::kZeroFill &&
      kind != Interpolation::kNearest && kind != Interpolation::kLinear) {
    throw std::invalid_argument("Upsilon: unknown interpolation");
  }
  if (kind == Interpolation::kZeroFill || m == 0) return;

  blend_.assign(n, 0);
  sample_.assign(kSlots * n, 0);
  weight_.assign(kSlots * n, 0.0);

  if (!two_d_) {
    std::size_t j = 0;  // index of the nearest-on-the-left sample
    for (std::size_t g = 0; g < n; ++g) {
      std::size_t* s = &sample_[kSlots * g];
      if (kind == Interpolation::kNearest) {
        while (j + 1 < m && locations[j + 1] <= g) ++j;
        std::size_t pick = j;
        if (j + 1 < m) {
          const std::size_t dl = g >= locations[j] ? g - locations[j]
                                                   : locations[j] - g;
          const std::size_t dr = locations[j + 1] - g;
          if (dr < dl) pick = j + 1;
        }
        s[0] = pick;
      } else if (g <= locations.front()) {
        s[0] = 0;  // flat extrapolation on the left
      } else if (g >= locations.back()) {
        s[0] = m - 1;  // and on the right
      } else {
        // The bracketing pair; the blend runs even when g is on a sample.
        const auto it = std::upper_bound(locations.begin(), locations.end(), g);
        const auto hi = static_cast<std::size_t>(it - locations.begin());
        const std::size_t lo = hi - 1;
        const double t = static_cast<double>(g - locations[lo]) /
                         static_cast<double>(locations[hi] - locations[lo]);
        blend_[g] = 1;
        s[0] = lo;
        s[1] = hi;
        weight_[kSlots * g] = 1.0 - t;
        weight_[kSlots * g + 1] = t;
      }
    }
    return;
  }

  // 2-D: one scan over the samples per block of grid points.
  if (kind == Interpolation::kNearest) {
    // The Euclidean-nearest sample: the 1-slot insertion is the strict
    // first minimum, so ties keep the earlier sample.
    nearest_samples<1>(locations, n, height,
                       [&](std::size_t g, const double*,
                           const std::size_t* ns) {
                         sample_[kSlots * g] = ns[0];
                       });
    return;
  }
  wsum_.assign(n, 0.0);
  nearest_samples<kSlots>(
      locations, n, height,
      [&](std::size_t g, const double* nd2, const std::size_t* ns) {
        std::size_t* slot = &sample_[kSlots * g];
        if (nd2[0] <= 1e-12) {
          slot[0] = ns[0];  // exactly on a sample
          return;
        }
        double wsum = 0.0;
        for (std::size_t r = 0; r < kSlots && nd2[r] < 1e300; ++r) {
          const double w = 1.0 / nd2[r];  // inverse squared distance
          slot[r] = ns[r];
          weight_[kSlots * g + r] = w;
          wsum += w;
        }
        blend_[g] = 1;
        wsum_[g] = wsum;
      });
}

Vector Upsilon::apply(std::span<const double> values) const {
  Vector out(n_);
  apply_into(values, out);
  return out;
}

void Upsilon::apply_into(std::span<const double> values,
                         std::span<double> out) const {
  if (values.size() != locations_.size() || out.size() != n_) {
    throw std::invalid_argument("Upsilon: size mismatch");
  }
  if (values.empty() || kind_ == Interpolation::kZeroFill) {
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      out[locations_[i]] = values[i];
    }
    return;
  }
  for (std::size_t g = 0; g < n_; ++g) {
    const std::size_t* s = &sample_[kSlots * g];
    const double* w = &weight_[kSlots * g];
    if (!blend_[g]) {
      out[g] = values[s[0]];
    } else if (!two_d_) {
      out[g] = w[0] * values[s[0]] + w[1] * values[s[1]];
    } else {
      // Unused slots hold weight 0.  Stopping on it, as the from-scratch
      // loop stops on its distance sentinel, keeps this a scalar chain:
      // a counted loop here gets vectorized as products then sums, which
      // rounds differently from the contracted multiply-adds.
      double acc = 0.0;
      for (std::size_t r = 0; r < kSlots && w[r] != 0.0; ++r) {
        acc += w[r] * values[s[r]];
      }
      out[g] = acc / wsum_[g];  // wsum_ > 0: every blend has a weight
    }
  }
}

void select_batch(std::span<std::size_t> candidates,
                  std::span<const double> alpha, std::size_t take) {
  // No choice to make: the set is empty or every candidate.
  if (take == 0 || take >= candidates.size()) return;
  const auto by_magnitude = [&](std::size_t a, std::size_t b) {
    return std::abs(alpha[a]) > std::abs(alpha[b]);
  };
  // After nth_element, rank take + 1 sits at position take and every
  // entry before it is at least as large; the first `take` are the top
  // set unless the smallest of them ties with it.
  std::nth_element(candidates.begin(), candidates.begin() + take,
                   candidates.end(), by_magnitude);
  double kept_min = std::abs(alpha[candidates[0]]);
  for (std::size_t i = 1; i < take; ++i) {
    kept_min = std::min(kept_min, std::abs(alpha[candidates[i]]));
  }
  if (kept_min > std::abs(alpha[candidates[take]])) return;
  // A tie straddles the boundary: which of the tied atoms a full sort
  // keeps depends on its input order, so restore that order and sort.
  std::sort(candidates.begin(), candidates.end());
  std::sort(candidates.begin(), candidates.end(), by_magnitude);
}

std::size_t pick_batch(std::span<const double> alpha,
                       std::span<const std::uint8_t> in_support,
                       double significance, std::size_t want,
                       std::vector<std::size_t>& batch) {
  // batch[0, kept): the largest |alpha| off the support, descending.  A
  // later atom gets in only when strictly larger than an entry, so equal
  // magnitudes stay in index order; a NaN never gets in.
  const std::size_t cap = want + 1;
  batch.resize(cap);
  std::size_t kept = 0;
  double last = 0.0;  // |alpha| of batch[cap - 1] once the buffer is full
  const auto mag = [&](std::size_t i) { return std::abs(alpha[batch[i]]); };
  for (std::size_t j = 0; j < alpha.size(); ++j) {
    if (in_support[j]) continue;
    const double v = std::abs(alpha[j]);
    if (kept == cap ? !(v > last) : std::isnan(v)) continue;
    std::size_t i = kept < cap ? kept++ : cap - 1;
    for (; i > 0 && mag(i - 1) < v; --i) batch[i] = batch[i - 1];
    batch[i] = j;
    if (kept == cap) last = mag(cap - 1);
  }
  const double max_mag = kept > 0 ? mag(0) : 0.0;
  if (max_mag == 0.0) return 0;  // residual orthogonal to every new atom
  // Eligible entries are a prefix of the buffer.  Its count is exact when
  // the prefix stops inside the buffer: an atom outside is no larger than
  // the last entry.  A full eligible buffer means more than `want`.
  const double cut = significance * max_mag;
  std::size_t eligible = 0;
  while (eligible < kept && mag(eligible) >= cut) ++eligible;
  const std::size_t take = std::min(eligible, want);
  if (take == 0) return 0;
  if (take < eligible && mag(take - 1) == mag(take)) {
    // A tie straddles the boundary: which of the tied atoms the full sort
    // keeps depends on its whole input, so rebuild that input.
    batch.clear();
    for (std::size_t j = 0; j < alpha.size(); ++j) {
      if (!in_support[j] && std::abs(alpha[j]) >= cut) batch.push_back(j);
    }
    select_batch(batch, alpha, take);
  }
  // Else the top `take` are strictly above the rest: the full sort's set.
  std::sort(batch.begin(), batch.begin() + take);
  return take;
}

Vector interpolate_to_grid(std::span<const double> values,
                           std::span<const std::size_t> locations,
                           std::size_t n, Interpolation kind) {
  return Upsilon(locations, n, 0, kind).apply(values);
}

Vector interpolate_to_grid_2d(std::span<const double> values,
                              std::span<const std::size_t> locations,
                              std::size_t n, std::size_t height,
                              Interpolation kind) {
  if (height == 0) {
    throw std::invalid_argument(
        "interpolate_to_grid_2d: height must divide n");
  }
  return Upsilon(locations, n, height, kind).apply(values);
}

namespace {

// Median of a scratch copy (nth_element mutates).
double median_of(Vector v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double med = v[mid];
  if (v.size() % 2 == 0) {
    std::nth_element(v.begin(), v.begin() + (mid - 1), v.begin() + mid);
    med = 0.5 * (med + v[mid - 1]);
  }
  return med;
}

// MAD screening (the robust-degrade path): drop readings far from the
// sample median before the refit sees them.  Returns nullopt when
// screening does not apply (too few samples, degenerate MAD, nothing
// rejected, or rejection would leave too little to solve on).
std::optional<Measurement> mad_screen(const Measurement& meas,
                                      double threshold,
                                      std::size_t* rejected) {
  constexpr std::size_t kMinSamples = 8;  // below this the median is noise
  constexpr std::size_t kMinKept = 4;     // enough rows left to refit
  const std::size_t m = meas.values.size();
  if (m < kMinSamples) return std::nullopt;

  const double med = median_of(meas.values);
  Vector dev(m);
  for (std::size_t i = 0; i < m; ++i) {
    dev[i] = std::abs(meas.values[i] - med);
  }
  const double mad = median_of(dev);
  if (mad <= 0.0) return std::nullopt;  // half the fleet agrees exactly

  const double cut = threshold * 1.4826 * mad;  // 1.4826: MAD -> sigma
  const auto locations = meas.plan.indices();
  const bool has_noise = meas.noise.size() == m;
  std::vector<std::size_t> kept_loc;
  Vector kept_val;
  Vector kept_sigma;
  for (std::size_t i = 0; i < m; ++i) {
    if (dev[i] > cut) continue;
    kept_loc.push_back(locations[i]);
    kept_val.push_back(meas.values[i]);
    if (has_noise) kept_sigma.push_back(meas.noise.stddev[i]);
  }
  if (kept_val.size() == m || kept_val.size() < kMinKept) return std::nullopt;

  *rejected = m - kept_val.size();
  auto plan = MeasurementPlan::from_indices(meas.plan.signal_size(),
                                            std::move(kept_loc));
  return Measurement{std::move(plan), std::move(kept_val),
                     SensorNoise{std::move(kept_sigma)}};
}

// The Fig. 6 loop reads its basis through one view: the basis, Phi's
// rows at the plan's sampled locations (the support's columns of Phi~
// come from them), and the per-solve grid buffers of
// steps (a)+(b), so an iteration's analyze allocates nothing.  A solve
// copies no rows of Phi, and a factored basis forms each entry it is
// asked for from its factors and analyzes through two w x w / h x h
// products, so no N x N matrix exists either.
struct ChsView {
  const linalg::Basis& basis;
  std::span<const std::size_t> locations;  // the plan's sampled points
  linalg::Basis::Rows sampled;             // Phi's rows at them
  Vector grid;                             // Upsilon output, length N
  Vector scratch;                          // factor-product temporary

  ChsView(const linalg::Basis& b, const MeasurementPlan& plan)
      : basis(b),
        locations(plan.indices()),
        sampled(b.rows(locations)),
        grid(b.size()),
        scratch(b.factored() ? b.size() : 0) {}

  // (a)+(b): the residual through the solve's one Upsilon stencil, then
  // into the basis, into the caller's per-solve buffer.
  void analyze(const Vector& residual, const Upsilon& upsilon,
               std::span<double> alpha) {
    // Without factors, zero-fill leaves e_full zero off the sampled
    // locations, so Phi^T e_full collapses to Phi_rows^T residual — the
    // sparsity is exploited explicitly here (M rows instead of N)
    // rather than by a data-dependent zero-skip inside the kernel.  The
    // factor products want the full grid, so for them zero-fill is just
    // the scatter.
    if (!basis.factored() && upsilon.kind() == Interpolation::kZeroFill) {
      basis.dense().transpose_times_rows_into(locations, residual, alpha);
      return;
    }
    upsilon.apply_into(residual, grid);
    basis.analyze_into(grid, alpha, scratch);
  }
};

ChsResult chs_core(const linalg::Basis& basis, const Measurement& meas,
                   const ChsOptions& opts) {
  const std::size_t n = basis.size();
  const std::size_t m = meas.plan.measurement_count();
  ChsView view(basis, meas.plan);

  obs::ScopedSpan span("cs.chs.reconstruct", "cs.chs.solve_us");

  // Step (e)'s coefficient solver comes from the registry, resolved once
  // per call; the solver instance is stateless and reentrant.
  // Rank-deficient supports still fall back to a lightly regularized
  // ridge fit instead of aborting the round.
  const std::unique_ptr<SparseSolver> refit =
      SolverRegistry::global().create(opts.refit_solver);
  SolveContext refit_ctx;
  if (meas.noise.size() == m) refit_ctx.noise_stddev = meas.noise.stddev;
  refit_ctx.cancel = opts.cancel;

  const std::size_t k_budget = std::min(
      opts.max_support == 0 ? std::max<std::size_t>(m / 2, 1)
                            : opts.max_support,
      m);
  // Step (a)'s geometry depends only on the plan, so Upsilon is built
  // once here and applied to every iteration's residual.
  const Upsilon upsilon(meas.plan.indices(), n, opts.grid_height,
                        opts.interpolation);

  ChsResult res;
  res.coefficients.assign(n, 0.0);
  // J in selection order: each batch is appended, sorted by index, and
  // the undo path drops exactly the last batch, so every refit's support
  // extends the previous one.  J is sorted by index once, after the loop.
  // Phi~'s columns on J sit in the same order in one per-solve store,
  // column t at phi_cols[t m, (t + 1) m), written once by append_atom
  // and read by every refit and the residual.
  std::vector<std::uint8_t> in_support(n, 0);
  Vector phi_cols(k_budget * m);
  const auto phi_col = [&](std::size_t t) {
    return std::span<const double>(phi_cols).subspan(t * m, m);
  };
  const auto append_atom = [&](std::size_t j) {
    view.sampled.column_into(
        j, std::span<double>(phi_cols).subspan(res.support.size() * m, m));
    in_support[j] = 1;
    res.support.push_back(j);
  };
  // The M x K refit matrix Phi~_K, built only for the refits that take one.
  const auto phi_k = [&] {
    const std::size_t k = res.support.size();
    return Matrix::from_rows(k, m, std::span(phi_cols).first(k * m))
        .transpose();
  };

  // "ols" and "gls" refits go through the incremental factorization,
  // which factors the store's columns past the ones it already holds:
  // only the new batch (O(mk) per new column), or none after an undo.
  // The noise model is fixed for the whole solve (under MAD screening it
  // is the screened one), so GLS whitens y and the row weights once,
  // here.  Custom registry solvers and "bp" keep their own path; a
  // numerically dependent support falls back to the registry solver,
  // then ridge.
  std::optional<CachedRefit> cached;
  if (refit->name() == "ols" || refit->name() == "gls") {
    cached.emplace(meas.values,
                   refit->name() == "gls" ? refit_ctx.noise_stddev
                                          : std::span<const double>{},
                   k_budget);
  }
  std::size_t cache_cols_reused = 0;
  // BP refits thread the previous refit's optimal basis into the next
  // solve: the previous support of size kp is a prefix of the new one of
  // size k, so every old basis column still exists in the new
  // [phi_k, -phi_k] universe, shifted past the k - kp new atoms on each
  // side, and the old vertex stays primal feasible for the unchanged y —
  // the warm-started simplex skips phase 1 outright.  While the support
  // is still too small to span y the LP is infeasible; the ridge
  // fallback covers those early rounds.
  const bool bp_refit =
      refit->name() == "bp" || refit->name() == "basis_pursuit";
  std::size_t bp_prev_k = 0;
  std::vector<std::size_t> bp_prev_basis;
  const auto fresh_fit = [&]() -> Vector {
    const Matrix a = phi_k();
    if (bp_refit) {
      const std::size_t k = res.support.size();
      BasisPursuitOptions bo;
      bo.lp.cancel = opts.cancel;
      // Basis ids run over +phi_k, then -phi_k, then the row artificials.
      for (std::size_t& id : bp_prev_basis) {
        if (id >= bp_prev_k) {
          id += (id < 2 * bp_prev_k ? 1 : 2) * (k - bp_prev_k);
        }
      }
      bo.lp.warm_basis = std::move(bp_prev_basis);
      const BpSolution bp = bp_solve(a, meas.values, bo);
      bp_prev_basis.clear();
      if (bp.status == LpStatus::kOptimal) {
        bp_prev_k = k;
        bp_prev_basis = bp.basis;
        if (obs::attached()) obs::add_counter("cs.chs.bp_refits");
        return bp.solution.coefficients;
      }
    } else {
      try {
        return refit->solve(a, meas.values, refit_ctx).coefficients;
      } catch (const std::runtime_error&) {
        // rank-deficient: the ridge fit below
      }
    }
    const double scale = std::max(a.frobenius_norm(), 1e-12);
    return solve_ridge(a, meas.values, 1e-8 * scale * scale);
  };
  // (e) the refit into coef_on_support[0, |J|), a per-solve buffer in
  // J's selection order, through the cache or else the fresh fit; then
  // (f) the measurement-domain residual y - sum_t coef[t] phi~_t.
  // prev_coeffs holds the coefficients before the last batch.
  Vector coef_on_support(k_budget);
  Vector prev_coeffs(k_budget);
  Vector residual = meas.values;  // e_r = x_S initially
  const auto refit_residual = [&] {
    const std::size_t k = res.support.size();
    const std::span<double> coef = std::span(coef_on_support).first(k);
    if (cached && cached->solve(std::span(phi_cols).first(k * m), coef)) {
      cache_cols_reused += cached->reused_columns();
    } else {
      const Vector fit = fresh_fit();
      std::copy(fit.begin(), fit.end(), coef.begin());
    }
    residual.assign(meas.values.begin(), meas.values.end());
    for (std::size_t t = 0; t < k; ++t) {
      linalg::axpy(-coef[t], phi_col(t), residual);
    }
  };

  const double xs_norm = std::max(norm2(meas.values), 1e-300);
  double prev_res_norm = norm2(residual);
  // Per-solve buffers: an iteration's analyze, batch pick and rollback
  // copies reuse them instead of allocating.
  Vector alpha_r(n);
  std::vector<std::size_t> candidates;
  Vector prev_residual;

  // Warm start: seed the support with the caller's prior (deduplicated,
  // clipped to the budget, sorted by index as a batch is) and refit once
  // so the first iteration already works on the warm residual.
  if (!opts.initial_support.empty()) {
    for (std::size_t j : opts.initial_support) {
      if (j >= n) {
        throw std::invalid_argument(
            "chs_reconstruct: initial support index out of range");
      }
      if (!in_support[j] && candidates.size() < k_budget) {
        in_support[j] = 1;
        candidates.push_back(j);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const std::size_t j : candidates) append_atom(j);
    if (!res.support.empty()) {
      refit_residual();
      prev_res_norm = norm2(residual);
    }
  }

  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    if (poll_cancelled(opts.cancel)) break;
    if (norm2(residual) <= opts.residual_tol * xs_norm) break;
    if (res.support.size() >= k_budget) break;
    ++res.iterations;

    // (a)+(b) Upsilon then analyze — representation-specific, see the
    // view comments above.
    view.analyze(residual, upsilon, alpha_r);

    // (c) pick significant, not-yet-selected coefficients: the top-`take`
    // set by |alpha_r|, exactly the set a full sort would keep, sorted by
    // index so that J's order depends on that set alone.
    const std::size_t kp = res.support.size();
    const std::size_t take =
        pick_batch(alpha_r, in_support, opts.significance,
                   std::min(opts.coeffs_per_iter, k_budget - kp), candidates);
    if (take == 0) break;

    // (d) grow J (tentatively — rolled back if the batch buys nothing).
    prev_coeffs.swap(coef_on_support);
    prev_residual.swap(residual);
    for (std::size_t i = 0; i < take; ++i) append_atom(candidates[i]);

    // (e)+(f) refit on the support via the cache or the registry solver.
    refit_residual();

    const double res_norm = norm2(residual);
    if (prev_res_norm - res_norm <
        opts.min_improvement * std::max(prev_res_norm, 1e-300)) {
      // The batch no longer reduces the residual meaningfully: undo it and
      // stop rather than fit sampling noise (Section 4's epsilon_c guard).
      for (std::size_t i = kp; i < res.support.size(); ++i) {
        in_support[res.support[i]] = 0;
      }
      res.support.resize(kp);
      coef_on_support.swap(prev_coeffs);
      residual.swap(prev_residual);
      break;
    }
    prev_res_norm = res_norm;
    // Residual trajectory: one observation per accepted batch, relative
    // to ||x_S|| so campaigns of different scale share one histogram.
    obs::observe("cs.chs.residual_trajectory", res_norm / xs_norm);
  }

  // J ascending, each coefficient carried with its atom.
  for (std::size_t i = 0; i < res.support.size(); ++i) {
    res.coefficients[res.support[i]] = coef_on_support[i];
  }
  std::sort(res.support.begin(), res.support.end());
  for (std::size_t i = 0; i < res.support.size(); ++i) {
    coef_on_support[i] = res.coefficients[res.support[i]];
  }
  res.residual_norm = norm2(residual);
  obs::fr_record(obs::FrEvent::kSolverSolve,
                 static_cast<std::uint32_t>(res.support.size()),
                 res.residual_norm / xs_norm);
  if (obs::attached()) {
    obs::add_counter("cs.chs.solves");
    obs::add_counter("cs.chs.iterations",
                     static_cast<double>(res.iterations));
    if (cache_cols_reused > 0) {
      obs::add_counter("cs.chs.refit_cols_reused",
                       static_cast<double>(cache_cols_reused));
    }
    obs::observe("cs.chs.residual_rel", res.residual_norm / xs_norm);
    obs::observe("cs.chs.support_size",
                 static_cast<double>(res.support.size()));
  }

  // Step 4: x_hat = Phi_K alpha_K.
  res.reconstruction.resize(n);
  basis.synthesize_into(res.support,
                        std::span(coef_on_support).first(res.support.size()),
                        res.reconstruction);
  return res;
}

}  // namespace

// Validation and MAD screening ahead of the core loop; screening happens
// at most once (the screened sub-measurement goes straight to the core).
ChsResult chs_reconstruct(const linalg::Basis& basis, const Measurement& meas,
                          const ChsOptions& opts) {
  if (meas.plan.signal_size() != basis.size()) {
    throw std::invalid_argument("chs_reconstruct: plan/basis size mismatch");
  }
  const std::size_t m = meas.plan.measurement_count();
  if (meas.values.size() != m) {
    throw std::invalid_argument("chs_reconstruct: measurement size mismatch");
  }
  if (opts.refit_solver == "gls" && meas.noise.size() != m) {
    throw std::invalid_argument("chs_reconstruct: noise model size mismatch");
  }

  if (opts.mad_threshold > 0.0) {
    std::size_t rejected = 0;
    if (auto screened = mad_screen(meas, opts.mad_threshold, &rejected)) {
      ChsOptions inner = opts;
      inner.mad_threshold = 0.0;
      ChsResult res = chs_core(basis, *screened, inner);
      res.outliers_rejected = rejected;
      res.degraded = true;
      if (obs::attached()) {
        obs::add_counter("cs.chs.outliers_rejected",
                         static_cast<double>(rejected));
        obs::add_counter("cs.chs.degraded_solves");
      }
      return res;
    }
  }
  return chs_core(basis, meas, opts);
}

ChsResult chs_reconstruct(const Matrix& basis, const Measurement& meas,
                          const ChsOptions& opts) {
  return chs_reconstruct(linalg::Basis::borrow(basis), meas, opts);
}

}  // namespace sensedroid::cs
