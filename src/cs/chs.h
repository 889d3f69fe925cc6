// The paper's core reconstruction routine: "Compressive Heterogeneous
// Sensing" (Fig. 6).  Runs primarily in the brokers, and on nodes for
// temporal context processing.
//
// Per iteration:
//   (a) interpolate the residual from the M sensor locations onto the full
//       N-grid (the function Upsilon: R^M -> R^N),
//   (b) analyze it in the basis (alpha_r = Phi^dagger e_new; Phi
//       orthonormal, so the dagger is the transpose),
//   (c) add the most significant coefficient indices I to the support J,
//   (d) refit alpha_K on the support by OLS (homogeneous sensors, eq. 11)
//       or GLS (heterogeneous sensors, eq. 12),
//   (e) recompute the measurement-domain residual; stop when it is small,
//       the support budget is exhausted, or iterations run out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cs/cancel.h"
#include "cs/measurement.h"
#include "linalg/basis.h"
#include "linalg/matrix.h"

namespace sensedroid::cs {

/// How Upsilon spreads the residual across unsampled grid points.
enum class Interpolation : std::uint8_t {
  kZeroFill,  ///< unsampled points get 0 (pure projection)
  kNearest,   ///< each grid point copies its nearest sampled residual
  kLinear,    ///< linear interpolation between neighboring sampled points
};

struct ChsOptions {
  /// K budget; 0 = half the measurement count.  Keeping K well below M
  /// preserves overdetermination of eq. 7 — at K == M the refit
  /// interpolates the samples exactly and the off-sample reconstruction
  /// is unconstrained (the epsilon_c blow-up of Section 4).
  std::size_t max_support = 0;
  std::size_t coeffs_per_iter = 4;   ///< |I| added per iteration
  std::size_t max_iterations = 64;
  double residual_tol = 1e-6;        ///< stop at ||e_r|| <= tol * ||x_S||
  /// Upsilon choice.  kZeroFill makes step (b) exact matched filtering
  /// (alpha_r = Phi~^T e_r, the OMP correlation step) and is robust for
  /// any spectrum; kNearest/kLinear pre-smooth the residual, which sharpens
  /// atom selection on smooth physical fields but aliases oscillatory ones.
  Interpolation interpolation = Interpolation::kZeroFill;
  /// Registry name of the step-(e) coefficient solver
  /// (SolverRegistry::global()): "ols" (eq. 11, homogeneous sensors),
  /// "gls" (eq. 12, weighted by the measurement's noise model, which must
  /// then have one entry per measurement), or any registered name.
  /// The solve keeps J in selection order (each batch appended, sorted by
  /// index within itself) and sorts it once at the end, so every refit's
  /// support extends the previous one: "ols" and "gls" refits reuse one
  /// incremental factorization (cs::CachedRefit), which factors only each
  /// batch's columns, read from the solve's one store of J's columns;
  /// any other name refits from scratch.
  /// The rank-deficiency fallback to "ridge" applies regardless of choice.
  std::string refit_solver = "ols";
  /// Significance threshold: a coefficient is eligible when its magnitude
  /// is at least this fraction of the current largest one.
  double significance = 0.1;
  /// Stop (and roll the last batch back) when a batch shrinks the
  /// residual by less than this relative factor — the noise-fitting guard.
  double min_improvement = 1e-3;
  /// Warm-start support: coefficient indices seeded into J before the
  /// first iteration (deduplicated, clipped to the budget).  Sequential
  /// spatio-temporal reconstruction passes the previous frame's support
  /// here — fields move slowly, so most of yesterday's atoms are still
  /// right.
  std::vector<std::size_t> initial_support;
  /// When > 0, the signal is the eq.-1 column stacking of a 2-D field of
  /// this height (width = N / grid_height) and Upsilon interpolates in
  /// 2-D: kNearest takes the Euclidean-nearest sample, kLinear an
  /// inverse-distance blend of nearby samples.  Must divide N.
  std::size_t grid_height = 0;
  /// Robust-degrade guard: when > 0, readings whose residual from the
  /// sample median exceeds mad_threshold * 1.4826 * MAD are screened out
  /// before the solve (spiking sensors would otherwise drag the OLS/GLS
  /// refit arbitrarily far).  Applied only with >= 8 measurements and a
  /// nonzero MAD; when anything is rejected the result is flagged
  /// degraded.  0 disables screening (seed behavior).  Typical: 4-6.
  double mad_threshold = 0.0;
  /// Cooperative cancellation, polled once per Fig. 6 iteration; the
  /// reconstruction built so far is returned.  nullptr = never cancel.
  const CancelToken* cancel = nullptr;
};

struct ChsResult {
  Vector reconstruction;              ///< x_hat = Phi_K alpha_K, length N
  Vector coefficients;                ///< full-length alpha (zeros off-support)
  std::vector<std::size_t> support;   ///< J, ascending
  double residual_norm = 0.0;         ///< final ||x_S - Phi~_K alpha_K||
  std::size_t iterations = 0;
  std::size_t outliers_rejected = 0;  ///< readings screened out by MAD
  bool degraded = false;              ///< solved on a screened subset
};

/// Runs the Fig. 6 loop against the N x N synthesis basis Phi.  `meas`
/// carries the plan (locations L), values x_S, and the noise model used
/// by the "gls" refit.  Every basis read goes through linalg::Basis at
/// the sampled locations, so a solve copies no rows of Phi.  A factored
/// basis (the separable 2-D DCT of linalg::dct2_factored) runs step (b)'s
/// Phi^T u as two factor products, O(w h (w + h)) instead of the O(N^2)
/// sweep, and forms the refit columns and the synthesis from its
/// factors, bit for bit the dense matrix's entries; only that analyze
/// rounds differently from the dense sweep (~1e-15 relative), so results
/// match a solve on dct2_basis up to near-exact atom-selection ties.
/// Throws std::invalid_argument on dimension mismatches.
ChsResult chs_reconstruct(const linalg::Basis& basis, const Measurement& meas,
                          const ChsOptions& opts = {});

/// Same, against a bare square matrix, read in place
/// (linalg::Basis::borrow): exactly the solve on a Basis without
/// factors.
ChsResult chs_reconstruct(const Matrix& basis, const Measurement& meas,
                          const ChsOptions& opts = {});

/// The interpolation operator Upsilon as a stencil.  Its geometry depends
/// only on the sample locations, never on the values, so CHS builds it
/// once per solve and applies it to every iteration's residual.  Building
/// costs O(N M) for the 2-D kinds and at most O(N log M) otherwise;
/// apply() does at most four multiply-adds per grid point, in the same
/// order as a from-scratch interpolation, so its output is bit-identical
/// to one.
class Upsilon {
 public:
  /// `height` > 0 selects the 2-D geometry of a column-stacked
  /// height x (n/height) field, 0 the 1-D one.  Throws
  /// std::invalid_argument when height does not divide n, or when the
  /// locations are not strictly ascending and all < n.
  Upsilon(std::span<const std::size_t> locations, std::size_t n,
          std::size_t height, Interpolation kind);

  /// Spreads `values` (one per location) onto the length-n grid.  Throws
  /// std::invalid_argument on a size mismatch.
  Vector apply(std::span<const double> values) const;

  /// apply() into a caller-owned buffer of size n, overwriting it: the
  /// per-iteration form that allocates nothing.
  void apply_into(std::span<const double> values, std::span<double> out) const;

  Interpolation kind() const noexcept { return kind_; }

 private:
  static constexpr std::size_t kSlots = 4;  // neighbours per grid point

  std::size_t n_ = 0;
  Interpolation kind_;
  bool two_d_ = false;
  std::vector<std::size_t> locations_;  // kZeroFill scatters onto these
  // Grid point g copies the sample in slot kSlots g of sample_, or,
  // when blend_[g] is set, blends its slots that have a nonzero weight_.
  std::vector<std::uint8_t> blend_;
  std::vector<std::size_t> sample_;
  std::vector<double> weight_;
  std::vector<double> wsum_;  // 2-D kLinear: sum of g's weights
};

/// Step (c)'s batch choice: of the atoms j with in_support[j] == 0, the
/// `want` largest by |alpha[j]| among those whose |alpha[j]| is at least
/// `significance` times the largest such |alpha| (a NaN is never the
/// largest and never eligible).  Writes the batch ascending by index to
/// batch[0, take) and returns take, the smaller of want and the eligible
/// count; 0 when no atom is eligible or the largest |alpha| is 0.  The
/// set is exactly the first `take` of a full std::sort of the ascending
/// eligible list by descending |alpha|, ties included: one pass keeps
/// the want + 1 largest, and only when the magnitudes at ranks take and
/// take + 1 are equal does it rebuild that list for select_batch.  Entries
/// of `batch` from take on are scratch.
std::size_t pick_batch(std::span<const double> alpha,
                       std::span<const std::uint8_t> in_support,
                       double significance, std::size_t want,
                       std::vector<std::size_t>& batch);

/// pick_batch's tie path.  `candidates` are distinct indices into
/// `alpha`, strictly ascending; on return its first `take` entries hold,
/// in some order, the same set of indices as the first `take` of a full
/// std::sort of the input by descending |alpha| — ties included, because
/// when |alpha| at rank take equals that at rank take + 1 this falls
/// back to exactly that sort.  Otherwise a top-(take + 1) selection picks
/// the set in O(|candidates|) on average.  Entries from `take` on are left in an
/// unspecified order.  take >= |candidates| selects everything.
void select_batch(std::span<std::size_t> candidates,
                  std::span<const double> alpha, std::size_t take);

/// 1-D Upsilon: spreads `values` at strictly ascending `locations` onto a
/// length-n grid.  Throws std::invalid_argument on a size mismatch, a
/// location >= n, or locations out of order.
Vector interpolate_to_grid(std::span<const double> values,
                           std::span<const std::size_t> locations,
                           std::size_t n, Interpolation kind);

/// 2-D Upsilon over a column-stacked height x (n/height) field:
/// kZeroFill as in 1-D; kNearest copies the Euclidean-nearest sample;
/// kLinear blends the four nearest samples by inverse distance.  Throws
/// std::invalid_argument when height does not divide n, and as
/// interpolate_to_grid does.
Vector interpolate_to_grid_2d(std::span<const double> values,
                              std::span<const std::size_t> locations,
                              std::size_t n, std::size_t height,
                              Interpolation kind);

}  // namespace sensedroid::cs
