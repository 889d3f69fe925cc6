// Cached vs fresh step-(e) refit.  CHS refits OLS and diagonal GLS
// through one incremental factorization (cs::CachedRefit): the row
// weights and the whitened y are formed once per solve, and each refit
// receives the support's columns from CHS's per-solve column store and
// whitens only the columns it has not factored yet.  An incrementally
// updated CGS2 QR rounds differently from a fresh Householder QR, so the
// contract is a tolerance: coefficients within 1e-10 relative of
// solve_gls_diag / solve_ols over seeded supports, with columns read
// from a dense matrix and from a factored basis, the two ways CHS's
// basis view reads them.  The fallbacks must still engage: a dependent
// column leaves the cache for the registry solver and then ridge, and a
// MAD-screened solve weights by the screened noise model.  CHS grows its
// support in selection order, so each refit reuses the whole previous
// support, and a BP refit warm-starts from the previous one's basis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cs/chs.h"
#include "cs/least_squares.h"
#include "cs/measurement.h"
#include "cs/solver.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "obs/metrics.h"

namespace sc = sensedroid::cs;
namespace sl = sensedroid::linalg;

namespace {

using sl::Matrix;
using sl::Vector;

constexpr double kRelTol = 1e-10;

double rel_err(const Vector& got, const Vector& want) {
  EXPECT_EQ(got.size(), want.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    num += (got[i] - want[i]) * (got[i] - want[i]);
    den += want[i] * want[i];
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1e-300);
}

// The fresh reference for one support: Householder QR on the selected
// (and, for GLS, whitened) columns, exactly what the registry's "ols" and
// "gls" solvers run.
Vector fresh_refit(const Matrix& phi_rows,
                   const std::vector<std::size_t>& support,
                   std::span<const double> y,
                   std::span<const double> stddev) {
  const Matrix phi_k = phi_rows.select_cols(support);
  return stddev.empty() ? sc::solve_ols(phi_k, y)
                        : sc::solve_gls_diag(phi_k, y, stddev);
}

// The columns of `support` in order, column t at [t m, (t + 1) m).
Vector column_store(const Matrix& phi_rows,
                    const std::vector<std::size_t>& support) {
  const std::size_t m = phi_rows.rows();
  Vector store(support.size() * m);
  for (std::size_t t = 0; t < support.size(); ++t) {
    phi_rows.col_into(support[t], std::span<double>(store).subspan(t * m, m));
  }
  return store;
}

// CachedRefit::solve on a store of whole columns of length m, into a
// new buffer; nullopt when the cache declines.
std::optional<Vector> cached_solve(sc::CachedRefit& cached,
                                   std::span<const double> store,
                                   std::size_t m) {
  Vector coef(store.size() / m);
  if (!cached.solve(store, coef)) return std::nullopt;
  return coef;
}

// How a draw's noise model looks.
enum class Noise { kOls, kPositive, kSomeZero, kAllZero, kTiers };

Vector draw_sigma(Noise noise, std::size_t m, sl::Rng& rng) {
  if (noise == Noise::kOls) return {};
  Vector s(m);
  for (double& v : s) {
    switch (noise) {
      case Noise::kOls:
        break;
      case Noise::kPositive:
        v = rng.uniform(0.05, 2.0);
        break;
      case Noise::kSomeZero:
        v = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.05, 2.0);
        break;
      case Noise::kAllZero:
        v = 0.0;
        break;
      case Noise::kTiers: {
        constexpr double kTier[] = {0.1, 0.5, 1.5};  // phone quality tiers
        v = kTier[rng.uniform_index(3)];
        break;
      }
    }
  }
  return s;
}

TEST(CachedRefit, MatchesFreshRefitOverSeededSupports) {
  constexpr std::size_t kDraws = 1200;
  std::size_t compared = 0, factored_compared = 0, weighted_compared = 0;
  double worst = 0.0;
  for (std::size_t draw = 0; draw < kDraws; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    sl::Rng rng(0x5eed0000 + draw);
    const bool factored_mode = draw % 2 == 1;
    const std::size_t width = 3 + rng.uniform_index(8);   // 3..10
    const std::size_t height = 3 + rng.uniform_index(6);  // 3..8
    const std::size_t n = width * height;
    const bool two_d = rng.bernoulli(0.5);

    // Dense twin of the dictionary; in factored mode the cache reads the
    // factored basis's columns instead, which match it bit for bit (the
    // 1-D DCT is the factored basis of a one-column grid).
    Matrix basis;
    std::optional<sl::Basis> factored;
    if (factored_mode) {
      basis = two_d ? sl::dct2_basis(width, height) : sl::dct_basis(n);
      factored = two_d ? sl::dct2_factored(width, height)
                       : sl::dct2_factored(1, n);
    } else {
      switch (rng.uniform_index(3)) {
        case 0:
          basis = sl::dct2_basis(width, height);
          break;
        case 1:
          basis = sl::dct_basis(n);
          break;
        default:
          basis = sl::gaussian_basis(n, rng.next_u64());
          break;
      }
    }
    const std::size_t m = std::max<std::size_t>(8, n / 3) +
                          rng.uniform_index(n - std::max<std::size_t>(8, n / 3) + 1);
    std::vector<std::size_t> locations = rng.sample_without_replacement(n, m);
    std::sort(locations.begin(), locations.end());
    const Matrix phi_rows = basis.select_rows(locations);
    const Vector y = rng.gaussian_vector(m);
    const auto noise = static_cast<Noise>(draw / 2 % 5);
    const Vector sigma = draw_sigma(noise, m, rng);

    const std::size_t k_max = std::min<std::size_t>(12, m / 2);
    sc::CachedRefit cached(y, sigma, k_max);

    // The support in selection order, its columns at store[t m, (t + 1) m)
    // as CHS's per-solve store holds them.
    std::optional<sl::Basis::Rows> sampled;
    if (factored_mode) sampled.emplace(factored->rows(locations));
    Vector store(k_max * m);
    std::vector<std::size_t> support;
    const auto append = [&](std::size_t j) {
      const std::span<double> out =
          std::span<double>(store).subspan(support.size() * m, m);
      if (sampled) {
        sampled->column_into(j, out);
      } else {
        phi_rows.col_into(j, out);
      }
      support.push_back(j);
    };

    // Batches of 1-4 new atoms, each refit, with an occasional rollback
    // of the last batch.
    std::vector<bool> used(n, false);
    while (support.size() < k_max) {
      const std::size_t take =
          std::min(k_max - support.size(), 1 + rng.uniform_index(4));
      std::vector<std::size_t> extra;
      while (extra.size() < take) {
        const std::size_t j = rng.uniform_index(n);
        if (!used[j]) {
          used[j] = true;
          extra.push_back(j);
        }
      }
      const std::vector<std::size_t> before = support;
      for (const std::size_t j : extra) append(j);
      std::vector<const std::vector<std::size_t>*> refits = {&support};
      if (!before.empty() && rng.bernoulli(0.3)) {
        refits.push_back(&before);  // the batch rolled back: a shorter prefix
      }
      for (const std::vector<std::size_t>* s : refits) {
        const std::optional<Vector> got = cached_solve(
            cached, std::span<const double>(store).first(s->size() * m), m);
        ASSERT_TRUE(got.has_value());
        const double err = rel_err(*got, fresh_refit(phi_rows, *s, y, sigma));
        EXPECT_LE(err, kRelTol);
        worst = std::max(worst, err);
        ++compared;
        if (factored_mode) ++factored_compared;
        if (noise != Noise::kOls && noise != Noise::kAllZero) {
          ++weighted_compared;
        }
      }
    }
  }
  EXPECT_GE(factored_compared, 1200u);
  EXPECT_GE(weighted_compared, 1200u);
  EXPECT_GE(compared, 3000u);
  char worst_text[32];
  std::snprintf(worst_text, sizeof worst_text, "%.3g", worst);
  RecordProperty("worst_rel_err", worst_text);
}

TEST(CachedRefit, AllZeroNoiseIsTheOlsPath) {
  sl::Rng rng(71);
  const Matrix basis = sl::dct2_basis(8, 6);
  std::vector<std::size_t> locations = rng.sample_without_replacement(48, 20);
  std::sort(locations.begin(), locations.end());
  const Matrix phi_rows = basis.select_rows(locations);
  const Vector y = rng.gaussian_vector(20);
  const Vector zeros(20, 0.0);
  EXPECT_TRUE(sc::gls_row_weights(zeros).empty());
  sc::CachedRefit gls(y, zeros, 8);
  sc::CachedRefit ols(y, {}, 8);
  const std::vector<std::size_t> support = {0, 3, 9, 17, 30};
  const Vector store = column_store(phi_rows, support);
  const Vector a = *cached_solve(gls, store, 20);
  const Vector b = *cached_solve(ols, store, 20);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  EXPECT_LE(rel_err(a, sc::solve_ols(phi_rows.select_cols(support), y)),
            kRelTol);
}

TEST(CachedRefit, ZeroNoiseClampsToTheSmallestPositiveSigma) {
  const Vector w = sc::gls_row_weights(Vector{0.5, 0.0, 2.0, 0.0});
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0], 1.0 / 0.5);
  EXPECT_EQ(w[1], 1.0 / 0.5);  // exact sensor: the strongest finite weight
  EXPECT_EQ(w[2], 1.0 / 2.0);
  EXPECT_EQ(w[3], 1.0 / 0.5);
  EXPECT_THROW(sc::CachedRefit(Vector(3, 1.0), Vector(2, 1.0), 2),
               std::invalid_argument);
}

TEST(CachedRefit, DependentColumnDeclinesAndTheFreshPathFallsToRidge) {
  sl::Rng rng(5);
  Matrix phi_rows(16, 6);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 6; ++j) phi_rows(i, j) = rng.gaussian();
    // Column 4 is column 1 scaled, up to a last-bit perturbation.
    phi_rows(i, 4) = 2.0 * phi_rows(i, 1) * (1.0 + 1e-15 * rng.gaussian());
  }
  const Vector y = rng.gaussian_vector(16);
  const Vector sigma = draw_sigma(Noise::kSomeZero, 16, rng);
  sc::CachedRefit cached(y, sigma, 6);
  const std::vector<std::size_t> dependent = {0, 1, 4};
  EXPECT_FALSE(
      cached_solve(cached, column_store(phi_rows, dependent), 16).has_value());
  // The registry solver declines too, which is what sends CHS to ridge.
  EXPECT_THROW(fresh_refit(phi_rows, dependent, y, sigma), std::runtime_error);
  // The cache recovers on the next well-posed support.
  const std::vector<std::size_t> good = {0, 1, 2, 5};
  const std::optional<Vector> got =
      cached_solve(cached, column_store(phi_rows, good), 16);
  ASSERT_TRUE(got.has_value());
  EXPECT_LE(rel_err(*got, fresh_refit(phi_rows, good, y, sigma)), kRelTol);
}

// ------------------------------------------------- through chs_reconstruct

// Registry solvers whose names are not "ols"/"gls", so CHS refits them
// fresh on every support: the pre-cache path, kept as the oracle.
class FreshRefit final : public sc::SparseSolver {
 public:
  explicit FreshRefit(std::string builtin)
      : builtin_(std::move(builtin)),
        name_(builtin_ + "_fresh"),
        inner_(sc::SolverRegistry::global().create(builtin_)) {}
  std::string_view name() const noexcept override { return name_; }
  sc::SparseSolution solve(const Matrix& a, std::span<const double> y,
                           const sc::SolveContext& ctx) const override {
    return inner_->solve(a, y, ctx);
  }

 private:
  std::string builtin_;
  std::string name_;
  std::unique_ptr<sc::SparseSolver> inner_;
};

void register_fresh_solvers() {
  auto& reg = sc::SolverRegistry::global();
  for (const char* builtin : {"ols", "gls"}) {
    const std::string name = std::string(builtin) + "_fresh";
    if (!reg.contains(name)) {
      reg.register_solver(name, [b = std::string(builtin)] {
        return std::make_unique<FreshRefit>(b);
      });
    }
  }
}

// A smooth zone reading plus phone noise, on a random plan.
sc::Measurement draw_measurement(std::size_t width, std::size_t height,
                                 std::size_t m, bool spikes, sl::Rng& rng) {
  const std::size_t n = width * height;
  std::vector<std::size_t> locations = rng.sample_without_replacement(n, m);
  std::sort(locations.begin(), locations.end());
  const double cx = rng.uniform(0.0, static_cast<double>(width));
  const double cy = rng.uniform(0.0, static_cast<double>(height));
  Vector values(m);
  Vector sigma = draw_sigma(Noise::kTiers, m, rng);
  for (std::size_t i = 0; i < m; ++i) {
    if (rng.bernoulli(0.1)) sigma[i] = 0.0;  // an exact sensor
    const double x = static_cast<double>(locations[i] / height);
    const double yy = static_cast<double>(locations[i] % height);
    const double d2 = (x - cx) * (x - cx) + (yy - cy) * (yy - cy);
    values[i] = 20.0 + 10.0 * std::exp(-d2 / 8.0) + sigma[i] * rng.gaussian();
    if (spikes && rng.bernoulli(0.1)) values[i] += 80.0;
  }
  return sc::Measurement{
      sc::MeasurementPlan::from_indices(n, std::move(locations)),
      std::move(values), sc::SensorNoise{std::move(sigma)}};
}

void expect_refits_agree(const sc::ChsResult& cached,
                         const sc::ChsResult& fresh) {
  ASSERT_EQ(cached.support, fresh.support);
  EXPECT_EQ(cached.outliers_rejected, fresh.outliers_rejected);
  EXPECT_EQ(cached.iterations, fresh.iterations);
  EXPECT_LE(rel_err(cached.coefficients, fresh.coefficients), kRelTol);
  EXPECT_LE(rel_err(cached.reconstruction, fresh.reconstruction), kRelTol);
}

// Random zone shapes, then the two campaign shapes: solve-heavy's 16x16
// zone with m = 64 and zones-faulted's 8x8 zone with m = 20 under MAD
// screening; each draw under every Upsilon kind.
TEST(CachedRefit, ChsMatchesFreshRefitsInDenseAndOperatorMode) {
  register_fresh_solvers();
  std::size_t screened = 0, campaign_shapes = 0;
  for (std::size_t draw = 0; draw < 360; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    sl::Rng rng(0xc4500000 + draw);
    std::size_t width = 16, height = 16, m = 64;
    bool mad = draw % 3 == 0;
    bool spikes = mad;
    if (draw < 240) {
      width = 6 + rng.uniform_index(7);   // 6..12
      height = 6 + rng.uniform_index(5);  // 6..10
      const std::size_t n = width * height;
      m = n / 4 + rng.uniform_index(n / 4);
    } else if (draw >= 300) {
      width = height = 8;
      m = 20;
      mad = true;
      spikes = draw % 2 == 0;
    }
    if (draw >= 240) ++campaign_shapes;
    const sc::Measurement meas =
        draw_measurement(width, height, m, spikes, rng);

    const Matrix dense = sl::dct2_basis(width, height);
    const sl::Basis factored = sl::dct2_factored(width, height);
    for (const auto kind :
         {sc::Interpolation::kLinear, sc::Interpolation::kNearest,
          sc::Interpolation::kZeroFill}) {
      SCOPED_TRACE("interpolation " + std::to_string(static_cast<int>(kind)));
      sc::ChsOptions opts;
      opts.interpolation = kind;
      opts.grid_height = height;
      if (mad) opts.mad_threshold = 5.0;
      for (const std::string refit : {"gls", "ols"}) {
        SCOPED_TRACE(refit);
        sc::ChsOptions fresh = opts;
        opts.refit_solver = refit;
        fresh.refit_solver = refit + "_fresh";
        const sc::ChsResult dense_res = sc::chs_reconstruct(dense, meas, opts);
        expect_refits_agree(dense_res,
                            sc::chs_reconstruct(dense, meas, fresh));
        expect_refits_agree(sc::chs_reconstruct(factored, meas, opts),
                            sc::chs_reconstruct(factored, meas, fresh));
        if (dense_res.outliers_rejected > 0) ++screened;
      }
    }
  }
  EXPECT_EQ(campaign_shapes, 120u);
  // Enough screened solves that a GLS refit weighted by the unscreened
  // noise model (one sigma per *unscreened* reading) would have shown.
  EXPECT_GE(screened, 60u);
}

TEST(CachedRefit, ChsWithDuplicateAtomsFallsBackLikeTheFreshPath) {
  register_fresh_solvers();
  const std::size_t width = 8, height = 8, n = 64;
  // The DC atom duplicated into the last column: a plume field's mean
  // picks both in the first batch, so that support is dependent.
  Matrix basis = sl::dct2_basis(width, height);
  for (std::size_t i = 0; i < n; ++i) basis(i, n - 1) = basis(i, 0);
  for (std::size_t draw = 0; draw < 20; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    sl::Rng rng(0xd0b1e000 + draw);
    const sc::Measurement meas = draw_measurement(width, height, 24, false, rng);
    for (const std::string refit : {"gls", "ols"}) {
      sc::ChsOptions opts;
      opts.interpolation = sc::Interpolation::kLinear;
      opts.grid_height = height;
      opts.refit_solver = refit;
      sc::ChsOptions fresh = opts;
      fresh.refit_solver = refit + "_fresh";
      const sc::ChsResult got = sc::chs_reconstruct(basis, meas, opts);
      ASSERT_TRUE(std::binary_search(got.support.begin(), got.support.end(),
                                     std::size_t{0}));
      ASSERT_TRUE(std::binary_search(got.support.begin(), got.support.end(),
                                     n - 1));
      // Both paths refit the dependent supports by the same ridge solve.
      const sc::ChsResult want = sc::chs_reconstruct(basis, meas, fresh);
      ASSERT_EQ(got.support, want.support);
      EXPECT_LE(rel_err(got.coefficients, want.coefficients), kRelTol);
    }
  }
}

// ------------------------------------------------ refits in selection order

// CHS keeps J in selection order, so every refit extends the previous
// support and the cache reuses all of it: cs.chs.refit_cols_reused sums
// the accepted support sizes the refits start from.  A solve cut at t
// iterations is the full solve's first t, so its support is the one
// iteration t's refit starts from.
TEST(ChsRefit, EveryRefitReusesTheWholePreviousSupport) {
  constexpr std::size_t side = 16, m = 64;
  const sl::Basis basis = sl::dct2_factored(side, side);
  std::size_t multi_batch = 0;
  for (std::size_t draw = 0; draw < 6; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    sl::Rng rng(0x5e1ec700 + draw);
    const sc::Measurement meas = draw_measurement(side, side, m, false, rng);
    sc::ChsOptions opts;
    opts.interpolation = sc::Interpolation::kLinear;
    opts.grid_height = side;
    opts.refit_solver = "gls";

    sensedroid::obs::MetricsRegistry reg;
    sensedroid::obs::attach_registry(&reg);
    const sc::ChsResult full = sc::chs_reconstruct(basis, meas, opts);
    sensedroid::obs::attach_registry(nullptr);

    double want = 0.0;
    for (std::size_t t = 1; t < full.iterations; ++t) {
      sc::ChsOptions cut = opts;
      cut.max_iterations = t;
      want += static_cast<double>(
          sc::chs_reconstruct(basis, meas, cut).support.size());
    }
    EXPECT_EQ(reg.counter_value("cs.chs.refit_cols_reused"), want);
    if (full.iterations > 2) ++multi_batch;
  }
  EXPECT_GE(multi_batch, 4u);
}

// The BP refit warm-starts each LP from the previous refit's optimal
// basis, remapped into the grown support.  Every optimal refit of a
// solve after its first one must therefore be accepted as a warm start:
// per solve, warm_starts == bp_refits - 1.
TEST(ChsRefit, BpRefitsWarmStartAfterTheFirstOptimalOne) {
  constexpr std::size_t side = 8, n = side * side, m = 24;
  const Matrix dense = sl::dct2_basis(side, side);
  const sl::Basis basis = sl::dct2_factored(side, side);
  double warm_total = 0.0, refit_total = 0.0;
  std::size_t optimal_solves = 0;
  for (std::size_t draw = 0; draw < 50; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    sl::Rng rng(0xb9000000 + draw);
    Vector alpha(n, 0.0);
    for (const std::size_t j : rng.sample_without_replacement(n, 3)) {
      alpha[j] = rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    }
    const sc::Measurement meas = sc::measure_exact(
        dense * alpha, sc::MeasurementPlan::random(n, m, rng));
    sc::ChsOptions opts;
    opts.refit_solver = "bp";
    opts.interpolation = sc::Interpolation::kZeroFill;
    opts.coeffs_per_iter = 2;
    opts.residual_tol = 0.0;
    opts.min_improvement = 0.0;

    sensedroid::obs::MetricsRegistry reg;
    sensedroid::obs::attach_registry(&reg);
    sc::chs_reconstruct(basis, meas, opts);
    sensedroid::obs::attach_registry(nullptr);
    const double refits = reg.counter_value("cs.chs.bp_refits");
    const double warm = reg.counter_value("cs.simplex.warm_starts");
    EXPECT_EQ(warm, std::max(refits - 1.0, 0.0));
    warm_total += warm;
    refit_total += refits;
    if (refits > 0.0) ++optimal_solves;
  }
  EXPECT_EQ(warm_total, refit_total - static_cast<double>(optimal_solves));
  EXPECT_GE(optimal_solves, 40u);
  EXPECT_GE(warm_total, 50.0);
}

}  // namespace
