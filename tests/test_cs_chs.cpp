// Tests for the Compressive Heterogeneous Sensing loop (Fig. 6) and the
// error decomposition of Section 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cs/chs.h"
#include "cs/error_model.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"
#include "support/selection_oracle.h"
#include "support/upsilon_oracle.h"

namespace sc = sensedroid::cs;
namespace sl = sensedroid::linalg;

namespace {

// Sparse-in-DCT test signal of size n with k active coefficients.
sl::Vector sparse_dct_signal(std::size_t n, std::size_t k, sl::Rng& rng,
                             const sl::Matrix& basis) {
  sl::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n / 2, k)) {
    // Concentrate support in the low frequencies like physical fields do.
    alpha[j] = rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  return sl::synthesize(basis, alpha);
}

// True when some grid point has two samples at its smallest distance
// (Euclidean on the column-stacked grid when height > 0, |g - l| else),
// so Upsilon's tie rule decides which sample it picks.
bool has_equidistant_nearest(const std::vector<std::size_t>& loc,
                             std::size_t n, std::size_t height) {
  for (std::size_t g = 0; g < n; ++g) {
    std::size_t best = SIZE_MAX, count = 0;
    for (const std::size_t l : loc) {
      std::size_t d2;
      if (height == 0) {
        d2 = l > g ? l - g : g - l;
      } else {
        const std::size_t di = std::max(l % height, g % height) -
                               std::min(l % height, g % height);
        const std::size_t dj = std::max(l / height, g / height) -
                               std::min(l / height, g / height);
        d2 = di * di + dj * dj;
      }
      if (d2 < best) {
        best = d2;
        count = 1;
      } else if (d2 == best) {
        ++count;
      }
    }
    if (count > 1) return true;
  }
  return false;
}

bool same_bits(const sl::Vector& a, const sl::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

// ----------------------------------------------------- interpolation ----

TEST(Interpolation, ZeroFillPlacesValuesOnly) {
  sl::Vector v{1.0, 2.0};
  std::vector<std::size_t> loc{1, 3};
  auto g = sc::interpolate_to_grid(v, loc, 5, sc::Interpolation::kZeroFill);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.0);
  EXPECT_DOUBLE_EQ(g[3], 2.0);
  EXPECT_DOUBLE_EQ(g[4], 0.0);
}

TEST(Interpolation, NearestCopiesClosestSample) {
  sl::Vector v{1.0, 5.0};
  std::vector<std::size_t> loc{0, 4};
  auto g = sc::interpolate_to_grid(v, loc, 5, sc::Interpolation::kNearest);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
  EXPECT_DOUBLE_EQ(g[3], 5.0);
  EXPECT_DOUBLE_EQ(g[4], 5.0);
}

TEST(Interpolation, LinearInterpolatesBetweenSamples) {
  sl::Vector v{0.0, 4.0};
  std::vector<std::size_t> loc{0, 4};
  auto g = sc::interpolate_to_grid(v, loc, 5, sc::Interpolation::kLinear);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
  EXPECT_DOUBLE_EQ(g[2], 2.0);
  EXPECT_DOUBLE_EQ(g[3], 3.0);
}

TEST(Interpolation, LinearExtrapolatesFlat) {
  sl::Vector v{2.0, 6.0};
  std::vector<std::size_t> loc{2, 4};
  auto g = sc::interpolate_to_grid(v, loc, 8, sc::Interpolation::kLinear);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
  EXPECT_DOUBLE_EQ(g[7], 6.0);
}

TEST(Interpolation, ValidatesSizes) {
  sl::Vector v{1.0};
  std::vector<std::size_t> loc{1, 2};
  EXPECT_THROW(
      sc::interpolate_to_grid(v, loc, 5, sc::Interpolation::kLinear),
      std::invalid_argument);
}

TEST(Interpolation, RejectsOutOfRangeLocation) {
  const sl::Vector v{1.0, 2.0};
  const std::vector<std::size_t> loc{1, 5};  // 5 is off a 5-point grid
  for (const auto kind : {sc::Interpolation::kZeroFill,
                          sc::Interpolation::kNearest,
                          sc::Interpolation::kLinear}) {
    EXPECT_THROW(sc::interpolate_to_grid(v, loc, 5, kind),
                 std::invalid_argument);
    // 4x4 grid: location 16 would be column 4 of a 4-column field.
    const std::vector<std::size_t> loc2d{3, 16};
    EXPECT_THROW(sc::interpolate_to_grid_2d(v, loc2d, 16, 4, kind),
                 std::invalid_argument);
  }
}

TEST(Interpolation, RejectsUnsortedLocations) {
  const sl::Vector v{1.0, 2.0};
  for (const auto& loc : {std::vector<std::size_t>{3, 1},
                          std::vector<std::size_t>{2, 2}}) {
    for (const auto kind : {sc::Interpolation::kZeroFill,
                            sc::Interpolation::kNearest,
                            sc::Interpolation::kLinear}) {
      EXPECT_THROW(sc::interpolate_to_grid(v, loc, 5, kind),
                   std::invalid_argument);
      EXPECT_THROW(sc::interpolate_to_grid_2d(v, loc, 16, 4, kind),
                   std::invalid_argument);
    }
  }
}

// Differential check of the stencil against the from-scratch Upsilon
// kept in test support: every seeded draw must match bit for bit, for
// all kinds, 1-D and 2-D, degenerate sample counts and grid shapes, and
// grid points equidistant from several samples.  Each stencil is applied
// to several value vectors, as CHS applies it to every residual.
TEST(Interpolation, StencilMatchesOracleBitForBit) {
  namespace ts = sensedroid::test_support;
  constexpr int kDraws = 1200;
  sl::Rng rng(20240517);
  std::size_t m_one = 0, m_small = 0, m_full = 0;
  std::size_t height_one = 0, height_n = 0, non_square = 0, ties = 0;
  for (int d = 0; d < kDraws; ++d) {
    const bool two_d = rng.bernoulli(0.5);
    std::size_t n = 0, height = 0;
    if (two_d) {
      const std::size_t width = 1 + rng.uniform_index(12);
      height = 1 + rng.uniform_index(12);
      n = width * height;
      height_one += height == 1;
      height_n += width == 1;
      non_square += width != height;
    } else {
      n = 1 + rng.uniform_index(64);
    }
    std::size_t m = 0;
    switch (rng.uniform_index(4)) {
      case 0: m = 1; break;
      case 1: m = 1 + rng.uniform_index(std::min<std::size_t>(n, 3)); break;
      case 2: m = n; break;
      default: m = 1 + rng.uniform_index(n); break;
    }
    m_one += m == 1;
    m_small += m < 4;
    m_full += m == n;
    const auto loc = rng.sample_without_replacement(n, m);
    const auto kind = static_cast<sc::Interpolation>(rng.uniform_index(3));
    if (kind != sc::Interpolation::kZeroFill) {
      ties += has_equidistant_nearest(loc, n, height);
    }

    const sc::Upsilon upsilon(loc, n, height, kind);
    for (int rep = 0; rep < 3; ++rep) {
      sl::Vector v(m);
      for (double& x : v) {
        // Small integers and signed zeros, then two scales of gaussians.
        x = rep == 0 ? std::copysign(static_cast<double>(rng.uniform_index(3)),
                                     rng.bernoulli(0.5) ? 1.0 : -1.0)
                     : rng.gaussian(0.0, rep == 1 ? 1.0 : 1e3);
      }
      const auto want =
          two_d ? ts::oracle_interpolate_to_grid_2d(v, loc, n, height, kind)
                : ts::oracle_interpolate_to_grid(v, loc, n, kind);
      const auto got = upsilon.apply(v);
      const auto wrapped =
          two_d ? sc::interpolate_to_grid_2d(v, loc, n, height, kind)
                : sc::interpolate_to_grid(v, loc, n, kind);
      ASSERT_TRUE(same_bits(got, want))
          << "draw " << d << " rep " << rep << " n=" << n << " m=" << m
          << " height=" << height << " kind=" << static_cast<int>(kind);
      ASSERT_TRUE(same_bits(wrapped, want)) << "draw " << d;
    }
  }
  // The draws reach every case the stencil special-cases.
  EXPECT_GT(m_one, 0u);
  EXPECT_GT(m_small, 0u);
  EXPECT_GT(m_full, 0u);
  EXPECT_GT(height_one, 0u);
  EXPECT_GT(height_n, 0u);
  EXPECT_GT(non_square, 0u);
  EXPECT_GT(ties, 0u);
}

// The same differential check on the grids the 2-D kinds run on in a
// campaign: the 16x16 and 8x8 zones, plus shapes whose n is not a
// multiple of the stencil build's block of grid points (5x7, one row,
// one column), at the zones' sampling ratios m = n/4 and m = 20/64 n and
// at uniform m.
TEST(Interpolation, StencilMatchesOracleOnZoneShapes) {
  namespace ts = sensedroid::test_support;
  constexpr int kDraws = 1200;
  sl::Rng rng(20261018);
  std::size_t tails = 0, ties = 0;
  for (int d = 0; d < kDraws; ++d) {
    std::size_t width = 0, height = 0;
    switch (rng.uniform_index(5)) {
      case 0: width = height = 16; break;
      case 1: width = height = 8; break;
      case 2: width = 5; height = 7; break;
      case 3: width = 1 + rng.uniform_index(40); height = 1; break;
      default: width = 1; height = 1 + rng.uniform_index(40); break;
    }
    const std::size_t n = width * height;
    tails += n % 8 != 0;
    std::size_t m = 0;
    switch (rng.uniform_index(3)) {
      case 0: m = n / 4; break;
      case 1: m = n * 20 / 64; break;
      default: m = 1 + rng.uniform_index(n); break;
    }
    m = std::max<std::size_t>(m, 1);
    const auto loc = rng.sample_without_replacement(n, m);
    const auto kind = rng.bernoulli(0.5) ? sc::Interpolation::kLinear
                                         : sc::Interpolation::kNearest;
    ties += has_equidistant_nearest(loc, n, height);

    const sc::Upsilon upsilon(loc, n, height, kind);
    for (int rep = 0; rep < 2; ++rep) {
      sl::Vector v(m);
      for (double& x : v) x = rng.gaussian(0.0, rep == 0 ? 1.0 : 1e3);
      const auto want =
          ts::oracle_interpolate_to_grid_2d(v, loc, n, height, kind);
      ASSERT_TRUE(same_bits(upsilon.apply(v), want))
          << "draw " << d << " rep " << rep << " " << height << "x" << width
          << " m=" << m << " kind=" << static_cast<int>(kind);
    }
  }
  EXPECT_GT(tails, 0u);
  EXPECT_GT(ties, 0u);
}

// The 2-D scan runs on 16-bit lanes while every squared distance on the
// grid is below INT16_MAX (and m is too), else on doubles.  Shapes on
// both sides of that line: 128x128 (largest d2 2 * 127^2 = 32258) and
// 129x129 (32768), one column of height 182 (181^2 = 32761) and 183
// (33124), and the 64x64 zone at m = 512.  A plan packed into the first
// grid points leaves the far corner at the largest distance the shape
// has, which an overflowing lane would get wrong.  The oracle is O(N M),
// so the large shapes take few draws.
TEST(Interpolation, StencilMatchesOracleAcrossLaneWidths) {
  namespace ts = sensedroid::test_support;
  struct Shape {
    std::size_t height, width, m;
  };
  const Shape shapes[] = {{128, 128, 96}, {129, 129, 96}, {182, 1, 24},
                          {183, 1, 24},   {64, 64, 512}};
  sl::Rng rng(20261019);
  for (const Shape& shape : shapes) {
    const std::size_t n = shape.height * shape.width;
    for (const auto kind :
         {sc::Interpolation::kLinear, sc::Interpolation::kNearest}) {
      for (int plan = 0; plan < 3; ++plan) {
        // Packed into the first grid points, one sample, or uniform.
        std::vector<std::size_t> loc;
        if (plan == 0) {
          for (std::size_t s = 0; s < 5; ++s) loc.push_back(s);
        } else if (plan == 1) {
          loc.push_back(rng.uniform_index(n));
        } else {
          loc = rng.sample_without_replacement(n, shape.m);
        }
        const sc::Upsilon upsilon(loc, n, shape.height, kind);
        sl::Vector v(loc.size());
        for (double& x : v) x = rng.gaussian(0.0, 1.0);
        const auto want = ts::oracle_interpolate_to_grid_2d(
            v, loc, n, shape.height, kind);
        ASSERT_TRUE(same_bits(upsilon.apply(v), want))
            << shape.height << "x" << shape.width << " m=" << loc.size()
            << " plan " << plan << " kind=" << static_cast<int>(kind);
      }
    }
  }
}

// ------------------------------------------------------ batch pick ----

// Differential check of step (c) against the oracle that keeps it as it
// ran with a full sort.  Draws quantize alpha so exact ties fall at and
// inside the batch boundary, and mix in +/- pairs, zeros, NaNs and
// infinities; supports run from empty through all atoms but one to all
// atoms; significance is 0, 0.1, 1, above 1 or negative; want runs 1..8,
// at and past the eligible count.  One batch buffer serves every draw,
// as one serves every iteration of a solve.
TEST(PickBatch, MatchesStepCOracle) {
  namespace ts = sensedroid::test_support;
  constexpr int kDraws = 1200;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  sl::Rng rng(20261020);
  std::vector<std::size_t> batch;
  std::size_t boundary_ties = 0, inside_ties = 0, want_covers = 0;
  std::size_t stops = 0, with_nan = 0;
  std::size_t empty_support = 0, all_but_one = 0, full_support = 0;
  for (int d = 0; d < kDraws; ++d) {
    const std::size_t n = 1 + rng.uniform_index(64);
    const bool quantized = rng.bernoulli(0.6);
    sl::Vector alpha(n);
    for (double& a : alpha) {
      a = quantized ? static_cast<double>(rng.uniform_index(4)) * 0.25
                    : rng.gaussian(0.0, 1.0);
      if (rng.bernoulli(0.5)) a = -a;
    }
    for (std::size_t j = 1; j < n; ++j) {
      if (rng.bernoulli(0.1)) alpha[j] = -alpha[j - 1];  // a +/- pair
      if (rng.bernoulli(0.05)) alpha[j] = 0.0;
    }
    if (rng.bernoulli(0.2)) {
      alpha[rng.uniform_index(n)] = rng.bernoulli(0.5) ? kNaN : -kNaN;
      ++with_nan;
    }
    if (rng.bernoulli(0.03)) alpha[rng.uniform_index(n)] = -kInf;

    std::vector<std::uint8_t> in_support(n, 0);
    std::size_t support = 0;
    switch (rng.uniform_index(4)) {
      case 0: support = 0; break;
      case 1: support = n - 1; break;
      case 2: support = rng.bernoulli(0.2) ? n : 0; break;
      default: support = rng.uniform_index(n); break;
    }
    for (const std::size_t j : rng.sample_without_replacement(n, support)) {
      in_support[j] = 1;
    }
    empty_support += support == 0;
    all_but_one += n > 1 && support == n - 1;
    full_support += support == n;

    constexpr double kSignificance[] = {0.0, 0.1, 1.0, 1.5, -0.5};
    const double significance = kSignificance[rng.uniform_index(5)];
    const std::size_t want = 1 + rng.uniform_index(8);

    const auto expected =
        ts::oracle_pick_batch(alpha, in_support, significance, want);
    const std::size_t take =
        sc::pick_batch(alpha, in_support, significance, want, batch);
    ASSERT_EQ(take, expected.size()) << "draw " << d;
    if (take > 0) {
      ASSERT_EQ(0, std::memcmp(batch.data(), expected.data(),
                               take * sizeof(std::size_t)))
          << "draw " << d << " n=" << n << " want=" << want;
    }

    // Which case the draw reached, read off the full sort's magnitudes.
    double max_mag = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_support[j]) max_mag = std::max(max_mag, std::abs(alpha[j]));
    }
    std::vector<double> eligible;
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_support[j] && std::abs(alpha[j]) >= significance * max_mag) {
        eligible.push_back(std::abs(alpha[j]));
      }
    }
    std::sort(eligible.begin(), eligible.end(), std::greater<>());
    stops += take == 0;
    want_covers += max_mag > 0.0 && want >= eligible.size();
    boundary_ties += take > 0 && take < eligible.size() &&
                     eligible[take - 1] == eligible[take];
    for (std::size_t i = 0; i + 1 < take; ++i) {
      if (eligible[i] == eligible[i + 1]) {
        ++inside_ties;
        break;
      }
    }
  }
  EXPECT_GT(boundary_ties, 0u);  // the draws that take the select_batch path
  EXPECT_GT(inside_ties, 0u);
  EXPECT_GT(want_covers, 0u);
  EXPECT_GT(stops, 0u);
  EXPECT_GT(with_nan, 0u);
  EXPECT_GT(empty_support, 0u);
  EXPECT_GT(all_but_one, 0u);
  EXPECT_GT(full_support, 0u);
}

// --------------------------------------------------------------- CHS ----

TEST(Chs, RecoversSparseSignalNoiseFree) {
  const std::size_t n = 128, m = 40, k = 5;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(100);
  auto x = sparse_dct_signal(n, k, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  auto res = sc::chs_reconstruct(basis, meas);
  EXPECT_LT(sl::nrmse(res.reconstruction, x), 1e-6);
  EXPECT_GE(res.iterations, 1u);
}

TEST(Chs, AccuracyImprovesWithMeasurements) {
  // The monotone trend behind Fig. 4.
  const std::size_t n = 256, k = 8;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(101);
  auto x = sparse_dct_signal(n, k, rng, basis);
  double prev_err = 1e9;
  int improvements = 0;
  for (std::size_t m : {12u, 24u, 48u, 96u}) {
    sl::Rng plan_rng(300 + m);
    auto plan = sc::MeasurementPlan::random(n, m, plan_rng);
    auto meas = sc::measure_exact(x, plan);
    auto res = sc::chs_reconstruct(basis, meas);
    const double err = sl::nrmse(res.reconstruction, x);
    if (err < prev_err) ++improvements;
    prev_err = err;
  }
  EXPECT_GE(improvements, 3);
}

TEST(Chs, GlsBeatsOlsUnderHeterogeneousNoise) {
  const std::size_t n = 128, m = 48, k = 4;
  auto basis = sl::dct_basis(n);
  double ols_total = 0.0, gls_total = 0.0;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    sl::Rng rng(200 + trial);
    auto x = sparse_dct_signal(n, k, rng, basis);
    auto plan = sc::MeasurementPlan::random(n, m, rng);
    // Wildly heterogeneous phone quality.
    auto noise = sc::SensorNoise::heterogeneous(m, 0.001, 1.0, rng);
    auto meas = sc::measure(x, plan, noise, rng);
    sc::ChsOptions ols_opts;
    ols_opts.max_support = k;
    ols_opts.refit_solver = "ols";
    sc::ChsOptions gls_opts = ols_opts;
    gls_opts.refit_solver = "gls";
    ols_total += sl::nrmse(sc::chs_reconstruct(basis, meas, ols_opts)
                               .reconstruction, x);
    gls_total += sl::nrmse(sc::chs_reconstruct(basis, meas, gls_opts)
                               .reconstruction, x);
  }
  EXPECT_LT(gls_total, ols_total);
}

TEST(Chs, RespectsSupportBudget) {
  const std::size_t n = 64, m = 32;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(110);
  auto x = sparse_dct_signal(n, 10, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  sc::ChsOptions opts;
  opts.max_support = 3;
  auto res = sc::chs_reconstruct(basis, meas, opts);
  EXPECT_LE(res.support.size(), 3u);
}

TEST(Chs, SupportIsSortedAndCoefficientsConsistent) {
  const std::size_t n = 64, m = 24;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(111);
  auto x = sparse_dct_signal(n, 4, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  auto res = sc::chs_reconstruct(basis, meas);
  for (std::size_t i = 1; i < res.support.size(); ++i) {
    EXPECT_LT(res.support[i - 1], res.support[i]);
  }
  // Off-support coefficients must be zero.
  std::vector<bool> on(n, false);
  for (auto j : res.support) on[j] = true;
  for (std::size_t j = 0; j < n; ++j) {
    if (!on[j]) {
      EXPECT_DOUBLE_EQ(res.coefficients[j], 0.0);
    }
  }
}

TEST(Chs, ZeroSignalGivesZeroReconstruction) {
  const std::size_t n = 32, m = 8;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(112);
  sl::Vector x(n, 0.0);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  auto res = sc::chs_reconstruct(basis, meas);
  EXPECT_LT(sl::norm2(res.reconstruction), 1e-12);
}

TEST(Chs, ValidatesDimensions) {
  auto basis = sl::dct_basis(16);
  sl::Rng rng(113);
  sl::Vector x(8, 1.0);
  auto plan = sc::MeasurementPlan::random(8, 4, rng);
  auto meas = sc::measure_exact(x, plan);
  EXPECT_THROW(sc::chs_reconstruct(basis, meas), std::invalid_argument);
}

TEST(Chs, GlsRefitRejectsMismatchedNoiseModel) {
  // A "gls" refit weights by the noise model, so a model that does not
  // cover every measurement is an error, not a silent unweighted solve.
  const std::size_t n = 32, m = 12;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(114);
  sl::Vector x(n, 1.0);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  meas.noise = sc::SensorNoise::homogeneous(m - 1, 0.1);
  sc::ChsOptions opts;
  opts.refit_solver = "gls";
  EXPECT_THROW(sc::chs_reconstruct(basis, meas, opts), std::invalid_argument);
  // The unweighted refit ignores the model.
  opts.refit_solver = "ols";
  EXPECT_NO_THROW(sc::chs_reconstruct(basis, meas, opts));
}

TEST(Chs, InterpolationChoicesAllRecoverSmoothFields) {
  // Nearest/linear Upsilon pre-smooth the residual, so they are only exact
  // on smooth (low-frequency) fields — the paper's spatial-field case.
  const std::size_t n = 128, m = 48, k = 4;
  auto basis = sl::dct_basis(n);
  for (auto kind : {sc::Interpolation::kZeroFill, sc::Interpolation::kNearest,
                    sc::Interpolation::kLinear}) {
    sl::Rng rng(120);
    sl::Vector alpha(n, 0.0);
    for (std::size_t j : rng.sample_without_replacement(n / 8, k)) {
      alpha[j] = rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    }
    auto x = sl::synthesize(basis, alpha);
    auto plan = sc::MeasurementPlan::random(n, m, rng);
    auto meas = sc::measure_exact(x, plan);
    sc::ChsOptions opts;
    opts.interpolation = kind;
    auto res = sc::chs_reconstruct(basis, meas, opts);
    EXPECT_LT(sl::nrmse(res.reconstruction, x), 0.05)
        << "interpolation kind " << static_cast<int>(kind);
  }
}

// ------------------------------------------------------- error model ----

TEST(ErrorModel, ApproximationErrorDecreasesWithK) {
  const std::size_t n = 64, m = 32;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(130);
  // A compressible (not exactly sparse) signal: decaying spectrum.
  sl::Vector alpha(n);
  for (std::size_t j = 0; j < n; ++j) {
    alpha[j] = std::pow(0.7, static_cast<double>(j)) *
               (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  auto x = sl::synthesize(basis, alpha);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  double prev = 1e18;
  for (std::size_t k = 1; k <= 16; k += 3) {
    auto b = sc::decompose_error(basis, x, plan, 0.0, k);
    EXPECT_LE(b.approximation, prev + 1e-12);
    prev = b.approximation;
  }
}

TEST(ErrorModel, NoiseTermScalesWithSigma) {
  const std::size_t n = 64, m = 24;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(131);
  auto x = sparse_dct_signal(n, 5, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto b1 = sc::decompose_error(basis, x, plan, 0.1, 5);
  auto b2 = sc::decompose_error(basis, x, plan, 0.2, 5);
  EXPECT_NEAR(b2.noise, 2.0 * b1.noise, 1e-9);
  EXPECT_DOUBLE_EQ(b1.approximation, b2.approximation);
}

TEST(ErrorModel, ExactlySparseSignalHasZeroApproxAtTrueK) {
  const std::size_t n = 64, m = 32, k = 5;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(132);
  auto x = sparse_dct_signal(n, k, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto b = sc::decompose_error(basis, x, plan, 0.0, k);
  EXPECT_LT(b.approximation, 1e-10);
  EXPECT_LT(b.conditioning, 1e-8);
}

TEST(ErrorModel, KappaGrowsTowardM) {
  const std::size_t n = 64, m = 16;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(133);
  auto x = sparse_dct_signal(n, 4, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto small = sc::decompose_error(basis, x, plan, 0.0, 2);
  auto big = sc::decompose_error(basis, x, plan, 0.0, m);
  EXPECT_GE(big.kappa, small.kappa);
}

TEST(ErrorModel, ValidatesArguments) {
  const std::size_t n = 16;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(134);
  sl::Vector x(n, 1.0);
  auto plan = sc::MeasurementPlan::random(n, 8, rng);
  EXPECT_THROW(sc::decompose_error(basis, x, plan, 0.0, 0),
               std::invalid_argument);
  EXPECT_THROW(sc::decompose_error(basis, x, plan, 0.0, 9),
               std::invalid_argument);
}

TEST(ErrorModel, OptimalKBalancesTerms) {
  // Compressible signal + noise: optimal K should be interior (neither 1
  // nor M), demonstrating the U-shaped total of Section 4.
  const std::size_t n = 128, m = 32;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(135);
  sl::Vector alpha(n);
  for (std::size_t j = 0; j < n; ++j) {
    alpha[j] = 4.0 * std::pow(0.75, static_cast<double>(j));
  }
  auto x = sl::synthesize(basis, alpha);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto best = sc::optimal_k(basis, x, plan, 0.05);
  EXPECT_GT(best.k, 1u);
  EXPECT_LT(best.k, m);
}
