// The matrix-free factored basis and tie-exact batch selection, each
// against the code it replaced.  A factored linalg::Basis holds only its
// 1-D factors: it runs Phi^T u as two factor products, with the dense
// transpose_times sweep over dct2_basis as its oracle, to rounding, and
// forms every gathered entry, sampled column and synthesis term from the
// factors, with dct2_basis's entries as their oracle, bit for bit.
// cs::select_batch picks the batch without a full sort; the full sort,
// kept in tests/support, is its oracle, exactly, ties included.  A basis
// without factors must still take the generic sweep bit for bit, and CHS
// with factors must select the same atoms as CHS on the dense matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cs/chs.h"
#include "cs/measurement.h"
#include "field/generators.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"
#include "support/selection_oracle.h"

namespace sc = sensedroid::cs;
namespace sf = sensedroid::field;
namespace sl = sensedroid::linalg;
namespace ts = sensedroid::test_support;

namespace {

using sl::Matrix;
using sl::Vector;

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

Vector draw_u(std::size_t n, sl::Rng& rng) {
  Vector u(n);
  const double scale = rng.bernoulli(0.5) ? 1.0 : 1e3;
  for (double& x : u) x = rng.gaussian(0.0, scale);
  // Zero-fill residuals: most grid points exactly zero.
  if (rng.bernoulli(0.3)) {
    for (double& x : u) {
      if (rng.bernoulli(0.7)) x = 0.0;
    }
  }
  return u;
}

}  // namespace

// ----------------------------------------------------- factored Phi^T u --

TEST(SeparableAnalyze, FactoredMatchesDenseSweep) {
  constexpr int kDraws = 1200;
  sl::Rng rng(20261018);
  std::size_t square = 0, non_square = 0, odd = 0, row = 0, column = 0;
  for (int d = 0; d < kDraws; ++d) {
    std::size_t w = 0, h = 0;
    switch (rng.uniform_index(5)) {
      case 0: w = h = 1 + rng.uniform_index(16); break;
      case 1:
        w = 1 + rng.uniform_index(16);
        h = 1 + rng.uniform_index(16);
        break;
      case 2: w = 12; h = 10; break;
      case 3: w = 1; h = 1 + rng.uniform_index(40); break;
      default: w = 1 + rng.uniform_index(40); h = 1; break;
    }
    square += w == h;
    non_square += w != h;
    odd += (w & (w - 1)) != 0 || (h & (h - 1)) != 0;
    row += w == 1 && h > 1;
    column += h == 1 && w > 1;
    const sl::Basis basis = sl::dct2_factored(w, h);
    ASSERT_TRUE(basis.factored());
    const std::size_t n = w * h;
    const Vector u = draw_u(n, rng);
    const Vector want = sl::dct2_basis(w, h).transpose_times(u);
    // Dirty buffers: the factored path must overwrite, not accumulate.
    Vector got(n, std::numeric_limits<double>::quiet_NaN());
    Vector scratch(n, std::numeric_limits<double>::quiet_NaN());
    basis.analyze_into(u, got, scratch);
    ASSERT_LE(max_abs_diff(got, want), 1e-12 * std::max(sl::norm2(u), 1e-300))
        << "draw " << d << " " << w << "x" << h;
  }
  EXPECT_GT(square, 0u);
  EXPECT_GT(non_square, 0u);
  EXPECT_GT(odd, 0u);
  EXPECT_GT(row, 0u);
  EXPECT_GT(column, 0u);
}

// Every column of a factored basis at every point is dct2_basis's, bit
// for bit, from a store of 8 (w^2 + h^2) bytes (8 w^2 on a square grid).
TEST(SeparableAnalyze, DenseMatchesDct2BasisBitForBit) {
  for (const auto& [w, h] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 7}, {7, 1}, {8, 8}, {16, 16}, {12, 10}, {5, 9}}) {
    const sl::Basis basis = sl::dct2_factored(w, h);
    const Matrix dense = sl::dct2_basis(w, h);
    std::vector<std::size_t> all(w * h);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    const sl::Basis::Rows sampled = basis.rows(all);
    Vector col(all.size());
    for (const std::size_t j : all) {
      sampled.column_into(j, col);
      EXPECT_TRUE(same_bits(col, dense.col(j))) << w << "x" << h << " " << j;
    }
    EXPECT_EQ(basis.size(), w * h);
    EXPECT_TRUE(basis.dense().empty());
    EXPECT_EQ(basis.outer(), sl::dct_basis(w));
    EXPECT_EQ(basis.inner(), sl::dct_basis(h));
    EXPECT_EQ(basis.state_bytes(),
              (w * w + (w == h ? 0 : h * h)) * sizeof(double));
  }
  EXPECT_EQ(sl::dct2_factored(16, 16).state_bytes(), 2048u);
}

// 1200 seeded grids, square and not, power-of-two sizes and not: every
// matrix-free read of the factored basis holds dct2_basis's bits.  The
// sampled columns are its entries at random rows and columns; the
// synthesis oracle accumulates the dense columns in support order, as
// CHS's synthesis did when it read the dense matrix.
TEST(SeparableAnalyze, MatrixFreeReadsMatchDct2BasisBitForBit) {
  constexpr int kDraws = 1200;
  sl::Rng rng(20261019);
  std::size_t square = 0, non_square = 0, odd = 0;
  for (int d = 0; d < kDraws; ++d) {
    std::size_t w = 0, h = 0;
    switch (rng.uniform_index(4)) {
      case 0: w = h = 1 + rng.uniform_index(16); break;
      case 1: w = 1 + rng.uniform_index(40); h = 1; break;
      case 2: w = 1; h = 1 + rng.uniform_index(40); break;
      default:
        w = 1 + rng.uniform_index(16);
        h = 1 + rng.uniform_index(16);
        break;
    }
    square += w == h;
    non_square += w != h;
    odd += (w & (w - 1)) != 0 || (h & (h - 1)) != 0;
    SCOPED_TRACE("draw " + std::to_string(d) + " " + std::to_string(w) +
                 "x" + std::to_string(h));
    const sl::Basis basis = sl::dct2_factored(w, h);
    const Matrix dense = sl::dct2_basis(w, h);
    const std::size_t n = w * h;
    const auto rows =
        rng.sample_without_replacement(n, 1 + rng.uniform_index(n));
    const auto cols = rng.sample_without_replacement(
        n, 1 + rng.uniform_index(std::min<std::size_t>(n, 24)));

    const sl::Basis::Rows sampled = basis.rows(rows);
    Vector col(rows.size(), std::numeric_limits<double>::quiet_NaN());
    Vector want(rows.size());
    for (const std::size_t j : cols) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        want[i] = dense(rows[i], j);
      }
      sampled.column_into(j, col);
      ASSERT_TRUE(same_bits(col, want));
    }

    const Vector coef = rng.gaussian_vector(cols.size());
    Vector synth(n, std::numeric_limits<double>::quiet_NaN());
    basis.synthesize_into(cols, coef, synth);
    Vector oracle(n, 0.0);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        oracle[i] += dense(i, cols[t]) * coef[t];
      }
    }
    ASSERT_TRUE(same_bits(synth, oracle));
  }
  EXPECT_GT(square, 0u);
  EXPECT_GT(non_square, 0u);
  EXPECT_GT(odd, 0u);
}

TEST(SeparableAnalyze, ValidatesFactorsAndSizes) {
  EXPECT_THROW(sl::Basis::separable(Matrix()), std::invalid_argument);
  EXPECT_THROW(sl::Basis::separable(Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(sl::Basis::separable(sl::dct_basis(3), Matrix(2, 3)),
               std::invalid_argument);
  EXPECT_THROW(sl::dct2_factored(0, 4), std::invalid_argument);
  EXPECT_THROW(sl::Basis(Matrix(2, 3)), std::invalid_argument);
  const Matrix wide(3, 4);
  EXPECT_THROW(sl::Basis::borrow(wide), std::invalid_argument);
  const sl::Basis basis = sl::dct2_factored(4, 3);
  Vector u(12, 1.0), out(12), scratch(12), small(11);
  EXPECT_THROW(basis.analyze_into(small, out, scratch), std::invalid_argument);
  EXPECT_THROW(basis.analyze_into(u, small, scratch), std::invalid_argument);
  EXPECT_THROW(basis.analyze_into(u, out, small), std::invalid_argument);
  const std::vector<std::size_t> rows = {0, 5, 11}, bad = {0, 12};
  const sl::Basis::Rows sampled = basis.rows(rows);
  Vector col(3), short_col(2);
  EXPECT_THROW(sampled.column_into(2, short_col), std::invalid_argument);
  EXPECT_THROW(sampled.column_into(12, col), std::out_of_range);
  EXPECT_THROW(basis.rows(bad), std::out_of_range);
  const Vector coef(3, 1.0);
  EXPECT_THROW(basis.synthesize_into(rows, coef, small), std::invalid_argument);
  EXPECT_THROW(basis.synthesize_into(rows, Vector(2), out),
               std::invalid_argument);
}

// Haar, Gaussian, PCA, the 1-D DCT and a modified separable DCT carry no
// factors, so analyze_into is the generic sweep: bit for bit
// transpose_times, with the scratch buffer never touched.  Building a
// Basis from dct2_basis's own matrix does not recover its factors either.
TEST(SeparableAnalyze, UnfactoredBasisTakesTheGenericSweep) {
  sl::Rng rng(77);
  Matrix traces(12, 16);
  for (std::size_t i = 0; i < traces.rows(); ++i) {
    for (std::size_t j = 0; j < traces.cols(); ++j) {
      traces(i, j) = rng.gaussian();
    }
  }
  Matrix modified = sl::dct2_basis(4, 4);
  for (std::size_t i = 0; i < 16; ++i) modified(i, 15) = modified(i, 0);
  const std::vector<std::pair<std::string, Matrix>> bases = {
      {"haar", sl::haar_basis(16)},
      {"gaussian", sl::gaussian_basis(16, 3)},
      {"pca", sl::pca_basis(traces)},
      {"dct", sl::dct_basis(16)},
      {"dct2", sl::dct2_basis(4, 4)},
      {"dct2-modified", modified},
  };
  for (const auto& [name, dense] : bases) {
    SCOPED_TRACE(name);
    const sl::Basis basis(dense);
    EXPECT_FALSE(basis.factored());
    EXPECT_TRUE(basis.outer().empty());
    for (int rep = 0; rep < 20; ++rep) {
      const Vector u = draw_u(16, rng);
      Vector got(16, std::numeric_limits<double>::quiet_NaN());
      Vector scratch(3, -7.0);  // too short for the factored path
      basis.analyze_into(u, got, scratch);
      EXPECT_TRUE(same_bits(got, dense.transpose_times(u)));
      EXPECT_EQ(scratch, Vector(3, -7.0));
    }
  }
}

// --------------------------------------------------- batch selection ----

TEST(SelectBatch, MatchesFullSortOracle) {
  constexpr int kDraws = 1200;
  sl::Rng rng(20261019);
  std::size_t boundary_ties = 0, inner_ties = 0, pm_pairs = 0,
              take_all = 0, fast = 0;
  for (int d = 0; d < kDraws; ++d) {
    const std::size_t count = 1 + rng.uniform_index(48);
    const std::size_t n = count + rng.uniform_index(24);
    const std::vector<std::size_t> cands =
        rng.sample_without_replacement(n, count);
    Vector alpha(n);
    for (double& a : alpha) a = rng.gaussian();
    std::size_t take = 1 + rng.uniform_index(std::min<std::size_t>(count, 8));
    if (rng.uniform_index(8) == 0) take = count;
    const int mode = static_cast<int>(rng.uniform_index(4));
    if (mode == 1) {
      // Duplicate the magnitude of rank `take` (1-based) onto other
      // candidates with random signs: ties at the boundary.
      std::vector<std::size_t> by_mag = cands;
      std::sort(by_mag.begin(), by_mag.end(), [&](auto a, auto b) {
        return std::abs(alpha[a]) > std::abs(alpha[b]);
      });
      const double mag = std::abs(alpha[by_mag[take - 1]]);
      for (std::size_t c : cands) {
        if (rng.bernoulli(0.3)) alpha[c] = rng.bernoulli(0.5) ? mag : -mag;
      }
    } else if (mode == 2) {
      // +/- pairs: each candidate mirrors a random other one.
      for (std::size_t c : cands) {
        if (rng.bernoulli(0.5)) alpha[c] = -alpha[cands[rng.uniform_index(count)]];
      }
    } else if (mode == 3) {
      // Few levels: ties everywhere, inside the batch and across it.
      for (std::size_t c : cands) {
        alpha[c] = std::copysign(0.5 * static_cast<double>(1 + rng.uniform_index(3)),
                                 rng.bernoulli(0.5) ? 1.0 : -1.0);
      }
    }
    pm_pairs += mode == 2;
    take_all += take == count;

    // Classify the draw on the sorted magnitudes.
    std::vector<double> mags;
    for (std::size_t c : cands) mags.push_back(std::abs(alpha[c]));
    std::sort(mags.begin(), mags.end(), std::greater<>());
    const bool at_boundary = take < count && mags[take - 1] == mags[take];
    boundary_ties += at_boundary;
    fast += take < count && !at_boundary;
    for (std::size_t i = 1; i < take; ++i) {
      if (mags[i - 1] == mags[i]) {
        ++inner_ties;
        break;
      }
    }

    const std::vector<std::size_t> want =
        ts::oracle_select_batch(cands, alpha, take);
    std::vector<std::size_t> got = cands;
    sc::select_batch(got, alpha, take);
    got.resize(take);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got.size(), want.size()) << "draw " << d;
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(std::size_t)))
        << "draw " << d << " count " << count << " take " << take
        << " mode " << mode;
  }
  EXPECT_GT(boundary_ties, 50u);
  EXPECT_GT(inner_ties, 50u);
  EXPECT_GT(pm_pairs, 50u);
  EXPECT_GT(take_all, 50u);
  EXPECT_GT(fast, 200u);
}

TEST(SelectBatch, TakeZeroAndTakeAllLeaveCandidatesAlone) {
  const Vector alpha{3.0, -1.0, 2.0, 5.0};
  std::vector<std::size_t> cands{0, 1, 2, 3};
  sc::select_batch(cands, alpha, 0);
  EXPECT_EQ(cands, (std::vector<std::size_t>{0, 1, 2, 3}));
  sc::select_batch(cands, alpha, 4);
  EXPECT_EQ(cands, (std::vector<std::size_t>{0, 1, 2, 3}));
  sc::select_batch(cands, alpha, 2);
  std::vector<std::size_t> top(cands.begin(), cands.begin() + 2);
  std::sort(top.begin(), top.end());
  EXPECT_EQ(top, (std::vector<std::size_t>{0, 3}));
}

// ------------------------------------------------------- CHS pairs ----

// Over random plans on the campaign's zone shapes, a solve against the
// factored basis and one against its plain dense matrix select the same
// atoms in the same number of iterations.  Same atoms means the same
// refit and synthesis entries, so the reconstructions agree far inside
// the 1e-12 bound.
TEST(SeparableChs, FactorsSelectTheSameAtomsAsTheDenseMatrix) {
  struct Shape {
    std::size_t w, h, m;
  };
  std::size_t draws = 0;
  for (const Shape& s : {Shape{8, 8, 20}, Shape{16, 16, 64}, Shape{12, 10, 30}}) {
    const sl::Basis factored = sl::dct2_factored(s.w, s.h);
    const Matrix dense = sl::dct2_basis(s.w, s.h);
    const std::size_t n = s.w * s.h;
    sl::Rng rng(1000 + n);
    for (int d = 0; d < 40; ++d, ++draws) {
      SCOPED_TRACE(std::to_string(s.w) + "x" + std::to_string(s.h) +
                   " draw " + std::to_string(d));
      const sf::SpatialField truth =
          sf::random_plume_field(s.w, s.h, 1 + rng.uniform_index(3), rng, 20.0);
      auto plan = sc::MeasurementPlan::random(n, s.m, rng);
      auto noise = sc::SensorNoise::heterogeneous(s.m, 0.05, 0.5, rng);
      const sc::Measurement meas =
          sc::measure(truth.flat(), std::move(plan), std::move(noise), rng);
      sc::ChsOptions opts;
      opts.interpolation = static_cast<sc::Interpolation>(d % 3);
      opts.refit_solver = d % 2 == 0 ? "gls" : "ols";
      opts.grid_height = s.h;
      const sc::ChsResult a = sc::chs_reconstruct(factored, meas, opts);
      const sc::ChsResult b = sc::chs_reconstruct(dense, meas, opts);
      ASSERT_EQ(a.support, b.support);
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_LE(max_abs_diff(a.reconstruction, b.reconstruction),
                1e-12 * std::max(sl::norm2(b.reconstruction), 1.0));
    }
  }
  EXPECT_EQ(draws, 120u);
}

// A Basis built from a bare matrix — here the modified separable DCT of
// the cached-refit fallback test — solves exactly as the Matrix overload.
TEST(SeparableChs, UnfactoredBasisSolvesAsTheMatrixOverload) {
  Matrix modified = sl::dct2_basis(8, 8);
  for (std::size_t i = 0; i < 64; ++i) modified(i, 63) = modified(i, 0);
  const sl::Basis basis(modified);
  sl::Rng rng(4242);
  for (int d = 0; d < 20; ++d) {
    const sf::SpatialField truth = sf::random_plume_field(8, 8, 2, rng, 20.0);
    auto plan = sc::MeasurementPlan::random(64, 24, rng);
    auto noise = sc::SensorNoise::heterogeneous(24, 0.05, 0.5, rng);
    const sc::Measurement meas =
        sc::measure(truth.flat(), std::move(plan), std::move(noise), rng);
    sc::ChsOptions opts;
    opts.interpolation = sc::Interpolation::kLinear;
    opts.refit_solver = "gls";
    opts.grid_height = 8;
    const sc::ChsResult a = sc::chs_reconstruct(basis, meas, opts);
    const sc::ChsResult b = sc::chs_reconstruct(modified, meas, opts);
    ASSERT_EQ(a.support, b.support);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_TRUE(same_bits(a.reconstruction, b.reconstruction));
  }
}

// ------------------------------------------------------ Upsilon::apply_into

TEST(UpsilonApplyInto, OverwritesADirtyBufferLikeApply) {
  sl::Rng rng(99);
  for (int d = 0; d < 60; ++d) {
    const std::size_t h = 1 + rng.uniform_index(10), w = 1 + rng.uniform_index(10);
    const std::size_t n = w * h;
    const std::size_t m = 1 + rng.uniform_index(n);
    const auto loc = rng.sample_without_replacement(n, m);
    const auto kind = static_cast<sc::Interpolation>(d % 3);
    const sc::Upsilon upsilon(loc, n, d % 2 == 0 ? h : 0, kind);
    const Vector v = rng.gaussian_vector(m);
    Vector got(n, std::numeric_limits<double>::quiet_NaN());
    upsilon.apply_into(v, got);
    EXPECT_TRUE(same_bits(got, upsilon.apply(v))) << "draw " << d;
    Vector wrong(n + 1);
    EXPECT_THROW(upsilon.apply_into(v, wrong), std::invalid_argument);
  }
}
