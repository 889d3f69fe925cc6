// Tests for CoSaMP and IHT, and the non-CS interpolation baselines.
#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/interpolation.h"
#include "cs/greedy_variants.h"
#include "field/generators.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"

namespace sc = sensedroid::cs;
namespace sb = sensedroid::baselines;
namespace sf = sensedroid::field;
namespace sl = sensedroid::linalg;

namespace {

sl::Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  sl::Rng rng(seed);
  sl::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  return a;
}

sl::Vector random_sparse(std::size_t n, std::size_t k, sl::Rng& rng) {
  sl::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  return alpha;
}

}  // namespace

// -------------------------------------------------------------- CoSaMP ----

TEST(Cosamp, RecoversSparseSignalExactly) {
  const std::size_t n = 96, m = 40, k = 5;
  sl::Rng rng(1);
  const auto a = random_matrix(m, n, 2);
  const auto alpha = random_sparse(n, k, rng);
  const auto y = a * alpha;
  const auto sol = sc::cosamp_solve(a, y, {.sparsity = k});
  EXPECT_LT(sl::relative_error(sol.coefficients, alpha), 1e-7);
  EXPECT_EQ(sol.support.size(), k);
}

TEST(Cosamp, RobustToModerateNoise) {
  const std::size_t n = 96, m = 48, k = 4;
  sl::Rng rng(3);
  const auto a = random_matrix(m, n, 4);
  const auto alpha = random_sparse(n, k, rng);
  auto y = a * alpha;
  for (double& v : y) v += rng.gaussian(0.0, 0.05);
  const auto sol = sc::cosamp_solve(a, y, {.sparsity = k});
  EXPECT_LT(sl::relative_error(sol.coefficients, alpha), 0.15);
}

TEST(Cosamp, Validation) {
  sl::Matrix a(4, 8);
  sl::Vector y(4);
  EXPECT_THROW(sc::cosamp_solve(a, y, {.sparsity = 0}),
               std::invalid_argument);
  sl::Vector bad(3);
  EXPECT_THROW(sc::cosamp_solve(a, bad, {.sparsity = 1}),
               std::invalid_argument);
}

TEST(Cosamp, ZeroSignal) {
  const auto a = random_matrix(8, 16, 5);
  sl::Vector y(8, 0.0);
  const auto sol = sc::cosamp_solve(a, y, {.sparsity = 2});
  EXPECT_LT(sl::norm2(sol.coefficients), 1e-12);
}

// With one measurement, K is capped at max(1, M / 2): the pursuit still
// fits one atom instead of iterating on an empty support.
TEST(Cosamp, OneRowDictionaryFitsOneAtom) {
  const auto a = random_matrix(1, 8, 6);
  const sl::Vector y{a(0, 3)};
  const auto sol = sc::cosamp_solve(a, y, {.sparsity = 2});
  EXPECT_EQ(sol.support.size(), 1u);
  EXPECT_LE(sol.residual_norm, 1e-12);
}

// ----------------------------------------------------------------- IHT ----

TEST(Iht, RecoversSparseSignal) {
  const std::size_t n = 96, m = 48, k = 4;
  sl::Rng rng(6);
  const auto a = random_matrix(m, n, 7);
  const auto alpha = random_sparse(n, k, rng);
  const auto y = a * alpha;
  const auto sol = sc::iht_solve(a, y, {.sparsity = k});
  EXPECT_LT(sl::relative_error(sol.coefficients, alpha), 1e-3);
  EXPECT_LE(sol.support.size(), k);
}

TEST(Iht, RespectsSparsityBudget) {
  const std::size_t n = 64, m = 32;
  sl::Rng rng(8);
  const auto a = random_matrix(m, n, 9);
  const auto y = a * random_sparse(n, 10, rng);
  const auto sol = sc::iht_solve(a, y, {.sparsity = 3});
  EXPECT_LE(sl::norm0(sol.coefficients), 3u);
}

TEST(Iht, ExplicitStepWorks) {
  const std::size_t n = 64, m = 32, k = 3;
  sl::Rng rng(10);
  const auto a = random_matrix(m, n, 11);
  const auto alpha = random_sparse(n, k, rng);
  const auto y = a * alpha;
  // A deliberately small (safe) step still converges, just slower.
  const auto sol = sc::iht_solve(a, y, {.sparsity = k,
                                        .max_iterations = 2000,
                                        .step = 1e-3});
  EXPECT_LT(sl::relative_error(sol.coefficients, alpha), 0.05);
}

TEST(Iht, Validation) {
  sl::Matrix a(4, 8);
  sl::Vector y(4);
  EXPECT_THROW(sc::iht_solve(a, y, {.sparsity = 0}), std::invalid_argument);
}

// ----------------------------------- solver agreement on easy instances ----

TEST(SolverAgreement, AllGreedyVariantsAgreeWhenEasy) {
  const std::size_t n = 80, m = 40, k = 4;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    sl::Rng rng(100 + seed);
    const auto a = random_matrix(m, n, 200 + seed);
    const auto alpha = random_sparse(n, k, rng);
    const auto y = a * alpha;
    const auto omp = sc::omp_solve(a, y, {.max_sparsity = k});
    const auto cosamp = sc::cosamp_solve(a, y, {.sparsity = k});
    const auto iht = sc::iht_solve(a, y, {.sparsity = k});
    EXPECT_LT(sl::relative_error(omp.coefficients, alpha), 1e-6);
    EXPECT_LT(sl::relative_error(cosamp.coefficients, alpha), 1e-6);
    EXPECT_LT(sl::relative_error(iht.coefficients, alpha), 1e-2);
  }
}

// ------------------------------------------------ interpolation baselines ----

TEST(Interpolation, IdwReproducesSamples) {
  sl::Rng rng(20);
  const auto truth = sf::random_plume_field(10, 10, 2, rng, 5.0);
  const auto locations = rng.sample_without_replacement(100, 30);
  sl::Vector values;
  for (std::size_t l : locations) values.push_back(truth.flat()[l]);
  const auto rec = sb::idw_reconstruct(values, locations, 10, 10);
  for (std::size_t s = 0; s < locations.size(); ++s) {
    EXPECT_NEAR(rec.flat()[locations[s]], values[s], 1e-9);
  }
  // Smooth field: IDW should be a decent reconstruction.
  EXPECT_LT(sf::field_nrmse(rec, truth), 0.1);
}

TEST(Interpolation, RbfInterpolatesExactlyAtSamples) {
  sl::Rng rng(21);
  const auto truth = sf::random_plume_field(8, 8, 2, rng, 3.0);
  const auto locations = rng.sample_without_replacement(64, 20);
  sl::Vector values;
  for (std::size_t l : locations) values.push_back(truth.flat()[l]);
  const auto rec = sb::rbf_reconstruct(values, locations, 8, 8);
  for (std::size_t s = 0; s < locations.size(); ++s) {
    EXPECT_NEAR(rec.flat()[locations[s]], values[s], 1e-3);
  }
}

TEST(Interpolation, RbfBeatsIdwOnSmoothFields) {
  double idw_err = 0.0, rbf_err = 0.0;
  for (int t = 0; t < 5; ++t) {
    sl::Rng rng(30 + t);
    const auto truth = sf::random_plume_field(12, 12, 2, rng, 3.0);
    const auto locations = rng.sample_without_replacement(144, 36);
    sl::Vector values;
    for (std::size_t l : locations) values.push_back(truth.flat()[l]);
    idw_err +=
        sf::field_nrmse(sb::idw_reconstruct(values, locations, 12, 12),
                        truth);
    rbf_err +=
        sf::field_nrmse(sb::rbf_reconstruct(values, locations, 12, 12),
                        truth);
  }
  EXPECT_LT(rbf_err, idw_err);
}

TEST(Interpolation, Validation) {
  sl::Vector values{1.0};
  std::vector<std::size_t> loc{99};
  EXPECT_THROW(sb::idw_reconstruct(values, loc, 4, 4),
               std::invalid_argument);
  EXPECT_THROW(sb::rbf_reconstruct({}, {}, 4, 4), std::invalid_argument);
  std::vector<std::size_t> ok{1};
  sl::Vector two(2);
  EXPECT_THROW(sb::idw_reconstruct(two, ok, 4, 4), std::invalid_argument);
}

// ------------------------------------ greedy-solver correctness fixes ----

TEST(Cosamp, ReturnsConsistentTripleWhenNothingImproves) {
  // Every dictionary column lives in span{e1, e2}; the signal lives in
  // span{e3, e4}, so A^T y == 0 exactly and no iterate can beat the zero
  // solution.  The old code returned the last iterate's support and
  // coefficients paired with the *initial* residual norm — an
  // inconsistent triple.  The fix returns the best iterate whole: the
  // zero solution with residual ||y||.
  const std::size_t m = 4, n = 6;
  sl::Matrix a(m, n, 0.0);
  sl::Rng rng(31);
  for (std::size_t j = 0; j < n; ++j) {
    a(0, j) = rng.gaussian();
    a(1, j) = rng.gaussian();
  }
  sl::Vector y(m, 0.0);
  y[2] = 3.0;
  y[3] = 4.0;

  const auto sol = sc::cosamp_solve(a, y, {.sparsity = 2});
  EXPECT_TRUE(sol.support.empty());
  EXPECT_NEAR(sol.residual_norm, 5.0, 1e-12);
  for (double c : sol.coefficients) EXPECT_EQ(c, 0.0);
  // Self-consistency: residual_norm matches y - A * coefficients.
  const auto fitted = a * sol.coefficients;
  EXPECT_NEAR(sol.residual_norm, sl::norm2(sl::subtract(y, fitted)), 1e-12);
}

TEST(Cosamp, ResidualNormAlwaysMatchesReturnedCoefficients) {
  // Property form of the same contract across noisy random instances.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 48, m = 20, k = 4;
    const auto a = random_matrix(m, n, 4000 + seed);
    sl::Rng rng(4100 + seed);
    const auto alpha = random_sparse(n, k, rng);
    auto y = a * alpha;
    for (double& v : y) v += 0.3 * rng.gaussian();
    const auto sol = sc::cosamp_solve(a, y, {.sparsity = k});
    const auto fitted = a * sol.coefficients;
    SCOPED_TRACE(seed);
    EXPECT_NEAR(sol.residual_norm, sl::norm2(sl::subtract(y, fitted)),
                1e-9 * sl::norm2(y));
    EXPECT_EQ(sol.support.size(), sl::norm0(sol.coefficients));
  }
}

TEST(Cosamp, CandidateTruncationKeepsStrongestProxies) {
  // 10 candidates, room for 4: the survivors must be the largest |proxy|
  // values, not the lowest indices.
  const sl::Vector proxy = {0.1, -9.0, 0.2, 3.0,  -0.3, 8.0,
                            0.4, -2.0, 7.0, -0.5, 0.6,  0.7};
  std::vector<std::size_t> cand = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto kept = sc::clamp_candidates_by_proxy(cand, proxy, 4);
  const std::vector<std::size_t> want = {1, 3, 5, 8};  // |.|: 9, 3, 8, 7
  EXPECT_EQ(kept, want);

  // Ties break toward the lower index, result stays sorted.
  const sl::Vector tied = {1.0, 2.0, 2.0, 2.0, 0.5};
  std::vector<std::size_t> cand2 = {0, 1, 2, 3, 4};
  const auto kept2 = sc::clamp_candidates_by_proxy(cand2, tied, 2);
  const std::vector<std::size_t> want2 = {1, 2};
  EXPECT_EQ(kept2, want2);

  // Under the cap: unchanged.
  std::vector<std::size_t> cand3 = {7, 3};
  EXPECT_EQ(sc::clamp_candidates_by_proxy(cand3, proxy, 4), cand3);
}

// ------------------------------------------------- IHT debias refit ----

TEST(Iht, DebiasRefitsSupportWithoutChangingIt) {
  const std::size_t n = 96, m = 40, k = 5;
  sl::Rng rng(51);
  const auto a = random_matrix(m, n, 52);
  const auto alpha = random_sparse(n, k, rng);
  auto y = a * alpha;
  for (double& v : y) v += 0.05 * rng.gaussian();

  const auto biased =
      sc::iht_solve(a, y, {.sparsity = k, .debias = false});
  const auto debiased =
      sc::iht_solve(a, y, {.sparsity = k, .debias = true});
  EXPECT_EQ(biased.support, debiased.support);
  // A least-squares refit on the same support can only tighten the fit.
  EXPECT_LE(debiased.residual_norm, biased.residual_norm + 1e-12);
}
