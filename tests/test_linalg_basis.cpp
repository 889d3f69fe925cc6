// Tests for sparsifying bases (eq. 2) and the vector-ops helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "linalg/basis.h"
#include "linalg/matrix.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"

namespace sl = sensedroid::linalg;

// ----- parameterized orthonormality across all constructible bases -----

// gtest prints a parameter that has no PrintTo as its raw bytes, and ctest
// puts that text in the test name. The explicit zero bytes stand where the
// compiler would leave uninitialised padding, so each name is the same from
// run to run.
struct BasisCase {
  BasisCase(sl::BasisKind k, std::size_t size) : kind(k), n(size) {}
  sl::BasisKind kind;
  std::uint8_t zero[sizeof(std::size_t) - sizeof(sl::BasisKind)] = {};
  std::size_t n;
};
static_assert(std::has_unique_object_representations_v<BasisCase>,
              "BasisCase must have no padding bytes");

class BasisOrthonormality : public ::testing::TestWithParam<BasisCase> {};

TEST_P(BasisOrthonormality, BasisIsOrthonormal) {
  const auto& p = GetParam();
  auto b = sl::make_basis(p.kind, p.n, /*seed=*/99);
  EXPECT_TRUE(sl::is_orthonormal(b))
      << sl::to_string(p.kind) << " n=" << p.n;
}

TEST_P(BasisOrthonormality, AnalyzeSynthesizeRoundTrip) {
  const auto& p = GetParam();
  auto b = sl::make_basis(p.kind, p.n, /*seed=*/99);
  sl::Rng rng(p.n);
  auto x = rng.gaussian_vector(p.n);
  auto alpha = sl::analyze(b, x);
  auto back = sl::synthesize(b, alpha);
  EXPECT_LT(sl::relative_error(back, x), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BasisOrthonormality,
    ::testing::Values(BasisCase{sl::BasisKind::kIdentity, 16},
                      BasisCase{sl::BasisKind::kDct, 16},
                      BasisCase{sl::BasisKind::kDct, 33},
                      BasisCase{sl::BasisKind::kHaar, 16},
                      BasisCase{sl::BasisKind::kHaar, 64},
                      BasisCase{sl::BasisKind::kGaussian, 24}),
    [](const ::testing::TestParamInfo<BasisCase>& info) {
      return sl::to_string(info.param.kind) + "_" +
             std::to_string(info.param.n);
    });

// ----- specific basis behaviours -----

TEST(DctBasis, ConstantSignalIsOneSparse) {
  auto b = sl::dct_basis(32);
  sl::Vector x(32, 3.0);
  auto alpha = sl::analyze(b, x);
  // All energy in the DC coefficient.
  EXPECT_NEAR(std::abs(alpha[0]), 3.0 * std::sqrt(32.0), 1e-10);
  for (std::size_t i = 1; i < 32; ++i) EXPECT_NEAR(alpha[i], 0.0, 1e-10);
}

TEST(DctBasis, PureCosineIsOneSparse) {
  const std::size_t n = 64;
  auto b = sl::dct_basis(n);
  // Column 5 of the synthesis matrix is exactly a DCT atom.
  auto x = b.col(5);
  auto alpha = sl::analyze(b, x);
  EXPECT_EQ(sl::norm0(alpha, 1e-9), 1u);
}

TEST(HaarBasis, RequiresPowerOfTwo) {
  EXPECT_THROW(sl::haar_basis(12), std::invalid_argument);
  EXPECT_THROW(sl::haar_basis(0), std::invalid_argument);
  EXPECT_NO_THROW(sl::haar_basis(8));
}

TEST(HaarBasis, StepSignalIsSparse) {
  const std::size_t n = 64;
  auto b = sl::haar_basis(n);
  sl::Vector x(n, 1.0);
  for (std::size_t i = n / 2; i < n; ++i) x[i] = -1.0;
  auto alpha = sl::analyze(b, x);
  // A half-domain step is exactly one Haar wavelet.
  EXPECT_LE(sl::norm0(alpha, 1e-9), 2u);
}

TEST(GaussianBasis, DeterministicInSeed) {
  auto a = sl::gaussian_basis(12, 7);
  auto b = sl::gaussian_basis(12, 7);
  auto c = sl::gaussian_basis(12, 8);
  EXPECT_TRUE(sl::approx_equal(a, b));
  EXPECT_FALSE(sl::approx_equal(a, c));
}

TEST(PcaBasis, RecoversDominantDirection) {
  // Traces are multiples of one pattern + tiny noise: the first principal
  // direction must align with the pattern.
  const std::size_t n = 10, t = 40;
  sl::Rng rng(3);
  sl::Vector pattern(n);
  for (std::size_t i = 0; i < n; ++i) {
    pattern[i] = std::sin(0.7 * static_cast<double>(i));
  }
  const double pnorm = sl::norm2(pattern);
  for (double& p : pattern) p /= pnorm;
  sl::Matrix traces(t, n);
  for (std::size_t r = 0; r < t; ++r) {
    const double amp = rng.gaussian(0.0, 5.0);
    for (std::size_t c = 0; c < n; ++c) {
      traces(r, c) = amp * pattern[c] + rng.gaussian(0.0, 0.01);
    }
  }
  auto basis = sl::pca_basis(traces);
  EXPECT_TRUE(sl::is_orthonormal(basis));
  auto first = basis.col(0);
  EXPECT_GT(std::abs(sl::dot(first, pattern)), 0.99);
}

TEST(PcaBasis, RejectsEmpty) {
  EXPECT_THROW(sl::pca_basis(sl::Matrix{}), std::invalid_argument);
}

TEST(MakeBasis, PcaThrowsWithoutTraces) {
  EXPECT_THROW(sl::make_basis(sl::BasisKind::kPca, 8),
               std::invalid_argument);
}

TEST(EffectiveSparsity, DetectsExactSparsity) {
  const std::size_t n = 32;
  auto b = sl::dct_basis(n);
  sl::Vector alpha(n, 0.0);
  alpha[2] = 5.0;
  alpha[7] = -3.0;
  alpha[20] = 1.0;
  auto x = sl::synthesize(b, alpha);
  EXPECT_EQ(sl::effective_sparsity(b, x, 1e-8), 3u);
}

TEST(EffectiveSparsity, ZeroSignalIsZeroSparse) {
  auto b = sl::dct_basis(8);
  sl::Vector x(8, 0.0);
  EXPECT_EQ(sl::effective_sparsity(b, x), 0u);
}

// ----- vector ops -----

TEST(VectorOps, Norms) {
  sl::Vector v{3.0, -4.0, 0.0};
  EXPECT_DOUBLE_EQ(sl::norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(sl::norm1(v), 7.0);
  EXPECT_DOUBLE_EQ(sl::norm_inf(v), 4.0);
  EXPECT_EQ(sl::norm0(v), 2u);
}

TEST(VectorOps, DotAndAxpy) {
  sl::Vector a{1.0, 2.0};
  sl::Vector b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(sl::dot(a, b), 11.0);
  sl::axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[0], 5.0);
  EXPECT_DOUBLE_EQ(b[1], 8.0);
  sl::Vector c{1.0};
  EXPECT_THROW(sl::dot(a, c), std::invalid_argument);
}

TEST(VectorOps, NrmseIsScaleFree) {
  sl::Vector truth{1.0, 2.0, 3.0, 4.0};
  sl::Vector est{1.1, 2.1, 3.1, 4.1};
  auto truth10 = sl::scaled(truth, 10.0);
  auto est10 = sl::scaled(est, 10.0);
  EXPECT_NEAR(sl::nrmse(est, truth), sl::nrmse(est10, truth10), 1e-12);
}

TEST(VectorOps, PerfectReconstructionHasZeroError) {
  sl::Vector v{1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(sl::rmse(v, v), 0.0);
  EXPECT_DOUBLE_EQ(sl::nrmse(v, v), 0.0);
  EXPECT_DOUBLE_EQ(sl::relative_error(v, v), 0.0);
}

TEST(VectorOps, PearsonDetectsPerfectCorrelation) {
  sl::Vector a{1.0, 2.0, 3.0};
  sl::Vector b{2.0, 4.0, 6.0};
  EXPECT_NEAR(sl::pearson(a, b), 1.0, 1e-12);
  auto neg = sl::scaled(b, -1.0);
  EXPECT_NEAR(sl::pearson(a, neg), -1.0, 1e-12);
  sl::Vector flat{1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(sl::pearson(a, flat), 0.0);
}

TEST(VectorOps, TopKAndHardThreshold) {
  sl::Vector v{0.1, -5.0, 2.0, 0.0, 3.0};
  auto top2 = sl::top_k_by_magnitude(v, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], 1u);
  EXPECT_EQ(top2[1], 4u);
  auto t = sl::hard_threshold(v, 2);
  EXPECT_DOUBLE_EQ(t[1], -5.0);
  EXPECT_DOUBLE_EQ(t[4], 3.0);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[2], 0.0);
}

TEST(VectorOps, MeanVariance) {
  sl::Vector v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(sl::mean(v), 5.0);
  EXPECT_DOUBLE_EQ(sl::variance(v), 4.0);
  EXPECT_DOUBLE_EQ(sl::mean(sl::Vector{}), 0.0);
}

// ----- rng -----

TEST(Rng, DeterministicStreams) {
  sl::Rng a(123), b(123), c(124);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  sl::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, SampleWithoutReplacementIsValid) {
  sl::Rng rng(77);
  auto s = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(s.size(), 30u);
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_LT(s[i - 1], s[i]);  // sorted + distinct
  }
  EXPECT_LT(s.back(), 100u);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleFullRangeIsPermutationOfAll) {
  sl::Rng rng(5);
  auto s = rng.sample_without_replacement(10, 10);
  ASSERT_EQ(s.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  sl::Rng rng(31);
  const std::size_t n = 20000;
  auto v = rng.gaussian_vector(n);
  EXPECT_NEAR(sl::mean(v), 0.0, 0.05);
  EXPECT_NEAR(sl::variance(v), 1.0, 0.05);
}

TEST(Rng, ExponentialValidatesRate) {
  sl::Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_GT(rng.exponential(2.0), 0.0);
}

TEST(Rng, PermutationContainsAllIndices) {
  sl::Rng rng(8);
  auto p = rng.permutation(20);
  std::vector<bool> seen(20, false);
  for (auto i : p) {
    ASSERT_LT(i, 20u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  sl::Rng a(55);
  sl::Rng child = a.fork();
  // Streams should diverge immediately.
  EXPECT_NE(a.next_u64(), child.next_u64());
}
