// UpdatableQR / SupportQrCache: the incremental factorization engine the
// greedy solvers refit through.  The contract under test: appends and
// downdates must track a from-scratch factorization of the same columns
// to ~machine precision, rejections must leave state untouched, and the
// cache must reuse exactly the common prefix between successive supports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "linalg/decomposition.h"
#include "linalg/random.h"
#include "linalg/updatable_qr.h"
#include "linalg/vector_ops.h"

namespace {

using sensedroid::linalg::Matrix;
using sensedroid::linalg::QR;
using sensedroid::linalg::Rng;
using sensedroid::linalg::SupportQrCache;
using sensedroid::linalg::UpdatableQR;
using sensedroid::linalg::Vector;

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  return a;
}

// Reference: dense Householder solve on the first k columns of a.
Vector dense_solve(const Matrix& a, std::size_t k,
                   std::span<const double> y) {
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  return QR(a.select_cols(idx)).solve(y);
}

// A cache over the columns of `a` (which must outlive it).
SupportQrCache cache_over(const Matrix& a) {
  return SupportQrCache(a.rows(), std::min(a.rows(), a.cols()),
                        [&a](std::size_t j, std::span<double> out) {
                          a.col_into(j, out);
                        });
}

void expect_close(const Vector& a, const Vector& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "component " << i;
  }
}

TEST(UpdatableQr, AppendTracksFreshFactorization) {
  const std::size_t m = 24;
  const Matrix a = random_matrix(m, 10, 101);
  Rng rng(102);
  const Vector y = rng.gaussian_vector(m);

  UpdatableQR qr(m, 10);
  Vector col(m);
  for (std::size_t k = 1; k <= 10; ++k) {
    a.col_into(k - 1, col);
    ASSERT_TRUE(qr.append_column(col));
    ASSERT_EQ(qr.size(), k);
    expect_close(qr.solve(y), dense_solve(a, k, y), 1e-12);
  }
}

TEST(UpdatableQr, RemoveLastDowndatesExactly) {
  const std::size_t m = 18;
  const Matrix a = random_matrix(m, 8, 201);
  Rng rng(202);
  const Vector y = rng.gaussian_vector(m);

  UpdatableQR qr(m, 8);
  Vector col(m);
  for (std::size_t j = 0; j < 6; ++j) {
    a.col_into(j, col);
    ASSERT_TRUE(qr.append_column(col));
  }
  qr.remove_last();
  qr.remove_last();
  ASSERT_EQ(qr.size(), 4u);
  expect_close(qr.solve(y), dense_solve(a, 4, y), 1e-12);

  // Re-growing after a downdate must behave like a fresh prefix.
  a.col_into(7, col);
  ASSERT_TRUE(qr.append_column(col));
  std::vector<std::size_t> idx = {0, 1, 2, 3, 7};
  expect_close(qr.solve(y), QR(a.select_cols(idx)).solve(y), 1e-12);
}

TEST(UpdatableQr, RejectsDependentColumnWithoutStateChange) {
  const std::size_t m = 12;
  const Matrix a = random_matrix(m, 3, 301);
  Rng rng(302);
  const Vector y = rng.gaussian_vector(m);

  UpdatableQR qr(m, 4);
  Vector col(m);
  for (std::size_t j = 0; j < 3; ++j) {
    a.col_into(j, col);
    ASSERT_TRUE(qr.append_column(col));
  }
  const Vector before = qr.solve(y);

  // 2*col0 - col1 lies exactly in the current span.
  Vector dep(m);
  for (std::size_t i = 0; i < m; ++i) dep[i] = 2.0 * a(i, 0) - a(i, 1);
  EXPECT_FALSE(qr.append_column(dep));
  EXPECT_EQ(qr.size(), 3u);
  expect_close(qr.solve(y), before, 0.0);

  // The zero column is dependent on anything (including the empty set).
  UpdatableQR empty_qr(m, 2);
  const Vector zero(m, 0.0);
  EXPECT_FALSE(empty_qr.append_column(zero));
  EXPECT_EQ(empty_qr.size(), 0u);
}

TEST(UpdatableQr, QColumnsStayOrthonormal) {
  const std::size_t m = 30;
  const Matrix a = random_matrix(m, 12, 401);
  UpdatableQR qr(m, 12);
  Vector col(m);
  for (std::size_t j = 0; j < 12; ++j) {
    a.col_into(j, col);
    ASSERT_TRUE(qr.append_column(col));
  }
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      const double g =
          sensedroid::linalg::dot(qr.q_column(i), qr.q_column(j));
      EXPECT_NEAR(g, i == j ? 1.0 : 0.0, 1e-13);
    }
  }
}

TEST(UpdatableQr, SolveFromQtyMatchesSolve) {
  const std::size_t m = 16;
  const Matrix a = random_matrix(m, 5, 501);
  Rng rng(502);
  const Vector y = rng.gaussian_vector(m);
  UpdatableQR qr(m, 5);
  Vector col(m);
  for (std::size_t j = 0; j < 5; ++j) {
    a.col_into(j, col);
    ASSERT_TRUE(qr.append_column(col));
  }
  Vector qty(5);
  for (std::size_t j = 0; j < 5; ++j) {
    qty[j] = sensedroid::linalg::dot(qr.q_column(j), y);
  }
  // solve() forms Q^T y with its own (multi-chain) reduction order, so
  // the agreement is to the last few ulps, not bit-exact.
  expect_close(qr.solve_from_qty(qty), qr.solve(y), 1e-14);
}

TEST(UpdatableQr, ValidatesArguments) {
  UpdatableQR qr(6, 3);
  const Vector wrong(5, 1.0);
  EXPECT_THROW(qr.append_column(wrong), std::invalid_argument);
  EXPECT_THROW(qr.remove_last(), std::logic_error);
  EXPECT_THROW(qr.q_column(0), std::out_of_range);
  const Vector y(5, 1.0);
  EXPECT_THROW(qr.solve(y), std::invalid_argument);
  // Empty factorization solves to the empty coefficient vector.
  const Vector y6(6, 1.0);
  EXPECT_TRUE(qr.solve(y6).empty());
}

TEST(SupportQrCacheTest, ReusesLongestCommonPrefix) {
  const std::size_t m = 20;
  const Matrix a = random_matrix(m, 15, 601);
  Rng rng(602);
  const Vector y = rng.gaussian_vector(m);

  SupportQrCache cache = cache_over(a);
  std::vector<std::size_t> s1 = {1, 4, 7};
  ASSERT_TRUE(cache.refit(s1));
  EXPECT_EQ(cache.reused_columns(), 0u);
  expect_close(cache.solve(y), QR(a.select_cols(s1)).solve(y), 1e-12);

  // Shares the prefix {1, 4}: exactly two columns reused.
  std::vector<std::size_t> s2 = {1, 4, 9, 12};
  ASSERT_TRUE(cache.refit(s2));
  EXPECT_EQ(cache.reused_columns(), 2u);
  expect_close(cache.solve(y), QR(a.select_cols(s2)).solve(y), 1e-12);

  // Pure extension: everything previous is reused.
  std::vector<std::size_t> s3 = {1, 4, 9, 12, 14};
  ASSERT_TRUE(cache.refit(s3));
  EXPECT_EQ(cache.reused_columns(), 4u);
  expect_close(cache.solve(y), QR(a.select_cols(s3)).solve(y), 1e-12);

  // Disjoint support: full rebuild, still correct.
  std::vector<std::size_t> s4 = {0, 2};
  ASSERT_TRUE(cache.refit(s4));
  EXPECT_EQ(cache.reused_columns(), 0u);
  expect_close(cache.solve(y), QR(a.select_cols(s4)).solve(y), 1e-12);
}

TEST(SupportQrCacheTest, DependentSupportReportsFailureAndRecovers) {
  const std::size_t m = 10;
  Matrix a = random_matrix(m, 6, 701);
  for (std::size_t i = 0; i < m; ++i) a(i, 5) = a(i, 0);  // duplicate col
  Rng rng(702);
  const Vector y = rng.gaussian_vector(m);

  SupportQrCache cache = cache_over(a);
  std::vector<std::size_t> bad = {0, 2, 5};
  EXPECT_FALSE(cache.refit(bad));

  // The cache must be usable again after a rejection.
  std::vector<std::size_t> good = {0, 2, 3};
  ASSERT_TRUE(cache.refit(good));
  expect_close(cache.solve(y), QR(a.select_cols(good)).solve(y), 1e-12);
}

}  // namespace
