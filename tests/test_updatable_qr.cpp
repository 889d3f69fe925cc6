// UpdatableQR: the incremental factorization engine the greedy solvers
// refit through.  The contract under test: appends and downdates must
// track a from-scratch factorization of the same columns to ~machine
// precision, rejections must leave state untouched, and the held Q^T y
// must follow every append, downdate and rejection exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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

  UpdatableQR qr(m, y, 10);
  Vector col(m);
  for (std::size_t k = 1; k <= 10; ++k) {
    a.col_into(k - 1, col);
    ASSERT_TRUE(qr.append_column(col));
    ASSERT_EQ(qr.size(), k);
    expect_close(qr.solve(), dense_solve(a, k, y), 1e-12);
  }
}

TEST(UpdatableQr, RemoveLastDowndatesExactly) {
  const std::size_t m = 18;
  const Matrix a = random_matrix(m, 8, 201);
  Rng rng(202);
  const Vector y = rng.gaussian_vector(m);

  UpdatableQR qr(m, y, 8);
  Vector col(m);
  for (std::size_t j = 0; j < 6; ++j) {
    a.col_into(j, col);
    ASSERT_TRUE(qr.append_column(col));
  }
  qr.remove_last();
  qr.remove_last();
  ASSERT_EQ(qr.size(), 4u);
  expect_close(qr.solve(), dense_solve(a, 4, y), 1e-12);

  // Re-growing after a downdate must behave like a fresh prefix.
  a.col_into(7, col);
  ASSERT_TRUE(qr.append_column(col));
  std::vector<std::size_t> idx = {0, 1, 2, 3, 7};
  expect_close(qr.solve(), QR(a.select_cols(idx)).solve(y), 1e-12);
}

TEST(UpdatableQr, RejectsDependentColumnWithoutStateChange) {
  const std::size_t m = 12;
  const Matrix a = random_matrix(m, 3, 301);
  Rng rng(302);
  const Vector y = rng.gaussian_vector(m);

  UpdatableQR qr(m, y, 4);
  Vector col(m);
  for (std::size_t j = 0; j < 3; ++j) {
    a.col_into(j, col);
    ASSERT_TRUE(qr.append_column(col));
  }
  const Vector before = qr.solve();

  // 2*col0 - col1 lies exactly in the current span.
  Vector dep(m);
  for (std::size_t i = 0; i < m; ++i) dep[i] = 2.0 * a(i, 0) - a(i, 1);
  EXPECT_FALSE(qr.append_column(dep));
  EXPECT_EQ(qr.size(), 3u);
  expect_close(qr.solve(), before, 0.0);

  // The zero column is dependent on anything (including the empty set).
  UpdatableQR empty_qr(m, y, 2);
  const Vector zero(m, 0.0);
  EXPECT_FALSE(empty_qr.append_column(zero));
  EXPECT_EQ(empty_qr.size(), 0u);
}

TEST(UpdatableQr, QColumnsStayOrthonormal) {
  const std::size_t m = 30;
  const Matrix a = random_matrix(m, 12, 401);
  UpdatableQR qr(m, Vector(m, 0.0), 12);
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

TEST(UpdatableQr, HeldQtyFollowsAppendsDowndatesAndRejections) {
  const std::size_t m = 16;
  const Matrix a = random_matrix(m, 7, 501);
  Rng rng(502);
  const Vector y = rng.gaussian_vector(m);
  Vector col(m);
  const auto append = [&](UpdatableQR& qr, std::size_t j) {
    a.col_into(j, col);
    return qr.append_column(col);
  };

  // Appends, a downdate, a rejected dependent column, then re-appends.
  UpdatableQR qr(m, y, 4);
  for (std::size_t j = 0; j < 5; ++j) ASSERT_TRUE(append(qr, j));
  qr.remove_last();
  Vector dep(m);
  for (std::size_t i = 0; i < m; ++i) dep[i] = 2.0 * a(i, 0) - a(i, 1);
  ASSERT_FALSE(qr.append_column(dep));
  ASSERT_TRUE(append(qr, 5));
  ASSERT_TRUE(append(qr, 6));

  const std::vector<std::size_t> cols = {0, 1, 2, 3, 5, 6};
  UpdatableQR fresh(m, y, cols.size());
  for (const std::size_t j : cols) ASSERT_TRUE(append(fresh, j));

  ASSERT_EQ(qr.size(), cols.size());
  ASSERT_EQ(qr.qty().size(), cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    EXPECT_NEAR(qr.qty()[j], sensedroid::linalg::dot(qr.q_column(j), y),
                1e-14)
        << "entry " << j;
  }
  const Vector got = qr.solve();
  const Vector want = fresh.solve();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(double)));
  expect_close(got, QR(a.select_cols(cols)).solve(y), 1e-12);
}

TEST(UpdatableQr, ValidatesArguments) {
  const Vector y6(6, 1.0);
  EXPECT_THROW(UpdatableQR(6, Vector(5, 1.0), 3), std::invalid_argument);
  UpdatableQR qr(6, y6, 3);
  const Vector wrong(5, 1.0);
  EXPECT_THROW(qr.append_column(wrong), std::invalid_argument);
  EXPECT_THROW(qr.remove_last(), std::logic_error);
  EXPECT_THROW(qr.q_column(0), std::out_of_range);
  // Empty factorization solves to the empty coefficient vector.
  EXPECT_TRUE(qr.solve().empty());
  EXPECT_TRUE(qr.qty().empty());
}

// solve_into overwrites a caller's buffer with exactly solve()'s bits,
// whatever the buffer held, after appends and after a remove_last.
TEST(UpdatableQr, SolveIntoWritesSolveBits) {
  const std::size_t m = 14;
  const Matrix a = random_matrix(m, 6, 401);
  Rng rng(402);
  const Vector y = rng.gaussian_vector(m);
  UpdatableQR qr(m, y, 6);
  Vector col(m);
  const auto check = [&] {
    Vector x(qr.size(), std::nan(""));
    qr.solve_into(x);
    const Vector want = qr.solve();
    ASSERT_EQ(want.size(), x.size());
    EXPECT_EQ(0, std::memcmp(x.data(), want.data(), x.size() * sizeof(double)));
  };
  for (std::size_t j = 0; j < 6; ++j) {
    a.col_into(j, col);
    ASSERT_TRUE(qr.append_column(col));
    check();
  }
  qr.remove_last();
  check();
  Vector wrong(qr.size() + 1);
  EXPECT_THROW(qr.solve_into(wrong), std::invalid_argument);
}

}  // namespace
