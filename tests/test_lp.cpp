// The LP stack introduced with the revised simplex: UpdatableLU's
// Bartels-Golub column updates against from-scratch factorizations, the
// revised engine's status/objective equivalence with the dense-tableau
// oracle, warm-start round-trips through LpSolution::basis, and the BP
// fast paths (paired pricing, crash start) that make l1 refits cheap.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "cs/basis_pursuit.h"
#include "cs/cancel.h"
#include "cs/simplex.h"
#include "linalg/decomposition.h"
#include "linalg/random.h"
#include "linalg/updatable_lu.h"
#include "linalg/vector_ops.h"
#include "obs/metrics.h"
#include "support/tableau_oracle.h"

namespace {

namespace sc = sensedroid::cs;
namespace sl = sensedroid::linalg;
namespace ts = sensedroid::test_support;

using sl::Matrix;
using sl::Rng;
using sl::UpdatableLU;
using sl::Vector;

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  return a;
}

Vector random_sparse(std::size_t n, std::size_t k, Rng& rng) {
  Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  return alpha;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// --------------------------------------------------------- UpdatableLU ----

TEST(UpdatableLu, FtranBtranMatchDenseSolves) {
  const std::size_t n = 12;
  const Matrix b = random_matrix(n, n, 11);
  UpdatableLU lu(n);
  ASSERT_TRUE(lu.factor(b));
  ASSERT_TRUE(lu.valid());

  Rng rng(12);
  Vector rhs(n);
  for (double& v : rhs) v = rng.gaussian();

  Vector x(n);
  lu.ftran(rhs, x);
  EXPECT_LT(max_abs_diff(x, sl::lu_solve(b, rhs)), 1e-9);

  // BTRAN solves the transposed system.
  Vector xt(n);
  lu.btran(rhs, xt);
  Matrix bt(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) bt(i, j) = b(j, i);
  }
  EXPECT_LT(max_abs_diff(xt, sl::lu_solve(bt, rhs)), 1e-9);
}

TEST(UpdatableLu, ReplaceColumnTracksFreshFactorization) {
  const std::size_t n = 10;
  Matrix b = random_matrix(n, n, 21);
  UpdatableLU lu(n);
  ASSERT_TRUE(lu.factor(b));

  // A long randomized replacement sequence, checked against a fresh
  // factorization of the mutated matrix after every update.
  Rng rng(22);
  Vector col(n), rhs(n), got(n);
  for (double& v : rhs) v = rng.gaussian();
  for (int step = 0; step < 40; ++step) {
    const std::size_t slot = static_cast<std::size_t>(
        rng.uniform(0.0, 1.0) * static_cast<double>(n));
    for (double& v : col) v = rng.gaussian();
    for (std::size_t i = 0; i < n; ++i) b(i, slot) = col[i];
    ASSERT_TRUE(lu.replace_column(slot, col)) << "step " << step;

    lu.ftran(rhs, got);
    EXPECT_LT(max_abs_diff(got, sl::lu_solve(b, rhs)), 1e-7)
        << "ftran diverged at step " << step;
  }
  EXPECT_EQ(lu.updates_since_factor(), 40u);
}

TEST(UpdatableLu, DetectsSingularFactorAndUpdate) {
  const std::size_t n = 6;
  Matrix singular(n, n);  // all zeros
  UpdatableLU lu(n);
  EXPECT_FALSE(lu.factor(singular));
  EXPECT_FALSE(lu.valid());
  EXPECT_THROW(lu.replace_column(0, Vector(n, 1.0)),
               std::logic_error);

  const Matrix b = random_matrix(n, n, 31);
  ASSERT_TRUE(lu.factor(b));
  // Replacing column 0 with a copy of column 1 makes the basis singular:
  // the update must report failure and invalidate the factorization.
  Vector dup(n);
  for (std::size_t i = 0; i < n; ++i) dup[i] = b(i, 1);
  EXPECT_FALSE(lu.replace_column(0, dup));
  EXPECT_FALSE(lu.valid());
  // factor() recovers.
  ASSERT_TRUE(lu.factor(b));
  EXPECT_TRUE(lu.valid());
  EXPECT_GT(lu.diag_ratio(), 0.0);
}

// ------------------------------------------------------ revised simplex ----

TEST(RevisedSimplex, MatchesTableauOnTextbookProblem) {
  sc::LpProblem p;
  p.a = Matrix{{1, 0, 1, 0, 0}, {0, 2, 0, 1, 0}, {3, 2, 0, 0, 1}};
  p.b = {4, 12, 18};
  p.c = {-3, -5, 0, 0, 0};
  for (const auto& sol :
       {sc::simplex_solve(p), ts::oracle_tableau_solve(p.a, p.b, p.c)}) {
    ASSERT_EQ(sol.status, sc::LpStatus::kOptimal);
    EXPECT_NEAR(sol.objective, -36.0, 1e-9);
    EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
    EXPECT_NEAR(sol.x[1], 6.0, 1e-9);
    ASSERT_EQ(sol.basis.size(), 3u);
  }
}

TEST(RevisedSimplex, DetectsInfeasible) {
  sc::LpProblem p;  // x1 = 1 and x1 = 2 simultaneously
  p.a = Matrix{{1, 0}, {1, 0}};
  p.b = {1, 2};
  p.c = {1, 1};
  const auto sol = sc::simplex_solve(p);
  EXPECT_EQ(sol.status, sc::LpStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnbounded) {
  sc::LpProblem p;  // min -x s.t. x - y = 0
  p.a = Matrix{{1, -1}};
  p.b = {0};
  p.c = {-1, 0};
  const auto sol = sc::simplex_solve(p);
  EXPECT_EQ(sol.status, sc::LpStatus::kUnbounded);
}

TEST(RevisedSimplex, SurvivesDegeneracyViaBlandFallback) {
  // A classic cycling-prone instance (Beale): Dantzig pricing stalls on
  // degenerate pivots until the anti-cycling fallback arms.  The solve
  // must terminate at the optimum either way.
  sc::LpProblem p;
  p.a = Matrix{{0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0},
               {0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0},
               {0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0}};
  p.b = {0.0, 0.0, 1.0};
  p.c = {-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0};
  for (const auto pricing :
       {sc::SimplexPricing::kDantzig, sc::SimplexPricing::kSteepestEdge,
        sc::SimplexPricing::kBland}) {
    sc::SimplexOptions o;
    o.pricing = pricing;
    const auto sol = sc::simplex_solve(p, o);
    ASSERT_EQ(sol.status, sc::LpStatus::kOptimal);
    EXPECT_NEAR(sol.objective, -0.05, 1e-9);
  }
}

TEST(RevisedSimplex, CancelTokenStopsTheSolve) {
  const std::size_t n = 64, m = 16;
  const Matrix a = random_matrix(m, n, 41);
  Rng rng(42);
  Vector y(m);
  for (double& v : y) v = rng.gaussian();
  sc::CancelToken cancel;
  cancel.cancel();
  sc::SimplexOptions o;
  o.cancel = &cancel;
  EXPECT_EQ(sc::simplex_solve_bp(a, y, o).status, sc::LpStatus::kCancelled);
  EXPECT_EQ(ts::oracle_tableau_solve_bp(a, y, o).status,
            sc::LpStatus::kCancelled);
}

// An attached registry alone, with no trace, gets each solve's latency
// in cs.simplex.solve_us from the solve's span.
TEST(RevisedSimplex, AttachedSolveRecordsItsLatencyHistogram) {
  const Matrix a = random_matrix(8, 24, 91);
  Rng rng(92);
  const Vector y = a * random_sparse(24, 3, rng);
  sensedroid::obs::MetricsRegistry reg;
  sensedroid::obs::attach_registry(&reg);
  const auto sol = sc::simplex_solve_bp(a, y);
  sensedroid::obs::attach_registry(nullptr);
  ASSERT_EQ(sol.status, sc::LpStatus::kOptimal);
  const auto* h = reg.find_histogram("cs.simplex.solve_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
}

TEST(RevisedSimplex, BasisRoundTripResolvesWithoutPivots) {
  const std::size_t n = 48, m = 12, k = 4;
  const Matrix a = random_matrix(m, n, 51);
  Rng rng(52);
  const Vector alpha = random_sparse(n, k, rng);
  const Vector y = a * alpha;

  const auto first = sc::simplex_solve_bp(a, y);
  ASSERT_EQ(first.status, sc::LpStatus::kOptimal);
  ASSERT_EQ(first.basis.size(), m);
  EXPECT_GT(first.iterations, 0u);

  // Re-solving the identical instance from the exported basis must
  // accept it, skip phase 1, and confirm optimality with zero pivots.
  sc::SimplexOptions warm;
  warm.warm_basis = first.basis;
  const auto second = sc::simplex_solve_bp(a, y, warm);
  ASSERT_EQ(second.status, sc::LpStatus::kOptimal);
  EXPECT_EQ(second.iterations, 0u);
  EXPECT_NEAR(second.objective, first.objective, 1e-10);
  EXPECT_EQ(second.basis, first.basis);
}

TEST(RevisedSimplex, RejectsGarbageWarmBasisAndStillSolves) {
  const std::size_t n = 32, m = 8, k = 3;
  const Matrix a = random_matrix(m, n, 61);
  Rng rng(62);
  const Vector y = a * random_sparse(n, k, rng);

  sc::SimplexOptions warm;
  warm.warm_basis.assign(m, 0);  // duplicate ids: must fall back cleanly
  const auto sol = sc::simplex_solve_bp(a, y, warm);
  ASSERT_EQ(sol.status, sc::LpStatus::kOptimal);
  const auto cold = sc::simplex_solve_bp(a, y);
  EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
}

// Randomized equivalence sweep: the revised engine against the dense
// tableau oracle (tests/support/tableau_oracle.h) on bounded-feasible
// LPs (b = A x0 with x0 >= 0 keeps phase 1 honest; c >= 0 bounds the
// objective from below).  Statuses must be
// identical and objectives equal to 1e-8 — pivot paths may differ.
TEST(RevisedSimplex, AgreesWithTableauOnRandomFeasibleLps) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(100 + seed);
    const std::size_t m = 3 + static_cast<std::size_t>(seed % 5);
    const std::size_t n = m + 2 + static_cast<std::size_t>(seed % 7);
    sc::LpProblem p;
    p.a = random_matrix(m, n, 200 + seed);
    Vector x0(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      x0[j] = rng.bernoulli(0.5) ? rng.uniform(0.0, 2.0) : 0.0;
    }
    p.b = p.a * x0;
    p.c.assign(n, 0.0);
    for (double& cj : p.c) cj = rng.uniform(0.0, 3.0);

    const auto rev = sc::simplex_solve(p);
    const auto tab = ts::oracle_tableau_solve(p.a, p.b, p.c);
    ASSERT_EQ(rev.status, tab.status) << "seed " << seed;
    ASSERT_EQ(rev.status, sc::LpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(rev.objective, tab.objective, 1e-8) << "seed " << seed;
  }
}

// Same sweep through the BP front door: the revised engine's paired
// pricing and crash start against the materialized [A, -A] tableau.
TEST(RevisedSimplex, BpEnginesAgreeOnRandomSparseInstances) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const std::size_t n = 40 + 8 * static_cast<std::size_t>(seed % 3);
    const std::size_t m = n / 2;
    const std::size_t k = 2 + static_cast<std::size_t>(seed % 4);
    const Matrix a = random_matrix(m, n, 300 + seed);
    Rng rng(400 + seed);
    const Vector y = a * random_sparse(n, k, rng);

    const auto rev = sc::simplex_solve_bp(a, y);
    const auto tab = ts::oracle_tableau_solve_bp(a, y);
    ASSERT_EQ(rev.status, sc::LpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(tab.status, sc::LpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(rev.objective, tab.objective, 1e-8) << "seed " << seed;
  }
}

// ------------------------------------------------------------ bp_solve ----

TEST(BpSolve, ExportsBasisAndRecoversSignal) {
  const std::size_t n = 64, m = 24, k = 5;
  const Matrix a = random_matrix(m, n, 71);
  Rng rng(72);
  const Vector alpha = random_sparse(n, k, rng);
  const Vector y = a * alpha;

  const auto sol = sc::bp_solve(a, y);
  ASSERT_EQ(sol.status, sc::LpStatus::kOptimal);
  EXPECT_EQ(sol.basis.size(), m);
  EXPECT_LT(sl::relative_error(sol.solution.coefficients, alpha), 1e-6);
  EXPECT_LT(sol.solution.residual_norm, 1e-6);
}

TEST(BpSolve, ReportsCancellationInsteadOfThrowing) {
  const Matrix a = random_matrix(6, 16, 81);
  Rng rng(82);
  const Vector y = a * random_sparse(16, 2, rng);
  sc::CancelToken cancel;
  cancel.cancel();
  sc::BasisPursuitOptions o;
  o.lp.cancel = &cancel;
  const auto sol = sc::bp_solve(a, y, o);
  EXPECT_EQ(sol.status, sc::LpStatus::kCancelled);
}

}  // namespace
