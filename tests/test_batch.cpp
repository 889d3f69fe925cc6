// Batch-of-signals solving and structured operators (DESIGN.md §15):
// the blocked A^T R kernel, the fast 1-D DCT subsampled operator against
// its dense twin, batch-vs-sequential equality for every registry
// solver, and CHS on the matrix-free factored basis against the dense
// matrix, standalone and inside a NanoCloud.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cs/cancel.h"
#include "cs/chs.h"
#include "cs/greedy_variants.h"
#include "cs/measurement.h"
#include "cs/omp.h"
#include "cs/solver.h"
#include "field/generators.h"
#include "hierarchy/nanocloud.h"
#include "linalg/basis.h"
#include "linalg/operator.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"

namespace sc = sensedroid::cs;
namespace sh = sensedroid::hierarchy;
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

// y = A alpha for a random k-sparse alpha with magnitudes in [1, 2].
sl::Vector sparse_signal(const sl::Matrix& a, std::size_t k, sl::Rng& rng) {
  sl::Vector alpha(a.cols(), 0.0);
  for (std::size_t j : rng.sample_without_replacement(a.cols(), k)) {
    const double mag = rng.uniform(1.0, 2.0);
    alpha[j] = rng.bernoulli(0.5) ? mag : -mag;
  }
  return a * alpha;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

// --------------------------------------------------- blocked kernels ----

TEST(TransposeTimesBlock, BitIdenticalToPerSignalSweeps) {
  const auto a = random_matrix(23, 41, 11);
  sl::Rng rng(12);
  const std::size_t bcount = 5;
  std::vector<double> stacked(bcount * a.rows());
  for (double& v : stacked) v = rng.gaussian();

  std::vector<double> block(bcount * a.cols());
  a.transpose_times_block(stacked, bcount, block);

  for (std::size_t b = 0; b < bcount; ++b) {
    sl::Vector one(a.cols());
    a.transpose_times_into(
        std::span<const double>(stacked).subspan(b * a.rows(), a.rows()),
        one);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(block[b * a.cols() + j], one[j]) << "signal " << b
                                                 << " col " << j;
    }
  }
}

// The sampled-rows sweep CHS's zero-fill analyze runs on a basis without
// factors reads the rows in place; it must be the sweep over their copy,
// bit for bit, across the 8/4/2/1 row blocks and the column tails.
TEST(TransposeTimesRows, BitIdenticalToTheSelectRowsSweep) {
  sl::Rng rng(13);
  for (int d = 0; d < 200; ++d) {
    const std::size_t rows = 1 + rng.uniform_index(40);
    const std::size_t cols = 1 + rng.uniform_index(41);
    const auto a = random_matrix(rows, cols, 1000 + d);
    const auto idx =
        rng.sample_without_replacement(rows, rng.uniform_index(rows + 1));
    const auto v = rng.gaussian_vector(idx.size());
    sl::Vector got(cols, -1.0), want(cols);
    a.transpose_times_rows_into(idx, v, got);
    a.select_rows(idx).transpose_times_into(v, want);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), cols * sizeof(double)))
        << "draw " << d;
  }
  const auto a = random_matrix(4, 3, 14);
  sl::Vector out(3), v(1);
  const std::vector<std::size_t> bad = {4};
  EXPECT_THROW(a.transpose_times_rows_into(bad, v, out), std::out_of_range);
  EXPECT_THROW(a.transpose_times_rows_into({}, v, out), std::invalid_argument);
}

TEST(Dct2Basis, SeparableFillMatchesKroneckerExactly) {
  // Non-square and square grids: the cached-factor fill must reproduce
  // kron(dct_w, dct_h) entry-for-entry (same products, same order).
  const std::vector<std::pair<std::size_t, std::size_t>> grids{{5, 7}, {6, 6}};
  for (const auto& [w, h] : grids) {
    const auto direct = sl::dct2_basis(w, h);
    const auto kron = sl::kronecker(sl::dct_basis(w), sl::dct_basis(h));
    ASSERT_EQ(direct.rows(), kron.rows());
    ASSERT_EQ(direct.cols(), kron.cols());
    for (std::size_t i = 0; i < direct.rows(); ++i) {
      for (std::size_t j = 0; j < direct.cols(); ++j) {
        EXPECT_EQ(direct(i, j), kron(i, j)) << w << "x" << h << " @ (" << i
                                            << "," << j << ")";
      }
    }
  }
}

// ------------------------------------------- SubsampledDctOperator ----

namespace {

// Dense twin of the subsampled 1-D DCT operator.
sl::Matrix dense_rows(const sl::Matrix& basis,
                      std::span<const std::size_t> rows) {
  sl::Matrix out(rows.size(), basis.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < basis.cols(); ++j) {
      out(i, j) = basis(rows[i], j);
    }
  }
  return out;
}

void expect_operator_matches_dense(const sl::SubsampledDctOperator& op,
                                   const sl::Matrix& dense, double tol,
                                   std::uint64_t seed) {
  ASSERT_EQ(op.rows(), dense.rows());
  ASSERT_EQ(op.cols(), dense.cols());
  sl::Rng rng(seed);
  const auto x = rng.gaussian_vector(dense.cols());
  const auto y = rng.gaussian_vector(dense.rows());
  sl::Vector ax(dense.rows());
  sl::Vector aty(dense.cols());
  op.apply_into(x, ax);
  op.apply_transpose_into(y, aty);
  EXPECT_LE(max_abs_diff(ax, dense * x), tol);
  EXPECT_LE(max_abs_diff(aty, dense.transpose_times(y)), tol);
  // Column entries are computed from the closed form, not the transform:
  // exact equality with the basis builders.
  sl::Vector col(dense.rows());
  for (std::size_t c : {std::size_t{0}, dense.cols() / 2, dense.cols() - 1}) {
    op.column_into(c, col);
    for (std::size_t i = 0; i < dense.rows(); ++i) {
      EXPECT_EQ(col[i], dense(i, c)) << "col " << c << " row " << i;
    }
  }
}

}  // namespace

TEST(SubsampledDctOperator, MatchesDense1d) {
  // Power-of-two, mixed 2^a*q, and fully odd non-power-of-two sizes.
  // n = 330 = 2 * 3 * 5 * 11 leaves a large odd base case, so the
  // butterfly recursion is shallow and rounding accumulates a bit more.
  struct Case {
    std::size_t n;
    double tol;
  };
  for (const auto& c :
       {Case{64, 1e-12}, Case{96, 1e-12}, Case{100, 1e-12}, Case{330, 5e-12}}) {
    const auto basis = sl::dct_basis(c.n);
    sl::Rng rng(c.n);
    const auto rows = rng.sample_without_replacement(c.n, c.n / 3);
    std::vector<std::size_t> idx(rows.begin(), rows.end());
    std::sort(idx.begin(), idx.end());
    sl::SubsampledDctOperator op(c.n, idx);
    expect_operator_matches_dense(op, dense_rows(basis, idx), c.tol, c.n + 1);
  }
}

TEST(SubsampledDctOperator, EmptyRowListIsFullSquareOperator) {
  const std::size_t n = 48;
  sl::SubsampledDctOperator op(n, {});
  EXPECT_EQ(op.rows(), n);
  EXPECT_EQ(op.cols(), n);
  expect_operator_matches_dense(op, sl::dct_basis(n), 1e-12, 79);
}

TEST(SubsampledDctOperator, StateIsLinearNotQuadratic) {
  const std::size_t n = 4096;
  sl::Rng rng(80);
  auto rows = rng.sample_without_replacement(n, 300);
  std::vector<std::size_t> idx(rows.begin(), rows.end());
  std::sort(idx.begin(), idx.end());
  sl::SubsampledDctOperator op(n, idx);
  const std::size_t dense_bytes = idx.size() * n * sizeof(double);
  EXPECT_LT(op.state_bytes(), dense_bytes / 10);
}

// Built from a measurement plan's row list, the operator is eq. 7's
// Phi~ = select_rows(dct_basis(n)).
TEST(SensingOperatorFactories, MatchSelectRows) {
  sl::Rng rng(84);
  const std::size_t n = 96;
  const auto plan = sc::MeasurementPlan::random(n, 30, rng);
  const auto rows = plan.indices();
  sl::SubsampledDctOperator op(n, {rows.begin(), rows.end()});
  expect_operator_matches_dense(op, plan.select_rows(sl::dct_basis(n)), 1e-12,
                                85);
}

// ------------------------------------------------ batch vs sequential ----

namespace {

void expect_batch_matches_sequential(
    const std::vector<sc::SparseSolution>& batch,
    const std::vector<sc::SparseSolution>& seq, double coef_tol,
    const char* what) {
  ASSERT_EQ(batch.size(), seq.size()) << what;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    EXPECT_EQ(batch[b].support, seq[b].support) << what << " signal " << b;
    EXPECT_LE(
        max_abs_diff(batch[b].coefficients, seq[b].coefficients), coef_tol)
        << what << " signal " << b;
    EXPECT_NEAR(batch[b].residual_norm, seq[b].residual_norm,
                coef_tol * (1.0 + seq[b].residual_norm))
        << what << " signal " << b;
    EXPECT_EQ(batch[b].iterations, seq[b].iterations)
        << what << " signal " << b;
  }
}

}  // namespace

TEST(SolveBatch, EveryRegistrySolverMatchesSequentialLoop) {
  // The acceptance bar from the batch contract: identical supports and
  // iteration counts, coefficients equal to the one-signal-at-a-time
  // loop.  Solvers without an override (iht among them) run the base
  // loop, and cosamp runs its sequential pursuit behind a blocked sweep:
  // bit for bit.
  // omp's Gram path reorders the arithmetic: within 1e-12.
  const auto a = random_matrix(40, 32, 90);
  sl::Rng rng(91);
  std::vector<sl::Vector> ys;
  for (std::size_t b = 0; b < 6; ++b) ys.push_back(sparse_signal(a, 5, rng));

  sc::SolveContext ctx;
  ctx.sparsity = 5;
  for (const auto& name : sc::SolverRegistry::global().names()) {
    auto solver = sc::SolverRegistry::global().create(name);
    std::vector<sc::SparseSolution> seq;
    for (const auto& y : ys) seq.push_back(solver->solve(a, y, ctx));
    const auto batch = solver->solve_batch(a, ys, ctx);
    expect_batch_matches_sequential(batch, seq, name == "omp" ? 1e-12 : 0.0,
                                    name.c_str());
  }
}

TEST(SolveBatch, FreeFunctionBatchesMatchSequential) {
  // Exercise the free-function layer directly, including batch sizes that
  // straddle the Gram gate (bcount large enough to amortize A^T A).
  // n = 2100 puts A^T A (35.3 MB) over the 32 MiB Gram budget, so omp's
  // batch runs omp_solve's own pursuit in lockstep: bit for bit, like
  // cosamp at every shape.
  struct Shape {
    std::size_t n;
    std::vector<std::size_t> bcounts;
    double omp_tol;
  };
  for (const Shape& shape :
       {Shape{48, {1, 3, 17}, 1e-12}, Shape{2100, {4}, 0.0}}) {
    const auto a = random_matrix(30, shape.n, 92);
    sl::Rng rng(93);
    for (const std::size_t bcount : shape.bcounts) {
      SCOPED_TRACE(testing::Message() << "n " << shape.n << " B " << bcount);
      std::vector<sl::Vector> ys;
      for (std::size_t b = 0; b < bcount; ++b) {
        ys.push_back(sparse_signal(a, 6, rng));
      }
      sc::OmpOptions oo;
      oo.max_sparsity = 6;
      std::vector<sc::SparseSolution> seq;
      for (const auto& y : ys) seq.push_back(sc::omp_solve(a, y, oo));
      expect_batch_matches_sequential(sc::omp_solve_batch(a, ys, oo), seq,
                                      shape.omp_tol, "omp");

      sc::CosampOptions co;
      co.sparsity = 6;
      seq.clear();
      for (const auto& y : ys) seq.push_back(sc::cosamp_solve(a, y, co));
      expect_batch_matches_sequential(sc::cosamp_solve_batch(a, ys, co), seq,
                                      0.0, "cosamp");
    }
  }
}

TEST(SolveBatch, ChunkBoundariesNeverChangeABit) {
  // Each signal's batch output is a deterministic function of
  // (a, y, opts) alone for any bcount >= 2: the Gram gate ignores batch
  // size and the per-signal state never crosses signals.  This is the
  // invariant exec::solve_batch_parallel leans on when it slices a
  // workload by an arbitrary batch_size knob — re-chunking must be
  // bitwise invisible.
  const auto a = random_matrix(28, 44, 97);
  sl::Rng rng(98);
  std::vector<sl::Vector> ys;
  for (std::size_t b = 0; b < 12; ++b) ys.push_back(sparse_signal(a, 5, rng));
  sc::OmpOptions oo;
  oo.max_sparsity = 5;

  const auto whole = sc::omp_solve_batch(a, ys, oo);
  ASSERT_EQ(whole.size(), ys.size());
  std::vector<sc::SparseSolution> rechunked;
  for (const std::size_t count : {std::size_t{4}, std::size_t{6},
                                  std::size_t{2}}) {
    const std::span<const sl::Vector> slice(ys.data() + rechunked.size(),
                                            count);
    for (auto& sol : sc::omp_solve_batch(a, slice, oo)) {
      rechunked.push_back(std::move(sol));
    }
  }
  ASSERT_EQ(rechunked.size(), whole.size());
  for (std::size_t s = 0; s < whole.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(rechunked[s].support, whole[s].support);
    EXPECT_EQ(rechunked[s].residual_norm, whole[s].residual_norm);
    EXPECT_EQ(rechunked[s].iterations, whole[s].iterations);
    ASSERT_EQ(rechunked[s].coefficients.size(), whole[s].coefficients.size());
    for (std::size_t i = 0; i < whole[s].coefficients.size(); ++i) {
      EXPECT_EQ(rechunked[s].coefficients[i], whole[s].coefficients[i]);
    }
  }
}

TEST(SolveBatch, ValidatesShapesAndEmptyBatch) {
  const auto a = random_matrix(10, 16, 94);
  sc::OmpOptions oo;
  EXPECT_TRUE(sc::omp_solve_batch(a, {}, oo).empty());
  std::vector<sl::Vector> bad{sl::Vector(9, 0.0)};
  EXPECT_THROW(sc::omp_solve_batch(a, bad, oo), std::invalid_argument);
}

TEST(SolveBatch, CancelledTokenStopsWholeBatchLikeSequential) {
  // A token cancelled before the call: every member of the batch must
  // come back exactly as the sequential loop would return it (empty
  // support, zero iterations, residual = ||y||).
  const auto a = random_matrix(24, 36, 95);
  sl::Rng rng(96);
  std::vector<sl::Vector> ys;
  for (std::size_t b = 0; b < 4; ++b) ys.push_back(sparse_signal(a, 4, rng));

  sc::CancelToken token;
  token.cancel();
  sc::SolveContext ctx;
  ctx.sparsity = 4;
  ctx.cancel = &token;
  for (const char* name : {"omp", "cosamp", "iht"}) {
    auto solver = sc::SolverRegistry::global().create(name);
    std::vector<sc::SparseSolution> seq;
    for (const auto& y : ys) seq.push_back(solver->solve(a, y, ctx));
    const auto batch = solver->solve_batch(a, ys, ctx);
    expect_batch_matches_sequential(batch, seq, 1e-12, name);
    for (const auto& sol : batch) EXPECT_TRUE(sol.support.empty()) << name;
  }
}

// ------------------------------------------------ factored-basis CHS ----

// CHS on the factored separable DCT against CHS on its dense matrix.  The
// factored basis forms every refit and synthesis entry bit for bit as the
// dense matrix holds it; only step (b)'s factor products round
// differently, so the two select the same atoms and agree to rounding.
// A 1-D DCT is the factored basis of a one-column grid, kron([1], dct_n).
namespace {

void expect_factored_matches_dense(const sl::Basis& factored,
                                   const sl::Matrix& dense,
                                   const sc::Measurement& meas,
                                   const sc::ChsOptions& opts) {
  ASSERT_TRUE(factored.factored());
  const auto want = sc::chs_reconstruct(dense, meas, opts);
  const auto got = sc::chs_reconstruct(factored, meas, opts);
  EXPECT_FALSE(want.support.empty());
  EXPECT_EQ(got.support, want.support);
  EXPECT_LE(max_abs_diff(got.coefficients, want.coefficients), 1e-9);
  EXPECT_LE(max_abs_diff(got.reconstruction, want.reconstruction), 1e-9);
}

sc::Measurement sparse_measurement(const sl::Matrix& basis,
                                   std::size_t pool, std::size_t k,
                                   std::size_t m, sl::Rng& rng) {
  sl::Vector alpha(basis.cols(), 0.0);
  for (std::size_t j : rng.sample_without_replacement(pool, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto x = sl::synthesize(basis, alpha);
  return sc::measure_exact(x,
                           sc::MeasurementPlan::random(basis.cols(), m, rng));
}

}  // namespace

TEST(ChsOperator, MatchesDenseBasis1d) {
  const std::size_t n = 64;
  const auto basis = sl::dct_basis(n);
  sl::Rng rng(100);
  const auto meas = sparse_measurement(basis, n, 6, 28, rng);
  sc::ChsOptions opts;
  opts.max_support = 10;
  expect_factored_matches_dense(sl::dct2_factored(1, n), basis, meas, opts);
}

TEST(ChsOperator, MatchesDenseBasis2dLinearInterpolation) {
  const std::size_t w = 10, h = 8, n = w * h;
  const auto basis = sl::dct2_basis(w, h);
  sl::Rng rng(101);
  const auto meas = sparse_measurement(basis, n, 5, 32, rng);
  sc::ChsOptions opts;
  opts.max_support = 10;
  opts.interpolation = sc::Interpolation::kLinear;
  opts.grid_height = h;
  expect_factored_matches_dense(sl::dct2_factored(w, h), basis, meas, opts);
}

TEST(ChsOperator, MatchesDenseBasis2dNearestInterpolation) {
  const std::size_t w = 12, h = 9, n = w * h;
  const auto basis = sl::dct2_basis(w, h);
  sl::Rng rng(104);
  const auto meas = sparse_measurement(basis, n / 3, 5, 40, rng);
  sc::ChsOptions opts;
  opts.max_support = 10;
  opts.interpolation = sc::Interpolation::kNearest;
  opts.grid_height = h;
  expect_factored_matches_dense(sl::dct2_factored(w, h), basis, meas, opts);
}

TEST(ChsOperator, MatchesDenseBasis1dLinearInterpolation) {
  const std::size_t n = 96;
  const auto basis = sl::dct_basis(n);
  sl::Rng rng(105);
  const auto meas = sparse_measurement(basis, n / 4, 5, 36, rng);
  sc::ChsOptions opts;
  opts.max_support = 10;
  opts.interpolation = sc::Interpolation::kLinear;
  expect_factored_matches_dense(sl::dct2_factored(1, n), basis, meas, opts);
}

TEST(ChsOperator, ValidatesNonSquareOperator) {
  sl::Rng rng(102);
  const std::size_t n = 32;
  auto plan = sc::MeasurementPlan::random(n, 12, rng);
  auto meas = sc::measure_exact(sl::Rng(103).gaussian_vector(n), plan);
  // The sampled rows of a basis are not a square synthesis basis, and a
  // factored basis must cover the plan's grid.
  EXPECT_THROW(sc::chs_reconstruct(plan.select_rows(sl::dct_basis(n)), meas),
               std::invalid_argument);
  EXPECT_THROW(sc::chs_reconstruct(sl::dct2_factored(4, 4), meas),
               std::invalid_argument);
  EXPECT_NO_THROW(sc::chs_reconstruct(sl::dct2_factored(4, 8), meas));
}

// ------------------------------------------------ NanoCloud basis state ----

// A zone's factored basis against the same separable DCT handed in as a
// dense matrix (a shared basis without factors): the same draws and the
// same gather up to near-exact atom ties, at 8 w^2 bytes of basis state
// instead of 8 N^2.
TEST(NanoCloudFastOperator, MatchesDenseBasisGather) {
  sl::Rng field_rng(110);
  const auto zone = sf::random_plume_field(16, 16, 2, field_rng, 20.0);

  auto run = [&](std::shared_ptr<const sl::Basis> basis) {
    sh::NanoCloudConfig cfg;
    cfg.coverage = 1.0;
    sl::Rng rng(111);
    sh::NanoCloud nc(zone, cfg, rng, std::move(basis));
    auto res = nc.gather(100, rng);
    return std::pair<double, std::size_t>{res.nrmse, nc.basis_state_bytes()};
  };

  const auto [factored_nrmse, factored_bytes] = run(nullptr);
  const auto [dense_nrmse, dense_bytes] =
      run(std::make_shared<const sl::Basis>(sl::dct2_basis(16, 16)));
  EXPECT_NEAR(factored_nrmse, dense_nrmse, 1e-8);
  EXPECT_EQ(factored_bytes, std::size_t{16 * 16 * sizeof(double)});
  EXPECT_EQ(dense_bytes, std::size_t{256 * 256 * sizeof(double)});
}
