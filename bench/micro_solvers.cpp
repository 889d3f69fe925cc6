// E11 — google-benchmark microbenchmarks of the CS solver stack: the
// costs a broker pays per reconstruction and a node pays per context
// window.
// Each run emits a RunReport (solver iteration counts, residual and
// latency histograms) as JSON — to $SENSEDROID_REPORT when set, else
// stdout — so BENCH_*.json trajectories capture solver-internal work,
// not just wall time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "cs/basis_pursuit.h"
#include "cs/greedy_variants.h"
#include "cs/chs.h"
#include "cs/least_squares.h"
#include "cs/omp.h"
#include "linalg/basis.h"
#include "linalg/decomposition.h"
#include "linalg/operator.h"
#include "linalg/random.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "support/tableau_oracle.h"

using namespace sensedroid;

namespace {

linalg::Matrix random_matrix(std::size_t m, std::size_t n,
                             std::uint64_t seed) {
  linalg::Rng rng(seed);
  linalg::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  return a;
}

linalg::Vector sparse_signal(const linalg::Matrix& basis, std::size_t k,
                             linalg::Rng& rng) {
  linalg::Vector alpha(basis.cols(), 0.0);
  for (std::size_t j : rng.sample_without_replacement(basis.cols() / 2, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  return basis * alpha;
}

void BM_DctBasisBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::dct_basis(n));
  }
}
BENCHMARK(BM_DctBasisBuild)->Arg(64)->Arg(256)->Arg(512);

void BM_Omp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4, k = 6;
  const auto a = random_matrix(m, n, 11);
  linalg::Rng rng(12);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto y = a * alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::omp_solve(a, y, {.max_sparsity = k}));
  }
}
BENCHMARK(BM_Omp)->Arg(128)->Arg(256)->Arg(512);

void BM_Cosamp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4, k = 6;
  const auto a = random_matrix(m, n, 21);
  linalg::Rng rng(22);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto y = a * alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::cosamp_solve(a, y, {.sparsity = k}));
  }
}
BENCHMARK(BM_Cosamp)->Arg(128)->Arg(256)->Arg(512);

void BM_Niht(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4, k = 6;
  const auto a = random_matrix(m, n, 23);
  linalg::Rng rng(24);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto y = a * alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::iht_solve(a, y, {.sparsity = k}));
  }
}
BENCHMARK(BM_Niht)->Arg(128)->Arg(256)->Arg(512);

void BM_BasisPursuitLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4, k = 4;
  const auto a = random_matrix(m, n, 13);
  linalg::Rng rng(14);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto y = a * alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::basis_pursuit(a, y));
  }
}
BENCHMARK(BM_BasisPursuitLp)->Arg(48)->Arg(96);

void BM_ChsReconstruct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4;
  const auto basis = linalg::dct_basis(n);
  linalg::Rng rng(15);
  const auto x = sparse_signal(basis, 6, rng);
  auto plan = cs::MeasurementPlan::random(n, m, rng);
  const auto meas = cs::measure_exact(x, std::move(plan));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::chs_reconstruct(basis, meas));
  }
}
BENCHMARK(BM_ChsReconstruct)->Arg(128)->Arg(256)->Arg(512);

// The production per-zone solve: NanoCloud's default CHS (2-D kLinear
// Upsilon, GLS refit over a heterogeneous fleet) against its factored
// separable 2-D DCT basis, on a side x side zone with m samples.
struct ChsZone {
  linalg::Basis basis;
  cs::Measurement meas;
  cs::ChsOptions opts;

  cs::ChsResult solve() const {
    return cs::chs_reconstruct(basis, meas, opts);
  }
};

ChsZone chs_zone(std::size_t side, std::size_t m) {
  linalg::Rng rng(21);
  const auto x = sparse_signal(linalg::dct2_basis(side, side), 6, rng);
  auto plan = cs::MeasurementPlan::random(side * side, m, rng);
  auto noise = cs::SensorNoise::heterogeneous(m, 0.05, 0.5, rng);
  cs::ChsOptions opts;
  opts.interpolation = cs::Interpolation::kLinear;
  opts.refit_solver = "gls";
  opts.grid_height = side;
  return {linalg::dct2_factored(side, side),
          cs::measure(x, std::move(plan), std::move(noise), rng),
          std::move(opts)};
}

// solve-heavy's 16x16 zone with m = 64 and zones-faulted's 8x8 zone with
// m = 20, plus a 64x64 zone with m = 512.  BM_ChsReconstruct runs 1-D
// zero-fill OLS and never reaches Upsilon.
void BM_ChsZone2d(benchmark::State& state) {
  const ChsZone zone = chs_zone(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(zone.solve());
}
BENCHMARK(BM_ChsZone2d)->Args({16, 64})->Args({8, 20})->Args({64, 512});

// Step (a)'s stencil build alone: the 2-D kLinear Upsilon of NanoCloud's
// zones, 16x16 with m = 64 and 8x8 with m = 20.  A campaign builds one
// per zone solve, each on a new plan, so the loop cycles through 256
// drawn plans rather than rebuilding one the branch predictor has learnt.
void BM_UpsilonBuild(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  linalg::Rng rng(22);
  std::vector<std::vector<std::size_t>> plans(256);
  for (auto& loc : plans) loc = rng.sample_without_replacement(side * side, m);
  std::size_t i = 0;
  for (auto _ : state) {
    const cs::Upsilon upsilon(plans[i++ % plans.size()], side * side, side,
                              cs::Interpolation::kLinear);
    benchmark::DoNotOptimize(&upsilon);
  }
}
BENCHMARK(BM_UpsilonBuild)->Args({16, 64})->Args({8, 20});

void BM_Ols(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = m / 3;
  const auto a = random_matrix(m, k, 16);
  linalg::Rng rng(17);
  const auto y = rng.gaussian_vector(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::solve_ols(a, y));
  }
}
BENCHMARK(BM_Ols)->Arg(32)->Arg(128)->Arg(512);

void BM_GlsDiag(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = m / 3;
  const auto a = random_matrix(m, k, 18);
  linalg::Rng rng(19);
  const auto y = rng.gaussian_vector(m);
  linalg::Vector sigma(m);
  for (auto& s : sigma) s = rng.uniform(0.01, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::solve_gls_diag(a, y, sigma));
  }
}
BENCHMARK(BM_GlsDiag)->Arg(32)->Arg(128)->Arg(512);

void BM_PseudoInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n + 8, n, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::pseudo_inverse(a));
  }
}
BENCHMARK(BM_PseudoInverse)->Arg(16)->Arg(48);

// ---------------------------------------------------------------------
// Fig. 4 regime trajectory point: median per-solve microseconds for each
// solver at n=256, m=30, k~10 (the per-zone per-round hot path the exec
// engine fans out), plus BM_ChsZone2d's two campaign zone solves.
// Written as machine-readable JSON to $SENSEDROID_BENCH_JSON (default
// ./BENCH_solvers.json) so the bench trajectory has comparable
// before/after points across PRs.

template <typename Fn>
double median_solve_us(std::size_t reps, Fn&& solve_once) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    solve_once();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

bool write_fig4_regime_json() {
  constexpr std::size_t n = 256, m = 30, k = 10, reps = 400;
  const auto basis = linalg::dct_basis(n);
  linalg::Rng rng(404);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  const auto x = basis * alpha;
  auto plan = cs::MeasurementPlan::random(n, m, rng);
  const auto meas = cs::measure_exact(x, plan);
  const linalg::Matrix a = plan.select_rows(basis);  // M x N dictionary
  const linalg::Vector& y = meas.values;
  const auto support_cols = a.select_cols(rng.sample_without_replacement(n, k));

  const double omp_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::omp_solve(a, y, {.max_sparsity = k}));
  });
  const double cosamp_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::cosamp_solve(a, y, {.sparsity = k}));
  });
  const double iht_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::iht_solve(a, y, {.sparsity = k}));
  });
  const double chs_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::chs_reconstruct(basis, meas));
  });
  // The campaign zone solves of BM_ChsZone2d, so the trajectory gate
  // covers the production shape as well as the Fig. 4 one.
  const ChsZone zone16 = chs_zone(16, 64), zone8 = chs_zone(8, 20);
  const double zone16_us = median_solve_us(
      reps, [&] { benchmark::DoNotOptimize(zone16.solve()); });
  const double zone8_us = median_solve_us(
      reps, [&] { benchmark::DoNotOptimize(zone8.solve()); });
  const double ols_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::solve_ols(support_cols, y));
  });

  // Basis pursuit three ways.  "bp" is the revised simplex from its
  // crash start; "bp_warm" re-solves the same instance from the previous
  // solve's exported basis — the CHS cache-hit path, where the warm
  // basis is accepted and phase 2 terminates after one confirming price
  // (a perturbed-RHS warm basis is generally primal infeasible and falls
  // back to the crash start, i.e. it measures "bp" again); "bp_tableau"
  // is the dense-tableau test oracle (tests/support/tableau_oracle.h),
  // kept in the trajectory as the baseline the revised engine is
  // measured against (and run at reps/8: it is orders of magnitude
  // slower and its median stabilizes quickly).
  const double bp_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::bp_solve(a, y));
  });

  const cs::BpSolution warm_seed = cs::bp_solve(a, y);
  cs::BasisPursuitOptions warm_opts;
  warm_opts.lp.warm_basis = warm_seed.basis;
  const double bp_warm_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::bp_solve(a, y, warm_opts));
  });

  const double bp_tableau_us = median_solve_us(reps / 8, [&] {
    benchmark::DoNotOptimize(test_support::oracle_tableau_solve_bp(a, y));
  });

  // Appends one JSONL trajectory point per run ($SENSEDROID_BENCH_LABEL
  // tags it, e.g. "pre-incremental-qr" vs "incremental-qr") so the file
  // accumulates comparable before/after points across PRs instead of
  // keeping only the newest run.
  const char* env = std::getenv("SENSEDROID_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_solvers.json";
  const char* label_env = std::getenv("SENSEDROID_BENCH_LABEL");
  const char* label = label_env != nullptr ? label_env : "head";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_solvers: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\"bench\":\"micro_solvers\",\"regime\":\"fig4\","
               "\"label\":\"%s\","
               "\"fixture\":{\"n\":%zu,\"m\":%zu,\"k\":%zu,\"reps\":%zu},"
               "\"median_us\":{\"omp\":%.3f,\"cosamp\":%.3f,\"iht\":%.3f,"
               "\"chs\":%.3f,\"ols_30x10\":%.3f,\"bp\":%.3f,"
               "\"bp_warm\":%.3f,\"bp_tableau\":%.3f,"
               "\"chs_zone_16x16\":%.3f,\"chs_zone_8x8\":%.3f}}\n",
               label, n, m, k, reps, omp_us, cosamp_us, iht_us, chs_us,
               ols_us, bp_us, bp_warm_us, bp_tableau_us, zone16_us, zone8_us);
  std::fclose(f);
  std::printf("fig4 regime (n=%zu m=%zu k=%zu) median us: omp=%.2f "
              "cosamp=%.2f iht=%.2f chs=%.2f ols=%.2f bp=%.2f "
              "bp_warm=%.2f bp_tableau=%.2f chs_zone_16x16=%.2f "
              "chs_zone_8x8=%.2f -> %s\n",
              n, m, k, omp_us, cosamp_us, iht_us, chs_us, ols_us, bp_us,
              bp_warm_us, bp_tableau_us, zone16_us, zone8_us, path.c_str());
  return true;
}

// ---------------------------------------------------------------------
// Batch + operator trajectory point (gated by solver_batch_guard and
// by bench_regression_guard's trajectory row):
//
//   omp_bB            per-signal median us of omp_solve_batch over B
//                     signals in the Fig. 4 regime — the B=1 point is the
//                     sequential baseline, so omp_b1/omp_b64 is the batch
//                     GEMM speedup the acceptance floor reads (>= 3x);
//   sweep_dense_nN /  one A^T r correlation sweep at m = N/8, dense
//   sweep_fastdct_nN  matrix vs SubsampledDctOperator (>= 5x at 4096);
//   state_bytes       bytes each sweep fixture holds to represent A —
//                     reporting only, never trajectory-gated.

bool write_batch_operator_json() {
  constexpr std::size_t n = 256, m = 30, k = 10;
  const auto basis = linalg::dct_basis(n);
  linalg::Rng rng(505);
  auto plan = cs::MeasurementPlan::random(n, m, rng);
  const linalg::Matrix a = plan.select_rows(basis);

  constexpr std::size_t kMaxBatch = 512;
  std::vector<linalg::Vector> ys;
  ys.reserve(kMaxBatch);
  for (std::size_t s = 0; s < kMaxBatch; ++s) {
    linalg::Vector alpha(n, 0.0);
    for (std::size_t j : rng.sample_without_replacement(n, k)) {
      alpha[j] = rng.uniform(1.0, 2.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    }
    ys.push_back(a * alpha);
  }

  // Per-signal median microseconds at batch size B: each rep solves one
  // batch of B signals; reps shrink as B grows so every point does a
  // comparable amount of total work.
  const auto batch_us = [&](std::size_t bsize) {
    const std::size_t reps = std::max<std::size_t>(3, 1024 / bsize);
    const std::span<const linalg::Vector> slice(ys.data(), bsize);
    return median_solve_us(reps, [&] {
      benchmark::DoNotOptimize(
          cs::omp_solve_batch(a, slice, {.max_sparsity = k}));
    }) / static_cast<double>(bsize);
  };
  const double b1 = batch_us(1);
  const double b8 = batch_us(8);
  const double b64 = batch_us(64);
  const double b512 = batch_us(512);

  // One correlation sweep per rep, dense vs fast-DCT, m = N/8.  The
  // dense twin is assembled from the operator's exact columns so the two
  // sweeps compute the same product.
  struct SweepPoint {
    std::size_t n = 0;
    double dense_us = 0.0;
    double fast_us = 0.0;
    std::size_t dense_bytes = 0;
    std::size_t fast_bytes = 0;
  };
  std::vector<SweepPoint> sweeps;
  for (const std::size_t sn : {std::size_t{256}, std::size_t{1024},
                               std::size_t{4096}}) {
    const std::size_t sm = sn / 8;
    auto rows = rng.sample_without_replacement(sn, sm);
    std::vector<std::size_t> idx(rows.begin(), rows.end());
    std::sort(idx.begin(), idx.end());
    const linalg::SubsampledDctOperator op(sn, idx);
    const linalg::Matrix dense = op.to_dense();
    const auto r = linalg::Rng(sn).gaussian_vector(sm);
    linalg::Vector corr(sn);
    const std::size_t reps = std::max<std::size_t>(20, 400'000 / sn);
    SweepPoint p;
    p.n = sn;
    p.dense_us = median_solve_us(reps, [&] {
      dense.transpose_times_into(r, corr);
      benchmark::DoNotOptimize(corr.data());
    });
    p.fast_us = median_solve_us(reps, [&] {
      op.apply_transpose_into(r, corr);
      benchmark::DoNotOptimize(corr.data());
    });
    p.dense_bytes = sm * sn * sizeof(double);
    p.fast_bytes = op.state_bytes();
    sweeps.push_back(p);
  }

  const char* env = std::getenv("SENSEDROID_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_solvers.json";
  const char* label_env = std::getenv("SENSEDROID_BENCH_LABEL");
  const char* label = label_env != nullptr ? label_env : "head";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_solvers: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\"bench\":\"micro_solvers\",\"regime\":\"batch_ops\","
               "\"label\":\"%s\","
               "\"fixture\":{\"n\":%zu,\"m\":%zu,\"k\":%zu},"
               "\"median_us\":{\"omp_b1\":%.3f,\"omp_b8\":%.3f,"
               "\"omp_b64\":%.3f,\"omp_b512\":%.3f",
               label, n, m, k, b1, b8, b64, b512);
  for (const auto& p : sweeps) {
    std::fprintf(f, ",\"sweep_dense_n%zu\":%.3f,\"sweep_fastdct_n%zu\":%.3f",
                 p.n, p.dense_us, p.n, p.fast_us);
  }
  std::fprintf(f, "},\"state_bytes\":{");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    std::fprintf(f, "%s\"sweep_dense_n%zu\":%zu,\"sweep_fastdct_n%zu\":%zu",
                 i == 0 ? "" : ",", sweeps[i].n, sweeps[i].dense_bytes,
                 sweeps[i].n, sweeps[i].fast_bytes);
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
  std::printf("batch_ops regime: omp per-signal us b1=%.2f b8=%.2f b64=%.2f "
              "b512=%.2f (b1/b64 %.2fx)",
              b1, b8, b64, b512, b64 > 0.0 ? b1 / b64 : 0.0);
  for (const auto& p : sweeps) {
    std::printf("; sweep n=%zu dense=%.2fus fast=%.2fus (%.2fx)", p.n,
                p.dense_us, p.fast_us,
                p.fast_us > 0.0 ? p.dense_us / p.fast_us : 0.0);
  }
  std::printf(" -> %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Attach the registry for the whole run: the per-call overhead (one
  // atomic load when idle, a mutex-guarded map lookup when counting) is
  // part of what production deployments pay, so the benches measure it.
  obs::MetricsRegistry registry;
  obs::attach_registry(&registry);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const bool bench_json_ok =
      write_fig4_regime_json() && write_batch_operator_json();

  auto report = obs::RunReport::from_registry(registry, "micro_solvers");
  obs::attach_registry(nullptr);
  return obs::write_report(report) && bench_json_ok ? 0 : 1;
}
