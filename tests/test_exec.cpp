// Execution-engine tests: the ThreadPool contract (start/stop, results,
// exception propagation), the SolverRegistry round-trip for every
// registered name, cooperative cancellation, and the headline invariant
// of DESIGN.md §9 — a seeded, faulted, multi-zone campaign produces a
// byte-identical deterministic RunReport whether it runs on 1 worker or
// N.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <future>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cs/chs.h"
#include "cs/measurement.h"
#include "cs/solver.h"
#include "exec/campaign_runner.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "field/generators.h"
#include "field/zones.h"
#include "hierarchy/localcloud.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace sc = sensedroid::cs;
namespace se = sensedroid::exec;
namespace sf = sensedroid::field;
namespace sfl = sensedroid::fault;
namespace sh = sensedroid::hierarchy;
namespace sl = sensedroid::linalg;
namespace so = sensedroid::obs;

namespace {

using sl::Matrix;
using sl::Vector;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsTasksAndReturnsResults) {
  se::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  long long expect = 0;
  for (int i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  se::ThreadPool pool;  // 0 = hardware_concurrency, clamped to >= 1
  EXPECT_GE(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, PropagatesTaskExceptionsAndSurvivesThem) {
  se::ThreadPool pool(2);
  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("task boom");
  });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 41 + 1; }).get(), 42);
}

TEST(ThreadPool, ShutdownDrainsQueuedWorkThenRejectsNewWork) {
  std::atomic<int> ran{0};
  se::ThreadPool pool(1);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  pool.shutdown();
  EXPECT_EQ(ran.load(), 16);  // queued tasks finished, not dropped
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(pool.submit([] { return 0; }), std::runtime_error);
  pool.shutdown();  // idempotent
}

// ----------------------------------------------------------------- FanOut

TEST(FanOut, RunsOnTheCallerWhileEveryWorkerIsBusy) {
  se::ThreadPool pool(1);
  std::promise<void> gate;
  auto blocker = pool.submit([open = gate.get_future()] { open.wait(); });
  std::vector<std::thread::id> ran_on(8);
  auto caller = std::async(std::launch::async, [&] {
    se::fan_out(pool, ran_on.size(),
                [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    return std::this_thread::get_id();
  });
  const bool finished = caller.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  gate.set_value();
  blocker.get();
  const std::thread::id caller_id = caller.get();
  EXPECT_TRUE(finished) << "fan_out waited for the busy worker";
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller_id);
}

TEST(FanOut, NestedOnAOneWorkerPoolCompletes) {
  se::ThreadPool pool(1);
  std::atomic<int> inner{0};
  // The outer tasks run on the worker and on the caller; each fans out
  // again on the same pool.
  se::fan_out(pool, 4, [&](std::size_t) {
    se::fan_out(pool, 4, [&](std::size_t) {
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner.load(), 16);
  auto from_task = pool.submit([&] {
    se::fan_out(pool, 8, [&](std::size_t) {
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  ASSERT_EQ(from_task.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  from_task.get();
  EXPECT_EQ(inner.load(), 24);
}

TEST(FanOut, RethrowsTheLowestIndexAfterEveryTaskRan) {
  se::ThreadPool pool(2);
  std::vector<std::atomic<int>> ran(16);
  try {
    se::fan_out(pool, ran.size(), [&](std::size_t i) {
      ran[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 5 || i == 9) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "fan_out did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");
  }
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(FanOut, ShutDownPoolThrowsAndRunsNothing) {
  se::ThreadPool pool(2);
  pool.shutdown();
  std::atomic<int> ran{0};
  EXPECT_THROW(se::fan_out(pool, 8,
                           [&](std::size_t) {
                             ran.fetch_add(1, std::memory_order_relaxed);
                           }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
}

// ---------------------------------------------------------- SolverRegistry

// K-sparse toy problem every solver must nail: identity dictionary, so
// the solution IS the measurement.
struct ToyProblem {
  Matrix a = Matrix::identity(6);
  Vector y = {0.0, 2.0, 0.0, -3.0, 0.0, 0.0};
};

TEST(SolverRegistry, EveryBuiltinNameRoundTripsAndSolves) {
  auto& reg = sc::SolverRegistry::global();
  const std::vector<std::string> names = reg.names();
  // All builtins plus the two aliases must be present.
  for (const char* expect :
       {"omp", "cosamp", "iht", "niht", "bp", "basis_pursuit", "ols", "gls",
        "ridge"}) {
    EXPECT_TRUE(reg.contains(expect)) << expect;
  }

  const ToyProblem p;
  sc::SolveContext ctx;
  ctx.sparsity = 2;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const auto solver = reg.create(name);
    ASSERT_NE(solver, nullptr);
    // Aliases resolve to their canonical implementation.
    if (name == "niht") {
      EXPECT_EQ(solver->name(), "iht");
    } else if (name == "basis_pursuit") {
      EXPECT_EQ(solver->name(), "bp");
    } else {
      EXPECT_EQ(solver->name(), name);
    }
    const sc::SparseSolution sol = solver->solve(p.a, p.y, ctx);
    ASSERT_EQ(sol.coefficients.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(sol.coefficients[i], p.y[i], 1e-6);
    }
    EXPECT_LT(sol.residual_norm, 1e-6);
  }
}

TEST(SolverRegistry, UnknownNameThrowsWithInventory) {
  auto& reg = sc::SolverRegistry::global();
  try {
    reg.create("no_such_solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must list what IS available, or typos cost minutes.
    EXPECT_NE(std::string(e.what()).find("omp"), std::string::npos);
  }
}

namespace {
class FixedSolver final : public sc::SparseSolver {
 public:
  std::string_view name() const noexcept override { return "fixed"; }
  sc::SparseSolution solve(const Matrix& a, std::span<const double>,
                           const sc::SolveContext&) const override {
    sc::SparseSolution s;
    s.coefficients.assign(a.cols(), 1.5);
    return s;
  }
};
}  // namespace

TEST(SolverRegistry, AcceptsCustomRegistrations) {
  sc::SolverRegistry reg;
  EXPECT_FALSE(reg.contains("fixed"));
  reg.register_solver("fixed", [] { return std::make_unique<FixedSolver>(); });
  EXPECT_TRUE(reg.contains("fixed"));
  const ToyProblem p;
  const auto sol = reg.create("fixed")->solve(p.a, p.y, {});
  EXPECT_EQ(sol.coefficients[0], 1.5);
  EXPECT_THROW(reg.register_solver("", [] {
    return std::make_unique<FixedSolver>();
  }),
               std::invalid_argument);
}

TEST(SolverRegistry, SharedInstanceIsReentrantAcrossWorkers) {
  // One solver instance, many concurrent solves: the statelessness
  // contract of SparseSolver.  The TSan twin of this binary turns any
  // hidden shared mutable state into a hard failure.
  const auto solver = sc::SolverRegistry::global().create("omp");
  const ToyProblem p;
  sc::SolveContext ctx;
  ctx.sparsity = 2;
  se::ThreadPool pool(4);
  std::vector<std::future<sc::SparseSolution>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(
        pool.submit([&] { return solver->solve(p.a, p.y, ctx); }));
  }
  for (auto& f : futures) {
    const auto sol = f.get();
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(sol.coefficients[i], p.y[i]);  // bit-identical every time
    }
  }
}

// ------------------------------------------------------------ cancellation

TEST(CancelToken, PreCancelledTokenStopsSolversImmediately) {
  sc::CancelToken tok;
  tok.cancel();
  const ToyProblem p;

  sc::OmpOptions omp;
  omp.cancel = &tok;
  const auto sol = sc::omp_solve(p.a, p.y, omp);
  EXPECT_EQ(sol.iterations, 0u);
  EXPECT_TRUE(sol.support.empty());

  sc::SolveContext ctx;
  ctx.sparsity = 2;
  ctx.cancel = &tok;
  const auto bp = sc::SolverRegistry::global().create("bp")->solve(
      p.a, p.y, ctx);
  EXPECT_TRUE(bp.support.empty());  // entry check: LP never ran

  tok.reset();
  EXPECT_FALSE(tok.cancelled());
  const auto sol2 = sc::omp_solve(p.a, p.y, omp);
  EXPECT_EQ(sol2.support.size(), 2u);
}

TEST(CancelToken, ChsReturnsPartialResultWhenCancelled) {
  sl::Rng rng(3);
  const std::size_t n = 32;
  const Matrix basis = sl::dct_basis(n);
  Vector alpha(n, 0.0);
  alpha[1] = 4.0;
  alpha[5] = -2.0;
  const Vector x = basis * alpha;
  auto plan = sc::MeasurementPlan::random(n, 16, rng);
  const auto meas = sc::measure_exact(x, std::move(plan));

  sc::CancelToken tok;
  tok.cancel();
  sc::ChsOptions opts;
  opts.cancel = &tok;
  const auto res = sc::chs_reconstruct(basis, meas, opts);
  EXPECT_EQ(res.iterations, 0u);  // cancelled before the first batch
  EXPECT_EQ(res.reconstruction.size(), n);
}

// ------------------------------------------------- parallel reconstruction

TEST(ChsBatch, MatchesSequentialBitForBit) {
  sl::Rng rng(11);
  const std::size_t n = 48;
  const Matrix basis = sl::dct_basis(n);
  std::vector<sc::Measurement> signals;
  for (int s = 0; s < 6; ++s) {
    Vector alpha(n, 0.0);
    alpha[1 + s] = 3.0;
    alpha[7 + s] = -1.5;
    const Vector x = basis * alpha;
    auto plan = sc::MeasurementPlan::random(n, 20, rng);
    signals.push_back(sc::measure_exact(x, std::move(plan)));
  }
  sc::ChsOptions opts;
  opts.max_support = 8;

  std::vector<sc::ChsResult> sequential;
  for (const auto& m : signals) {
    sequential.push_back(sc::chs_reconstruct(basis, m, opts));
  }

  se::ThreadPool pool(4);
  const auto parallel = se::chs_reconstruct_batch(pool, basis, signals, opts);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t s = 0; s < parallel.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(parallel[s].residual_norm, sequential[s].residual_norm);
    EXPECT_EQ(parallel[s].support, sequential[s].support);
    ASSERT_EQ(parallel[s].reconstruction.size(),
              sequential[s].reconstruction.size());
    for (std::size_t i = 0; i < parallel[s].reconstruction.size(); ++i) {
      EXPECT_EQ(parallel[s].reconstruction[i],
                sequential[s].reconstruction[i]);  // bit-identical
    }
  }
}

TEST(ChsBatch, BatchSizeIsSchedulingOnly) {
  // Same fixture shape as above: chunking signals into tasks of any size
  // must not change a single bit of any result.
  sl::Rng rng(12);
  const std::size_t n = 48;
  const Matrix basis = sl::dct_basis(n);
  std::vector<sc::Measurement> signals;
  for (int s = 0; s < 7; ++s) {
    Vector alpha(n, 0.0);
    alpha[2 + s] = 2.5;
    const Vector x = basis * alpha;
    auto plan = sc::MeasurementPlan::random(n, 20, rng);
    signals.push_back(sc::measure_exact(x, std::move(plan)));
  }
  sc::ChsOptions opts;
  opts.max_support = 6;

  se::ThreadPool pool(4);
  const auto base =
      se::chs_reconstruct_batch(pool, basis, signals, opts, /*batch_size=*/1);
  for (std::size_t bs : {std::size_t{3}, std::size_t{100}}) {
    const auto chunked =
        se::chs_reconstruct_batch(pool, basis, signals, opts, bs);
    ASSERT_EQ(chunked.size(), base.size());
    for (std::size_t s = 0; s < chunked.size(); ++s) {
      SCOPED_TRACE(s);
      EXPECT_EQ(chunked[s].support, base[s].support);
      EXPECT_EQ(chunked[s].residual_norm, base[s].residual_norm);
    }
  }
}

TEST(SolveBatchParallel, WorkerCountInvariantAndMatchesDirectBatch) {
  sl::Rng rng(13);
  const std::size_t m = 24, n = 40;
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  std::vector<Vector> ys;
  for (int s = 0; s < 11; ++s) {
    Vector alpha(n, 0.0);
    alpha[3 + s] = 2.0;
    alpha[20 + s % 5] = -1.0;
    ys.push_back(a * alpha);
  }
  const auto solver = sc::SolverRegistry::global().create("omp");
  sc::SolveContext ctx;
  ctx.sparsity = 4;

  // Chunked fan-out at 1 worker is the reference; more workers only
  // change scheduling, so results must be bit-identical.
  se::ThreadPool one(1);
  const auto ref = se::solve_batch_parallel(one, *solver, a, ys, ctx,
                                            /*batch_size=*/4);
  ASSERT_EQ(ref.size(), ys.size());
  se::ThreadPool many(8);
  const auto par = se::solve_batch_parallel(many, *solver, a, ys, ctx,
                                            /*batch_size=*/4);
  ASSERT_EQ(par.size(), ref.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(par[s].support, ref[s].support);
    ASSERT_EQ(par[s].coefficients.size(), ref[s].coefficients.size());
    for (std::size_t i = 0; i < ref[s].coefficients.size(); ++i) {
      EXPECT_EQ(par[s].coefficients[i], ref[s].coefficients[i]);
    }
  }

  // And each chunk is exactly solve_batch of that chunk: a whole-span
  // chunk reproduces the direct batch call bit-for-bit.
  const auto direct = solver->solve_batch(a, ys, ctx);
  const auto whole = se::solve_batch_parallel(many, *solver, a, ys, ctx,
                                              /*batch_size=*/100);
  ASSERT_EQ(whole.size(), direct.size());
  for (std::size_t s = 0; s < direct.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(whole[s].support, direct[s].support);
    for (std::size_t i = 0; i < direct[s].coefficients.size(); ++i) {
      EXPECT_EQ(whole[s].coefficients[i], direct[s].coefficients[i]);
    }
  }
}

// A fan-out with a registry attached must leave that registry exactly
// as a plain sequential loop over the same work does: the tasks' writes
// replay one by one in task order, not as one merged total per task
// (which would reorder every floating-point sum).
std::string deterministic_report(const so::MetricsRegistry& reg) {
  return so::RunReport::from_registry(reg, "fan-out",
                                      /*include_wall_clock=*/false)
      .to_json();
}

// The same series at full precision: the report prints 12 significant
// digits, which can hide a reordered floating-point sum.
std::string exact_view(const so::MetricsRegistry& reg) {
  std::string out;
  for (const auto& s : reg.samples()) {
    if (s.name.ends_with("_us")) continue;  // wall clock
    char values[96];
    std::snprintf(values, sizeof(values), " %a %a %llu\n", s.value, s.sum,
                  static_cast<unsigned long long>(s.count));
    out += s.name;
    for (const auto& [k, v] : s.labels) out += " " + k + "=" + v;
    out += values;
  }
  return out;
}

TEST(FanOutMetrics, ChsBatchMatchesSequentialLoopReport) {
  sl::Rng rng(14);
  const std::size_t n = 48;
  const Matrix basis = sl::dct_basis(n);
  std::vector<sc::Measurement> signals;
  for (int s = 0; s < 8; ++s) {
    Vector alpha(n, 0.0);
    alpha[1 + s] = 3.0;
    alpha[9 + s] = -1.5;
    Vector x = basis * alpha;
    // Noise keeps every residual off zero, so sum order shows.
    for (double& v : x) v += 0.05 * rng.gaussian();
    auto plan = sc::MeasurementPlan::random(n, 20, rng);
    signals.push_back(sc::measure_exact(x, std::move(plan)));
  }
  sc::ChsOptions opts;
  opts.max_support = 6;

  so::MetricsRegistry sequential;
  so::attach_registry(&sequential);
  for (const auto& m : signals) sc::chs_reconstruct(basis, m, opts);
  so::attach_registry(nullptr);
  ASSERT_GT(sequential.counter_sum("cs.chs.solves"), 0.0);

  se::ThreadPool pool(4);
  for (const std::size_t bs : {1u, 3u, 8u}) {
    SCOPED_TRACE(bs);
    so::MetricsRegistry fanned;
    so::attach_registry(&fanned);
    se::chs_reconstruct_batch(pool, basis, signals, opts, bs);
    so::attach_registry(nullptr);
    EXPECT_EQ(deterministic_report(sequential), deterministic_report(fanned));
    EXPECT_EQ(exact_view(sequential), exact_view(fanned));
  }
}

TEST(FanOutMetrics, SolveBatchParallelMatchesSequentialLoopReport) {
  sl::Rng rng(15);
  const std::size_t m = 24, n = 40, chunk = 3;
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  std::vector<Vector> ys;
  for (int s = 0; s < 16; ++s) {
    Vector alpha(n, 0.0);
    alpha[3 + s] = 2.0;
    alpha[20 + s % 5] = -1.0;
    Vector y = a * alpha;
    for (double& v : y) v += 0.05 * rng.gaussian();
    ys.push_back(std::move(y));
  }
  const auto solver = sc::SolverRegistry::global().create("omp");
  sc::SolveContext ctx;
  ctx.sparsity = 4;

  so::MetricsRegistry sequential;
  so::attach_registry(&sequential);
  const std::span<const Vector> all(ys);
  for (std::size_t start = 0; start < ys.size(); start += chunk) {
    const std::size_t count = std::min(chunk, ys.size() - start);
    solver->solve_batch(a, all.subspan(start, count), ctx);
  }
  so::attach_registry(nullptr);
  ASSERT_GT(sequential.counter_sum("cs.omp.solves"), 0.0);

  se::ThreadPool pool(4);
  so::MetricsRegistry fanned;
  so::attach_registry(&fanned);
  se::solve_batch_parallel(pool, *solver, a, ys, ctx, chunk);
  so::attach_registry(nullptr);
  EXPECT_EQ(deterministic_report(sequential), deterministic_report(fanned));
  EXPECT_EQ(exact_view(sequential), exact_view(fanned));
}

// ------------------------------------------------- deterministic campaigns

// One faulted 8-zone campaign (the PR-2 replay fixture's fault knobs on
// a LocalCloud), run through the parallel runner with `workers` threads,
// or through the inline engine (LocalCloud::gather, no pool) when
// `workers` is 0.  Returns the deterministic RunReport JSON plus the
// per-round regional results.
struct CampaignRun {
  std::string report_json;
  std::string exact;  // exact_view of the registry
  std::vector<double> nrmse;
  std::vector<std::size_t> measurements;
  sensedroid::middleware::GatherStats stats;
};

// The default refit is NanoCloudConfig's production one, GLS.
CampaignRun run_parallel_campaign(std::size_t workers,
                                  const std::string& refit_solver = "gls") {
  sfl::FaultPlan plan;
  plan.seed = 77;
  plan.link.p_good_to_bad = 0.1;
  plan.link.p_bad_to_good = 0.3;
  plan.link.loss_bad = 0.8;
  plan.churn.leave_prob = 0.2;
  plan.sensors.spike_prob = 0.05;
  sfl::FaultInjector inj(plan);

  sl::Rng field_rng(101);
  const auto truth = sf::random_plume_field(24, 24, 3, field_rng, 20.0);
  const sf::ZoneGrid grid(24, 24, 2, 4);  // 8 zones of 6x12

  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = &inj;
  cfg.retry.max_attempts = 3;
  cfg.topup_rounds = 1;
  cfg.chs.mad_threshold = 5.0;
  cfg.chs.refit_solver = refit_solver;

  so::MetricsRegistry reg;
  so::attach_registry(&reg);

  sl::Rng rng(7);
  sh::LocalCloud cloud(truth, grid, cfg, rng);
  std::optional<se::ThreadPool> pool;
  std::optional<se::ParallelCampaignRunner> runner;
  if (workers > 0) {
    pool.emplace(workers);
    runner.emplace(cloud, *pool);
  }

  CampaignRun out;
  for (int round = 0; round < 3; ++round) {
    const auto res = runner ? runner->run_round_uniform(20, rng)
                            : cloud.gather_uniform(20, rng);
    out.nrmse.push_back(res.nrmse);
    out.measurements.push_back(res.total_measurements);
    out.stats += res.stats;
  }
  const auto report = so::RunReport::from_registry(
      reg, "exec-determinism", /*include_wall_clock=*/false);
  out.report_json = report.to_json();
  out.exact = exact_view(reg);
  so::attach_registry(nullptr);
  return out;
}

// Every run's deterministic report, per-round NRMSE and measurement
// counts equal the first run's.
void expect_same_runs(const std::vector<CampaignRun>& runs) {
  const CampaignRun& ref = runs.front();
  for (std::size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(ref.report_json, runs[r].report_json);
    EXPECT_EQ(ref.exact, runs[r].exact);
    ASSERT_EQ(ref.nrmse.size(), runs[r].nrmse.size());
    for (std::size_t i = 0; i < ref.nrmse.size(); ++i) {
      EXPECT_EQ(ref.nrmse[i], runs[r].nrmse[i]);  // bit-identical
      EXPECT_EQ(ref.measurements[i], runs[r].measurements[i]);
    }
  }
}

TEST(ParallelCampaign, OneWorkerAndEightWorkersAreByteIdentical) {
  const CampaignRun inline_run = run_parallel_campaign(0);
  const CampaignRun serial = run_parallel_campaign(1);
  const CampaignRun parallel = run_parallel_campaign(8);

  // Headline invariant: the deterministic RunReport view — every
  // counter, gauge, and histogram except wall-clock timings — is
  // byte-for-byte the same string inline and at any worker count.
  expect_same_runs({inline_run, serial, parallel});
  for (const CampaignRun* run : {&inline_run, &parallel}) {
    EXPECT_EQ(serial.stats.commands_sent, run->stats.commands_sent);
    EXPECT_EQ(serial.stats.replies_received, run->stats.replies_received);
    EXPECT_EQ(serial.stats.radio_failures, run->stats.radio_failures);
    EXPECT_EQ(serial.stats.retries, run->stats.retries);
    EXPECT_EQ(serial.stats.broker_energy_j, run->stats.broker_energy_j);
  }

  // And the campaign genuinely exercised the fault machinery — a quiet
  // fixture would make the invariant vacuous.
  EXPECT_GT(serial.stats.radio_failures, 0u);
  EXPECT_GT(serial.stats.retries, 0u);
}

// Same invariant with the LP refit: the revised simplex (warm-started
// through the CHS basis cache) sits inside every zone's reconstruction,
// so any pivot-order or warm-start nondeterminism would surface here as
// a diverging report or NRMSE.
TEST(ParallelCampaign, BpRefitStaysByteIdenticalAcrossWorkerCounts) {
  expect_same_runs({run_parallel_campaign(0, "bp"),
                    run_parallel_campaign(1, "bp"),
                    run_parallel_campaign(8, "bp")});
}

TEST(ParallelCampaign, ReplaysBitIdenticallyAtTheSameWorkerCount) {
  const CampaignRun a = run_parallel_campaign(4);
  const CampaignRun b = run_parallel_campaign(4);
  EXPECT_EQ(a.report_json, b.report_json);
  ASSERT_EQ(a.nrmse.size(), b.nrmse.size());
  for (std::size_t i = 0; i < a.nrmse.size(); ++i) {
    EXPECT_EQ(a.nrmse[i], b.nrmse[i]);
  }
}

TEST(ParallelCampaign, ValidatesZoneDecisions) {
  sl::Rng field_rng(5);
  const auto truth = sf::random_plume_field(12, 12, 2, field_rng, 10.0);
  const sf::ZoneGrid grid(12, 12, 2, 2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sl::Rng rng(9);
  sh::LocalCloud cloud(truth, grid, cfg, rng);
  se::ThreadPool pool(2);
  se::ParallelCampaignRunner runner(cloud, pool);

  std::vector<sh::ZoneDecision> wrong_count(3);
  EXPECT_THROW(runner.run_round(wrong_count, rng), std::invalid_argument);
  std::vector<sh::ZoneDecision> dup(4);
  for (std::size_t i = 0; i < 4; ++i) dup[i].zone_id = 0;  // duplicate ids
  EXPECT_THROW(runner.run_round(dup, rng), std::invalid_argument);
}

// Every zone of one shape reads one shared basis matrix, so N workers
// read it concurrently.  The rounds must still equal one worker's bit
// for bit (test_exec_tsan runs this under ThreadSanitizer).
TEST(ParallelCampaign, ZonesReadTheirSharedBasisConcurrently) {
  sl::Rng field_rng(21);
  const auto truth = sf::random_plume_field(20, 16, 3, field_rng, 20.0);
  const sf::ZoneGrid grid(20, 16, 2, 3);  // zones of 6x8 and 8x8
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  const auto run = [&](std::size_t workers) {
    sl::Rng rng(4);
    sh::LocalCloud cloud(truth, grid, cfg, rng);
    EXPECT_EQ(cloud.nanocloud(0).basis(), cloud.nanocloud(1).basis());
    EXPECT_EQ(cloud.nanocloud(0).basis(), cloud.nanocloud(4).basis());
    se::ThreadPool pool(workers);
    se::ParallelCampaignRunner runner(cloud, pool);
    std::vector<double> out;
    for (int round = 0; round < 3; ++round) {
      const auto res = runner.run_round_uniform(24, rng);
      const auto flat = res.reconstruction.flat();
      out.insert(out.end(), flat.begin(), flat.end());
      out.push_back(res.nrmse);
    }
    return out;
  };
  const std::vector<double> one = run(1);
  const std::vector<double> four = run(4);
  ASSERT_EQ(one.size(), four.size());
  EXPECT_EQ(0, std::memcmp(one.data(), four.data(),
                           one.size() * sizeof(double)));
}

}  // namespace
