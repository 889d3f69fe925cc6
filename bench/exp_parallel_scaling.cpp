// E20 — parallel campaign scaling: wall-clock speedup of the exec
// runner at 1/2/4/8 workers on a 16-zone faulted LocalCloud campaign,
// plus the inline engine (LocalCloud::gather, no pool), with a built-in
// determinism audit (every row must produce the same deterministic
// RunReport view as the 1-worker baseline).
//
// The numbers are only meaningful on a multi-core host; on a 1-core
// builder every configuration degenerates to sequential throughput, so
// the bench reports the honest curve and asserts nothing about it.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "exec/campaign_runner.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "field/generators.h"
#include "field/zones.h"
#include "hierarchy/localcloud.h"
#include "linalg/random.h"
#include "obs/metrics.h"
#include "obs/report.h"

using namespace sensedroid;

namespace {

constexpr std::size_t kRounds = 6;
constexpr std::size_t kPerZone = 30;

struct RunOutcome {
  double wall_ms = 0.0;
  double nrmse = 0.0;
  std::string deterministic_json;  // worker-count-invariant report view
};

fault::FaultPlan make_plan() {
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.link.p_good_to_bad = 0.1;
  plan.link.p_bad_to_good = 0.3;
  plan.link.loss_bad = 0.8;
  plan.churn.leave_prob = 0.2;
  plan.sensors.spike_prob = 0.05;
  return plan;
}

/// `workers == 0` runs the inline engine, with no pool.
RunOutcome run_campaign(const field::SpatialField& truth,
                        const field::ZoneGrid& grid, std::size_t workers) {
  fault::FaultPlan plan = make_plan();
  fault::FaultInjector inj(plan);

  hierarchy::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = &inj;
  cfg.retry.max_attempts = 3;
  cfg.topup_rounds = 1;
  cfg.chs.mad_threshold = 5.0;

  obs::MetricsRegistry reg;
  obs::attach_registry(&reg);

  linalg::Rng rng(7);
  hierarchy::LocalCloud cloud(truth, grid, cfg, rng);
  std::optional<exec::ThreadPool> pool;
  std::optional<exec::ParallelCampaignRunner> runner;
  if (workers > 0) {
    pool.emplace(workers);
    runner.emplace(cloud, *pool);
  }

  RunOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    out.nrmse = (runner ? runner->run_round_uniform(kPerZone, rng)
                        : cloud.gather_uniform(kPerZone, rng))
                    .nrmse;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.deterministic_json =
      obs::RunReport::from_registry(reg, "exp_parallel_scaling",
                                    /*include_wall_clock=*/false)
          .to_json();
  obs::attach_registry(nullptr);
  return out;
}

}  // namespace

int main() {
  std::printf(
      "# E20 — parallel campaign scaling "
      "(16 zones, %zu rounds, %zu meas/zone, faulted)\n",
      kRounds, kPerZone);

  linalg::Rng field_rng(404);
  const auto truth = field::random_plume_field(32, 32, 4, field_rng, 20.0);
  const field::ZoneGrid grid(32, 32, 4, 4);  // 16 zones of 8x8

  std::printf("%8s %10s %8s %11s %8s  %s\n", "workers", "wall-ms",
              "speedup", "efficiency", "nrmse", "deterministic");

  // Summary registry: the scaling curve itself, one labelled gauge per
  // worker count, shipped in the final RunReport.
  obs::MetricsRegistry summary;
  std::string baseline_json;
  double baseline_ms = 0.0;
  // The inline row (0 workers) runs last, against the 1-worker baseline.
  for (const std::size_t workers : {1u, 2u, 4u, 8u, 0u}) {
    const RunOutcome out = run_campaign(truth, grid, workers);
    if (workers == 1) {
      baseline_ms = out.wall_ms;
      baseline_json = out.deterministic_json;
    }
    const double speedup = baseline_ms / out.wall_ms;
    const bool identical = out.deterministic_json == baseline_json;
    const std::string row = workers == 0 ? "inline" : std::to_string(workers);
    const std::string efficiency =
        workers == 0 ? "-" : std::to_string(static_cast<int>(
                                 100.0 * speedup / workers + 0.5)) + "%";
    std::printf("%8s %10.1f %7.2fx %11s %8.4f  %s\n", row.c_str(),
                out.wall_ms, speedup, efficiency.c_str(), out.nrmse,
                identical ? "identical" : "DIVERGED");
    const obs::Labels labels = {{"workers", row}};
    summary.gauge("exec.scaling.wall_ms", labels).set(out.wall_ms);
    summary.gauge("exec.scaling.speedup", labels).set(speedup);
    summary.gauge("exec.scaling.deterministic", labels)
        .set(identical ? 1.0 : 0.0);
  }

  std::printf(
      "# reading: speedup tracks min(workers, cores); on a single-core\n"
      "# host the curve is flat at ~1x by construction.  'identical'\n"
      "# means the worker count (or running inline, with no pool) left\n"
      "# the deterministic RunReport view byte-for-byte unchanged — the\n"
      "# engine's core invariant.\n");

  const auto report =
      obs::RunReport::from_registry(summary, "exp_parallel_scaling");
  return obs::write_report(report) ? 0 : 1;
}
