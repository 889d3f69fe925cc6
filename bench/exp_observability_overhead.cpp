// E21 — observability overhead: what does a fully armed telemetry
// stack (attached registry + tracer + flight recorder + live
// TelemetryServer being scraped) cost versus a fully detached run?
//
// Two probes:
//   * micro: the Fig. 4 solver hot path (cs::omp_solve at n=256) —
//     per-solve median over many repetitions, detached vs armed.  This
//     is the number the tier-1 obs_overhead_guard gates at 5%: the
//     armed fast path is one TL cache probe per metric touch, so solver
//     medians must stay within noise of detached.
//   * campaign: the 8-zone faulted exec campaign at 8 workers, wall
//     clock per round, detached vs armed-and-scraped (a thread hits
//     /metrics,/healthz,/report,/spans the whole time).
//
// Emits one BENCH_obs.json trajectory point (JSONL on stdout, or
// appended to $SENSEDROID_REPORT when set):
//   {"label":"...","median_us":{"omp_detached":..,"omp_armed":..,
//    "campaign_round_quiet":..,"campaign_round_scraped":..}}
// obs_overhead_guard pairs the newest value of each *_armed key with
// that of its *_detached sibling and fails above the ratio, so the omp
// pair is the tier-1 5% gate.  The campaign pair is
// deliberately named outside the pairing rule: it compares a fully
// dark round against shard-merging + live-scraped telemetry on a
// sub-millisecond fixture round, where the fixed per-round merge cost
// dominates — an honest number worth tracking, not a hot-path gate
// (see EXPERIMENTS.md E21).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cs/omp.h"
#include "exec/campaign_runner.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "field/generators.h"
#include "field/zones.h"
#include "hierarchy/localcloud.h"
#include "linalg/random.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"

using namespace sensedroid;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ------------------------------------------------------------ micro probe

struct OmpProblem {
  linalg::Matrix a{1, 1};
  linalg::Vector y;
};

OmpProblem make_omp_problem() {
  constexpr std::size_t n = 256, m = n / 4, k = 6;
  linalg::Rng rng(11);
  OmpProblem p;
  p.a = linalg::Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) p.a(i, j) = rng.gaussian();
  }
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  p.y = p.a * alpha;
  return p;
}

// Median per-solve microseconds over `reps` solves of the same problem.
double omp_median_us(const OmpProblem& p, int reps) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto sol = cs::omp_solve(p.a, p.y, {.max_sparsity = 6});
    const auto t1 = std::chrono::steady_clock::now();
    if (sol.support.empty()) std::abort();  // keep the solve honest
    us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return median(std::move(us));
}

// --------------------------------------------------------- campaign probe

constexpr std::size_t kRounds = 4;
constexpr std::size_t kPerZone = 20;

// Median per-round wall microseconds of the test_exec faulted fixture at
// 8 workers.  `armed` attaches every sink, arms the recorder, and runs a
// scraper thread against a live TelemetryServer for the duration.
double campaign_round_median_us(const field::SpatialField& truth,
                                const field::ZoneGrid& grid, bool armed) {
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.link.p_good_to_bad = 0.1;
  plan.link.p_bad_to_good = 0.3;
  plan.link.loss_bad = 0.8;
  plan.churn.leave_prob = 0.2;
  plan.sensors.spike_prob = 0.05;
  fault::FaultInjector inj(plan);

  hierarchy::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = &inj;
  cfg.retry.max_attempts = 3;
  cfg.topup_rounds = 1;
  cfg.chs.mad_threshold = 5.0;

  obs::MetricsRegistry reg;
  obs::TraceLog trace;
  obs::HealthEngine health(&reg);
  obs::TelemetryServer server({&reg, &trace, &health, "overhead"});
  std::thread scraper;
  std::atomic<bool> done{false};
  if (armed) {
    obs::attach_registry(&reg);
    obs::attach_trace(&trace);
    obs::FlightRecorder::reset();
    obs::FlightRecorder::arm();
    if (server.start()) {
      scraper = std::thread([&] {
        const char* endpoints[] = {"/metrics", "/healthz", "/report",
                                   "/spans"};
        std::size_t i = 0;
        // Realistic cadence: Prometheus scrapes at seconds-scale; 25 ms
        // is already 100x hotter.  A busy-loop scraper on a 1-core
        // builder would measure CPU contention, not instrumentation.
        while (!done.load(std::memory_order_acquire)) {
          (void)server.handle(endpoints[i++ % 4]);
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
      });
    }
  }

  linalg::Rng rng(7);
  hierarchy::LocalCloud cloud(truth, grid, cfg, rng);
  exec::ThreadPool pool(8);
  exec::ParallelCampaignRunner runner(cloud, pool);

  std::vector<double> us;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)runner.run_round_uniform(kPerZone, rng);
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }

  done.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();
  server.stop();
  obs::FlightRecorder::disarm();
  obs::attach_registry(nullptr);
  obs::attach_trace(nullptr);
  return median(std::move(us));
}

}  // namespace

int main(int argc, char** argv) {
  const char* label = argc > 1 ? argv[1] : "exp_observability_overhead";
  const int reps = argc > 2 ? std::atoi(argv[2]) : 200;

  // Micro probe: cgroup CPU-quota throttling makes long same-condition
  // blocks drift (the later block always reads slower), so detached and
  // armed alternate in small batches and the medians are taken over
  // batch medians — drift then hits both conditions equally.
  const OmpProblem problem = make_omp_problem();
  obs::MetricsRegistry reg;
  obs::TraceLog trace;
  obs::FlightRecorder::reset();
  (void)omp_median_us(problem, reps / 4);  // warm-up, not recorded
  constexpr int kBatch = 20;
  const int batches = std::max(10, reps / kBatch);
  std::vector<double> det_meds, armed_meds;
  const auto armed_batch = [&] {
    obs::attach_registry(&reg);
    obs::attach_trace(&trace);
    obs::FlightRecorder::arm();
    armed_meds.push_back(omp_median_us(problem, kBatch));
    obs::FlightRecorder::disarm();
    obs::attach_registry(nullptr);
    obs::attach_trace(nullptr);
  };
  for (int b = 0; b < batches; ++b) {
    // Alternate which condition goes first so periodic throttling
    // cannot systematically land on one of them.
    if (b % 2 == 0) {
      det_meds.push_back(omp_median_us(problem, kBatch));
      armed_batch();
    } else {
      armed_batch();
      det_meds.push_back(omp_median_us(problem, kBatch));
    }
  }
  const double omp_detached = median(std::move(det_meds));
  const double omp_armed = median(std::move(armed_meds));

  // Campaign probe.
  linalg::Rng field_rng(101);
  const auto truth = field::random_plume_field(24, 24, 3, field_rng, 20.0);
  const field::ZoneGrid grid(24, 24, 2, 4);  // 8 zones
  const double camp_detached =
      campaign_round_median_us(truth, grid, /*armed=*/false);
  const double camp_armed =
      campaign_round_median_us(truth, grid, /*armed=*/true);

  std::string json = "{\"label\":\"" + std::string(label) +
                     "\",\"median_us\":{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"omp_detached\":%.3f,\"omp_armed\":%.3f,"
                "\"campaign_round_quiet\":%.3f,"
                "\"campaign_round_scraped\":%.3f}}",
                omp_detached, omp_armed, camp_detached, camp_armed);
  json += buf;

  if (const char* path = std::getenv("SENSEDROID_REPORT")) {
    if (std::FILE* f = std::fopen(path, "a")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  } else {
    std::printf("%s\n", json.c_str());
  }

  std::fprintf(stderr,
               "omp: detached %.2f us, armed %.2f us (%.2fx)\n"
               "campaign round: detached %.0f us, armed %.0f us (%.2fx)\n",
               omp_detached, omp_armed,
               omp_detached > 0 ? omp_armed / omp_detached : 0.0,
               camp_detached, camp_armed,
               camp_detached > 0 ? camp_armed / camp_detached : 0.0);
  return 0;
}
