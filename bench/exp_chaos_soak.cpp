// E22 — chaos soak: a long campaign under seeded chaos (Gilbert–Elliott
// burst loss, node churn, scheduled broker crashes, undersized
// batteries) with the full PR-7 crash-safety stack armed — periodic
// atomic checkpoints, kill-and-restore restarts mid-campaign, and the
// circuit-breaker/load-shed degradation ladder — while a battery of
// per-round invariants watches for the failure modes robustness code
// itself tends to introduce:
//
//   finiteness    no NaN/Inf ever reaches a round report
//   monotonicity  the campaign virtual clock only moves forward
//   accounting    hier.zone.rounds sums to rounds x zones;
//                 fault.shed.rounds equals the summed hier.zone.shed;
//                 measurements never exceed the commanded budget
//   breaker law   per-zone breaker states only take legal transitions
//                 (CLOSED->OPEN, OPEN->HALF_OPEN, HALF_OPEN->{CLOSED,OPEN})
//   replay        after the torn run (restarts included) finishes, an
//                 uninterrupted run from the same seeds must produce a
//                 byte-identical deterministic RunReport and round
//                 history — the checkpoint/restore path may not leak a
//                 single bit into campaign results
//
// Default ("short") mode runs a tier-1-sized soak; set SENSEDROID_SOAK=long
// for the >= 300-round version (ctest label `soak`).
//
// Exit code 0 = all invariants held; 1 = violations (printed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "exec/resumable.h"
#include "exec/thread_pool.h"
#include "fault/breaker.h"
#include "fault/fault.h"
#include "field/generators.h"
#include "field/zones.h"
#include "hierarchy/localcloud.h"
#include "linalg/random.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/report.h"

using namespace sensedroid;

namespace {

struct SoakParams {
  std::size_t rounds = 40;
  std::size_t restart_every = 19;  ///< kill + restore cadence (torn run)
  std::size_t ckpt_every = 8;
  std::size_t budget_per_zone = 16;
  std::size_t workers = 4;
  std::size_t zones = 8;
};

// The whole campaign world, rebuildable from scratch — exactly what a
// process restart does.  Construction replays bit-identically from the
// fixed seeds; restore_from_file then overlays the checkpoint.
struct World {
  std::unique_ptr<fault::FaultInjector> inj;
  field::SpatialField truth;
  std::unique_ptr<hierarchy::LocalCloud> cloud;
  std::unique_ptr<obs::MetricsRegistry> reg;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<exec::ResumableCampaign> camp;
  linalg::Rng rng{7};

  ~World() { obs::attach_registry(nullptr); }
};

std::unique_ptr<World> make_world(const SoakParams& p,
                                  const std::string& ckpt_path) {
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.link.p_good_to_bad = 0.08;
  plan.link.p_bad_to_good = 0.30;
  plan.link.loss_bad = 0.85;
  plan.churn.leave_prob = 0.15;
  plan.churn.rejoin_prob = 0.30;
  plan.sensors.spike_prob = 0.04;
  plan.sensors.stuck_fraction = 0.05;
  // Broker outages scattered across the timeline; windows beyond the
  // short-mode horizon simply never fire there.
  plan.broker_crashes = {{2, 5, 9},     {5, 12, 18},  {0, 21, 23},
                         {3, 60, 70},   {6, 150, 160}, {1, 250, 260}};
  // Battery sabotage: far less capacity than configured, so fleet
  // energy pressure is real over a long soak.
  plan.battery.capacity_override_j = 200.0;

  auto w = std::make_unique<World>();
  w->inj = std::make_unique<fault::FaultInjector>(plan);

  linalg::Rng field_rng(101);
  w->truth = field::random_plume_field(24, 24, 3, field_rng, 20.0);
  const field::ZoneGrid grid(24, 24, 2, 4);  // 8 zones of 6x12

  hierarchy::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = w->inj.get();
  cfg.retry.max_attempts = 3;
  cfg.topup_rounds = 1;
  cfg.chs.mad_threshold = 5.0;

  w->reg = std::make_unique<obs::MetricsRegistry>();
  obs::attach_registry(w->reg.get());

  w->cloud = std::make_unique<hierarchy::LocalCloud>(w->truth, grid, cfg,
                                                     w->rng);
  w->pool = std::make_unique<exec::ThreadPool>(p.workers);

  exec::ResumableCampaign::Config cc;
  cc.rounds = p.rounds;
  cc.budget_per_zone = p.budget_per_zone;
  cc.period_s = 60.0;
  cc.checkpoint.path = ckpt_path;
  cc.checkpoint.every_rounds = p.ckpt_every;
  cc.guard.breaker.consecutive_failures = 2;
  cc.guard.breaker.error_rate_threshold = 0.75;
  cc.guard.breaker.window = 8;
  cc.guard.breaker.min_window_samples = 4;
  cc.guard.breaker.cooldown_rounds = 3;
  cc.guard.breaker.half_open_probes = 1;
  cc.guard.shed.round_budget_s = 5.0;
  cc.guard.shed.max_shed_fraction = 0.25;
  w->camp = std::make_unique<exec::ResumableCampaign>(*w->cloud,
                                                      w->pool.get(), cc);
  return w;
}

struct InvariantLog {
  std::size_t violations = 0;

  void fail(std::size_t round, const std::string& what) {
    ++violations;
    std::printf("INVARIANT VIOLATION @ round %zu: %s\n", round, what.c_str());
  }
};

// Registry accounting sums — reads the live registry the campaign writes.
void check_accounting(const obs::MetricsRegistry& reg, std::size_t rounds_done,
                      std::size_t zones, std::size_t round,
                      InvariantLog& log) {
  double zone_rounds = 0.0, zone_shed = 0.0, shed_rounds = 0.0;
  for (const auto& s : reg.samples()) {
    if (s.kind != 'c') continue;
    if (s.name == "hier.zone.rounds") zone_rounds += s.value;
    if (s.name == "hier.zone.shed") zone_shed += s.value;
    if (s.name == "fault.shed.rounds") shed_rounds += s.value;
  }
  const double expect =
      static_cast<double>(rounds_done) * static_cast<double>(zones);
  if (zone_rounds != expect) {
    log.fail(round, "hier.zone.rounds sums to " + std::to_string(zone_rounds) +
                        ", expected " + std::to_string(expect));
  }
  if (zone_shed != shed_rounds) {
    log.fail(round, "fault.shed.rounds (" + std::to_string(shed_rounds) +
                        ") != summed hier.zone.shed (" +
                        std::to_string(zone_shed) + ")");
  }
}

const char* state_name(fault::BreakerState s) {
  switch (s) {
    case fault::BreakerState::kClosed: return "CLOSED";
    case fault::BreakerState::kOpen: return "OPEN";
    case fault::BreakerState::kHalfOpen: return "HALF_OPEN";
  }
  return "?";
}

// Sampled once per round, so a multi-step walk inside one round shows
// up as its endpoints: OPEN -> CLOSED is legal because the cool-down
// can expire, admit the half-open probe, and reclose all in the same
// round (HALF_OPEN is observable only while probes are outstanding).
bool legal_transition(fault::BreakerState from, fault::BreakerState to) {
  using S = fault::BreakerState;
  if (from == to) return true;
  switch (from) {
    case S::kClosed: return to == S::kOpen;            // trip
    case S::kOpen: return to == S::kHalfOpen ||        // cool-down expired
                          to == S::kClosed;            // ...and probe passed
    case S::kHalfOpen: return to == S::kClosed ||      // probes succeeded
                              to == S::kOpen;          // probe failed
  }
  return false;
}

struct SoakOutcome {
  std::string report_json;
  std::vector<exec::CampaignRoundRow> history;
  std::size_t restarts = 0;
  std::size_t violations = 0;
};

// Runs the campaign round by round, checking invariants; when `torn`,
// kills and rebuilds the world from the checkpoint file every
// restart_every rounds.
SoakOutcome run_soak(const SoakParams& p, const std::string& ckpt_path,
                     bool torn) {
  InvariantLog log;
  auto w = make_world(p, ckpt_path);
  double last_virtual = 0.0;
  std::vector<fault::BreakerState> prev_state(p.zones,
                                              fault::BreakerState::kClosed);
  SoakOutcome out;

  // Next kill point advances past each restart: the restore rewinds
  // `round` to the checkpoint, so a plain modulo test would kill again
  // at the same round forever.
  std::size_t next_restart = p.restart_every;
  std::size_t round = w->camp->rounds_done();
  while (round < p.rounds) {
    w->camp->run_until(w->rng, round + 1);
    ++round;
    const exec::CampaignRoundRow& row = w->camp->history().back();

    // Finiteness + bounds.
    if (!std::isfinite(row.nrmse) || row.nrmse < 0.0) {
      log.fail(round, "non-finite or negative nrmse");
    }
    if (row.measurements > p.zones * p.budget_per_zone) {
      log.fail(round, "measurements exceed commanded budget");
    }
    if (row.shed_zones > p.zones) log.fail(round, "shed_zones > zones");

    // Virtual clock strictly monotone (each round adds period_s > 0).
    if (!(row.virtual_s > last_virtual) || !std::isfinite(row.virtual_s)) {
      log.fail(round, "virtual clock not strictly monotone");
    }
    last_virtual = row.virtual_s;

    // Breaker-state legality, per zone.
    for (std::size_t z = 0; z < p.zones; ++z) {
      const fault::BreakerState cur = w->camp->guard().state(z);
      if (!legal_transition(prev_state[z], cur)) {
        log.fail(round, "zone " + std::to_string(z) +
                            " illegal breaker transition " +
                            state_name(prev_state[z]) + " -> " +
                            state_name(cur));
      }
      prev_state[z] = cur;
    }

    check_accounting(*w->reg, w->camp->rounds_done(), p.zones, round, log);

    // The chaos-restart: throw the whole process state away and come
    // back from the latest checkpoint file, exactly like a crash +
    // relaunch.  The campaign rewinds to the last checkpoint (round
    // numbers are replayed), so the loop resumes from rounds_done().
    if (torn && round == next_restart && round < p.rounds) {
      next_restart += p.restart_every;
      w.reset();  // detaches the registry, drops every live object
      w = make_world(p, ckpt_path);
      w->camp->restore_from_file(ckpt_path, w->rng);
      ++out.restarts;
      round = w->camp->rounds_done();
      last_virtual = w->camp->history().empty()
                         ? 0.0
                         : w->camp->history().back().virtual_s;
      // Breaker states rewound with the guard blob; re-seed the legality
      // tracker from the restored guard rather than the pre-kill states.
      for (std::size_t z = 0; z < p.zones; ++z) {
        prev_state[z] = w->camp->guard().state(z);
      }
    }
  }

  out.report_json =
      obs::RunReport::from_registry(*w->reg, "chaos-soak",
                                    /*include_wall_clock=*/false)
          .to_json();
  out.history = w->camp->history();
  out.violations = log.violations;
  return out;
}

bool same_history(const std::vector<exec::CampaignRoundRow>& a,
                  const std::vector<exec::CampaignRoundRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].round != b[i].round || a[i].nrmse != b[i].nrmse ||
        a[i].measurements != b[i].measurements ||
        a[i].shed_zones != b[i].shed_zones ||
        a[i].virtual_s != b[i].virtual_s) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  SoakParams p;
  const char* mode = std::getenv("SENSEDROID_SOAK");
  const bool long_mode = mode != nullptr && std::string(mode) == "long";
  if (long_mode) {
    p.rounds = 320;
    p.restart_every = 61;
  }
  obs::FlightRecorder::arm();

  const std::string dir = std::getenv("TMPDIR") != nullptr
                              ? std::string(std::getenv("TMPDIR"))
                              : std::string("/tmp");
  // Per process, so concurrent soaks (two checkouts, two ctest runs)
  // never restore each other's snapshot.
  const std::string ckpt = dir + "/sensedroid_chaos_soak." +
                           std::to_string(::getpid()) + ".ckpt";

  std::printf("chaos soak: %zu rounds, restart every %zu, checkpoint every "
              "%zu (%s mode)\n",
              p.rounds, p.restart_every, p.ckpt_every,
              long_mode ? "long" : "short");

  std::printf("-- torn run (kill + restore restarts) --\n");
  SoakOutcome torn = run_soak(p, ckpt, /*torn=*/true);
  std::printf("   %zu restarts, %zu invariant violations\n", torn.restarts,
              torn.violations);

  std::printf("-- uninterrupted replay --\n");
  SoakOutcome straight = run_soak(p, ckpt, /*torn=*/false);
  std::printf("   %zu invariant violations\n", straight.violations);

  std::size_t failures = torn.violations + straight.violations;
  if (torn.report_json != straight.report_json) {
    ++failures;
    std::printf("INVARIANT VIOLATION: torn and uninterrupted RunReports "
                "differ (%zu vs %zu bytes)\n",
                torn.report_json.size(), straight.report_json.size());
  }
  if (!same_history(torn.history, straight.history)) {
    ++failures;
    std::printf("INVARIANT VIOLATION: torn and uninterrupted round "
                "histories differ\n");
  }

  std::remove((ckpt).c_str());
  std::remove((ckpt + ".tmp").c_str());

  if (failures > 0) {
    std::printf("chaos soak: FAIL (%zu violations)\n", failures);
    return 1;
  }
  std::printf("chaos soak: PASS (%zu rounds, replay byte-identical)\n",
              p.rounds);
  return 0;
}
