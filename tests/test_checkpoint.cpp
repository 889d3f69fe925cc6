// Crash-safety tests (DESIGN.md §13): the checkpoint codec must
// round-trip exactly, the atomic writer/loader must survive corruption
// without half-applying anything, the circuit breaker's state machine
// must walk its legal transitions only, and the headline acceptance —
// a campaign killed mid-flight and resumed from its snapshot produces a
// RunReport byte-identical to an uninterrupted run, at 1 worker and 8.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "exec/resumable.h"
#include "exec/thread_pool.h"
#include "fault/breaker.h"
#include "fault/bytes.h"
#include "fault/checkpoint.h"
#include "fault/fault.h"
#include "field/generators.h"
#include "field/zones.h"
#include "hierarchy/localcloud.h"
#include "linalg/random.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace se = sensedroid::exec;
namespace sf = sensedroid::field;
namespace sfl = sensedroid::fault;
namespace sh = sensedroid::hierarchy;
namespace sl = sensedroid::linalg;
namespace so = sensedroid::obs;

namespace {

// Unique per process and test: ctest -j runs this suite's tests and
// their sanitizer twins concurrently, and a shared checkpoint path would
// let one campaign restore another's snapshot.
std::string tmp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(dir != nullptr ? dir : "/tmp") + "/" +
         std::to_string(::getpid()) + "_" + test->test_suite_name() + "." +
         test->name() + "_" + name;
}

// ------------------------------------------------------------ codec unit

sfl::CampaignSnapshot sample_snapshot() {
  sfl::CampaignSnapshot snap;
  snap.rounds_done = 12;
  snap.virtual_s = 734.25;
  sl::Rng rng(42);
  rng.gaussian();  // populate the polar cache so it must round-trip
  snap.campaign_rng = rng.state();
  snap.injector = {1, 2, 3, 4, 5};
  snap.guard = {9, 8, 7};
  snap.driver = {0xde, 0xad};

  so::MetricsRegistry reg;
  so::attach_registry(&reg);
  so::add_counter("test.counter", 3.0);
  so::set_gauge("test.gauge", -1.5);
  so::observe("test.histogram_us", 12.5);
  snap.metrics = reg.samples();
  so::attach_registry(nullptr);

  sfl::ZoneSnapshot zone;
  zone.zone = 3;
  zone.broker_meter_j = {0.1, 0.2, 0.3, 0.4, 0.5};
  sfl::NodeSnapshot node;
  node.id = 17;
  node.battery_consumed_j = 2.25;
  node.meter_j = {1.0, 0.0, 0.5, 0.0, 0.25};
  sfl::SensorSnapshot sensor;
  sensor.kind = 2;
  sensor.rng = sl::Rng(7).state();
  node.sensors.push_back(sensor);
  zone.nodes.push_back(node);
  zone.store.push_back(sfl::StoreRecord{17, 2, 60.0, 21.5});
  snap.zones.push_back(zone);
  return snap;
}

TEST(CheckpointCodec, RoundTripsEveryField) {
  const sfl::CampaignSnapshot snap = sample_snapshot();
  const std::vector<std::uint8_t> image = sfl::encode(snap);
  const sfl::CampaignSnapshot back = sfl::decode(image);

  EXPECT_EQ(back.rounds_done, snap.rounds_done);
  EXPECT_EQ(back.virtual_s, snap.virtual_s);
  EXPECT_EQ(back.campaign_rng.s, snap.campaign_rng.s);
  EXPECT_EQ(back.campaign_rng.cached_gaussian, snap.campaign_rng.cached_gaussian);
  EXPECT_EQ(back.campaign_rng.has_cached_gaussian,
            snap.campaign_rng.has_cached_gaussian);
  EXPECT_EQ(back.injector, snap.injector);
  EXPECT_EQ(back.guard, snap.guard);
  EXPECT_EQ(back.driver, snap.driver);
  EXPECT_EQ(back.metrics.size(), snap.metrics.size());
  ASSERT_EQ(back.zones.size(), 1u);
  EXPECT_EQ(back.zones[0].zone, 3u);
  EXPECT_EQ(back.zones[0].broker_meter_j, snap.zones[0].broker_meter_j);
  ASSERT_EQ(back.zones[0].nodes.size(), 1u);
  EXPECT_EQ(back.zones[0].nodes[0].id, 17u);
  EXPECT_EQ(back.zones[0].nodes[0].battery_consumed_j, 2.25);
  ASSERT_EQ(back.zones[0].nodes[0].sensors.size(), 1u);
  EXPECT_EQ(back.zones[0].nodes[0].sensors[0].rng.s, sl::Rng(7).state().s);
  ASSERT_EQ(back.zones[0].store.size(), 1u);
  EXPECT_EQ(back.zones[0].store[0].value, 21.5);

  // Idempotence: re-encoding the decode reproduces the exact image.
  EXPECT_EQ(sfl::encode(back), image);

  // The metric samples restore into an empty registry exactly.
  so::MetricsRegistry reg;
  sfl::restore_metrics(reg, back.metrics);
  so::MetricsRegistry ref;
  sfl::restore_metrics(ref, snap.metrics);
  EXPECT_EQ(reg.to_prometheus(), ref.to_prometheus());
}

// Pins the CRC-32 implementation to the reflected-0xEDB88320 standard:
// the check value of "123456789" is 0xCBF43926 in every conforming
// implementation, so a table/slicing rewrite cannot silently change the
// polynomial (which would orphan every snapshot on disk).
TEST(CheckpointCodec, Crc32MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(sfl::crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xCBF43926u);
  EXPECT_EQ(sfl::crc32({}), 0x00000000u);
}

TEST(CheckpointCodec, RejectsCorruptImagesWholesale) {
  const std::vector<std::uint8_t> image = sfl::encode(sample_snapshot());

  // Truncation anywhere — header, length field, mid-payload.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{19},
                          image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> t(image.begin(),
                                image.begin() + static_cast<long>(cut));
    EXPECT_THROW(sfl::decode(t), sfl::CheckpointError) << "cut=" << cut;
  }
  // Bad magic.
  {
    auto bad = image;
    bad[0] ^= 0xff;
    EXPECT_THROW(sfl::decode(bad), sfl::CheckpointError);
  }
  // Future version.
  {
    auto bad = image;
    bad[4] = static_cast<std::uint8_t>(sfl::kCheckpointVersion + 1);
    EXPECT_THROW(sfl::decode(bad), sfl::CheckpointError);
  }
  // Payload bit flip must fail the CRC.
  {
    auto bad = image;
    bad[image.size() - 1] ^= 0x01;
    EXPECT_THROW(sfl::decode(bad), sfl::CheckpointError);
  }
}

TEST(CheckpointFile, WriteAtomicRoundTripsAndLoadRejectsMissing) {
  const std::string path = tmp_path("sensedroid_test.ckpt");
  const sfl::CampaignSnapshot snap = sample_snapshot();
  const std::size_t bytes = sfl::write_atomic(path, snap);
  EXPECT_GT(bytes, 20u);  // header + some payload

  const sfl::CampaignSnapshot back = sfl::load(path);
  EXPECT_EQ(sfl::encode(back), sfl::encode(snap));
  std::remove(path.c_str());

  EXPECT_THROW(sfl::load(tmp_path("sensedroid_missing.ckpt")),
               sfl::CheckpointError);
}

// ---------------------------------------------------------- breaker unit

sfl::BreakerOptions breaker_opts() {
  sfl::BreakerOptions o;
  o.consecutive_failures = 2;
  o.error_rate_threshold = 0.75;
  o.window = 8;
  o.min_window_samples = 4;
  o.cooldown_rounds = 2;
  o.half_open_probes = 1;
  return o;
}

TEST(CircuitBreaker, WalksTripCooldownProbeRecloseCycle) {
  sfl::CircuitBreaker b(breaker_opts());
  EXPECT_EQ(b.state(), sfl::BreakerState::kClosed);

  EXPECT_TRUE(b.admit());
  b.record(true);
  EXPECT_EQ(b.state(), sfl::BreakerState::kClosed);  // streak 1 < 2
  EXPECT_TRUE(b.admit());
  b.record(true);
  EXPECT_EQ(b.state(), sfl::BreakerState::kOpen);  // streak hit
  EXPECT_EQ(b.times_opened(), 1u);

  EXPECT_FALSE(b.admit());  // cooldown round 1 of 2
  EXPECT_EQ(b.state(), sfl::BreakerState::kOpen);
  EXPECT_TRUE(b.admit());  // cooldown expired: first probe runs now
  EXPECT_EQ(b.state(), sfl::BreakerState::kHalfOpen);
  b.record(false);
  EXPECT_EQ(b.state(), sfl::BreakerState::kClosed);  // probe succeeded

  // A failed probe re-opens with a fresh cool-down.
  b.record(true);
  b.record(true);
  EXPECT_EQ(b.state(), sfl::BreakerState::kOpen);
  EXPECT_FALSE(b.admit());
  EXPECT_TRUE(b.admit());
  EXPECT_EQ(b.state(), sfl::BreakerState::kHalfOpen);
  b.record(true);
  EXPECT_EQ(b.state(), sfl::BreakerState::kOpen);
  EXPECT_EQ(b.times_opened(), 3u);
}

TEST(CircuitBreaker, TripsOnRollingErrorRateOnceWindowIsWarm) {
  sfl::BreakerOptions o = breaker_opts();
  o.consecutive_failures = 100;  // streak path out of the way
  o.error_rate_threshold = 0.5;
  sfl::CircuitBreaker b(o);

  // Alternate fail/ok: rate stays at 0.5, but the test only applies
  // once min_window_samples (4) outcomes exist.
  b.record(true);
  b.record(false);
  b.record(true);
  EXPECT_EQ(b.state(), sfl::BreakerState::kClosed);  // 3 samples: not yet
  b.record(false);
  EXPECT_EQ(b.state(), sfl::BreakerState::kOpen);  // 2/4 >= 0.5
}

TEST(CircuitBreaker, SaveRestoreResumesMidCycle) {
  sfl::CircuitBreaker a(breaker_opts());
  a.record(true);
  a.record(true);  // OPEN, cooldown 2
  EXPECT_FALSE(a.admit());  // cooldown 1 left

  sfl::CircuitBreaker b(breaker_opts());
  b.restore_state(a.save_state());
  EXPECT_EQ(b.state(), sfl::BreakerState::kOpen);
  EXPECT_EQ(b.failures_total(), 2u);

  // Both continue identically: next admit flips to HALF-OPEN.
  EXPECT_TRUE(a.admit());
  EXPECT_TRUE(b.admit());
  EXPECT_EQ(a.state(), sfl::BreakerState::kHalfOpen);
  EXPECT_EQ(b.state(), sfl::BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, RestoreRejectsMalformedBlobsUntouched) {
  sfl::CircuitBreaker b(breaker_opts());
  b.record(true);
  const auto before = b.save_state();

  EXPECT_THROW(b.restore_state(std::vector<std::uint8_t>{0xff}),
               sfl::CodecError);
  auto bad = before;
  bad[0] = 9;  // illegal state byte
  EXPECT_THROW(b.restore_state(bad), sfl::CodecError);
  EXPECT_EQ(b.save_state(), before);  // untouched after both rejections
}

TEST(BreakerOptions, ValidateRejectsEachBadFieldSeparately) {
  const auto expect_bad = [](auto&& mutate) {
    sfl::BreakerOptions o = breaker_opts();
    mutate(o);
    EXPECT_THROW(o.validate(), std::invalid_argument);
  };
  expect_bad([](sfl::BreakerOptions& o) { o.error_rate_threshold = 1.5; });
  expect_bad([](sfl::BreakerOptions& o) { o.window = 0; });
  expect_bad([](sfl::BreakerOptions& o) { o.min_window_samples = 0; });
  expect_bad([](sfl::BreakerOptions& o) {
    o.min_window_samples = o.window + 1;
  });
  expect_bad([](sfl::BreakerOptions& o) { o.cooldown_rounds = 0; });
  expect_bad([](sfl::BreakerOptions& o) { o.half_open_probes = 0; });

  sfl::ShedOptions s;
  s.round_budget_s = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.max_shed_fraction = 1.5;
  EXPECT_THROW(s.validate(), std::invalid_argument);

  sfl::BreakerOptions disabled;  // disabled options skip the checks
  disabled.window = 0;
  EXPECT_NO_THROW(disabled.validate());
}

// ------------------------------------------------------- zone guard unit

TEST(ZoneGuard, DisabledGuardAdmitsEverythingForever) {
  sfl::ZoneGuard guard(4, sfl::GuardOptions{});
  EXPECT_FALSE(guard.enabled());
  for (int round = 0; round < 5; ++round) {
    const auto plan = guard.plan_round();
    ASSERT_EQ(plan.size(), 4u);
    for (const auto a : plan) EXPECT_EQ(a, sfl::ZoneAdmission::kRun);
  }
}

TEST(ZoneGuard, BreakerIsolatesTheFailingZone) {
  sfl::GuardOptions opts;
  opts.breaker = breaker_opts();
  sfl::ZoneGuard guard(3, opts);

  for (int round = 0; round < 2; ++round) {
    const auto plan = guard.plan_round();
    for (const auto a : plan) EXPECT_EQ(a, sfl::ZoneAdmission::kRun);
    guard.record(0, false, 1.0);
    guard.record(1, true, 1.0);  // zone 1 keeps failing
    guard.record(2, false, 1.0);
  }
  auto plan = guard.plan_round();  // zone 1 tripped after 2 failures
  EXPECT_EQ(plan[0], sfl::ZoneAdmission::kRun);
  EXPECT_EQ(plan[1], sfl::ZoneAdmission::kOpenCircuit);
  EXPECT_EQ(plan[2], sfl::ZoneAdmission::kRun);
  guard.record(0, false, 1.0);
  guard.record(2, false, 1.0);

  plan = guard.plan_round();  // cooldown (2 rounds) expires: probe
  EXPECT_EQ(plan[1], sfl::ZoneAdmission::kProbe);
  guard.record(0, false, 1.0);
  guard.record(1, false, 1.0);  // probe succeeds
  guard.record(2, false, 1.0);

  plan = guard.plan_round();
  EXPECT_EQ(plan[1], sfl::ZoneAdmission::kRun);
  EXPECT_EQ(guard.state(1), sfl::BreakerState::kClosed);
}

TEST(ZoneGuard, BudgetShedsExpensiveZonesUpToTheCap) {
  sfl::GuardOptions opts;
  opts.shed.round_budget_s = 5.0;
  opts.shed.max_shed_fraction = 0.25;  // at most 1 of 4 zones
  sfl::ZoneGuard guard(4, opts);

  auto plan = guard.plan_round();  // no history yet: everything runs
  for (const auto a : plan) EXPECT_EQ(a, sfl::ZoneAdmission::kRun);
  guard.record(0, false, 1.0);
  guard.record(1, false, 1.0);
  guard.record(2, false, 8.0);  // the hog
  guard.record(3, false, 1.0);

  plan = guard.plan_round();  // predicted 11 > 5: shed, capped at one
  EXPECT_EQ(plan[2], sfl::ZoneAdmission::kShedBudget);
  std::size_t shed = 0;
  for (const auto a : plan) {
    if (a == sfl::ZoneAdmission::kShedBudget) ++shed;
  }
  EXPECT_EQ(shed, 1u);  // still over budget, but the cap holds
}

TEST(ZoneGuard, RestoreRejectsZoneCountMismatch) {
  sfl::GuardOptions opts;
  opts.breaker = breaker_opts();
  sfl::ZoneGuard a(3, opts), b(4, opts);
  EXPECT_THROW(b.restore_state(a.save_state()), sfl::CodecError);

  sfl::ZoneGuard c(3, opts);
  c.record(0, true, 2.0);
  sfl::ZoneGuard d(3, opts);
  d.restore_state(c.save_state());
  EXPECT_EQ(d.predicted_cost_s(0), 2.0);
  EXPECT_EQ(d.save_state(), c.save_state());
}

// ------------------------------------- kill-and-resume acceptance test

// The PR-2 replay fixture's fault knobs on a 24x24 8-zone LocalCloud,
// driven by a ResumableCampaign with the degradation ladder armed.
struct CampaignWorld {
  std::unique_ptr<sfl::FaultInjector> inj;
  sf::SpatialField truth;
  std::unique_ptr<sh::LocalCloud> cloud;
  std::unique_ptr<so::MetricsRegistry> reg;
  std::unique_ptr<se::ThreadPool> pool;
  std::unique_ptr<se::ResumableCampaign> camp;
  sl::Rng rng{7};

  ~CampaignWorld() { so::attach_registry(nullptr); }
};

std::unique_ptr<CampaignWorld> make_world(std::size_t workers,
                                          const std::string& ckpt_path,
                                          std::size_t every) {
  sfl::FaultPlan plan;
  plan.seed = 77;
  plan.link.p_good_to_bad = 0.1;
  plan.link.p_bad_to_good = 0.3;
  plan.link.loss_bad = 0.8;
  plan.churn.leave_prob = 0.2;
  plan.sensors.spike_prob = 0.05;

  auto w = std::make_unique<CampaignWorld>();
  w->inj = std::make_unique<sfl::FaultInjector>(plan);

  sl::Rng field_rng(101);
  w->truth = sf::random_plume_field(24, 24, 3, field_rng, 20.0);
  const sf::ZoneGrid grid(24, 24, 2, 4);

  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = w->inj.get();
  cfg.retry.max_attempts = 3;
  cfg.topup_rounds = 1;
  cfg.chs.mad_threshold = 5.0;

  w->reg = std::make_unique<so::MetricsRegistry>();
  so::attach_registry(w->reg.get());

  w->cloud = std::make_unique<sh::LocalCloud>(w->truth, grid, cfg, w->rng);
  if (workers > 0) w->pool = std::make_unique<se::ThreadPool>(workers);

  se::ResumableCampaign::Config cc;
  cc.rounds = 7;
  cc.budget_per_zone = 20;
  cc.period_s = 60.0;
  cc.checkpoint.path = ckpt_path;
  cc.checkpoint.every_rounds = every;
  cc.guard.breaker = breaker_opts();
  w->camp = std::make_unique<se::ResumableCampaign>(*w->cloud,
                                                    w->pool.get(), cc);
  return w;
}

struct CampaignResult {
  std::string report_json;
  std::vector<se::CampaignRoundRow> history;
};

CampaignResult result_of(CampaignWorld& w) {
  CampaignResult out;
  out.history = w.camp->history();
  out.report_json = so::RunReport::from_registry(*w.reg, "crash-safety",
                                                 /*include_wall_clock=*/false)
                        .to_json();
  return out;
}

void expect_same(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.report_json, b.report_json);  // byte-identical
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.history[i].round, b.history[i].round);
    EXPECT_EQ(a.history[i].nrmse, b.history[i].nrmse);  // bit-identical
    EXPECT_EQ(a.history[i].measurements, b.history[i].measurements);
    EXPECT_EQ(a.history[i].shed_zones, b.history[i].shed_zones);
    EXPECT_EQ(a.history[i].virtual_s, b.history[i].virtual_s);
  }
}

CampaignResult run_uninterrupted(std::size_t workers) {
  auto w = make_world(workers, "", 0);
  w->camp->run(w->rng);
  return result_of(*w);
}

CampaignResult run_killed_and_resumed(std::size_t workers,
                                      std::size_t resume_workers) {
  const std::string path = tmp_path("sensedroid_resume.ckpt");
  {
    auto w = make_world(workers, path, /*every=*/3);
    w->camp->run_until(w->rng, 5);  // killed after round 5; ckpt at 3
    EXPECT_EQ(w->camp->rounds_done(), 5u);
  }  // world destroyed: the "crash"

  auto w = make_world(resume_workers, path, /*every=*/3);
  w->camp->restore_from_file(path, w->rng);
  EXPECT_EQ(w->camp->rounds_done(), 3u);  // resumed at the checkpoint
  w->camp->run(w->rng);
  const CampaignResult out = result_of(*w);
  std::remove(path.c_str());
  return out;
}

TEST(CrashSafety, KillAndResumeIsByteIdenticalSequential) {
  expect_same(run_uninterrupted(0), run_killed_and_resumed(0, 0));
}

TEST(CrashSafety, KillAndResumeIsByteIdenticalEightWorkers) {
  const CampaignResult uninterrupted = run_uninterrupted(8);
  expect_same(uninterrupted, run_killed_and_resumed(8, 8));
  // The invariants compose: a campaign killed at one worker count and
  // resumed at another (inline, 0 workers, included) matches an
  // uninterrupted 8-worker run — the §9 worker-count invariant survives
  // a mid-campaign snapshot boundary.
  expect_same(uninterrupted, run_killed_and_resumed(1, 8));
  expect_same(uninterrupted, run_killed_and_resumed(0, 8));
  expect_same(uninterrupted, run_killed_and_resumed(8, 0));
}

TEST(CrashSafety, RestoreRejectsSnapshotFromForeignWorldShape) {
  const std::string path = tmp_path("sensedroid_foreign.ckpt");
  {
    auto w = make_world(0, path, /*every=*/1);
    w->camp->run_until(w->rng, 1);
  }
  // A world with a different zone layout must refuse the snapshot.
  sl::Rng field_rng(101);
  auto truth = sf::random_plume_field(24, 24, 3, field_rng, 20.0);
  const sf::ZoneGrid grid(24, 24, 4, 4);  // 16 zones, not 8
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sl::Rng rng(7);
  sh::LocalCloud cloud(truth, grid, cfg, rng);
  se::ResumableCampaign::Config cc;
  cc.rounds = 7;
  se::ResumableCampaign camp(cloud, nullptr, cc);
  EXPECT_THROW(camp.restore_from_file(path, rng), sfl::CheckpointError);
  EXPECT_EQ(camp.rounds_done(), 0u);  // nothing was applied
  std::remove(path.c_str());
}

// A benign driver — guard disabled, checkpoints disabled — must be
// bit-identical to driving the cloud directly: the crash-safety layer
// adds zero behavior until it is switched on.
TEST(CrashSafety, BenignDriverMatchesDirectCampaign) {
  const auto direct = [] {
    auto w = make_world(0, "", 0);  // only for the world; drive manually
    w->cloud->set_guard(nullptr);   // detach make_world's armed ladder
    CampaignResult out;
    for (int round = 0; round < 7; ++round) {
      const auto res = w->cloud->gather_uniform(20, w->rng);
      se::CampaignRoundRow row;
      row.nrmse = res.nrmse;
      row.measurements = res.total_measurements;
      row.shed_zones = res.shed_zones;
      out.history.push_back(row);
    }
    out.report_json =
        so::RunReport::from_registry(*w->reg, "crash-safety",
                                     /*include_wall_clock=*/false)
            .to_json();
    return out;
  }();

  auto w = make_world(0, "", 0);
  // Disarm the ladder: default GuardOptions plan nothing.
  se::ResumableCampaign::Config cc;
  cc.rounds = 7;
  cc.budget_per_zone = 20;
  se::ResumableCampaign camp(*w->cloud, nullptr, cc);
  camp.run(w->rng);
  const std::string report =
      so::RunReport::from_registry(*w->reg, "crash-safety",
                                   /*include_wall_clock=*/false)
          .to_json();

  EXPECT_EQ(report, direct.report_json);
  ASSERT_EQ(camp.history().size(), direct.history.size());
  for (std::size_t i = 0; i < direct.history.size(); ++i) {
    EXPECT_EQ(camp.history()[i].nrmse, direct.history[i].nrmse);
    EXPECT_EQ(camp.history()[i].measurements,
              direct.history[i].measurements);
    EXPECT_EQ(camp.history()[i].shed_zones, 0u);
  }
}

}  // namespace
