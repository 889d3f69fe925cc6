// perfbench_driver: runs one workload of the end-to-end benchmark and
// prints its raw samples as one JSON line.  perfbench/run.py builds this
// binary, runs it, and turns the samples into the named metrics of
// BENCHMARK.json (percentiles, shares, ratios).
//
//   perfbench_driver --workload <solve-heavy|zones-faulted>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --scratch <dir inside the checkout>
//
// Every workload builds one world from the seed — a plume field, a
// LocalCloud with per-zone bases and phones, its round driver, and a
// Gateway on an ephemeral loopback port feeding make_localcloud_sink —
// then runs timed campaign rounds and two ingest phases against it.
// The workloads differ in which of those dominates (see README.md).
//
// --trace 0 times only whole operations (rounds, frames).  --trace 1
// instead measures layer by layer: real-path rounds for the baselines,
// then rounds on a second world from the same seed that the benchmark
// drives itself through Broker::collect, cs::chs_reconstruct,
// ZoneGrid::insert, checkpoint capture/encode/write and the Prometheus
// render, timing each call; then the gateway's decode and sink costs.
//
// Work per run is fixed (round and frame counts derive from --seconds
// and nominal rates), so memory and per-round state do not depend on
// how fast the host happens to be; a phase that runs over three times
// its planned length stops early.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cs/chs.h"
#include "cs/measurement.h"
#include "exec/campaign_runner.h"
#include "exec/resumable.h"
#include "exec/thread_pool.h"
#include "fault/checkpoint.h"
#include "fault/fault.h"
#include "field/generators.h"
#include "field/zones.h"
#include "gateway/framing.h"
#include "gateway/gateway.h"
#include "gateway/sinks.h"
#include "hierarchy/localcloud.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "middleware/wire.h"
#include "obs/metrics.h"
#include "obs/report.h"

using namespace sensedroid;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Workload specifications.

struct Spec {
  std::size_t zone_side = 8;    ///< zones are zone_side x zone_side cells
  std::size_t budget = 20;      ///< readings requested per zone per round
  std::size_t workers = 0;      ///< 0: ResumableCampaign, sequential
  bool faulted = false;         ///< stationary fault plan + resilience
  bool armed = false;           ///< registry attached (+ scrape per round)
  std::size_t ckpt_every = 0;   ///< checkpoint cadence K; 0 = none
  double nominal_round_ms = 50; ///< sizes the round count
};

// Shares of --seconds in a --trace 0 run: timed rounds, then the open
// and closed ingest loops.
constexpr double kRoundShare = 0.6;
constexpr double kOpenShare = 0.2;
constexpr double kClosedShare = 0.2;
constexpr std::size_t kFieldSide = 128;
constexpr std::size_t kPlumeSources = 12;
constexpr std::size_t kSetups = 3;          ///< set-ups per run (median)
constexpr std::size_t kWarmupRounds = 5;
constexpr std::size_t kSenders = 20000;     ///< distinct publishers
constexpr double kOpenRateFps = 100000.0;   ///< open-loop offered rate
constexpr double kNominalClosedFps = 500000.0;
constexpr std::size_t kClosedWindow = 2048; ///< frames sent, not delivered
constexpr std::size_t kClosedBatch = 64;    ///< frames per send()
constexpr std::size_t kClosedPasses = 20;
constexpr double kOverrun = 3.0;            ///< phase time cap factor
// Traced runs checkpoint on this cadence in every workload, so the
// checkpoint layer is costed even where the e2e run does not arm it.
constexpr std::size_t kTraceCkptEvery = 5;

std::optional<Spec> spec_for(const std::string& name) {
  Spec s;
  if (name == "solve-heavy") {
    // 64 zones of 16x16 (n = 256), full coverage, 64 readings, dense
    // separable DCT + GLS, no faults, obs detached, 2 pool workers.
    s.zone_side = 16;
    s.budget = 64;
    s.workers = 2;
    s.nominal_round_ms = 50.0;
    return s;
  }
  if (name == "zones-faulted") {
    // 256 zones of 8x8, 20 readings, stationary faults, sequential
    // ResumableCampaign with checkpoints every 50 rounds (2% of rounds,
    // well clear of the p90 boundary), registry attached + scraped.
    s.faulted = true;
    s.armed = true;
    s.ckpt_every = 50;
    s.nominal_round_ms = 45.0;
    return s;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------
// The world: everything a workload builds before its first timed round.

fault::FaultPlan stationary_plan(std::uint64_t seed, std::size_t zones,
                                 std::size_t horizon_rounds) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.link.p_good_to_bad = 0.05;
  plan.link.p_bad_to_good = 0.30;
  plan.link.loss_bad = 0.80;
  plan.churn.leave_prob = 0.05;
  plan.churn.rejoin_prob = 0.30;
  plan.sensors.spike_prob = 0.03;
  // Recurring broker outages: every 16th zone (phase drawn from the
  // seed) is down for 2 rounds out of every 40, staggered by zone, so
  // the crash load per round is the same early and late.
  linalg::Rng rng(mix(seed, 11));
  const std::size_t phase = rng.uniform_index(16);
  for (std::size_t z = phase; z < zones; z += 16) {
    for (std::size_t r = 1 + (z * 7) % 40; r <= horizon_rounds; r += 40) {
      plan.broker_crashes.push_back(
          {static_cast<std::uint32_t>(z), r, r + 1});
    }
  }
  return plan;
}

// ---------------------------------------------------------------------
// CPU placement.
//
// On a 4-core host the scheduler's placement alone moved results by 2x:
// a polling load generator sharing a core with a gateway thread turns
// microsecond acks into millisecond ones, and a gateway drain thread
// woken onto its producer's core halves ingest throughput.  With four
// or more usable cores the benchmark therefore gives each busy thread a
// core of its own: the gateway's serve and drain threads the first two,
// the load generator the third, pool workers the third and fourth.
// With fewer cores nothing is pinned.

struct Cores {
  std::vector<int> cpu;  ///< usable CPUs at start-up, ascending
  bool pinned() const { return cpu.size() >= 4; }
};

const Cores& cores() {
  static const Cores c = [] {
    Cores out;
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof(all), &all) == 0) {
      for (int k = 0; k < CPU_SETSIZE; ++k) {
        if (CPU_ISSET(k, &all)) out.cpu.push_back(k);
      }
    }
    return out;
  }();
  return c;
}

cpu_set_t one_cpu(int cpu) {
  cpu_set_t s;
  CPU_ZERO(&s);
  CPU_SET(cpu, &s);
  return s;
}

std::vector<pid_t> task_ids() {
  std::vector<pid_t> ids;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(static_cast<pid_t>(std::stol(e.path().filename())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Pins the threads started between construction and pin(), in start
/// order, one per CPU of `cpus` (cycling).
class NewThreads {
 public:
  NewThreads()
      : before_(cores().pinned() ? task_ids() : std::vector<pid_t>{}) {}
  void pin(const std::vector<int>& cpus) const {
    if (!cores().pinned()) return;
    std::size_t k = 0;
    for (pid_t tid : task_ids()) {
      if (std::binary_search(before_.begin(), before_.end(), tid)) continue;
      const cpu_set_t s = one_cpu(cpus[k++ % cpus.size()]);
      ::sched_setaffinity(tid, sizeof(s), &s);
    }
  }

 private:
  std::vector<pid_t> before_;
};

std::vector<int> gateway_cpus() { return {cores().cpu[0], cores().cpu[1]}; }
std::vector<int> pool_cpus() { return {cores().cpu[2], cores().cpu[3]}; }

/// Runs the calling thread on the load generator's core for its
/// lifetime.  No-op without pinning.
class OnClientCore {
 public:
  OnClientCore() {
    if (!cores().pinned()) return;
    const cpu_set_t s = one_cpu(cores().cpu[2]);
    active_ = ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_),
                                       &saved_) == 0 &&
              ::pthread_setaffinity_np(::pthread_self(), sizeof(s), &s) == 0;
  }
  ~OnClientCore() {
    if (active_) {
      ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
    }
  }
  OnClientCore(const OnClientCore&) = delete;
  OnClientCore& operator=(const OnClientCore&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// A ThreadPool whose workers are pinned to the pool cores.
std::unique_ptr<exec::ThreadPool> make_pool(std::size_t workers) {
  const NewThreads fresh;
  auto pool = std::make_unique<exec::ThreadPool>(workers);
  fresh.pin(pool_cpus());
  return pool;
}

struct World {
  Spec spec;
  std::unique_ptr<obs::MetricsRegistry> reg;
  std::unique_ptr<fault::FaultInjector> inj;
  field::SpatialField truth;
  std::unique_ptr<hierarchy::LocalCloud> cloud;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<exec::ParallelCampaignRunner> runner;
  std::unique_ptr<exec::ResumableCampaign> camp;
  std::unique_ptr<gateway::Gateway> gw;
  linalg::Rng rng{1};
  std::vector<double> empty_nrmse;  ///< per zone: NRMSE of a lost zone

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() {
    if (gw) gw->stop();
    gw.reset();
    camp.reset();
    runner.reset();
    pool.reset();
    cloud.reset();
    if (obs::registry() == reg.get()) obs::attach_registry(nullptr);
  }

  std::size_t zones() const { return cloud->zone_count(); }
};

struct WorldOptions {
  std::string ckpt_path;       ///< empty: no periodic checkpoints
  bool start_gateway = true;
  std::size_t horizon_rounds = 4096;
  std::size_t workers_override = 0;  ///< nonzero: runner with N workers
};

std::unique_ptr<World> make_world(const Spec& spec, std::uint64_t seed,
                                  const WorldOptions& o) {
  auto w = std::make_unique<World>();
  w->spec = spec;
  w->reg = std::make_unique<obs::MetricsRegistry>();
  if (spec.armed) obs::attach_registry(w->reg.get());

  const std::size_t per_side = kFieldSide / spec.zone_side;
  if (spec.faulted) {
    w->inj = std::make_unique<fault::FaultInjector>(stationary_plan(
        mix(seed, 3), per_side * per_side, o.horizon_rounds));
  }
  linalg::Rng field_rng(mix(seed, 1));
  w->truth = field::random_plume_field(kFieldSide, kFieldSide, kPlumeSources,
                                       field_rng, 20.0);
  const field::ZoneGrid grid(kFieldSide, kFieldSide, per_side, per_side);

  hierarchy::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  if (spec.faulted) {
    cfg.injector = w->inj.get();
    cfg.retry.max_attempts = 3;
    cfg.topup_rounds = 1;
    cfg.chs.mad_threshold = 5.0;
  }
  w->rng = linalg::Rng(mix(seed, 2));
  w->cloud = std::make_unique<hierarchy::LocalCloud>(w->truth, grid, cfg,
                                                     w->rng);
  w->empty_nrmse.resize(w->zones());
  for (std::size_t id = 0; id < w->zones(); ++id) {
    w->empty_nrmse[id] = w->cloud->nanocloud(id).shed_result(1).nrmse;
  }

  const std::size_t workers =
      o.workers_override != 0 ? o.workers_override : spec.workers;
  if (workers > 0) {
    w->pool = make_pool(workers);
    w->runner =
        std::make_unique<exec::ParallelCampaignRunner>(*w->cloud, *w->pool);
  } else {
    exec::ResumableCampaign::Config cc;
    cc.rounds = o.horizon_rounds;
    cc.budget_per_zone = spec.budget;
    cc.period_s = 60.0;
    if (!o.ckpt_path.empty() && spec.ckpt_every > 0) {
      cc.checkpoint.path = o.ckpt_path;
      cc.checkpoint.every_rounds = spec.ckpt_every;
    }
    if (spec.faulted) {
      cc.guard.breaker.consecutive_failures = 2;
      cc.guard.breaker.error_rate_threshold = 0.75;
      cc.guard.breaker.window = 8;
      cc.guard.breaker.min_window_samples = 4;
      cc.guard.breaker.cooldown_rounds = 3;
      cc.guard.breaker.half_open_probes = 1;
      // Above the 90th percentile of a round's summed zone virtual time
      // under this plan, so budget shedding engages on the worst rounds
      // and sheds few zones when it does.
      cc.guard.shed.round_budget_s = 260.0;
      cc.guard.shed.max_shed_fraction = 0.05;
    }
    w->camp = std::make_unique<exec::ResumableCampaign>(*w->cloud, nullptr,
                                                        cc);
  }
  if (o.start_gateway) {
    gateway::GatewayConfig gc;  // tcp_port 0: ephemeral
    gc.cache_capacity = kSenders;
    // Deep enough to ride out a host stall of half a second at the
    // open-loop rate without answering kBusy.
    gc.queue_depth = 65536;
    w->gw = std::make_unique<gateway::Gateway>(
        gc, gateway::make_localcloud_sink(*w->cloud));
    const NewThreads fresh;
    if (!w->gw->start()) throw std::runtime_error("gateway failed to start");
    fresh.pin(gateway_cpus());
  }
  return w;
}

// ---------------------------------------------------------------------
// One timed campaign round through the workload's own driver.

struct RoundOut {
  double wall_ms = 0.0;
  double scrape_ms = 0.0;
  double nrmse = 0.0;
  double energy_j = 0.0;
  std::size_t shed = 0;
  std::size_t failed = 0;  ///< shed or no readings
  std::size_t failovers = 0;
  std::size_t degraded = 0;
  std::size_t outliers = 0;
};

/// Per-zone registry handles used to account a ResumableCampaign round,
/// whose RegionalResult stays inside the driver.
struct CampaignTap {
  std::vector<obs::Counter*> replies;
  std::vector<obs::Counter*> energy;
  obs::Counter* uplink = nullptr;

  explicit CampaignTap(obs::MetricsRegistry& reg, std::size_t zones) {
    for (std::size_t id = 0; id < zones; ++id) {
      const obs::Labels l{{"zone", std::to_string(id)}};
      replies.push_back(&reg.counter("hier.zone.replies", l));
      energy.push_back(&reg.counter("hier.zone.energy_j", l));
    }
    uplink = &reg.counter("hier.localcloud.uplink_bytes");
  }
};

double sum_counters(const std::vector<obs::Counter*>& cs) {
  double s = 0.0;
  for (const obs::Counter* c : cs) s += c->value();
  return s;
}

RoundOut run_round(World& w, bool scrape, CampaignTap* tap) {
  RoundOut out;
  const std::size_t z = w.zones();
  std::vector<double> replies_before;
  double energy_before = 0.0, uplink_before = 0.0;
  if (tap != nullptr) {
    for (const obs::Counter* c : tap->replies) {
      replies_before.push_back(c->value());
    }
    energy_before = sum_counters(tap->energy);
    uplink_before = tap->uplink->value();
  }
  const std::size_t done = w.camp ? w.camp->rounds_done() : 0;
  std::optional<hierarchy::RegionalResult> res;
  const auto t0 = Clock::now();
  if (w.runner) {
    res = w.runner->run_round_uniform(w.spec.budget, w.rng);
  } else {
    w.camp->run_until(w.rng, done + 1);
  }
  auto t1 = Clock::now();
  if (scrape && obs::registry() != nullptr) {
    const std::string text = obs::registry()->to_prometheus();
    const auto t2 = Clock::now();
    out.scrape_ms = ms_between(t1, t2);
    if (text.empty()) throw std::runtime_error("empty scrape");
    t1 = t2;
  }
  out.wall_ms = ms_between(t0, t1);
  if (res) {
    out.nrmse = res->nrmse;
    out.energy_j = res->node_energy_j + res->stats.broker_energy_j +
                   res->uplink_energy_j;
    out.shed = res->shed_zones;
    for (std::size_t id = 0; id < z; ++id) {
      if (res->zone_nrmse[id] == w.empty_nrmse[id]) ++out.failed;
    }
    out.failovers = res->failovers;
    out.degraded = res->degraded_zones;
    out.outliers = res->outliers_rejected;
    return out;
  }
  const auto& hist = w.camp->history();
  if (hist.size() != done + 1) throw std::runtime_error("round not run");
  out.nrmse = hist.back().nrmse;
  out.shed = hist.back().shed_zones;
  if (tap != nullptr) {
    for (std::size_t id = 0; id < z; ++id) {
      if (tap->replies[id]->value() == replies_before[id]) ++out.failed;
    }
    const double uplink = tap->uplink->value() - uplink_before;
    const sim::LinkModel& link = w.cloud->uplink_link();
    out.energy_j = sum_counters(tap->energy) - energy_before +
                   uplink * (link.tx_energy_per_byte_j +
                             link.rx_energy_per_byte_j);
  }
  return out;
}

// ---------------------------------------------------------------------
// Ingest load generator.

/// Pre-encoded, length-prefixed frames of the sender population:
/// frame k is sender k's reading on "zone/<zone[k]>/temperature".
struct FramePool {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> off;  ///< off[k]..off[k+1] is frame k
  std::vector<std::uint32_t> zone;
  std::size_t size() const { return zone.size(); }
};

FramePool make_frames(std::size_t zones, std::uint64_t seed) {
  FramePool p;
  linalg::Rng rng(mix(seed, 4));
  const std::vector<std::size_t> ids = rng.permutation(kSenders);
  p.off.push_back(0);
  for (std::size_t k = 0; k < kSenders; ++k) {
    const auto sender = static_cast<middleware::NodeId>(ids[k] + 1);
    const auto z = static_cast<std::uint32_t>(rng.uniform_index(zones));
    middleware::Message msg;
    msg.topic = "zone/" + std::to_string(z) + "/temperature";
    msg.sender = sender;
    msg.timestamp = static_cast<double>(k);
    msg.payload = middleware::Record{sender, sensing::SensorKind::kTemperature,
                                     static_cast<double>(k),
                                     20.0 + rng.gaussian()};
    const auto framed = gateway::encode_framed(msg);
    p.bytes.insert(p.bytes.end(), framed.begin(), framed.end());
    p.off.push_back(p.bytes.size());
    p.zone.push_back(z);
  }
  return p;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 10;  // a wedged gateway fails the run instead of hanging it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

/// Sends pool frames [i, j) of the cyclic stream (frame i is pool frame
/// i mod P) with as few send() calls as the wrap-around allows.
bool send_frames(int fd, const FramePool& p, std::size_t i, std::size_t j) {
  const std::size_t n = p.size();
  while (i < j) {
    const std::size_t a = i % n;
    const std::size_t b = std::min(n, a + (j - i));
    if (!send_all(fd, p.bytes.data() + p.off[a], p.off[b] - p.off[a])) {
      return false;
    }
    i += b - a;
  }
  return true;
}

struct IngestTally {
  std::uint64_t offered = 0, acked = 0, busy = 0, bad = 0;
  bool io_error = false;
  std::vector<std::uint64_t> acked_per_zone;

  std::uint64_t lost() const { return offered - acked - busy - bad; }
  void count(std::uint8_t status, std::uint32_t zone) {
    if (status == static_cast<std::uint8_t>(gateway::IngestStatus::kAck)) {
      ++acked;
      ++acked_per_zone[zone];
    } else if (status ==
               static_cast<std::uint8_t>(gateway::IngestStatus::kBusy)) {
      ++busy;
    } else {
      ++bad;
    }
  }
  void merge(const IngestTally& o) {
    offered += o.offered;
    acked += o.acked;
    busy += o.busy;
    bad += o.bad;
    io_error = io_error || o.io_error;
    for (std::size_t z = 0; z < acked_per_zone.size(); ++z) {
      acked_per_zone[z] += o.acked_per_zone[z];
    }
  }
};

struct OpenResult {
  IngestTally tally;
  std::vector<double> latency_us;  ///< per acked frame, due -> ack
  std::vector<double> late_us;     ///< generator lateness per send batch
  double busy_s = 0.0;             ///< generator time inside send()
  double wall_s = 0.0;
};

/// Open loop: one thread on one connection sends frame i at
/// t0 + i / rate whatever the acks do, and between sends polls the
/// socket for acks, timestamping each as it arrives.  Latency runs from
/// the frame's due time, so a stall also charges the frames that queued
/// behind it.  Polling from the sending thread keeps a second thread's
/// wake-up out of every sample.
OpenResult run_open_loop(std::uint16_t port, const FramePool& p,
                         std::size_t zones, std::size_t frames) {
  OpenResult r;
  r.tally.acked_per_zone.assign(zones, 0);
  r.tally.offered = frames;
  const OnClientCore on_client_core;
  const int fd = connect_loopback(port);
  if (fd < 0) {
    r.tally.io_error = true;
    return r;
  }
  std::vector<Clock::time_point> ack_at(frames);
  std::vector<std::uint8_t> status(frames, 0xff);
  const auto period = std::chrono::duration<double>(1.0 / kOpenRateFps);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(period * i);
  };
  const auto give_up = due(frames) + std::chrono::seconds(10);
  std::size_t i = 0, got = 0;
  double busy_s = 0.0;
  std::uint8_t buf[4096];
  while (got < frames) {
    const auto now = Clock::now();
    if (i < frames && now >= due(i)) {
      const double since = std::chrono::duration<double>(now - t0).count();
      const std::size_t j = std::clamp<std::size_t>(
          static_cast<std::size_t>(since * kOpenRateFps) + 1, i + 1, frames);
      r.late_us.push_back(us_between(due(i), now));
      const bool ok = send_frames(fd, p, i, j);
      busy_s += std::chrono::duration<double>(Clock::now() - now).count();
      if (!ok) break;
      i = j;
    }
    const ssize_t n = ::recv(fd, buf, std::min(sizeof(buf), frames - got),
                             MSG_DONTWAIT);
    if (n > 0) {
      const auto at = Clock::now();
      for (ssize_t k = 0; k < n; ++k, ++got) {
        ack_at[got] = at;
        status[got] = buf[k];
      }
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      break;
    } else if (now > give_up) {
      break;
    } else {
      // Nothing due and nothing to read: let a gateway thread that the
      // scheduler placed on this core run.
      std::this_thread::yield();
    }
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.busy_s = busy_s;
  ::close(fd);
  if (got < frames) r.tally.io_error = true;
  r.latency_us.reserve(got);
  for (std::size_t k = 0; k < got; ++k) {
    r.tally.count(status[k], p.zone[k % p.size()]);
    if (status[k] == static_cast<std::uint8_t>(gateway::IngestStatus::kAck)) {
      r.latency_us.push_back(us_between(due(k), ack_at[k]));
    }
  }
  return r;
}

/// One closed-loop pass over frames [first, first + frames) of the
/// cyclic stream: one connection keeps at most kClosedWindow frames in
/// flight — sent but not yet delivered to the sink, read from the
/// gateway's own delivery counter — and sends in batches of
/// kClosedBatch, so the generator is not the bottleneck.  The window is
/// far below the ingest queue's depth, so the loop measures how fast
/// frames reach the broker stores, never backpressure.  Returns the
/// pass's wall time.
double closed_pass(const gateway::Gateway& gw, const FramePool& p,
                   std::size_t first, std::size_t frames, IngestTally& t) {
  t.offered += frames;
  const int fd = connect_loopback(gw.tcp_port());
  if (fd < 0) {
    t.io_error = true;
    return 0.0;
  }
  const std::uint64_t delivered0 = gw.stats().delivered;
  const std::uint64_t acked0 = t.acked;
  const auto t0 = Clock::now();
  const auto give_up = t0 + std::chrono::seconds(60);
  std::size_t sent = 0, acked = 0;
  std::uint8_t buf[4096];
  for (;;) {
    const std::uint64_t delivered = gw.stats().delivered - delivered0;
    if (acked == frames && delivered >= t.acked - acked0) break;
    while (sent < frames && sent - delivered + kClosedBatch <= kClosedWindow) {
      const std::size_t n = std::min(kClosedBatch, frames - sent);
      if (!send_frames(fd, p, first + sent, first + sent + n)) {
        t.io_error = true;
        break;
      }
      sent += n;
    }
    if (t.io_error || Clock::now() > give_up) {
      t.io_error = true;
      break;
    }
    if (acked == sent) {
      // Window full and every ack read: wait for the sink, without
      // polling the gateway's delivery counter hot.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    const ssize_t n =
        ::recv(fd, buf, std::min(sizeof(buf), sent - acked), MSG_DONTWAIT);
    if (n > 0) {
      for (ssize_t k = 0; k < n; ++k, ++acked) {
        t.count(buf[k], p.zone[(first + acked) % p.size()]);
      }
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      t.io_error = true;
      break;
    } else {
      std::this_thread::yield();
    }
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  ::close(fd);
  return wall_s;
}

struct ClosedResult {
  IngestTally tally;
  std::vector<double> pass_fps;  ///< delivered frames/s of each pass
};

/// The closed loop in kClosedPasses equal passes, so the summary can
/// take the median pass and shrug off one that a host stall hit.
ClosedResult run_closed_loop(const gateway::Gateway& gw, const FramePool& p,
                             std::size_t zones, std::size_t frames) {
  ClosedResult out;
  out.tally.acked_per_zone.assign(zones, 0);
  const OnClientCore on_client_core;
  const std::size_t per = std::max<std::size_t>(1, frames / kClosedPasses);
  for (std::size_t k = 0; k < kClosedPasses && !out.tally.io_error; ++k) {
    const std::uint64_t acked0 = out.tally.acked;
    const double s = closed_pass(gw, p, k * per, per, out.tally);
    out.pass_fps.push_back(static_cast<double>(out.tally.acked - acked0) /
                           std::max(s, 1e-9));
  }
  return out;
}

/// Per-zone store depth including evictions, so growth counts every
/// record the sink inserted.
std::vector<std::uint64_t> store_depths(hierarchy::LocalCloud& cloud) {
  std::vector<std::uint64_t> d;
  for (std::size_t id = 0; id < cloud.zone_count(); ++id) {
    const auto& st = cloud.nanocloud(id).broker().store();
    d.push_back(st.size() + st.evicted());
  }
  return d;
}

/// Waits until the gateway's drain thread has delivered everything it
/// accepted (acks precede delivery).
bool wait_delivered(const gateway::Gateway& gw) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    const auto s = gw.stats();
    if (s.delivered + s.sink_errors >= s.accepted) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// The ingest correctness check: every acked frame was delivered, landed
/// in its own zone's broker store (so no route misses), and no frame
/// was answered kBad.
bool ingest_consistent(World& w, const std::vector<std::uint64_t>& before,
                       const gateway::Gateway::Stats& s0,
                       const IngestTally& t, std::string* why) {
  if (!wait_delivered(*w.gw)) {
    *why = "gateway did not drain";
    return false;
  }
  const auto s1 = w.gw->stats();
  const auto after = store_depths(*w.cloud);
  if (t.bad != 0 || s1.decode_errors != s0.decode_errors) {
    *why = "frames answered kBad";
    return false;
  }
  if (s1.accepted - s0.accepted != t.acked ||
      s1.delivered - s0.delivered != t.acked) {
    *why = "acked != accepted != delivered";
    return false;
  }
  for (std::size_t z = 0; z < after.size(); ++z) {
    if (after[z] - before[z] != t.acked_per_zone[z]) {
      *why = "store growth of zone " + std::to_string(z) +
             " != frames acked for it";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// JSON output.

class Json {
 public:
  void key(const std::string& k) {
    comma();
    out_ += '"' + k + "\":";
    need_comma_ = false;
  }
  void num(double v) {
    comma();
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    need_comma_ = true;
  }
  void boolean(bool b) {
    comma();
    out_ += b ? "true" : "false";
    need_comma_ = true;
  }
  void str(const std::string& s) {
    comma();
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
    }
    out_ += '"';
    need_comma_ = true;
  }
  void list(const std::vector<double>& v) {
    comma();
    out_ += '[';
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i ? ",%.6g" : "%.6g", v[i]);
      out_ += buf;
    }
    out_ += ']';
    need_comma_ = true;
  }
  void open() {
    comma();
    out_ += '{';
    need_comma_ = false;
  }
  void close() {
    out_ += '}';
    need_comma_ = true;
  }
  void field(const std::string& k, double v) {
    key(k);
    num(v);
  }
  void field(const std::string& k, const std::vector<double>& v) {
    key(k);
    list(v);
  }
  void flag(const std::string& k, bool b) {
    key(k);
    boolean(b);
  }
  const std::string& text() const { return out_; }

 private:
  void comma() {
    if (need_comma_) out_ += ',';
  }
  std::string out_;
  bool need_comma_ = false;
};

double peak_rss_kb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
};

std::size_t planned(double seconds, double share, double per_item_s,
                    std::size_t floor_count) {
  return std::max(floor_count,
                  static_cast<std::size_t>(seconds * share / per_item_s));
}

// ---------------------------------------------------------------------
// --trace 0: the end-to-end run.

int run_e2e(const Spec& spec, const Args& a, Json& js) {
  const std::string ckpt = a.scratch + "/campaign.ckpt";
  std::size_t rounds =
      planned(a.seconds, kRoundShare, spec.nominal_round_ms / 1e3, 120);
  if (spec.ckpt_every > 0) {
    const std::size_t k = spec.ckpt_every;
    rounds += (k + k / 2 - (kWarmupRounds + rounds) % k) % k;
  }
  WorldOptions wo;
  wo.ckpt_path = ckpt;
  wo.horizon_rounds = kWarmupRounds + rounds + 64;

  // Set-up, several times: field, LocalCloud (bases, phones), pool,
  // gateway, warm-up rounds.  The last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<World> w;
  for (std::size_t s = 0; s < kSetups; ++s) {
    w.reset();
    std::error_code ec;
    std::filesystem::remove(ckpt, ec);
    const auto t0 = Clock::now();
    w = make_world(spec, a.seed, wo);
    for (std::size_t r = 0; r < kWarmupRounds; ++r) {
      run_round(*w, spec.armed, nullptr);
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const std::size_t zones = w->zones();
  std::optional<CampaignTap> tap;
  if (w->camp) tap.emplace(*w->reg, zones);

  // Timed rounds.
  std::vector<double> wall, nrmse, energy, failed, shed;
  std::size_t round_errors = 0;
  bool nrmse_ok = true;
  const auto phase0 = Clock::now();
  const double cap_s = kOverrun * a.seconds * kRoundShare;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (std::chrono::duration<double>(Clock::now() - phase0).count() > cap_s)
      break;
    try {
      const RoundOut o = run_round(*w, spec.armed, tap ? &*tap : nullptr);
      wall.push_back(o.wall_ms);
      nrmse.push_back(o.nrmse);
      energy.push_back(o.energy_j);
      failed.push_back(static_cast<double>(o.failed));
      shed.push_back(static_cast<double>(o.shed));
      if (!(o.nrmse >= 0.0 && o.nrmse < 1.0)) nrmse_ok = false;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "round failed: %s\n", e.what());
      ++round_errors;
    }
  }

  // Ingest phases, after the rounds: no round may run while the sink
  // writes broker stores.  The round count leaves the last checkpoint
  // half a cadence before the end, so its background write is done.
  const FramePool frames = make_frames(w->zones(), a.seed);
  auto depths = store_depths(*w->cloud);
  auto s0 = w->gw->stats();
  const std::size_t open_n = planned(a.seconds, kOpenShare,
                                     1.0 / kOpenRateFps, 20000);
  OpenResult open = run_open_loop(w->gw->tcp_port(), frames, w->zones(),
                                  open_n);
  std::string why;
  bool ingest_ok = !open.tally.io_error &&
                   ingest_consistent(*w, depths, s0, open.tally, &why);
  depths = store_depths(*w->cloud);
  s0 = w->gw->stats();
  const std::size_t closed_n = planned(a.seconds, kClosedShare,
                                       1.0 / kNominalClosedFps, 100000);
  ClosedResult closed =
      run_closed_loop(*w->gw, frames, w->zones(), closed_n);
  if (ingest_ok) {
    ingest_ok = !closed.tally.io_error &&
                ingest_consistent(*w, depths, s0, closed.tally, &why);
  }
  if (!ingest_ok) std::fprintf(stderr, "ingest check failed: %s\n",
                               why.c_str());
  const double rss_kb = peak_rss_kb();

  // Workload-specific correctness checks.
  js.key("checks");
  js.open();
  js.flag("rounds_ran", round_errors == 0 && wall.size() >= 100);
  js.flag("nrmse_in_range", nrmse_ok);
  js.flag("ingest_consistent", ingest_ok);
  if (spec.ckpt_every > 0) {
    // The final checkpoint must decode, and carry the round count of the
    // last checkpointed round.
    const std::uint64_t done = w->camp->rounds_done();
    const std::uint64_t expect = done - done % spec.ckpt_every;
    w.reset();  // joins the background writer
    bool ok = false;
    try {
      ok = fault::load(ckpt).rounds_done == expect;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint load failed: %s\n", e.what());
    }
    js.flag("checkpoint_roundtrip", ok);
  }
  w.reset();
  if (spec.workers > 0) {
    // The deterministic RunReport view over the warm-up rounds must not
    // depend on worker count.
    std::string views[2];
    for (std::size_t k = 0; k < 2; ++k) {
      WorldOptions co;
      co.start_gateway = false;
      co.workers_override = k + 1;
      auto cw = make_world(spec, a.seed, co);
      obs::attach_registry(cw->reg.get());
      for (std::size_t r = 0; r < kWarmupRounds; ++r) {
        run_round(*cw, false, nullptr);
      }
      views[k] = obs::RunReport::from_registry(*cw->reg, "perfbench",
                                               /*include_wall_clock=*/false)
                     .to_json();
    }
    js.flag("deterministic_1_vs_2_workers",
            !views[0].empty() && views[0] == views[1]);
  }
  js.close();

  js.field("setup_s", setup_s);
  js.key("rounds");
  js.open();
  js.field("zones", static_cast<double>(zones));
  js.field("errors", static_cast<double>(round_errors));
  js.field("wall_ms", wall);
  js.field("nrmse", nrmse);
  js.field("energy_j", energy);
  js.field("failed", failed);
  js.field("shed", shed);
  js.close();
  js.key("ingest");
  js.open();
  js.field("open_latency_us", open.latency_us);
  IngestTally all = open.tally;
  all.merge(closed.tally);
  js.field("offered", static_cast<double>(all.offered));
  js.field("acked", static_cast<double>(all.acked));
  js.field("busy", static_cast<double>(all.busy));
  js.field("bad", static_cast<double>(all.bad));
  js.field("lost", static_cast<double>(all.lost()));
  js.field("closed_pass_fps", closed.pass_fps);
  js.close();
  js.field("peak_rss_kb", rss_kb);
  return 0;
}

// ---------------------------------------------------------------------
// --trace 1: the per-layer run.

/// One zone of a benchmark-driven round: the same steps NanoCloud::gather
/// takes, each timed from here.  Crashed brokers are counted and the
/// zone skipped (the stand-in election is not reproduced).
struct ZoneTrace {
  double collect_ms = 0.0, solve_ms = 0.0, task_ms = 0.0;
  middleware::GatherStats stats;
  std::size_t m_used = 0, support = 0, outliers = 0;
  bool degraded = false, broker_down = false;
  linalg::Vector recon;
};

ZoneTrace trace_zone(World& w, std::size_t id,
                     const std::vector<std::size_t>& cell_of_node,
                     const linalg::Matrix& basis, linalg::Rng& rng) {
  const auto t0 = Clock::now();
  ZoneTrace zt;
  hierarchy::NanoCloud& nc = w.cloud->nanocloud(id);
  const std::size_t n = nc.grid_points();
  const std::size_t nodes = nc.node_count();
  const std::size_t m = std::min(w.spec.budget, nodes);
  if (w.inj && w.inj->broker_down(static_cast<std::uint32_t>(id))) {
    zt.broker_down = true;
    zt.recon.assign(n, 0.0);
    zt.task_ms = ms_between(t0, Clock::now());
    return zt;
  }
  std::vector<std::size_t> picked = rng.sample_without_replacement(nodes, m);
  std::vector<middleware::MobileNode*> targets;
  for (std::size_t i : picked) targets.push_back(&nc.node(i));
  auto c0 = Clock::now();
  std::vector<middleware::Reading> readings = nc.broker().collect(
      targets, nc.config().sensor, 0, rng, &zt.stats);
  zt.collect_ms += ms_between(c0, Clock::now());
  if (nc.config().topup_rounds > 0 && readings.size() < m) {
    std::vector<char> tried(nodes, 0);
    for (std::size_t i : picked) tried[i] = 1;
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < nodes; ++i) {
      if (!tried[i]) pool.push_back(i);
    }
    const std::size_t deficit = std::min(m - readings.size(), pool.size());
    if (deficit > 0) {
      std::vector<middleware::MobileNode*> extra;
      for (std::size_t j : rng.sample_without_replacement(pool.size(),
                                                          deficit)) {
        extra.push_back(&nc.node(pool[j]));
      }
      c0 = Clock::now();
      const auto more = nc.broker().collect(extra, nc.config().sensor, 0,
                                            rng, &zt.stats);
      zt.collect_ms += ms_between(c0, Clock::now());
      zt.stats.topup_requests += extra.size();
      zt.stats.topup_replies += more.size();
      readings.insert(readings.end(), more.begin(), more.end());
    }
  }
  zt.m_used = readings.size();
  if (readings.empty()) {
    zt.recon.assign(n, 0.0);
    zt.task_ms = ms_between(t0, Clock::now());
    return zt;
  }
  std::vector<std::size_t> order(readings.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cell_of_node[readings[a].node - 1] <
           cell_of_node[readings[b].node - 1];
  });
  std::vector<std::size_t> cells;
  linalg::Vector values, sigmas;
  for (std::size_t k : order) {
    cells.push_back(cell_of_node[readings[k].node - 1]);
    values.push_back(readings[k].value);
    sigmas.push_back(readings[k].sigma);
  }
  cs::Measurement meas{cs::MeasurementPlan::from_indices(n, std::move(cells)),
                       std::move(values), cs::SensorNoise{std::move(sigmas)}};
  const auto s0 = Clock::now();
  const cs::ChsResult res = cs::chs_reconstruct(basis, meas, nc.config().chs);
  zt.solve_ms = ms_between(s0, Clock::now());
  zt.support = res.support.size();
  zt.outliers = res.outliers_rejected;
  zt.degraded = res.degraded;
  zt.recon = res.reconstruction;
  zt.task_ms = ms_between(t0, Clock::now());
  return zt;
}

int run_traced(const Spec& spec, const Args& a, Json& js) {
  // Phase budgets (shares of --seconds): real-path baseline, exec
  // 1-vs-2 workers, obs detached-vs-armed, benchmark-driven rounds.
  const double round_s = spec.nominal_round_ms / 1e3;
  const std::size_t base_n = planned(a.seconds, 0.12, round_s, 30);
  const std::size_t exec_n = planned(a.seconds, 0.08, round_s, 30);
  const std::size_t obs_n = planned(a.seconds, 0.08, round_s, 30);
  const std::size_t manual_n = planned(a.seconds, 0.22, round_s, 30);
  WorldOptions wo;
  wo.ckpt_path = a.scratch + "/campaign.ckpt";
  wo.horizon_rounds =
      kWarmupRounds + base_n + 2 * exec_n + 2 * obs_n + manual_n + 64;
  auto w = make_world(spec, a.seed, wo);
  for (std::size_t r = 0; r < kWarmupRounds; ++r) {
    run_round(*w, spec.armed, nullptr);
  }

  // Real-path baseline rounds, plus the counts the program reports.
  std::vector<double> base_ms;
  double failovers = 0, shed = 0, degraded = 0, outliers = 0;
  for (std::size_t r = 0; r < base_n; ++r) {
    const double f0 = w->reg->counter_sum("hier.zone.failovers");
    const double d0 = w->reg->counter_sum("hier.zone.degraded_rounds");
    const double o0 = w->reg->counter_sum("cs.chs.outliers_rejected");
    const RoundOut o = run_round(*w, spec.armed, nullptr);
    base_ms.push_back(o.wall_ms);
    shed += static_cast<double>(o.shed);
    if (w->runner) {
      failovers += static_cast<double>(o.failovers);
      degraded += static_cast<double>(o.degraded);
      outliers += static_cast<double>(o.outliers);
    } else {
      failovers += w->reg->counter_sum("hier.zone.failovers") - f0;
      degraded += w->reg->counter_sum("hier.zone.degraded_rounds") - d0;
      outliers += w->reg->counter_sum("cs.chs.outliers_rejected") - o0;
    }
  }

  // exec: the real runner at 1 and at 2 workers, alternating blocks.
  std::vector<double> exec1_ms, exec2_ms;
  {
    const auto p1 = make_pool(1), p2 = make_pool(2);
    exec::ParallelCampaignRunner r1(*w->cloud, *p1), r2(*w->cloud, *p2);
    for (std::size_t r = 0; r < 2 * exec_n; ++r) {
      auto& runner = (r / 5) % 2 == 0 ? r1 : r2;
      const auto t0 = Clock::now();
      runner.run_round_uniform(spec.budget, w->rng);
      ((r / 5) % 2 == 0 ? exec1_ms : exec2_ms)
          .push_back(ms_between(t0, Clock::now()));
    }
  }

  // obs: the workload's own rounds detached and armed (registry attached
  // + one Prometheus render per round), alternating blocks.
  std::vector<double> detached_ms, armed_ms, scrape_ms;
  for (std::size_t r = 0; r < 2 * obs_n; ++r) {
    const bool armed = (r / 5) % 2 == 1;
    obs::attach_registry(armed ? w->reg.get() : nullptr);
    const RoundOut o = run_round(*w, armed, nullptr);
    (armed ? armed_ms : detached_ms).push_back(o.wall_ms);
    if (armed) scrape_ms.push_back(o.scrape_ms);
  }
  obs::attach_registry(spec.armed ? w->reg.get() : nullptr);
  const double series = static_cast<double>(w->reg->series_count());

  // Benchmark-driven rounds on a second world from the same seed.
  WorldOptions bo;
  bo.start_gateway = false;
  bo.horizon_rounds = wo.horizon_rounds;
  auto b = make_world(spec, a.seed, bo);
  if (spec.armed) obs::attach_registry(b->reg.get());
  const std::size_t zones = b->zones();
  const field::ZoneGrid& grid = b->cloud->grid();
  const std::size_t zw = grid.zone(0).width, zh = grid.zone(0).height;
  // Zones share one basis here; its build is timed once per zone, as
  // the LocalCloud pays it.
  double build_ms = 0.0;
  linalg::Matrix basis;
  for (std::size_t id = 0; id < zones; ++id) {
    const auto t0 = Clock::now();
    linalg::Matrix m = linalg::dct2_basis(zw, zh);
    build_ms += ms_between(t0, Clock::now());
    if (id == 0) basis = std::move(m);
  }
  double basis_bytes = 0.0;
  for (std::size_t id = 0; id < zones; ++id) {
    basis_bytes +=
        static_cast<double>(b->cloud->nanocloud(id).basis_state_bytes());
  }
  std::vector<std::vector<std::size_t>> cell_of_node(zones);
  for (std::size_t id = 0; id < zones; ++id) {
    hierarchy::NanoCloud& nc = b->cloud->nanocloud(id);
    const double cell_m = nc.config().cell_m;
    for (std::size_t i = 0; i < nc.node_count(); ++i) {
      const sim::Point& pos = nc.node(i).position();
      const auto j = static_cast<std::size_t>(pos.x / cell_m);
      const auto row = static_cast<std::size_t>(pos.y / cell_m);
      cell_of_node[id].push_back(j * zh + row);
    }
  }
  std::unique_ptr<exec::ResumableCampaign> snapper;
  if (!b->camp) {
    exec::ResumableCampaign::Config cc;
    cc.budget_per_zone = spec.budget;
    snapper = std::make_unique<exec::ResumableCampaign>(*b->cloud, nullptr,
                                                        cc);
  }
  exec::ResumableCampaign& camp = b->camp ? *b->camp : *snapper;
  const std::string ckpt = a.scratch + "/traced.ckpt";
  const std::size_t workers = std::max<std::size_t>(1, spec.workers);

  std::vector<double> manual_ms, solve_ms, task_ms, fold_ms, stitch_ms,
      capture_ms, encode_ms, write_ms, ckpt_bytes;
  double collect_total = 0, solve_total = 0, task_total = 0, idle_total = 0,
         attributed_total = 0, wall_total = 0, support_total = 0;
  middleware::GatherStats stats;
  double uplink_bytes = 0, broker_down = 0;
  for (std::size_t r = 0; r < manual_n; ++r) {
    const auto t0 = Clock::now();
    if (b->inj) b->inj->begin_round();
    std::vector<linalg::Rng> forks;
    for (std::size_t id = 0; id < zones; ++id) forks.push_back(b->rng.fork());
    std::vector<ZoneTrace> zt(zones);
    if (b->pool) {
      std::vector<std::future<ZoneTrace>> fut;
      for (std::size_t id = 0; id < zones; ++id) {
        fut.push_back(b->pool->submit([&, id] {
          return trace_zone(*b, id, cell_of_node[id], basis, forks[id]);
        }));
      }
      for (auto& f : fut) f.wait();
      for (std::size_t id = 0; id < zones; ++id) zt[id] = fut[id].get();
    } else {
      for (std::size_t id = 0; id < zones; ++id) {
        zt[id] = trace_zone(*b, id, cell_of_node[id], basis, forks[id]);
      }
    }
    const auto t_gathered = Clock::now();
    field::SpatialField stitched(grid.field_width(), grid.field_height());
    double stitch = 0.0, round_task = 0.0, round_work = 0.0;
    for (std::size_t id = 0; id < zones; ++id) {
      const ZoneTrace& z = zt[id];
      stats += z.stats;
      collect_total += z.collect_ms;
      solve_total += z.solve_ms;
      round_task += z.task_ms;
      round_work += z.collect_ms + z.solve_ms;
      support_total += static_cast<double>(z.support);
      uplink_bytes += static_cast<double>(32 + 16 * z.support);
      if (z.broker_down) ++broker_down;
      if (z.solve_ms > 0.0) solve_ms.push_back(z.solve_ms);
      task_ms.push_back(z.task_ms);
      const auto s0 = Clock::now();
      grid.insert(stitched,
                  id, field::SpatialField::from_vector(
                          grid.zone(id).width, grid.zone(id).height, z.recon));
      stitch += ms_between(s0, Clock::now());
    }
    const double nrmse = field::field_nrmse(stitched, b->truth);
    if (!(nrmse >= 0.0 && nrmse < 1.0)) {
      throw std::runtime_error("traced round NRMSE out of range");
    }
    double ckpt_ms = 0.0;
    if ((r + 1) % kTraceCkptEvery == 0) {
      const auto c0 = Clock::now();
      const fault::CampaignSnapshot snap = camp.snapshot(b->rng);
      const auto c1 = Clock::now();
      const std::vector<std::uint8_t> image = fault::encode(snap);
      const auto c2 = Clock::now();
      fault::write_atomic_image(ckpt, image);
      const auto c3 = Clock::now();
      capture_ms.push_back(ms_between(c0, c1));
      encode_ms.push_back(ms_between(c1, c2));
      write_ms.push_back(ms_between(c2, c3));
      ckpt_bytes.push_back(static_cast<double>(image.size()));
      ckpt_ms = ms_between(c0, c3);
    }
    double scrape = 0.0;
    if (spec.armed) {
      const auto p0 = Clock::now();
      const std::string text = b->reg->to_prometheus();
      scrape = ms_between(p0, Clock::now());
      if (text.empty()) throw std::runtime_error("empty scrape");
    }
    const double wall = ms_between(t0, Clock::now());
    const double gather_wall = ms_between(t0, t_gathered);
    manual_ms.push_back(wall);
    fold_ms.push_back(wall - gather_wall - ckpt_ms - scrape);
    stitch_ms.push_back(stitch);
    task_total += round_task;
    idle_total += std::max(0.0, 1.0 - round_task /
                                          (static_cast<double>(workers) *
                                           gather_wall));
    attributed_total += round_work / static_cast<double>(workers) + stitch +
                        ckpt_ms + scrape;
    wall_total += wall;
  }
  const double manual_rounds = static_cast<double>(manual_n);

  // Ingest: the live gateway, then decode and sink costs driven directly.
  obs::attach_registry(spec.armed ? w->reg.get() : nullptr);
  const FramePool frames = make_frames(w->zones(), a.seed);
  const auto g0 = w->gw->stats();
  const std::size_t open_n = planned(a.seconds, 0.12, 1.0 / kOpenRateFps,
                                     20000);
  OpenResult open = run_open_loop(w->gw->tcp_port(), frames, w->zones(),
                                  open_n);
  const std::size_t closed_n =
      planned(a.seconds, 0.08, 1.0 / kNominalClosedFps, 100000);
  ClosedResult closed =
      run_closed_loop(*w->gw, frames, w->zones(), closed_n);
  if (open.tally.io_error || closed.tally.io_error || !wait_delivered(*w->gw)) {
    throw std::runtime_error("traced ingest failed");
  }
  const auto g1 = w->gw->stats();
  std::vector<middleware::Message> decoded;
  decoded.reserve(frames.size());
  const auto d0 = Clock::now();
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const std::span<const std::uint8_t> frame(
        frames.bytes.data() + frames.off[k] + 4,
        frames.off[k + 1] - frames.off[k] - 4);
    auto msg = middleware::decode_message(frame);
    if (!msg) throw std::runtime_error("pool frame failed to decode");
    decoded.push_back(std::move(*msg));
  }
  const double decode_us = us_between(d0, Clock::now()) /
                           static_cast<double>(frames.size());
  if (spec.armed) obs::attach_registry(b->reg.get());
  const gateway::Gateway::Sink sink = gateway::make_localcloud_sink(*b->cloud);
  const auto k0 = Clock::now();
  for (const middleware::Message& msg : decoded) sink(msg);
  const double sink_us = us_between(k0, Clock::now()) /
                         static_cast<double>(decoded.size());
  obs::attach_registry(spec.armed ? w->reg.get() : nullptr);

  const double per_zone_round = manual_rounds * static_cast<double>(zones);
  const double frames_seen =
      static_cast<double>(std::max<std::uint64_t>(1, g1.frames - g0.frames));
  js.key("layers");
  js.open();
  js.field("cs.solve_ms_p50", solve_ms);
  js.field("cs.solve_share", solve_total / std::max(1e-9, task_total));
  js.field("cs.support_size_mean", support_total / per_zone_round);
  js.field("cs.outliers_rejected_per_round", outliers / base_n);
  js.field("linalg.basis_state_mb", basis_bytes / 1e6);
  js.field("linalg.basis_build_ms", build_ms);
  js.field("exec.speedup", median(exec1_ms) / median(exec2_ms));
  js.field("exec.idle_share", idle_total / manual_rounds);
  js.field("exec.zone_task_ms_p90", task_ms);
  js.field("middleware.collect_ms_per_zone", collect_total / per_zone_round);
  js.field("middleware.commands_per_reading",
           static_cast<double>(stats.commands_sent) /
               static_cast<double>(std::max<std::size_t>(
                   1, stats.replies_received)));
  js.field("middleware.retry_recovered_share",
           static_cast<double>(stats.retry_recovered) /
               static_cast<double>(std::max<std::size_t>(1, stats.retries)));
  js.field("middleware.topup_yield",
           static_cast<double>(stats.topup_replies) /
               static_cast<double>(
                   std::max<std::size_t>(1, stats.topup_requests)));
  js.field("middleware.radio_failures_per_round",
           static_cast<double>(stats.radio_failures) / manual_rounds);
  js.field("middleware.bytes_per_round",
           static_cast<double>(stats.bytes_transferred) / manual_rounds);
  js.field("fault.deadline_skips",
           static_cast<double>(stats.deadline_skips) / manual_rounds);
  js.field("fault.battery_skips",
           static_cast<double>(stats.battery_skips) / manual_rounds);
  js.field("hierarchy.failovers_per_round", failovers / base_n);
  js.field("hierarchy.shed_zones_per_round", shed / base_n);
  js.field("hierarchy.degraded_zones_per_round", degraded / base_n);
  js.field("hierarchy.fold_ms", median(fold_ms));
  js.field("field.stitch_ms", median(stitch_ms));
  js.field("hierarchy.uplink_bytes_per_round", uplink_bytes / manual_rounds);
  js.field("fault.ckpt_capture_ms", median(capture_ms));
  js.field("fault.ckpt_encode_ms", median(encode_ms));
  js.field("fault.ckpt_write_ms", median(write_ms));
  js.field("fault.ckpt_bytes", median(ckpt_bytes));
  js.field("obs.armed_over_detached", median(armed_ms) / median(detached_ms));
  js.field("obs.scrape_ms", median(scrape_ms));
  js.field("obs.series_count", series);
  js.field("gateway.decode_us_per_frame", decode_us);
  js.field("middleware.sink_us_per_frame", sink_us);
  js.field("gateway.busy_share",
           static_cast<double>(g1.busy_rejected - g0.busy_rejected) /
               frames_seen);
  js.field("gateway.queue_peak_depth",
           static_cast<double>(g1.queue_peak_depth));
  js.field("gateway.bytes_per_frame",
           static_cast<double>(g1.bytes_received - g0.bytes_received) /
               frames_seen);
  js.field("gateway.gen_late_p99_us", open.late_us);
  js.field("gateway.gen_busy_share", open.busy_s / open.wall_s);
  js.field("gateway.ingest_p99_us", open.latency_us);
  js.field("trace.overhead", median(manual_ms) / median(base_ms));
  js.field("trace.unattributed_share",
           std::max(0.0, 1.0 - attributed_total / wall_total));
  js.close();
  js.key("counts");
  js.open();
  js.field("rounds", static_cast<double>(base_n + 2 * exec_n + 2 * obs_n +
                                         manual_n));
  js.field("frames", static_cast<double>(open.tally.offered +
                                         closed.tally.offered));
  js.field("skipped_crashed_zones", broker_down);
  js.close();
  std::error_code ec;
  std::filesystem::remove(ckpt, ec);
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const std::optional<Spec> spec = spec_for(a.workload);
    if (!spec) {
      std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
    std::filesystem::create_directories(a.scratch);
    Json js;
    js.open();
    js.key("workload");
    js.str(a.workload);
    js.field("seed", static_cast<double>(a.seed));
    js.flag("trace", a.trace);
    const int rc = a.trace ? run_traced(*spec, a, js) : run_e2e(*spec, a, js);
    js.close();
    obs::attach_registry(nullptr);
    std::printf("%s\n", js.text().c_str());
    return rc;
  } catch (const std::exception& e) {
    obs::attach_registry(nullptr);
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
