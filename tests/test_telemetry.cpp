// sensedroid_telemetryd tests: flight-recorder semantics, the per-zone
// health/SLO engine, cross-worker trace propagation (ThreadPool context
// capture + zone-shard merging), and the TelemetryServer — including
// the headline acceptance check: scraping /metrics, /healthz, /report,
// and /spans over loopback WHILE an 8-worker faulted campaign runs must
// succeed and must not change one byte of the campaign's deterministic
// RunReport relative to a 1-worker run with no server at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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
#include "obs/report.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"

namespace se = sensedroid::exec;
namespace sf = sensedroid::field;
namespace sfl = sensedroid::fault;
namespace sh = sensedroid::hierarchy;
namespace sl = sensedroid::linalg;
namespace so = sensedroid::obs;

namespace {

// Detach every global sink and disarm the recorder around each test.
class TelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    so::attach_registry(nullptr);
    so::attach_trace(nullptr);
    so::FlightRecorder::disarm();
    so::FlightRecorder::reset();
  }
};

// ---------------------------------------------------------- flight recorder

TEST_F(TelemetryTest, FlightRecorderIsInertWhileDisarmed) {
  so::FlightRecorder::reset();
  const std::uint64_t before = so::FlightRecorder::total_recorded();
  so::fr_record(so::FrEvent::kMark, 1, 2.0);
  EXPECT_EQ(so::FlightRecorder::total_recorded(), before);
  EXPECT_EQ(so::FlightRecorder::event_count(), 0u);
}

TEST_F(TelemetryTest, FlightRecorderRecordsAndDumpsJsonl) {
  so::FlightRecorder::reset();
  so::FlightRecorder::arm();
  so::fr_record(so::FrEvent::kMark, 7, 0.25);
  so::fr_record(so::FrEvent::kRetryAttempt, 12, 1.0);
  so::fr_record(so::FrEvent::kFailover, 3, 42.0);
  so::FlightRecorder::disarm();

  EXPECT_EQ(so::FlightRecorder::event_count(), 3u);
  const std::string dump = so::FlightRecorder::dump_jsonl();
  EXPECT_NE(dump.find("\"type\":\"mark\",\"arg\":7,\"value\":0.25"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"type\":\"retry_attempt\",\"arg\":12"),
            std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"failover\",\"arg\":3,\"value\":42"),
            std::string::npos);
  // Dumping does not consume events; reset does.
  EXPECT_EQ(so::FlightRecorder::event_count(), 3u);
  so::FlightRecorder::reset();
  EXPECT_EQ(so::FlightRecorder::event_count(), 0u);
  EXPECT_TRUE(so::FlightRecorder::dump_jsonl().empty());
}

TEST_F(TelemetryTest, FlightRecorderOverwritesOldestBeyondCapacity) {
  so::FlightRecorder::reset();
  so::FlightRecorder::arm();
  const std::size_t cap = so::FlightRecorder::ring_capacity();
  const std::uint64_t before = so::FlightRecorder::total_recorded();
  for (std::size_t i = 0; i < cap + 100; ++i) {
    so::fr_record(so::FrEvent::kMark, static_cast<std::uint32_t>(i));
  }
  so::FlightRecorder::disarm();
  EXPECT_EQ(so::FlightRecorder::total_recorded() - before, cap + 100);
  // This thread's ring retains exactly its capacity (other threads'
  // rings are empty after reset()).
  EXPECT_EQ(so::FlightRecorder::event_count(), cap);
  // The retained window is the most recent one: the first surviving arg
  // is 100, the last is cap + 99.
  const std::string dump = so::FlightRecorder::dump_jsonl();
  EXPECT_EQ(dump.find("\"arg\":42,"), std::string::npos);
  EXPECT_NE(dump.find("\"arg\":" + std::to_string(cap + 99) + ","),
            std::string::npos);
}

TEST_F(TelemetryTest, FlightRecorderThreadsGetPrivateRings) {
  so::FlightRecorder::reset();
  so::FlightRecorder::arm();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        so::fr_record(so::FrEvent::kMark, static_cast<std::uint32_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  so::FlightRecorder::disarm();
  EXPECT_EQ(so::FlightRecorder::event_count(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST_F(TelemetryTest, FlightRecorderDumpToFileAppends) {
  const std::string path = ::testing::TempDir() + "fr_dump_test." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  so::FlightRecorder::reset();
  so::FlightRecorder::arm();
  so::fr_record(so::FrEvent::kTopup, 5, 2.0);
  so::FlightRecorder::disarm();
  ASSERT_TRUE(so::FlightRecorder::dump_to_file(path));
  ASSERT_TRUE(so::FlightRecorder::dump_to_file(path));  // appends
  std::ifstream f(path);
  std::string line;
  int topups = 0;
  while (std::getline(f, line)) {
    if (line.find("\"type\":\"topup\"") != std::string::npos) ++topups;
  }
  EXPECT_EQ(topups, 2);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ health engine

TEST_F(TelemetryTest, HealthEngineScoresCleanAndTroubledZones) {
  so::MetricsRegistry reg;
  const so::Labels z0{{"zone", "0"}};
  const so::Labels z1{{"zone", "1"}};
  // Zone 0: 10 clean rounds.  Zone 1: half its rounds degraded and only
  // 1 of 10 retries recovered.
  reg.counter("hier.zone.rounds", z0).add(10.0);
  reg.counter("hier.zone.rounds", z1).add(10.0);
  reg.counter("hier.zone.degraded_rounds", z1).add(5.0);
  reg.counter("hier.zone.retries", z1).add(10.0);
  reg.counter("hier.zone.recovered", z1).add(1.0);

  so::HealthEngine engine(&reg);
  const auto zones = engine.evaluate();
  ASSERT_EQ(zones.size(), 2u);
  EXPECT_EQ(zones[0].zone, 0u);
  EXPECT_EQ(zones[1].zone, 1u);
  EXPECT_DOUBLE_EQ(zones[0].score, 1.0);
  EXPECT_STREQ(zones[0].verdict, "healthy");
  // Zone 1: latency 1, recovery 0.1, availability 0.5, energy 1
  //   -> 0.35 + 0.025 + 0.125 + 0.15 = 0.65 -> degraded.
  EXPECT_NEAR(zones[1].score, 0.65, 1e-12);
  EXPECT_STREQ(zones[1].verdict, "degraded");
  EXPECT_NEAR(engine.worst_score(), 0.65, 1e-12);
  EXPECT_STREQ(engine.verdict(), "degraded");

  // Scores are published as gauges in the engine's own registry.
  EXPECT_DOUBLE_EQ(
      engine.gauges().gauge("health.zone", {{"id", "0"}}).value(), 1.0);
  EXPECT_NEAR(engine.gauges().gauge_value("health.worst"), 0.65, 1e-12);
  // ... and never into the campaign registry (determinism rule).
  EXPECT_DOUBLE_EQ(reg.gauge_value("health.worst"), 0.0);

  const std::string json = engine.to_json();
  EXPECT_NE(json.find("\"verdict\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"zones\":[{\"id\":0"), std::string::npos);
}

TEST_F(TelemetryTest, HealthEngineLatencyBurnRate) {
  so::MetricsRegistry reg;
  const so::Labels z0{{"zone", "0"}};
  reg.counter("hier.zone.rounds", z0).add(20.0);
  // 20 gathers with custom bounds so the over-SLO count is exact: 16
  // fast, 4 above the 50 ms SLO -> violation 0.2, burn 2.0 -> latency 0.
  auto& h = reg.histogram("hier.zone.gather_us", z0, {1000.0, 50000.0});
  for (int i = 0; i < 16; ++i) h.observe(500.0);
  for (int i = 0; i < 4; ++i) h.observe(90000.0);

  so::HealthEngine engine(&reg);
  const auto zones = engine.evaluate();
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_DOUBLE_EQ(zones[0].latency, 0.0);
  // Score = 0.25 + 0.25 + 0.15 = 0.65 with the other components perfect.
  EXPECT_NEAR(zones[0].score, 0.65, 1e-12);

  // A zone with every gather inside the SLO scores latency 1.
  so::MetricsRegistry clean;
  clean.counter("hier.zone.rounds", z0).add(5.0);
  clean.histogram("hier.zone.gather_us", z0, {1000.0, 50000.0})
      .observe(800.0);
  so::HealthEngine engine2(&clean);
  EXPECT_DOUBLE_EQ(engine2.evaluate().at(0).latency, 1.0);
}

TEST_F(TelemetryTest, HealthEngineEnergyFloor) {
  so::MetricsRegistry reg;
  const so::Labels z0{{"zone", "0"}};
  reg.counter("hier.zone.rounds", z0).add(1.0);
  reg.counter("hier.zone.energy_j", z0).add(7.5);
  so::HealthConfig cfg;
  cfg.energy_floor_j = 10.0;
  so::HealthEngine engine(&reg, cfg);
  const auto zones = engine.evaluate();
  EXPECT_NEAR(zones.at(0).energy, 0.25, 1e-12);  // 25% budget left
  // Past the floor the component clamps at 0 and drags the verdict.
  reg.counter("hier.zone.energy_j", z0).add(100.0);
  EXPECT_DOUBLE_EQ(engine.evaluate().at(0).energy, 0.0);
}

TEST_F(TelemetryTest, HealthEngineAutoDumpsOnFaultGrowth) {
  const std::string path = ::testing::TempDir() + "fr_auto_dump." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  so::MetricsRegistry reg;
  so::HealthEngine engine(&reg);
  engine.set_auto_dump(path);

  so::FlightRecorder::reset();
  so::FlightRecorder::arm();
  so::fr_record(so::FrEvent::kFaultLinkDrop, 2);
  so::FlightRecorder::disarm();

  engine.evaluate();  // no fault counters yet: no dump
  EXPECT_FALSE(std::ifstream(path).good());
  reg.counter("fault.link.drops").add(1.0);
  engine.evaluate();  // fault section grew: dump fires
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"type\":\"fault_link_drop\""), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------- trace propagation

TEST_F(TelemetryTest, SubmitPropagatesTraceContextAcrossThreads) {
  so::TraceLog log;
  so::attach_trace(&log);
  se::ThreadPool pool(2);
  std::uint64_t parent_id = 0;
  {
    so::ScopedSpan parent("driver.step");
    parent_id = so::TraceContext::current().parent;
    ASSERT_NE(parent_id, 0u);
    pool.submit([] { so::ScopedSpan child("worker.task"); }).get();
  }
  const auto spans = log.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& child =
      spans[0].name == "worker.task" ? spans[0] : spans[1];
  EXPECT_EQ(child.parent, parent_id);
  EXPECT_EQ(child.depth, 1);
}

TEST_F(TelemetryTest, SubmitWithoutOpenSpanYieldsRootSpans) {
  so::TraceLog log;
  so::attach_trace(&log);
  se::ThreadPool pool(2);
  pool.submit([] { so::ScopedSpan s("lone.task"); }).get();
  const auto spans = log.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].depth, 0);
}

TEST_F(TelemetryTest, MergeFromReparentsShardUnderGivenSpan) {
  so::TraceLog main_log;
  so::TraceLog shard;
  const std::uint64_t round = main_log.begin("round");
  {
    // Binding a shard isolates the thread's span stack: even with the
    // main-log "round" span still open on this thread, shard-local
    // parents must never reference main-log ids.
    so::ScopedTraceShard bind(&shard);
    so::ScopedSpan outer("zone.gather");
    so::ScopedSpan inner("zone.solve");
  }
  main_log.end(round);
  main_log.merge_from(shard, round);
  const auto spans = main_log.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].name, "zone.gather");
  EXPECT_EQ(spans[1].parent, round);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "zone.solve");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].depth, 2);
}

// The structural fingerprint of a trace: everything except ids and
// wall-clock times.  Worker-count invariance is stated over this.
std::string trace_shape(const so::TraceLog& log) {
  std::string shape;
  for (const auto& s : log.snapshot()) {
    shape += s.name + "/" + std::to_string(s.parent) + "/" +
             std::to_string(s.depth) + "\n";
  }
  return shape;
}

void run_traced_campaign(std::size_t workers, so::TraceLog& log) {
  sl::Rng field_rng(31);
  const auto truth = sf::random_plume_field(12, 12, 2, field_rng, 10.0);
  const sf::ZoneGrid grid(12, 12, 2, 2);  // 4 zones
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sl::Rng rng(17);
  sh::LocalCloud cloud(truth, grid, cfg, rng);
  so::attach_trace(&log);
  if (workers == 0) {  // the inline engine, no pool
    cloud.gather_uniform(10, rng);
    cloud.gather_uniform(10, rng);
  } else {
    se::ThreadPool pool(workers);
    se::ParallelCampaignRunner runner(cloud, pool);
    runner.run_round_uniform(10, rng);
    runner.run_round_uniform(10, rng);
  }
  so::attach_trace(nullptr);
}

TEST_F(TelemetryTest, CampaignTraceTreeIsWorkerCountInvariant) {
  so::TraceLog inline_log;
  so::TraceLog serial;
  so::TraceLog parallel;
  run_traced_campaign(0, inline_log);
  run_traced_campaign(1, serial);
  run_traced_campaign(8, parallel);
  const std::string shape = trace_shape(serial);
  EXPECT_EQ(shape, trace_shape(inline_log));
  EXPECT_EQ(shape, trace_shape(parallel));
  // And the shape is the intended one: every zone gather is a child of a
  // round span, not a disconnected root.
  const auto spans = serial.snapshot();
  std::uint64_t round_id = 0;
  std::size_t gathers = 0;
  for (const auto& s : spans) {
    if (s.name == "hier.localcloud.gather") round_id = s.id;
    if (s.name == "hier.nanocloud.gather") {
      ++gathers;
      EXPECT_EQ(s.parent, round_id) << "gather not nested under round";
      EXPECT_EQ(s.depth, 1);
    }
  }
  EXPECT_EQ(gathers, 8u);  // 4 zones x 2 rounds
}

// ---------------------------------------------------------- telemetry server

// Minimal loopback HTTP GET; returns status line + headers + body.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST_F(TelemetryTest, HandleRoutesWithoutSockets) {
  so::MetricsRegistry reg;
  reg.counter("cs.omp.solves").add(2.0);
  so::TraceLog log;
  log.instant("ping");
  so::HealthEngine engine(&reg);
  so::TelemetryServer server({&reg, &log, &engine, "unit"});

  auto metrics = server.handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("cs_omp_solves 2"), std::string::npos);
  EXPECT_NE(metrics.body.find("health_worst"), std::string::npos);

  auto healthz = server.handle("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"verdict\":\"healthy\""),
            std::string::npos);

  auto report = server.handle("/report");
  EXPECT_EQ(report.status, 200);
  EXPECT_NE(report.body.find("\"campaign\":\"unit\""), std::string::npos);
  EXPECT_NE(report.body.find("\"schema_version\":"), std::string::npos);

  auto spans = server.handle("/spans");
  EXPECT_EQ(spans.status, 200);
  EXPECT_NE(spans.body.find("\"name\":\"ping\""), std::string::npos);

  EXPECT_EQ(server.handle("/nope").status, 404);
}

TEST_F(TelemetryTest, HealthzReports503WhenUnhealthy) {
  so::MetricsRegistry reg;
  const so::Labels z0{{"zone", "0"}};
  reg.counter("hier.zone.rounds", z0).add(10.0);
  reg.counter("hier.zone.degraded_rounds", z0).add(10.0);  // avail 0
  reg.counter("hier.zone.retries", z0).add(10.0);          // recovery 0
  reg.counter("hier.zone.energy_j", z0).add(1.0);
  so::HealthConfig cfg;
  cfg.energy_floor_j = 1e-9;  // energy 0 too -> score 0.35 < 0.5
  so::HealthEngine engine(&reg, cfg);
  so::TelemetryServer server({&reg, nullptr, &engine, "unit"});
  const auto resp = server.handle("/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("\"verdict\":\"unhealthy\""), std::string::npos);
}

TEST_F(TelemetryTest, ServesOverLoopbackSockets) {
  so::MetricsRegistry reg;
  reg.counter("cs.omp.solves").add(5.0);
  so::TelemetryServer server({&reg, nullptr, nullptr, "sock"});
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);

  const std::string resp = http_get(server.port(), "/metrics");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Length:"), std::string::npos);
  EXPECT_NE(resp.find("cs_omp_solves 5"), std::string::npos);

  EXPECT_NE(http_get(server.port(), "/nope").find("404"),
            std::string::npos);
  const std::string report = http_get(server.port(), "/report");
  EXPECT_NE(report.find("\"campaign\":\"sock\""), std::string::npos);

  EXPECT_GE(server.requests_served(), 3u);
  server.stop();
  EXPECT_FALSE(server.running());
  // A second stop and a restart both behave.
  server.stop();
  ASSERT_TRUE(server.start());
  EXPECT_NE(http_get(server.port(), "/metrics").find("200"),
            std::string::npos);
  server.stop();
}

TEST_F(TelemetryTest, ServesMetricsBodyLargerThanPendingOutputCap) {
  // The reactor's 1 MiB pending-output cap bounds replies a peer leaves
  // unread while it keeps sending; a finished response is never capped.
  // Two families just under the 10k-series limit, padded labels: the
  // /metrics body is well over 1 MiB.
  so::MetricsRegistry reg;
  const std::string pad(48, 'p');
  for (const char* family : {"big.a", "big.b"}) {
    for (int i = 0; i < 9000; ++i) {
      reg.counter(family, {{"id", std::to_string(i)}, {"pad", pad}}).add(1.0);
    }
  }
  so::TelemetryServer server({&reg, nullptr, nullptr, "big"});
  ASSERT_TRUE(server.start());
  const std::string resp = http_get(server.port(), "/metrics");
  server.stop();
  EXPECT_GT(resp.size(), std::size_t{1} << 20);
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("big_b{id=\"8999\""), std::string::npos);
  EXPECT_EQ(server.requests_served(), 1u);
}

// Loopback connect without sending anything yet; -1 on failure.
int open_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
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

// True once the peer closes `fd` (recv returns 0), polling without
// blocking for up to `deadline_s`.
bool peer_closed_within(int fd, double deadline_s) {
  const auto t0 = std::chrono::steady_clock::now();
  char buf[64];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count() > deadline_s) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST_F(TelemetryTest, StalledHalfRequestNeitherBlocksNorLeaks) {
  so::MetricsRegistry reg;
  reg.counter("cs.omp.solves").add(5.0);
  so::TelemetryServer server({&reg, nullptr, nullptr, "slow"});
  so::TelemetryServer::Limits lim;
  lim.max_connections = 4;
  lim.max_request_bytes = 400;
  lim.idle_timeout_s = 0.3;
  server.set_limits(lim);
  ASSERT_TRUE(server.start());

  // A slowloris: half a request line, then silence.
  const int slow = open_loopback(server.port());
  ASSERT_GE(slow, 0);
  const char half[] = "GET /metr";
  ASSERT_GT(::send(slow, half, sizeof(half) - 1, 0), 0);

  // The stalled connection must not block anyone else.
  const std::string resp = http_get(server.port(), "/metrics");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("cs_omp_solves 5"), std::string::npos);

  // ...and past the deadline the server closes it (fd reclaimed, not
  // leaked: connections_dropped ticks and our end sees EOF).
  EXPECT_TRUE(peer_closed_within(slow, 5.0));
  EXPECT_GE(server.connections_dropped(), 1u);
  ::close(slow);

  // The port still serves normally afterwards.
  EXPECT_NE(http_get(server.port(), "/metrics").find("200"),
            std::string::npos);
  server.stop();
}

TEST_F(TelemetryTest, OversizedRequestsGet400) {
  so::MetricsRegistry reg;
  so::TelemetryServer server({&reg, nullptr, nullptr, "big"});
  so::TelemetryServer::Limits lim;
  lim.max_request_bytes = 128;
  server.set_limits(lim);
  ASSERT_TRUE(server.start());

  const int fd = open_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string req =
      "GET /" + std::string(300, 'a') + " HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, req.data(), req.size(), 0), 0);
  std::string resp;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.0 400"), std::string::npos) << resp;
  server.stop();
}

TEST_F(TelemetryTest, ConnectionCapRefusesExtrasAndRecovers) {
  so::MetricsRegistry reg;
  so::TelemetryServer server({&reg, nullptr, nullptr, "cap"});
  so::TelemetryServer::Limits lim;
  lim.max_connections = 2;
  lim.idle_timeout_s = 0.3;
  server.set_limits(lim);
  ASSERT_TRUE(server.start());

  // Fill the cap with stalled connections.
  const int a = open_loopback(server.port());
  const int b = open_loopback(server.port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  // Give the serve loop a chance to accept both before the next connect.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The next connection is closed on accept — refusal, not queueing.
  const int extra = open_loopback(server.port());
  ASSERT_GE(extra, 0);
  EXPECT_TRUE(peer_closed_within(extra, 5.0));
  ::close(extra);

  // Once the deadline sweep reclaims the stalled pair, service resumes.
  EXPECT_TRUE(peer_closed_within(a, 5.0));
  EXPECT_TRUE(peer_closed_within(b, 5.0));
  ::close(a);
  ::close(b);
  EXPECT_NE(http_get(server.port(), "/metrics").find("200"),
            std::string::npos);
  EXPECT_GE(server.connections_dropped(), 3u);
  server.stop();
}

// ------------------------------------------ the determinism acceptance test

// The test_exec campaign fixture (faulted, 8 zones), with optional live
// telemetry: when `server` is true, a TelemetryServer serves the
// campaign registry while a scraper thread hammers every endpoint until
// the rounds finish.
struct CampaignOutcome {
  std::string deterministic_report;
  std::size_t scrapes = 0;
  std::size_t scrape_failures = 0;
};

CampaignOutcome run_campaign(std::size_t workers, bool with_server) {
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
  const sf::ZoneGrid grid(24, 24, 2, 4);  // 8 zones

  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = &inj;
  cfg.retry.max_attempts = 3;
  cfg.topup_rounds = 1;
  cfg.chs.mad_threshold = 5.0;

  so::MetricsRegistry reg;
  so::attach_registry(&reg);
  so::TraceLog trace;
  so::attach_trace(&trace);
  so::FlightRecorder::reset();
  so::FlightRecorder::arm();

  CampaignOutcome out;
  {
    so::HealthEngine engine(&reg);
    so::TelemetryServer server({&reg, &trace, &engine, "live"});
    std::thread scraper;
    std::atomic<bool> done{false};
    // The rounds start once the first scrape has come back, so a short
    // campaign cannot finish before the scraper thread first runs.
    std::promise<void> first_scrape;
    if (with_server) {
      EXPECT_TRUE(server.start());
      scraper = std::thread([&] {
        const char* endpoints[] = {"/metrics", "/healthz", "/report",
                                   "/spans", "/flight"};
        std::size_t i = 0;
        do {
          const std::string resp =
              http_get(server.port(), endpoints[i++ % 5]);
          if (out.scrapes++ == 0) first_scrape.set_value();
          if (resp.find("HTTP/1.0 200") == std::string::npos &&
              resp.find("HTTP/1.0 503") == std::string::npos) {
            ++out.scrape_failures;
          }
        } while (!done.load(std::memory_order_acquire));
      });
    } else {
      first_scrape.set_value();
    }

    sl::Rng rng(7);
    sh::LocalCloud cloud(truth, grid, cfg, rng);
    se::ThreadPool pool(workers);
    se::ParallelCampaignRunner runner(cloud, pool);
    first_scrape.get_future().wait();
    for (int round = 0; round < 3; ++round) {
      runner.run_round_uniform(20, rng);
    }
    done.store(true, std::memory_order_release);
    if (scraper.joinable()) scraper.join();
    server.stop();
  }

  so::FlightRecorder::disarm();
  out.deterministic_report =
      so::RunReport::from_registry(reg, "exec-determinism",
                                   /*include_wall_clock=*/false)
          .to_json();
  so::attach_registry(nullptr);
  so::attach_trace(nullptr);
  return out;
}

TEST_F(TelemetryTest, LiveScrapeDoesNotPerturbDeterministicReport) {
  // Baseline: 1 worker, no server, nothing watching.
  const CampaignOutcome baseline = run_campaign(1, /*with_server=*/false);
  // Under test: 8 workers, recorder armed, scraper hammering every
  // endpoint for the whole campaign.
  const CampaignOutcome live = run_campaign(8, /*with_server=*/true);

  EXPECT_GT(live.scrapes, 0u);
  EXPECT_EQ(live.scrape_failures, 0u);
  // The acceptance bar: byte-identical deterministic RunReport.
  EXPECT_EQ(baseline.deterministic_report, live.deterministic_report);
  // The campaign emitted per-zone health inputs for all 8 zones.
  EXPECT_NE(baseline.deterministic_report.find(
                "\"name\":\"hier.zone.rounds\""),
            std::string::npos);
  EXPECT_NE(
      baseline.deterministic_report.find("\"zone\":\"7\""),
      std::string::npos);
  // And the armed recorder captured solver/fault events.
  EXPECT_GT(so::FlightRecorder::total_recorded(), 0u);
}

}  // namespace
