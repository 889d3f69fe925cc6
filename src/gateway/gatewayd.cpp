// gatewayd — the SenseDroid ingest daemon.
//
// Serves the wire codec over TCP (loopback) and/or a Unix-domain
// socket, feeds decoded reports into a standalone broker, and exposes
// the whole gw.* surface (plus /metrics, /report, /flight) through an
// embedded TelemetryServer.  This is the paper's "middleware as a
// service" stance made literal: publishers are processes, not function
// calls.
//
//   gatewayd [--listen PORT] [--uds PATH] [--queue-depth N]
//            [--max-conns N] [--cache N] [--idle-timeout SECONDS]
//            [--telemetry-port PORT] [--quiet]
//
// Every numeric flag must be a whole number in range: ports 0..65535,
// counts >= 1, the idle timeout finite and in (0, 1e9] seconds.  A bad
// value prints usage and exits 2 before any listener binds.
// Runs until SIGINT/SIGTERM, then drains the ingest queue and exits 0.
// Prints the bound ports on startup (machine-parseable `key=value`
// lines) so scripts can drive an ephemeral-port instance.
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "gateway/gateway.h"
#include "gateway/sinks.h"
#include "middleware/broker.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen PORT] [--uds PATH] [--queue-depth N]\n"
               "          [--max-conns N] [--cache N] [--idle-timeout S]\n"
               "          [--telemetry-port PORT] [--quiet]\n",
               argv0);
  std::exit(2);
}

/// All of `text` as a T in [lo, hi]; anything else — an empty string,
/// a sign the type cannot hold, trailing bytes, NaN, or a value out of
/// range — names the flag and exits through usage_and_exit.
template <typename T>
T parse_or_exit(const char* argv0, std::string_view flag,
                std::string_view text, T lo, T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) {
    std::fprintf(stderr, "gatewayd: bad value for %.*s: '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(text.size()), text.data());
    usage_and_exit(argv0);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  namespace gw = sensedroid::gateway;
  namespace mw = sensedroid::middleware;
  namespace obs = sensedroid::obs;

  gw::GatewayConfig cfg;
  std::uint16_t telemetry_port = 0;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    const auto port = [&] {
      return static_cast<std::uint16_t>(
          parse_or_exit<unsigned>(argv[0], arg, next(), 0, 65535));
    };
    const auto count = [&] {
      return parse_or_exit<std::size_t>(
          argv[0], arg, next(), 1, std::numeric_limits<std::size_t>::max());
    };
    if (arg == "--listen") {
      cfg.tcp_port = port();
    } else if (arg == "--uds") {
      cfg.uds_path = next();
    } else if (arg == "--queue-depth") {
      cfg.queue_depth = count();
    } else if (arg == "--max-conns") {
      cfg.max_connections = count();
    } else if (arg == "--cache") {
      cfg.cache_capacity = count();
    } else if (arg == "--idle-timeout") {
      // The reactor holds the timeout as int64 nanoseconds.
      cfg.idle_timeout_s = parse_or_exit<double>(
          argv[0], arg, next(), std::numeric_limits<double>::denorm_min(),
          1e9);
    } else if (arg == "--telemetry-port") {
      telemetry_port = port();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage_and_exit(argv[0]);
    }
  }

  obs::MetricsRegistry registry;
  obs::attach_registry(&registry);

  // A standalone broker gives wire traffic the same home in-process
  // publishers get: DataStore + continuous queries + pub/sub fan-out.
  mw::Broker broker(/*id=*/0, {0.0, 0.0});

  // The Gateway's own config invariants are usage errors too: exit 2
  // before anything binds.
  const auto make_gateway = [&]() -> gw::Gateway {
    try {
      return gw::Gateway(cfg, gw::make_broker_sink(broker));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "gatewayd: %s\n", e.what());
      std::exit(2);
    }
  };
  gw::Gateway gateway = make_gateway();
  if (!gateway.start()) {
    std::fprintf(stderr, "gatewayd: failed to bind listeners\n");
    return 1;
  }

  obs::TelemetrySources sources;
  sources.metrics = &registry;
  sources.report_name = "gatewayd";
  obs::TelemetryServer telemetry(sources, telemetry_port);
  if (!telemetry.start()) {
    std::fprintf(stderr, "gatewayd: telemetry server failed to start\n");
    gateway.stop();
    return 1;
  }

  if (!quiet) {
    if (cfg.listen_tcp) std::printf("tcp_port=%u\n", gateway.tcp_port());
    if (!cfg.uds_path.empty()) std::printf("uds=%s\n", cfg.uds_path.c_str());
    std::printf("telemetry_port=%u\n", telemetry.port());
    std::fflush(stdout);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  gateway.stop();
  telemetry.stop();
  obs::attach_registry(nullptr);

  if (!quiet) {
    const auto s = gateway.stats();
    std::printf("frames=%llu accepted=%llu busy=%llu delivered=%llu "
                "decode_errors=%llu dropped_conns=%llu\n",
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.busy_rejected),
                static_cast<unsigned long long>(s.delivered),
                static_cast<unsigned long long>(s.decode_errors),
                static_cast<unsigned long long>(s.connections_dropped));
  }
  return 0;
}
