// TelemetryServer: a tiny epoll-driven HTTP/1.0 listener (standard
// library + POSIX sockets only) that exposes a RUNNING campaign's
// observability surface on loopback:
//
//   GET /metrics  Prometheus text: the campaign registry's export,
//                 followed by the health engine's gauge registry.
//   GET /healthz  HealthEngine verdict JSON; 200 when healthy/degraded,
//                 503 when any zone is unhealthy (load-balancer idiom).
//   GET /report   Live RunReport JSON (full view, wall-clock series
//                 included — the deterministic view is what the
//                 campaign itself writes at the end).
//   GET /spans    TraceLog JSONL snapshot.
//   GET /flight   Flight-recorder JSONL dump (does not reset rings).
//
// Determinism rules (DESIGN.md §12): every handler only READS the
// sources — registry/trace snapshots take their internal locks, health
// gauges live in the engine's own registry — so scraping mid-campaign
// cannot change a single deterministic byte of the campaign's RunReport.
//
// It is a diagnostics port, not a web server: one request per
// connection, served as a protocol on net::Reactor, which multiplexes
// every connection non-blockingly on one epoll thread.  Hardened
// against misbehaving clients: a bounded number of simultaneous
// connections (extras are closed on accept), a bounded request size
// (oversized requests get 400 and the connection is closed), and a
// per-connection deadline — a client that stalls mid-request
// (slowloris) is timed out and its fd closed WITHOUT ever blocking
// another client's scrape.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/reactor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::obs {

class HealthEngine;

/// Where each endpoint reads from.  Null members disable their
/// endpoints (404).  All pointees must outlive the server.
struct TelemetrySources {
  const MetricsRegistry* metrics = nullptr;  ///< /metrics, /report
  const TraceLog* traces = nullptr;          ///< /spans
  HealthEngine* health = nullptr;            ///< /healthz, /metrics tail
  std::string report_name = "live";          ///< campaign name in /report
};

class TelemetryServer {
 public:
  /// Abuse bounds on the diagnostics port.  The defaults fit a scrape
  /// loop plus a few humans with curl; tests shrink them to exercise
  /// the limits.
  struct Limits {
    std::size_t max_connections = 16;    ///< concurrent conns; extras closed
    std::size_t max_request_bytes = 4096;///< request cap; beyond = 400
    double idle_timeout_s = 2.0;         ///< stalled-conn deadline
  };

  /// `port` 0 binds an ephemeral port (read it back via port()).  Binds
  /// loopback only — telemetry is host-local by design.
  explicit TelemetryServer(TelemetrySources sources, std::uint16_t port = 0);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds, listens, and spawns the serving thread.  Returns false (with
  /// no thread spawned) when the socket setup fails.  Idempotent while
  /// running.
  bool start();

  /// Stops accepting, joins the serving thread, closes the socket.
  /// Idempotent; also run by the destructor.
  void stop();

  bool running() const noexcept { return reactor_.running(); }
  /// Bound port (valid after start() returned true).
  std::uint16_t port() const noexcept { return reactor_.tcp_port(); }

  /// Overrides the abuse bounds.  Call before start(); values are read
  /// by the serving thread without further synchronization.
  void set_limits(const Limits& limits) noexcept { limits_ = limits; }
  const Limits& limits() const noexcept { return limits_; }

  /// Total requests served (any status) — test/ops visibility.
  std::uint64_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

  /// Connections closed unserved: over the connection cap, dead before
  /// a full request, or timed out mid-request (slowloris).
  std::uint64_t connections_dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed) + reactor_.refused();
  }

  /// Builds the response body + status for `path` exactly as the socket
  /// surface would.  Public so tests can exercise routing without
  /// sockets; the server's own thread goes through this too.
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  Response handle(std::string_view path) const;

 private:
  class Conn;

  TelemetrySources sources_;
  Limits limits_{};
  std::uint16_t requested_port_;
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> dropped_{0};
  net::Reactor reactor_;
};

}  // namespace sensedroid::obs
