// sensedroid_gateway: the stack's first wire-level serving surface
// (DESIGN.md §14).
//
// A daemon-grade ingest front-end in the sensd mould: it listens on TCP
// (loopback) and/or a Unix-domain socket, speaks the length-prefixed
// framing of the middleware wire codec (gateway/framing.h), and feeds
// every decoded report through a bounded queue into a caller-supplied
// sink — a Broker, a LocalCloud router, or a bench counter.  The
// framing protocol runs on net::Reactor, the epoll server shared with
// the telemetry port (connection cap, read budget, pending-ack cap,
// idle-deadline sweeps); one drain thread owns the sink.
//
// Ingest contract, per frame, answered with one status byte in
// submission order (gateway/framing.h IngestStatus):
//   kAck  — decoded, cached, and enqueued for delivery.
//   kBusy — decoded and cached, but the ingest queue is full; the frame
//           was NOT enqueued.  Backpressure: the publisher retries.
//   kBad  — well-framed bytes that fail wire decode (CRC, malformed);
//           counted and dropped, the connection survives (same "treat as
//           radio loss" semantics as decode_message).
// A malformed LENGTH PREFIX (outside the frame envelope) is different:
// the stream cannot be resynced, so the connection is dropped.
//
// Every accepted-or-busy frame updates the last-report cache first, so
// "what did sender N last say?" stays answerable even under overload —
// sensd's core property.  Aggregate gw.* metrics flow through the
// process obs registry (attach one before start()); the daemon wires
// that registry into a TelemetryServer so /metrics shows the gateway
// live.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gateway/framing.h"
#include "gateway/ingest_queue.h"
#include "gateway/last_report_cache.h"
#include "middleware/pubsub.h"
#include "net/reactor.h"

namespace sensedroid::gateway {

struct GatewayConfig {
  /// TCP listen port on loopback; 0 binds ephemeral (read back via
  /// tcp_port()).  Set listen_tcp=false to serve UDS only.
  std::uint16_t tcp_port = 0;
  bool listen_tcp = true;

  /// Unix-domain socket path; empty disables the UDS listener.  An
  /// existing socket file at the path is replaced.
  std::string uds_path;

  /// Simultaneous publisher connections; extras are closed on accept —
  /// the gateway degrades by refusing, never by queueing.
  std::size_t max_connections = 1024;

  /// Bounded ingest queue depth — the backpressure knob.
  std::size_t queue_depth = 4096;

  /// Last-report cache capacity (distinct senders, LRU-evicted).
  std::size_t cache_capacity = 65536;

  /// Connections that complete no frame for this long are swept
  /// (slowloris / dead-peer defense): the deadline resets only when a
  /// frame is answered, so trickling a partial frame cannot hold a slot.
  double idle_timeout_s = 30.0;
};

class Gateway {
 public:
  /// Delivery target, called from the drain thread only (single
  /// consumer, so an in-process Broker sink needs no extra locking as
  /// long as nothing else mutates the broker concurrently).
  using Sink = std::function<void(const middleware::Message&)>;

  /// Throws std::invalid_argument on a zero queue depth/cache capacity
  /// or when no listener is enabled.
  Gateway(GatewayConfig config, Sink sink);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Binds listeners and spawns the epoll + drain threads.  False (with
  /// everything torn down again) when socket setup fails.  Idempotent
  /// while running.
  bool start();

  /// Stops accepting, drains the queue through the sink, joins both
  /// threads, closes every socket, removes the UDS file.  Idempotent;
  /// run by the destructor.
  void stop();

  bool running() const noexcept { return reactor_.running(); }
  /// Bound TCP port (valid after start() when listen_tcp).
  std::uint16_t tcp_port() const noexcept { return reactor_.tcp_port(); }
  const GatewayConfig& config() const noexcept { return config_; }

  /// Queryable last-report cache (sensd idiom).
  const LastReportCache& cache() const noexcept { return *cache_; }

  /// Aggregate counters, exact at any instant (also exported as gw.*
  /// metrics when a registry is attached).
  struct Stats {
    std::uint64_t connections_opened = 0;
    std::uint64_t connections_dropped = 0;  ///< cap/violation/timeout/dead
    std::uint64_t active_connections = 0;
    std::uint64_t frames = 0;          ///< well-framed frames seen
    std::uint64_t accepted = 0;        ///< decoded + enqueued (kAck)
    std::uint64_t busy_rejected = 0;   ///< queue full (kBusy)
    std::uint64_t decode_errors = 0;   ///< framed but undecodable (kBad)
    std::uint64_t framing_violations = 0;  ///< bad length prefix
    std::uint64_t delivered = 0;       ///< sink completed
    std::uint64_t sink_errors = 0;     ///< sink threw (message dropped)
    std::uint64_t bytes_received = 0;
    std::uint64_t queue_peak_depth = 0;
  };
  Stats stats() const noexcept;

 private:
  using Clock = std::chrono::steady_clock;
  class Conn;

  IngestStatus decode(std::span<const std::uint8_t> frame);
  void enqueue_pending(std::span<char> statuses);
  int tick();
  void publish_metrics();
  void drain_loop();

  GatewayConfig config_;
  Sink sink_;
  std::unique_ptr<IngestQueue> queue_;
  std::unique_ptr<LastReportCache> cache_;

  std::atomic<std::uint64_t> conns_opened_{0};
  std::atomic<std::uint64_t> conns_dropped_{0};
  std::atomic<std::uint64_t> conns_active_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> busy_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> sink_errors_{0};
  std::atomic<std::uint64_t> bytes_rx_{0};

  // The decoded frames of the socket read in progress, awaiting their
  // one push.  Every session runs on the reactor's single serve thread,
  // so one buffer serves them all and is reused read after read.
  std::vector<IngestItem> pending_;

  // gw.* publishing state: the serve thread's tick, then stop() after
  // the reactor has joined.
  Stats last_pub_;
  Clock::time_point next_publish_;

  net::Reactor reactor_;
  std::thread drain_thread_;
};

}  // namespace sensedroid::gateway
