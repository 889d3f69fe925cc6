// net::Reactor: the one epoll server under both of SenseDroid's serving
// surfaces, the live telemetry port (obs/telemetry_server.h) and the
// ingest gateway (gateway/gateway.h) — DESIGN.md §12, §14.
//
// The reactor owns everything that is not protocol: the loopback TCP and
// Unix-domain listeners, the wake eventfd, the start/stop lifecycle, the
// serve thread, and per connection the non-blocking read and send loops.
// A protocol plugs in as a Session per connection: it consumes received
// bytes and appends its replies to an output buffer the reactor flushes.
//
// Every defensive bound lives here once, with one rule per bound:
//   - connection cap: a connection over max_connections is closed on
//     accept (counted in refused()), never queued;
//   - read budget: one readable event reads at most 256 KiB, so one
//     firehose connection cannot starve the rest (epoll is
//     level-triggered, leftover bytes re-arm the event);
//   - pending-output cap: a session still reading with more than 1 MiB
//     of unsent replies is dropped — the peer keeps sending but never
//     reads.  A finished reply is never capped;
//   - idle deadline: set on accept and reset whenever the session queues
//     output; a connection past it is dropped.  Received
//     bytes alone never reset it, so trickling a partial request or
//     frame cannot hold a slot.
// A session hears whether its connection was served or dropped BEFORE the
// fd closes: a peer reacting to EOF must already see the protocol's
// counters updated.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

namespace sensedroid::net {

/// What a session wants after consuming received bytes.
enum class Next : std::uint8_t {
  kRead,   ///< keep reading
  kReply,  ///< stop reading; end as served once the output is flushed
  kDrop,   ///< stop reading; end as dropped once the output is flushed
};

/// One connection's protocol state.  Called on the serve thread only.
class Session {
 public:
  virtual ~Session() = default;
  /// Consumes `in`; appends any reply bytes to `out`.
  virtual Next on_data(std::string_view in, std::string& out) = 0;
  /// Called once before the fd closes.  `served` is true only when the
  /// reply the session ended with (Next::kReply) was fully flushed; a
  /// peer close, socket error, timeout, kDrop or backlog drops the
  /// connection.  Not called when stop() closes a connection still open.
  virtual void on_end(bool served) = 0;
};

class Reactor {
 public:
  struct Config {
    bool listen_tcp = true;
    std::uint16_t tcp_port = 0;  ///< loopback only; 0 binds ephemeral
    std::string uds_path;        ///< empty = no UDS listener
    std::size_t max_connections = 16;
    double idle_timeout_s = 2.0;
  };
  /// Makes the session for a newly accepted connection.
  using Open = std::function<std::unique_ptr<Session>()>;
  /// Runs on the serve thread before every wait; returns the longest
  /// wait in ms it tolerates, or -1 for no bound.
  using Tick = std::function<int()>;

  explicit Reactor(Open open, Tick tick = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds the listeners and spawns the serve thread.  False, with
  /// everything closed again, when socket setup fails.  Idempotent while
  /// running.
  bool start(const Config& config);

  /// Joins the serve thread and closes every socket; removes the UDS
  /// file.  Idempotent; restartable.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Bound TCP port (valid after start() with listen_tcp).
  std::uint16_t tcp_port() const noexcept { return tcp_port_; }
  /// Connections closed on accept because the cap was reached.
  std::uint64_t refused() const noexcept {
    return refused_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Conn {
    std::unique_ptr<Session> session;
    std::string out;  ///< replies not yet sent
    std::size_t out_off = 0;
    bool reading = true;
    bool served = false;  ///< the session ended with Next::kReply
    std::uint32_t events = 0;  ///< current epoll interest
    Clock::time_point deadline;
  };

  void serve();
  void accept_all(int listen_fd);
  void service(int fd, std::uint32_t events);
  void end(int fd, bool served);
  void close_fds();

  Open open_;
  Tick tick_;
  Config config_;
  Clock::duration timeout_{};
  int tcp_fd_ = -1;
  int uds_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: stop() pokes the epoll wait
  int epoll_fd_ = -1;
  std::uint16_t tcp_port_ = 0;
  std::map<int, Conn> conns_;  // serve thread only while running
  std::unique_ptr<char[]> rx_;  // one event's reads, serve thread only
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace sensedroid::net
