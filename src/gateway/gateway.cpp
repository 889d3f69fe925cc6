#include "gateway/gateway.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "middleware/wire.h"
#include "obs/metrics.h"

namespace sensedroid::gateway {

// Per-connection state: an incremental frame parser.  Every complete
// frame is answered with one status byte; a bad length prefix ends the
// connection.  All frames of one socket read are decoded and cached
// first and then handed to the queue in one push, so the drain thread
// is woken once per read, not once per frame.
class Gateway::Conn final : public net::Session {
 public:
  explicit Conn(Gateway& g) : g_(g) {
    g_.conns_opened_.fetch_add(1, std::memory_order_relaxed);
    g_.conns_active_.fetch_add(1, std::memory_order_relaxed);
  }
  ~Conn() override {
    g_.conns_active_.fetch_sub(1, std::memory_order_relaxed);
  }

  net::Next on_data(std::string_view in, std::string& out) override {
    g_.bytes_rx_.fetch_add(in.size(), std::memory_order_relaxed);
    splitter_.feed({reinterpret_cast<const std::uint8_t*>(in.data()),
                    in.size()});
    const std::size_t first = out.size();
    for (;;) {
      const FrameSplitter::Status st = splitter_.next(frame_);
      if (st == FrameSplitter::Status::kFrame) {
        out.push_back(static_cast<char>(g_.decode(frame_)));
        continue;
      }
      // End of the read's complete frames.  Those before a bad length
      // prefix are still enqueued before the drop.
      g_.enqueue_pending(std::span<char>(out).subspan(first));
      if (st == FrameSplitter::Status::kNeedMore) return net::Next::kRead;
      g_.violations_.fetch_add(1, std::memory_order_relaxed);
      return net::Next::kDrop;
    }
  }

  void on_end(bool) override {
    g_.conns_dropped_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Gateway& g_;
  FrameSplitter splitter_;
  std::vector<std::uint8_t> frame_;
};

Gateway::Gateway(GatewayConfig config, Sink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      reactor_([this] { return std::make_unique<Conn>(*this); },
               [this] { return tick(); }) {
  if (!config_.listen_tcp && config_.uds_path.empty()) {
    throw std::invalid_argument("Gateway: no listener enabled");
  }
  queue_ = std::make_unique<IngestQueue>(config_.queue_depth);
  cache_ = std::make_unique<LastReportCache>(config_.cache_capacity);
}

Gateway::~Gateway() { stop(); }

bool Gateway::start() {
  if (running()) return true;
  net::Reactor::Config rc;
  rc.listen_tcp = config_.listen_tcp;
  rc.tcp_port = config_.tcp_port;
  rc.uds_path = config_.uds_path;
  rc.max_connections = config_.max_connections;
  rc.idle_timeout_s = config_.idle_timeout_s;
  if (!reactor_.start(rc)) return false;
  drain_thread_ = std::thread([this] { drain_loop(); });
  return true;
}

void Gateway::stop() {
  if (!running()) return;
  reactor_.stop();
  // The socket side is quiet now; close the queue so the drain thread
  // finishes delivering what was already accepted, then exits.
  queue_->close();
  if (drain_thread_.joinable()) drain_thread_.join();
  // Final metric flush so post-run scrapes see the exact totals.
  publish_metrics();
}

Gateway::Stats Gateway::stats() const noexcept {
  Stats s;
  s.connections_opened = conns_opened_.load(std::memory_order_relaxed);
  s.connections_dropped =
      conns_dropped_.load(std::memory_order_relaxed) + reactor_.refused();
  s.active_connections = conns_active_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.busy_rejected = busy_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.framing_violations = violations_.load(std::memory_order_relaxed);
  s.delivered = delivered_.load(std::memory_order_relaxed);
  s.sink_errors = sink_errors_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_rx_.load(std::memory_order_relaxed);
  s.queue_peak_depth = queue_->peak_depth();
  return s;
}

// Counts and decodes one frame.  A decoded frame updates the cache and
// joins the read's pending batch; its kAck is a placeholder until
// enqueue_pending() learns whether the queue took it.
IngestStatus Gateway::decode(std::span<const std::uint8_t> frame) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  auto msg = middleware::decode_message(frame);
  if (!msg.has_value()) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return IngestStatus::kBad;
  }
  // Cache BEFORE the queue decision: overload sheds throughput, not
  // last-known-state visibility (sensd contract, DESIGN.md §14).
  cache_->update(*msg);
  pending_.push_back(IngestItem{std::move(*msg), {}});
  return IngestStatus::kAck;
}

// Pushes the pending batch with one clock read, one lock and one
// wake-up.  `statuses` are the read's status bytes, in frame order: the
// queue takes the longest prefix that fits, so the first `n` kAck
// placeholders stand and the rest turn kBusy.
void Gateway::enqueue_pending(std::span<char> statuses) {
  if (pending_.empty()) return;
  const auto now = Clock::now();
  for (IngestItem& item : pending_) item.enqueued = now;
  const std::size_t n = queue_->push(pending_);
  accepted_.fetch_add(n, std::memory_order_relaxed);
  busy_.fetch_add(pending_.size() - n, std::memory_order_relaxed);
  std::size_t placeholder = 0;
  for (char& st : statuses) {
    if (st != static_cast<char>(IngestStatus::kAck)) continue;
    if (placeholder++ >= n) st = static_cast<char>(IngestStatus::kBusy);
  }
  pending_.clear();
}

// With telemetry attached the publish cadence bounds the reactor's
// wait: otherwise a post-burst idle socket leaves the epoll-side
// counters (frames/bytes/accepted) stale while the drain thread's
// series stay fresh — an incoherent live scrape.
int Gateway::tick() {
  if (!obs::attached()) return -1;
  const auto now = Clock::now();
  if (now >= next_publish_) {
    publish_metrics();
    next_publish_ = now + std::chrono::milliseconds(100);
  }
  return 100;
}

// Publishes the aggregate gw.* series from the atomics.  Counters are
// advanced by delta so the hot path never touches the registry's
// name->series map.
void Gateway::publish_metrics() {
  if (!obs::attached()) return;
  const Stats s = stats();
  const auto delta = [](std::uint64_t cur, std::uint64_t prev) {
    return static_cast<double>(cur - prev);
  };
  obs::add_counter("gw.conn.opened",
                   delta(s.connections_opened, last_pub_.connections_opened));
  obs::add_counter("gw.conn.dropped", delta(s.connections_dropped,
                                            last_pub_.connections_dropped));
  obs::add_counter("gw.ingest.frames", delta(s.frames, last_pub_.frames));
  obs::add_counter("gw.ingest.accepted",
                   delta(s.accepted, last_pub_.accepted));
  obs::add_counter("gw.ingest.busy",
                   delta(s.busy_rejected, last_pub_.busy_rejected));
  obs::add_counter("gw.ingest.decode_errors",
                   delta(s.decode_errors, last_pub_.decode_errors));
  obs::add_counter("gw.conn.violations", delta(s.framing_violations,
                                               last_pub_.framing_violations));
  obs::add_counter("gw.rx.bytes",
                   delta(s.bytes_received, last_pub_.bytes_received));
  obs::set_gauge("gw.conn.active", static_cast<double>(s.active_connections));
  obs::set_gauge("gw.ingest.queue_depth",
                 static_cast<double>(queue_->depth()));
  obs::set_gauge("gw.ingest.queue_peak_depth",
                 static_cast<double>(s.queue_peak_depth));
  obs::set_gauge("gw.cache.size", static_cast<double>(cache_->size()));
  obs::set_gauge("gw.cache.evictions",
                 static_cast<double>(cache_->evictions()));
  last_pub_ = s;
}

void Gateway::drain_loop() {
  // Cache the histogram series once: the drain path observes one
  // latency per delivered message and must not pay a name lookup each
  // time.  Registry attachment is required before start() (documented),
  // so a null here simply means "run unobserved".
  obs::Histogram* latency = nullptr;
  obs::Counter* delivered_ctr = nullptr;
  if (obs::MetricsRegistry* reg = obs::registry()) {
    latency = &reg->histogram("gw.ingest.latency_us");
    delivered_ctr = &reg->counter("gw.sink.delivered");
  }

  std::vector<IngestItem> batch;
  batch.reserve(256);
  for (;;) {
    batch.clear();
    const std::size_t n =
        queue_->pop_batch(batch, 256, std::chrono::milliseconds(50));
    if (n == 0) {
      if (queue_->closed() && queue_->depth() == 0) return;
      continue;
    }
    for (IngestItem& item : batch) {
      try {
        sink_(item.msg);
        delivered_.fetch_add(1, std::memory_order_relaxed);
        if (delivered_ctr != nullptr) delivered_ctr->inc();
      } catch (...) {
        sink_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      if (latency != nullptr) {
        const auto dt = Clock::now() - item.enqueued;
        latency->observe(
            std::chrono::duration<double, std::micro>(dt).count());
      }
    }
  }
}

}  // namespace sensedroid::gateway
