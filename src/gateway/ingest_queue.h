// Bounded ingest queue between the gateway's socket thread and the
// delivery (sink) thread.
//
// The backpressure contract (DESIGN.md §14): the queue NEVER grows past
// its capacity.  push() takes only the prefix that fits, and the gateway
// answers the publisher for every frame past it with IngestStatus::kBusy
// — load sheds at the edge, at a cost the publisher can see and retry,
// instead of accumulating in memory until the daemon dies.  This is
// deliberate sensd/MOSDEN idiom: an overloaded collector must refuse,
// never queue unboundedly.
//
// Plain mutex + condvar, batched on both sides: the socket thread pushes
// all decoded messages of one socket read under one lock and one
// wake-up, the sink thread pops in batches, and with two threads there
// is nothing for a lock-free design to win.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <iterator>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "middleware/pubsub.h"

namespace sensedroid::gateway {

/// One decoded report in flight, stamped at enqueue so the drain side
/// can observe queueing + delivery latency (gw.ingest_latency_us).
struct IngestItem {
  middleware::Message msg;
  std::chrono::steady_clock::time_point enqueued;
};

class IngestQueue {
 public:
  /// Throws std::invalid_argument when capacity is 0.
  explicit IngestQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("IngestQueue: capacity must be > 0");
    }
  }

  /// Non-blocking.  Moves the longest prefix of `items` that fits into
  /// the queue and returns its length; the items past it are left in
  /// the span.  0 when full (backpressure) or closed.  One lock, and one
  /// wake-up of the popper only when something was moved.
  std::size_t push(std::span<IngestItem> items) {
    std::size_t n = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return 0;
      n = std::min(items.size(), capacity_ - items_.size());
      const auto moved = std::make_move_iterator(items.begin());
      items_.insert(items_.end(), moved, moved + n);
      peak_depth_ = std::max(peak_depth_, items_.size());
    }
    if (n > 0) cv_.notify_one();
    return n;
  }

  /// Moves up to `max` items into `out` (appended), waiting up to `wait`
  /// for the first one.  Returns the number appended; 0 after close()
  /// once drained, or on timeout.
  std::size_t pop_batch(std::vector<IngestItem>& out, std::size_t max,
                        std::chrono::milliseconds wait) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, wait, [&] { return closed_ || !items_.empty(); });
    std::size_t n = 0;
    while (n < max && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++n;
    }
    return n;
  }

  /// Wakes poppers; subsequent pushes fail.  Buffered items remain
  /// poppable (drain-on-shutdown).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  /// High-water mark — the boundedness witness the bench reports.
  std::size_t peak_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_depth_;
  }
  std::size_t capacity() const noexcept { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<IngestItem> items_;
  std::size_t peak_depth_ = 0;
  bool closed_ = false;
};

}  // namespace sensedroid::gateway
