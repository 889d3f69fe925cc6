#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"

namespace sensedroid::exec {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + in_flight_;
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Second caller (e.g. destructor after explicit shutdown): workers
      // are already joined or being joined by the first caller.
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    job();  // packaged_task: exceptions land in the task's future
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
  }
}

namespace {

/// One index's outputs, filled by whichever thread claimed the index.
struct Slot {
  obs::MetricJournal journal;
  obs::TraceLog trace;
  std::exception_ptr error;
};

/// What one fan_out's threads share.  The helpers co-own it, so a
/// helper that starts after fan_out has returned still finds a live
/// counter: it claims an index at or past n and leaves.  `task` and
/// `slots` live in fan_out's frame; a thread reaches them only through
/// an index it claimed below n, and fan_out does not return while such
/// an index is still running.
struct Claims {
  const std::size_t n;
  const std::function<void(std::size_t)>& task;
  Slot* const slots;
  const bool journaled;
  const bool traced;
  std::atomic<std::size_t> next{0};

  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;     // indices ended
  std::size_t awaited = 0;  // what wait() waits for; 0 = no waiter yet

  /// Claims and runs indices until none is left.
  void run() {
    for (std::size_t i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      Slot& slot = slots[i];
      try {
        std::optional<obs::ScopedMetricJournal> bind;
        if (journaled) bind.emplace(&slot.journal);
        // Binding the shard also isolates the thread's trace context,
        // so the shard's roots stay unparented until merge_from.
        std::optional<obs::ScopedTraceShard> bind_trace;
        if (traced) bind_trace.emplace(&slot.trace);
        task(i);
      } catch (...) {
        slot.error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (++done == awaited) cv.notify_one();
    }
  }

  /// Returns once `count` indices have ended.
  void wait(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu);
    awaited = count;
    cv.wait(lock, [this] { return done == awaited; });
  }
};

}  // namespace

void fan_out(ThreadPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  obs::TraceLog* log = obs::trace_sink();
  const std::uint64_t parent = obs::TraceContext::current().parent;
  std::vector<Slot> slots(n);
  const auto claims = std::make_shared<Claims>(n, task, slots.data(),
                                               obs::attached(),
                                               log != nullptr);
  // The caller claims too, so one helper fewer than tasks is enough.
  const std::size_t helpers = std::min(n - 1, pool.worker_count());
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      pool.submit([claims] { claims->run(); });
    } catch (...) {
      // Stop new claims and wait for the ones already made.
      claims->wait(std::min(claims->next.exchange(n), n));
      throw;
    }
  }
  claims->run();
  claims->wait(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i].error) std::rethrow_exception(slots[i].error);
    slots[i].journal.replay();
    if (log != nullptr) log->merge_from(slots[i].trace, parent);
  }
}

}  // namespace sensedroid::exec
