#include "exec/thread_pool.h"

#include <algorithm>
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

void fan_out(ThreadPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& task) {
  struct Slot {
    obs::MetricJournal journal;
    obs::TraceLog trace;
  };
  const bool journaled = obs::attached();
  obs::TraceLog* log = obs::trace_sink();
  const std::uint64_t parent = obs::TraceContext::current().parent;
  std::vector<Slot> slots(n);
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  // Every task references this frame, so it is not left (not even by a
  // submit that throws after shutdown) until all submitted tasks ended.
  const auto barrier = [&futures] {
    for (auto& f : futures) f.wait();
  };
  for (std::size_t i = 0; i < n; ++i) {
    try {
      futures.push_back(pool.submit([&task, &slots, journaled,
                                     traced = log != nullptr, i] {
        std::optional<obs::ScopedMetricJournal> bind;
        if (journaled) bind.emplace(&slots[i].journal);
        // Binding the shard also isolates the worker's trace context, so
        // the shard's roots stay unparented until merge_from below.
        std::optional<obs::ScopedTraceShard> bind_trace;
        if (traced) bind_trace.emplace(&slots[i].trace);
        task(i);
      }));
    } catch (...) {
      barrier();
      throw;
    }
  }
  barrier();
  for (std::size_t i = 0; i < n; ++i) {
    futures[i].get();  // rethrows, lowest index first
    slots[i].journal.replay();
    if (log != nullptr) log->merge_from(slots[i].trace, parent);
  }
}

}  // namespace sensedroid::exec
