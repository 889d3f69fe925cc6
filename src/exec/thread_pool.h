// A fixed-size worker pool: plain std::thread workers pulling from one
// locked queue, futures for results, nothing beyond the standard
// library.  This is the execution substrate of DESIGN.md §9 — zone
// gathers and per-signal CHS solves are CPU-bound and independent, so a
// campaign's wall clock should scale with cores while every *logical*
// outcome stays identical to the 1-worker run.  The pool promises only
// execution, not order; fan_out() below is the one way work is spread
// over it, and it carries the determinism burden for metrics and spans.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace sensedroid::exec {

/// Fixed-size thread pool.  Construction spawns the workers; destruction
/// (or shutdown()) finishes every already-queued task, then joins.
/// submit() is thread-safe and may be called from worker threads (tasks
/// may spawn subtasks), but a task must never block on a future of a
/// task queued *behind* it on a 1-worker pool.  fan_out() never waits
/// for a job that has not started, so it may be called from inside a
/// task of the same pool, even a 1-worker one.
class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 picks std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t workers = 0);

  /// shutdown(), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Number of tasks accepted but not yet finished (queued + running).
  std::size_t pending() const;

  /// Queues `fn` and returns the future of its result.  An exception
  /// thrown by the task is captured and rethrown from future::get() —
  /// the pool itself never dies to a task failure.  Throws
  /// std::runtime_error when called after shutdown().
  ///
  /// Trace propagation: the submitter's obs::TraceContext is captured
  /// here and adopted for the task's duration, so spans the task opens
  /// nest under the span that was live at submit() time instead of
  /// starting disconnected roots on the worker thread.  Costs a
  /// thread-local read when tracing is detached.
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task, ctx = obs::TraceContext::current()] {
      obs::ScopedTraceContext adopt(ctx);
      (*task)();
    });
    return fut;
  }

  /// Stops accepting work, drains the queue, joins every worker.
  /// Idempotent; safe to call with tasks still queued (they run first).
  void shutdown();

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t in_flight_ = 0;  // popped but not yet finished
  bool stopping_ = false;
};

/// Runs task(0..n-1) on the calling thread and the pool's workers and
/// returns once every task has finished.  The caller and up to
/// min(n-1, worker_count()) helper jobs claim indices from one shared
/// counter, so a fan-out on an N-worker pool runs on up to N+1 threads.
/// A helper reaches the caller's state only through an index it
/// claimed; one that starts late finds none left, so the caller never
/// waits for a helper that is still queued, and a fan_out from inside a
/// task of the same pool completes.  Each task's metric-helper calls go
/// to its own obs::MetricJournal (bound only when the calling thread is
/// attached) and its spans to its own trace shard (only when tracing is
/// on), on whichever thread runs it.  In index order, each journal is
/// then replayed and each shard merged into the calling thread's sinks,
/// the spans re-parented under the span open at the call.  The caller's
/// metrics and trace thus read as if task(0..n-1) had run inline, in
/// order, at any worker count.  The lowest-index task exception is
/// rethrown once every task has finished; the tasks below it have been
/// replayed by then.  With n >= 2 on a shut-down pool it throws
/// std::runtime_error and runs no task; n <= 1 never touches the pool.
void fan_out(ThreadPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& task);

}  // namespace sensedroid::exec
