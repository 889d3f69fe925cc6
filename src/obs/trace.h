// Lightweight span tracer: nested begin/end events recorded against
// both wall-clock and the discrete-event simulator's virtual time.
//
// The virtual clock is a process-global sample that `sim::Simulator`
// refreshes as events fire (obs cannot depend on sim — it sits below
// every layer), so spans opened inside simulated handlers carry the
// exact SimTime they executed at.  Dump with `TraceLog::to_jsonl()`:
// one JSON object per line, parent/depth fields reconstruct the tree.
//
// Like the metrics registry, tracing is a null-sink until a TraceLog is
// attached; `ScopedSpan` then costs one atomic load + branch (one more
// when it also names a latency histogram).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sensedroid::obs {

/// One completed (or still-open) span.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  int depth = 0;             ///< 0 = root
  std::string name;
  double wall_start_us = 0.0;  ///< steady-clock, relative to process start
  double wall_end_us = 0.0;    ///< 0 while open
  double virtual_start = 0.0;  ///< sim::SimTime seconds at begin
  double virtual_end = 0.0;
};

/// Append-only span log.  begin()/end() are thread-safe; nesting
/// (parent/depth) is tracked per thread, so spans opened and closed on
/// the same thread form a proper tree.
class TraceLog {
 public:
  /// Opens a span; returns its id (never 0).
  std::uint64_t begin(std::string_view name);
  /// Closes the span.  Unknown/already-closed ids are ignored.
  void end(std::uint64_t id);
  /// Records an instant event (zero-duration span).
  void instant(std::string_view name);

  std::size_t size() const;
  std::vector<SpanRecord> snapshot() const;
  /// One JSON object per line:
  /// {"id":1,"parent":0,"depth":0,"name":"...","wall_start_us":...,
  ///  "wall_end_us":...,"virtual_start":...,"virtual_end":...}
  std::string to_jsonl() const;
  void clear();

  /// Appends every span of `shard` to this log, assigning fresh ids and
  /// re-parenting the shard's root spans (parent == 0) under
  /// `parent_id` of THIS log (0 keeps them roots); depths shift
  /// accordingly.  Merging per-task shards in a fixed order (zone
  /// index) makes the merged log's structure — names, parents, depths,
  /// record order — identical at any worker count, mirroring what
  /// MetricJournal replay does for metrics.  `shard` must be
  /// quiescent (its task has joined).
  void merge_from(const TraceLog& shard, std::uint64_t parent_id = 0);

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // indexed by id - 1
  std::uint64_t next_id_ = 1;
};

/// Currently attached trace log, or nullptr (default).
TraceLog* trace() noexcept;
void attach_trace(TraceLog* t) noexcept;

/// Where this thread's spans land: the thread-local shard when a
/// ScopedTraceShard is live on this thread, else the attached log.
TraceLog* trace_sink() noexcept;

/// A propagation handle for cross-thread span nesting: captures "where
/// in the span tree this thread currently is" so work handed to another
/// thread (exec::ThreadPool::submit) can open spans that nest under the
/// submitter's span instead of starting a disconnected root.  The ids
/// refer to the log the capturing thread was writing to — adopt a
/// context only on threads writing to that same log (a thread bound to
/// its own shard should leave roots unparented and rely on
/// TraceLog::merge_from's re-parenting instead).
struct TraceContext {
  std::uint64_t parent = 0;  ///< innermost open span id; 0 = at root
  int depth = 0;             ///< depth a child span should record

  /// Snapshot of the calling thread's position (cheap: no locking).
  static TraceContext current() noexcept;
};

/// Redirects this thread's ScopedSpan/begin helpers into `shard` for the
/// current scope (restores the previous binding on destruction).  Also
/// stashes the thread's open-span stack and adopted TraceContext for the
/// scope — span ids are log-scoped, so spans already open against the
/// previous sink must not become parents of shard records.  Spans in
/// the shard therefore start at root; TraceLog::merge_from re-parents
/// them under the span the merger designates.  exec::fan_out binds one
/// shard per task and merges them into the caller's log in task order,
/// so the trace tree is the same at any worker count, inline included.
class ScopedTraceShard {
 public:
  explicit ScopedTraceShard(TraceLog* shard) noexcept;
  ~ScopedTraceShard();
  ScopedTraceShard(const ScopedTraceShard&) = delete;
  ScopedTraceShard& operator=(const ScopedTraceShard&) = delete;

 private:
  TraceLog* prev_;
  std::vector<std::uint64_t> prev_open_spans_;
  TraceContext prev_ctx_;
};

/// Adopts `ctx` as this thread's base for the scope: spans opened while
/// the thread's own span stack is empty take ctx.parent/ctx.depth.
/// Restores the previous base on destruction; nestable.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx) noexcept;
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// Latest virtual time sample.  `sim::Simulator` publishes `now()` here
/// as events fire; anything else (tests, custom loops) may too.
void set_virtual_now(double t) noexcept;
double virtual_now() noexcept;

/// RAII span against the attached TraceLog; inert when detached.  With
/// a `histogram` name it also observes the scope's elapsed microseconds
/// into that histogram when a metrics registry is attached at
/// construction; detached, it reads no clock.  `histogram` must outlive
/// the span (pass a literal).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name,
                      std::string_view histogram = {}) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceLog* log_ = nullptr;
  std::uint64_t id_ = 0;
  std::string_view histogram_;  ///< empty = not timing
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace sensedroid::obs
