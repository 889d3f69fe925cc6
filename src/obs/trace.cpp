#include "obs/trace.h"

#include <atomic>
#include <chrono>

#include "obs/metrics.h"

namespace sensedroid::obs {

namespace {

std::atomic<TraceLog*> g_trace{nullptr};
std::atomic<double> g_virtual_now{0.0};

// Per-thread stack of open span ids: gives each begin() its parent and
// depth without a global ordering requirement across threads.
thread_local std::vector<std::uint64_t> t_open_spans;

// Per-thread adopted base (ScopedTraceContext): what a span opened with
// an empty stack should use as parent/depth.  Default {0,0} = root.
thread_local TraceContext t_ctx_base;

// Per-thread sink override (ScopedTraceShard).
thread_local TraceLog* t_trace_shard = nullptr;

double wall_us() noexcept {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::uint64_t TraceLog::begin(std::string_view name) {
  SpanRecord rec;
  rec.name = std::string(name);
  rec.wall_start_us = wall_us();
  rec.virtual_start = virtual_now();
  rec.parent = t_open_spans.empty() ? t_ctx_base.parent
                                    : t_open_spans.back();
  rec.depth = t_ctx_base.depth + static_cast<int>(t_open_spans.size());
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_id_++;
    rec.id = id;
    spans_.push_back(std::move(rec));
  }
  t_open_spans.push_back(id);
  return id;
}

void TraceLog::end(std::uint64_t id) {
  // Unwind this thread's stack through the span (handles missed ends of
  // children — e.g. an exception skipped a manual end()).  Spans closed
  // from a different thread than they were opened on leave the opener's
  // stack alone.
  for (std::size_t i = t_open_spans.size(); i-- > 0;) {
    if (t_open_spans[i] == id) {
      t_open_spans.resize(i);
      break;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (id == 0 || id >= next_id_) return;
  SpanRecord& rec = spans_[id - 1];
  if (rec.wall_end_us != 0.0) return;  // already closed
  rec.wall_end_us = wall_us();
  rec.virtual_end = virtual_now();
}

void TraceLog::instant(std::string_view name) { end(begin(name)); }

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::vector<SpanRecord> TraceLog::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::string TraceLog::to_jsonl() const {
  const auto spans = snapshot();
  std::string out;
  for (const auto& s : spans) {
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"depth\":" + std::to_string(s.depth) + ",\"name\":\"" +
           json_escape(s.name) + "\",\"wall_start_us\":" +
           format_number(s.wall_start_us) +
           ",\"wall_end_us\":" + format_number(s.wall_end_us) +
           ",\"virtual_start\":" + format_number(s.virtual_start) +
           ",\"virtual_end\":" + format_number(s.virtual_end) + "}\n";
  }
  return out;
}

void TraceLog::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.clear();
  next_id_ = 1;
}

void TraceLog::merge_from(const TraceLog& shard, std::uint64_t parent_id) {
  const std::vector<SpanRecord> foreign = shard.snapshot();
  if (foreign.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  int base_depth = 0;
  if (parent_id != 0 && parent_id < next_id_) {
    base_depth = spans_[parent_id - 1].depth + 1;
  }
  // Shard ids are dense 1..n, so a flat remap table suffices.
  std::vector<std::uint64_t> remap(foreign.size() + 1, 0);
  spans_.reserve(spans_.size() + foreign.size());
  for (const SpanRecord& src : foreign) {
    SpanRecord rec = src;
    rec.id = next_id_++;
    if (src.id < remap.size()) remap[src.id] = rec.id;
    if (src.parent == 0) {
      rec.parent = parent_id;
    } else if (src.parent < remap.size() && remap[src.parent] != 0) {
      rec.parent = remap[src.parent];
    } else {
      rec.parent = parent_id;  // dangling foreign parent: reattach
    }
    rec.depth = src.depth + base_depth;
    spans_.push_back(std::move(rec));
  }
}

TraceLog* trace() noexcept { return g_trace.load(std::memory_order_acquire); }

void attach_trace(TraceLog* t) noexcept {
  g_trace.store(t, std::memory_order_release);
}

TraceLog* trace_sink() noexcept {
  TraceLog* shard = t_trace_shard;
  return shard != nullptr ? shard : trace();
}

ScopedTraceShard::ScopedTraceShard(TraceLog* shard) noexcept
    : prev_(t_trace_shard) {
  t_trace_shard = shard;
  // Span ids are log-scoped, so the thread's open-span stack and
  // adopted base (which reference the *previous* sink's ids) must not
  // parent spans recorded into the shard: stash both and start at
  // root.  merge_from() later re-parents the shard's roots wherever
  // the merger says they belong.
  prev_open_spans_ = std::move(t_open_spans);
  t_open_spans.clear();
  prev_ctx_ = t_ctx_base;
  t_ctx_base = TraceContext{};
}

ScopedTraceShard::~ScopedTraceShard() {
  t_trace_shard = prev_;
  t_open_spans = std::move(prev_open_spans_);
  t_ctx_base = prev_ctx_;
}

TraceContext TraceContext::current() noexcept {
  if (t_open_spans.empty()) return t_ctx_base;
  return TraceContext{
      t_open_spans.back(),
      t_ctx_base.depth + static_cast<int>(t_open_spans.size())};
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) noexcept
    : prev_(t_ctx_base) {
  t_ctx_base = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { t_ctx_base = prev_; }

void set_virtual_now(double t) noexcept {
  g_virtual_now.store(t, std::memory_order_relaxed);
}

double virtual_now() noexcept {
  return g_virtual_now.load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(std::string_view name,
                       std::string_view histogram) noexcept {
  if (TraceLog* log = trace_sink()) {
    try {
      id_ = log->begin(name);
      log_ = log;
    } catch (...) {
      log_ = nullptr;
    }
  }
  if (!histogram.empty() && attached()) {
    histogram_ = histogram;
    t0_ = std::chrono::steady_clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!histogram_.empty()) {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    observe(histogram_,
            std::chrono::duration<double, std::micro>(dt).count());
  }
  if (log_ != nullptr) log_->end(id_);
}

}  // namespace sensedroid::obs
