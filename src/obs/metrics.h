// Observability core: a thread-safe metrics registry (counters, gauges,
// fixed-bucket histograms) addressable by name + labels, with JSON and
// Prometheus-text exporters.
//
// MOSDEN/GSN-style operability requirement: a crowdsensing middleware
// must expose its own runtime behaviour (throughput, queue depths,
// per-node load) to be tunable at scale.  Every hot layer of the stack
// reports here through the free functions at the bottom of this header;
// they are null-sinks (a single relaxed atomic pointer load + branch)
// until a registry is attached, so instrumentation costs nothing in
// un-observed runs.
//
// Metric naming convention (see README.md for the full table):
//   <layer>.<component>.<measure>   e.g. cs.omp.iterations,
//   mw.broker.published, sim.radio.tx_bytes, hier.nanocloud.rounds.
// Unit suffixes: _j (joules), _bytes, _us (microseconds), _rel
// (dimensionless ratio).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sensedroid::obs {

/// Label set attached to a metric instance.  Kept sorted by key inside
/// the registry so `{a=1,b=2}` and `{b=2,a=1}` address the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing value (message counts, joules, bytes).
class Counter {
 public:
  /// Adds `v` (callers pass >= 0; not enforced — the registry is a
  /// measurement instrument, not a validator).  Lock-free.
  void add(double v) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
    }
  }
  void inc() noexcept { add(1.0); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time value (queue depth, pending events, state of charge).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram for non-negative measures (latencies, sizes,
/// residuals).  Buckets are cumulative-upper-bound style (Prometheus
/// `le` semantics); quantiles are estimated by linear interpolation
/// inside the bucket that crosses the target rank.
class Histogram {
 public:
  /// Default bounds: 1/2.5/5 mantissas over decades 1e-9 .. 1e9 — wide
  /// enough for microsecond timings, byte counts, and relative residuals
  /// without per-metric tuning (~2x worst-case quantile error per bucket).
  static std::vector<double> default_bounds();

  explicit Histogram(std::vector<double> bounds = default_bounds());

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double min() const noexcept;  ///< +inf when empty
  double max() const noexcept;  ///< -inf when empty
  double mean() const noexcept {
    const auto c = count();
    return c == 0 ? 0.0 : sum() / static_cast<double>(c);
  }

  /// Quantile estimate for q in [0, 1]; 0 when empty.  Clamped to the
  /// observed [min, max] so bucket interpolation never overshoots.
  double quantile(double q) const noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  /// Count of bucket `i` (i <= bounds().size(); the last is overflow).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Folds another histogram's exported state into this one (checkpoint
  /// restore).  When `bounds` matches this histogram's bounds the merge
  /// is exact (bucket-wise); otherwise each foreign bucket is re-binned
  /// at its upper bound (overflow at `max`).  `sum` is added once either
  /// way, so mean/sum stay exact and only quantiles are approximate on a
  /// bounds mismatch.
  void absorb(const std::vector<double>& bounds,
              const std::vector<std::uint64_t>& buckets, std::uint64_t count,
              double sum, double min, double max) noexcept;

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Thread-safe registry of named, labelled metrics.  Lookup takes a
/// mutex; the returned references stay valid until clear(), so hot code
/// may cache them.  Exports to JSON and to the Prometheus text format.
///
/// Cardinality guard: each metric *family* (same name, any label set) may
/// hold at most series_limit() series (default 10k — sized for one
/// `health.zone{id=...}` gauge per zone of a city-scale campaign).  A
/// creation attempt beyond the cap is counted in the
/// `obs.dropped_series{metric="<family>"}` counter and lands in an
/// unexported per-kind sink, so a runaway label (node ids, raw values)
/// degrades to a visible drop counter instead of unbounded map growth.
class MetricsRegistry {
 public:
  static constexpr std::size_t kDefaultSeriesLimit = 10000;

  MetricsRegistry();

  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  /// `bounds` is only consulted on first creation of the series.
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       std::vector<double> bounds = {});

  /// Max label sets per metric family before new series are dropped.
  /// Clamped to >= 1.  Existing series are never evicted.
  void set_series_limit(std::size_t limit);
  std::size_t series_limit() const;
  /// Total series-creation attempts refused by the cardinality guard.
  double dropped_series() const;

  /// Monotone identity of this registry's series storage: unique per
  /// instance and re-drawn by clear().  A cached metric reference is
  /// valid exactly while the stamp it was taken under still matches —
  /// the validity token behind the helpers' thread-local fast path.
  std::uint64_t stamp() const noexcept {
    return stamp_.load(std::memory_order_relaxed);
  }

  /// Sum of every counter series whose metric name equals `name`
  /// (across all label sets); 0 when absent.
  double counter_sum(std::string_view name) const;
  /// Value of one counter series (exact name + labels); 0 when absent.
  double counter_value(std::string_view name, const Labels& labels = {}) const;
  /// Value of a gauge series (first label set registered); 0 when absent.
  double gauge_value(std::string_view name) const;
  /// Pointer to a histogram series by metric name (first label set
  /// registered); nullptr when absent.
  const Histogram* find_histogram(std::string_view name) const;

  /// True when `metric` is a cardinality-guard sink: the series it was
  /// handed out for was refused.
  bool is_overflow(const void* metric) const noexcept {
    return metric == &overflow_counter_ || metric == &overflow_gauge_ ||
           metric == &overflow_histogram_;
  }

  std::size_t series_count() const;
  /// Drops every series.  Invalidates references handed out earlier.
  void clear();

  /// {"counters":[...],"gauges":[...],"histograms":[...]}.  When
  /// `include_wall_clock` is false, series named `*_us` (wall-clock
  /// timings, inherently non-deterministic) are omitted — the export the
  /// byte-identical-replay contract is stated over.
  std::string to_json() const;
  std::string to_json(bool include_wall_clock) const;
  /// Prometheus text exposition format ('.' becomes '_' in names),
  /// rendered in one pass over the series under the registry lock.
  std::string to_prometheus() const;

  /// One exported sample, shared by the JSON exporter and RunReport.
  struct Sample {
    std::string name;
    Labels labels;
    char kind = 'c';  // 'c' counter, 'g' gauge, 'h' histogram
    double value = 0.0;          // counter/gauge
    std::uint64_t count = 0;     // histogram
    double sum = 0.0, min = 0.0, max = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<Sample> samples() const;

 private:
  template <class T>
  struct Series {
    std::string name;
    Labels labels;
    std::unique_ptr<T> metric;
    /// `<name>{<labels>}` as the Prometheus text prints it, formatted
    /// once at creation; the mapped name is its first prom_name_size
    /// bytes, and there are no braces without labels.
    std::string prom_head;
    std::size_t prom_name_size = 0;
  };
  template <class T>
  using SeriesMap = std::map<std::string, Series<T>, std::less<>>;

  template <class T>
  static Series<T> make_series(std::string_view name, const Labels& labels,
                               std::unique_ptr<T> metric);

  /// True when family `name` may accept one more series; otherwise
  /// counts the drop.  Caller must hold mu_.
  bool admit_series_locked(std::string_view name);

  mutable std::mutex mu_;
  SeriesMap<Counter> counters_;
  SeriesMap<Gauge> gauges_;
  SeriesMap<Histogram> histograms_;
  std::map<std::string, std::size_t, std::less<>> family_counts_;
  std::size_t series_limit_ = kDefaultSeriesLimit;
  std::atomic<std::uint64_t> stamp_;
  // Cardinality-guard sinks: writes beyond the cap land here, invisible
  // to exports, so callers always get a usable reference back.
  Counter overflow_counter_;
  Gauge overflow_gauge_;
  Histogram overflow_histogram_;
};

/// `v` as printf's %.12g, the bytes an ostream at precision 12 writes
/// ("-0" for negative zero), or "0" when `v` is NaN or infinite: the
/// number format of the RunReport, span, health and flight-recorder JSON.
std::string format_number(double v);

/// `s` as the body of a JSON string: quote and backslash get a
/// backslash, newline, return and tab become \n, \r and \t, and every
/// other byte below 0x20 becomes \u00XX.  The one escaper of the
/// RunReport, span and registry JSON.
std::string json_escape(std::string_view s);

// ---------------------------------------------------------------------
// Global attachment point.  Default: detached (all helpers no-ops).

/// Currently attached process-wide registry, or nullptr.
MetricsRegistry* registry() noexcept;
/// Attaches `r` as the process-wide sink (nullptr detaches).  Not
/// synchronized against in-flight helper calls on other threads beyond
/// the atomic pointer itself — attach before the workload starts.
void attach_registry(MetricsRegistry* r) noexcept;

/// True when this thread's helper calls land somewhere: a bound
/// MetricJournal, a bound ScopedMetricShard, or the process registry.
bool attached() noexcept;

/// An ordered record of metric-helper calls: kind, name, labels, value.
/// While a ScopedMetricJournal binds it, every helper call its thread
/// makes is appended here instead of touching a registry.  replay()
/// issues the same calls, in the same order, through the helpers on the
/// calling thread, so a task that ran on a pool worker lands exactly the
/// writes it would have made inline.  exec::fan_out binds one journal
/// per task and replays them in task order: every floating-point
/// accumulation then happens in the same order at any worker count.
class MetricJournal {
 public:
  /// Appends one helper call ('c' counter add, 'g' gauge set,
  /// 'h' histogram observe).  Swallows allocation failures.
  void record(char kind, std::string_view name, const Labels& labels,
              double value) noexcept;
  /// Re-issues every recorded call through the helpers, oldest first.
  void replay() const noexcept;

 private:
  struct Series {
    char kind;
    std::string name;
    Labels labels;
  };
  std::vector<Series> series_;  // each distinct (kind, name, labels) once
  std::vector<std::pair<std::size_t, double>> writes_;  // (series, value)
};

/// Binds `journal` as this thread's metric destination for the scope
/// (restores the previous binding on destruction; nestable).
class ScopedMetricJournal {
 public:
  explicit ScopedMetricJournal(MetricJournal* journal) noexcept;
  ~ScopedMetricJournal();
  ScopedMetricJournal(const ScopedMetricJournal&) = delete;
  ScopedMetricJournal& operator=(const ScopedMetricJournal&) = delete;

 private:
  MetricJournal* prev_;
};

/// Redirects this thread's metric helpers into `shard` for the current
/// scope (restores the previous binding on destruction; nestable).  It
/// also lifts any journal bound on the thread for the scope, so code
/// that asks for an explicit registry (cs::SolveContext::metrics) gets
/// it.  Binding nullptr restores process-registry routing for the scope.
class ScopedMetricShard {
 public:
  explicit ScopedMetricShard(MetricsRegistry* shard) noexcept;
  ~ScopedMetricShard();
  ScopedMetricShard(const ScopedMetricShard&) = delete;
  ScopedMetricShard& operator=(const ScopedMetricShard&) = delete;

 private:
  MetricsRegistry* prev_;
  MetricJournal* prev_journal_;
};

/// No-op when detached; swallows allocation failures (instrumentation
/// must never take down the host).
void add_counter(std::string_view name, double v = 1.0) noexcept;
void add_counter(std::string_view name, const Labels& labels,
                 double v) noexcept;
void set_gauge(std::string_view name, double v) noexcept;
void set_gauge(std::string_view name, const Labels& labels,
               double v) noexcept;
void observe(std::string_view name, double v) noexcept;
void observe(std::string_view name, const Labels& labels, double v) noexcept;

/// The resolved series of one fixed call site: which sink it was
/// resolved in, under which stamp, and the metric found there.  The
/// helpers below that take one resolve (name, labels) once per (sink,
/// stamp) and then write straight to the metric, without building a key
/// and without touching the helpers' shared thread-local cache, which a
/// per-zone series family would overflow.  A refused series is never
/// cached, a bound journal records the write exactly as the plain
/// helpers do, and a cache that saw a different sink or a cleared
/// registry resolves again.
///
/// A site serves one (kind, name, labels) and one thread at a time: keep
/// it `thread_local`, or in state that only one thread touches per
/// round (one zone's entry in LocalCloud).
struct SeriesCache {
  const MetricsRegistry* registry = nullptr;
  std::uint64_t stamp = 0;
  void* metric = nullptr;
};

void add_counter(SeriesCache& site, std::string_view name,
                 const Labels& labels, double v) noexcept;
void set_gauge(SeriesCache& site, std::string_view name, const Labels& labels,
               double v) noexcept;
void observe(SeriesCache& site, std::string_view name, const Labels& labels,
             double v) noexcept;

}  // namespace sensedroid::obs
