#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

namespace sensedroid::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Canonical series key: name{k="v",...} with labels sorted by key.
std::string series_key(std::string_view name, const Labels& labels) {
  if (labels.empty()) return std::string(name);
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) key += ',';
    key += sorted[i].first;
    key += "=\"";
    key += sorted[i].second;
    key += '"';
  }
  key += '}';
  return key;
}

/// Appends finite `v` as printf's %.12g (the bytes `ostream` with
/// precision(12) gave): the one number format both exporters share.
void append_number(std::string& out, double v) {
  char buf[32];
  char* end;
  if (v == std::trunc(v) && std::fabs(v) < 1e12) {
    // Integral and under 12 digits: %.12g prints the integer itself
    // ("-0" for negative zero), and integer formatting is much cheaper.
    char* p = buf;
    if (std::signbit(v)) *p++ = '-';
    end = std::to_chars(p, buf + sizeof(buf),
                        static_cast<std::uint64_t>(std::fabs(v)))
              .ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), v,
                        std::chars_format::general, 12)
              .ptr;
  }
  out.append(buf, end);
}

/// JSON has no Infinity/NaN literals; clamp exporter output to numbers.
std::string json_number(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  std::string out;
  append_number(out, v);
  return out;
}

void append_count(std::string& out, std::uint64_t n) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), n).ptr);
}

void append_prom_number(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
  } else if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
  } else {
    append_number(out, v);
  }
}

/// Appends `name` with every character outside [a-zA-Z0-9_:] as '_'.
void append_prom_name(std::string& out, std::string_view name) {
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
}

/// Prometheus text-format label-value escaping: exactly backslash,
/// double-quote, and line-feed (the only escapes the spec defines —
/// json_escape's \uXXXX forms are NOT valid in the exposition format).
void append_prom_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// Appends `{k="v",...}`, keys mapped and values escaped; nothing for
/// no labels.
void append_prom_labels(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    append_prom_name(out, labels[i].first);
    out += "=\"";
    append_prom_escaped(out, labels[i].second);
    out += '"';
  }
  out += '}';
}

std::atomic<MetricsRegistry*> g_registry{nullptr};

// Per-thread overrides (ScopedMetricJournal, ScopedMetricShard).  Plain
// (non-atomic): only ever touched by their own thread.  A bound journal
// takes every helper call; otherwise a bound shard does.
thread_local MetricJournal* t_journal = nullptr;
thread_local MetricsRegistry* t_shard = nullptr;

}  // namespace

// ---------------------------------------------------------------------
// Histogram

std::vector<double> Histogram::default_bounds() {
  std::vector<double> b;
  b.reserve(57);
  for (int decade = -9; decade <= 9; ++decade) {
    const double base = std::pow(10.0, decade);
    b.push_back(base);
    b.push_back(2.5 * base);
    b.push_back(5.0 * base);
  }
  return b;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), min_(kInf), max_(-kInf) {
  if (bounds_.empty()) bounds_ = default_bounds();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::min() const noexcept {
  return min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::absorb(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets,
                       std::uint64_t count, double sum, double min,
                       double max) noexcept {
  if (count == 0) return;
  if (bounds == bounds_ && buckets.size() == bounds_.size() + 1) {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] != 0) {
        buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
      }
    }
  } else {
    // Bounds mismatch: re-bin each foreign bucket at its upper bound
    // (overflow bucket lands at the foreign max).
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      const double v = i < bounds.size() ? bounds[i] : max;
      const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
      const auto idx = static_cast<std::size_t>(it - bounds_.begin());
      buckets_[idx].fetch_add(buckets[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(count, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + sum,
                                     std::memory_order_relaxed)) {
  }
  atomic_min(min_, min);
  atomic_max(max_, max);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b <= bounds_.size(); ++b) {
    const std::uint64_t in_bucket =
        buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      // Linear interpolation inside the crossing bucket.
      const double lo =
          b == 0 ? std::min(min(), bounds_.front()) : bounds_[b - 1];
      const double hi = b < bounds_.size() ? bounds_[b] : max();
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      const double est = lo + frac * (hi - lo);
      return std::clamp(est, min(), max());
    }
    cum += in_bucket;
  }
  return max();
}

// ---------------------------------------------------------------------
// MetricsRegistry

namespace {
std::atomic<std::uint64_t> g_next_stamp{1};
}  // namespace

MetricsRegistry::MetricsRegistry()
    : stamp_(g_next_stamp.fetch_add(1, std::memory_order_relaxed)) {}

template <class T>
MetricsRegistry::Series<T> MetricsRegistry::make_series(
    std::string_view name, const Labels& labels, std::unique_ptr<T> metric) {
  Series<T> s{std::string(name), labels, std::move(metric), {}, 0};
  append_prom_name(s.prom_head, name);
  s.prom_name_size = s.prom_head.size();
  append_prom_labels(s.prom_head, labels);
  return s;
}

bool MetricsRegistry::admit_series_locked(std::string_view name) {
  // The drop counter itself must never be refused (and must not recurse
  // into the guard), so it is exempt by name.
  constexpr std::string_view kDropFamily = "obs.dropped_series";
  if (name == kDropFamily) return true;
  auto it = family_counts_.find(name);
  if (it == family_counts_.end()) {
    family_counts_.emplace(std::string(name), 1);
    return true;
  }
  if (it->second < series_limit_) {
    ++it->second;
    return true;
  }
  // Refused: count the drop under the offending family's label.  This
  // creates at most one extra series per family — bounded by the number
  // of families, not by the runaway label.
  const Labels drop_labels{{"metric", std::string(name)}};
  const std::string drop_key = series_key(kDropFamily, drop_labels);
  auto dit = counters_.find(drop_key);
  if (dit == counters_.end()) {
    dit = counters_
              .emplace(drop_key, make_series(kDropFamily, drop_labels,
                                             std::make_unique<Counter>()))
              .first;
  }
  dit->second.metric->inc();
  return false;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const Labels& labels) {
  const std::string key = series_key(name, labels);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    if (!admit_series_locked(name)) return overflow_counter_;
    it = counters_
             .emplace(key, make_series(name, labels,
                                       std::make_unique<Counter>()))
             .first;
  }
  return *it->second.metric;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  const std::string key = series_key(name, labels);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    if (!admit_series_locked(name)) return overflow_gauge_;
    it = gauges_
             .emplace(key,
                      make_series(name, labels, std::make_unique<Gauge>()))
             .first;
  }
  return *it->second.metric;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels,
                                      std::vector<double> bounds) {
  const std::string key = series_key(name, labels);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    if (!admit_series_locked(name)) return overflow_histogram_;
    auto metric = bounds.empty()
                      ? std::make_unique<Histogram>()
                      : std::make_unique<Histogram>(std::move(bounds));
    it = histograms_
             .emplace(key, make_series(name, labels, std::move(metric)))
             .first;
  }
  return *it->second.metric;
}

void MetricsRegistry::set_series_limit(std::size_t limit) {
  std::lock_guard<std::mutex> lk(mu_);
  series_limit_ = std::max<std::size_t>(limit, 1);
}

std::size_t MetricsRegistry::series_limit() const {
  std::lock_guard<std::mutex> lk(mu_);
  return series_limit_;
}

double MetricsRegistry::dropped_series() const {
  return counter_sum("obs.dropped_series");
}

double MetricsRegistry::counter_sum(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  double total = 0.0;
  for (const auto& [key, s] : counters_) {
    if (s.name == name) total += s.metric->value();
  }
  return total;
}

double MetricsRegistry::counter_value(std::string_view name,
                                      const Labels& labels) const {
  const std::string key = series_key(name, labels);
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(key);
  return it == counters_.end() ? 0.0 : it->second.metric->value();
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, s] : gauges_) {
    if (s.name == name) return s.metric->value();
  }
  return 0.0;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, s] : histograms_) {
    if (s.name == name) return s.metric.get();
  }
  return nullptr;
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  family_counts_.clear();
  // New stamp: invalidates every cached reference (helpers' thread-local
  // fast path included) taken before the clear.
  stamp_.store(g_next_stamp.fetch_add(1, std::memory_order_relaxed),
               std::memory_order_relaxed);
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::samples() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Sample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, s] : counters_) {
    Sample smp;
    smp.name = s.name;
    smp.labels = s.labels;
    smp.kind = 'c';
    smp.value = s.metric->value();
    out.push_back(std::move(smp));
  }
  for (const auto& [key, s] : gauges_) {
    Sample smp;
    smp.name = s.name;
    smp.labels = s.labels;
    smp.kind = 'g';
    smp.value = s.metric->value();
    out.push_back(std::move(smp));
  }
  for (const auto& [key, s] : histograms_) {
    Sample smp;
    smp.name = s.name;
    smp.labels = s.labels;
    smp.kind = 'h';
    smp.count = s.metric->count();
    smp.sum = s.metric->sum();
    smp.min = smp.count ? s.metric->min() : 0.0;
    smp.max = smp.count ? s.metric->max() : 0.0;
    smp.p50 = s.metric->quantile(0.50);
    smp.p95 = s.metric->quantile(0.95);
    smp.p99 = s.metric->quantile(0.99);
    smp.bounds = s.metric->bounds();
    smp.buckets = s.metric->bucket_counts();
    out.push_back(std::move(smp));
  }
  return out;
}

std::string MetricsRegistry::to_json() const { return to_json(true); }

namespace {

/// Wall-clock timing series carry the unit suffix `_us` by convention;
/// they are the only inherently non-reproducible series in the registry.
bool is_wall_clock_series(std::string_view name) {
  return name.size() >= 3 && name.substr(name.size() - 3) == "_us";
}

}  // namespace

std::string MetricsRegistry::to_json(bool include_wall_clock) const {
  const auto all = samples();
  std::string counters, gauges, hists;
  for (const auto& s : all) {
    if (!include_wall_clock && is_wall_clock_series(s.name)) continue;
    std::string labels = "{";
    for (std::size_t i = 0; i < s.labels.size(); ++i) {
      if (i) labels += ',';
      labels += '"' + json_escape(s.labels[i].first) + "\":\"" +
                json_escape(s.labels[i].second) + '"';
    }
    labels += '}';
    if (s.kind == 'c' || s.kind == 'g') {
      std::string& dst = s.kind == 'c' ? counters : gauges;
      if (!dst.empty()) dst += ',';
      dst += "{\"name\":\"" + json_escape(s.name) + "\",\"labels\":" +
             labels + ",\"value\":" + json_number(s.value) + '}';
    } else {
      if (!hists.empty()) hists += ',';
      std::string buckets;
      // Emit only non-empty buckets: default histograms have 57 bounds
      // and dumping them all would swamp the export.
      for (std::size_t b = 0; b < s.buckets.size(); ++b) {
        if (s.buckets[b] == 0) continue;
        if (!buckets.empty()) buckets += ',';
        const double le = b < s.bounds.size()
                              ? s.bounds[b]
                              : std::numeric_limits<double>::infinity();
        buckets += "{\"le\":" + json_number(le) +
                   ",\"count\":" + std::to_string(s.buckets[b]) + '}';
      }
      hists += "{\"name\":\"" + json_escape(s.name) + "\",\"labels\":" +
               labels + ",\"count\":" + std::to_string(s.count) +
               ",\"sum\":" + json_number(s.sum) +
               ",\"min\":" + json_number(s.min) +
               ",\"max\":" + json_number(s.max) +
               ",\"p50\":" + json_number(s.p50) +
               ",\"p95\":" + json_number(s.p95) +
               ",\"p99\":" + json_number(s.p99) + ",\"buckets\":[" +
               buckets + "]}";
    }
  }
  return "{\"counters\":[" + counters + "],\"gauges\":[" + gauges +
         "],\"histograms\":[" + hists + "]}";
}

std::string MetricsRegistry::to_prometheus() const {
  std::string out;
  std::string_view last_typed;  // into a series' prom_head
  const auto type_line = [&](std::string_view name, const char* kind) {
    if (name == last_typed) return;
    out += "# TYPE ";
    out += name;
    out += kind;
    last_typed = name;
  };
  const auto scalar_lines = [&](const auto& map, const char* kind) {
    for (const auto& [key, s] : map) {
      type_line(std::string_view(s.prom_head).substr(0, s.prom_name_size),
                kind);
      out += s.prom_head;
      out += ' ';
      append_prom_number(out, s.metric->value());
      out += '\n';
    }
  };
  std::lock_guard<std::mutex> lk(mu_);
  scalar_lines(counters_, " counter\n");
  scalar_lines(gauges_, " gauge\n");
  std::string bucket_head;  // `<name>_bucket{<labels>,le="`
  for (const auto& [key, s] : histograms_) {
    const std::string_view head = s.prom_head;
    const std::string_view name = head.substr(0, s.prom_name_size);
    const std::string_view labels = head.substr(s.prom_name_size);
    type_line(name, " histogram\n");
    bucket_head = name;
    bucket_head += "_bucket";
    if (labels.empty()) {
      bucket_head += '{';
    } else {
      bucket_head += labels.substr(0, labels.size() - 1);  // drop the '}'
      bucket_head += ',';
    }
    bucket_head += "le=\"";
    const Histogram& h = *s.metric;
    const std::vector<double>& bounds = h.bounds();
    // Cumulative buckets; empty ones are skipped, except the +Inf line.
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b <= bounds.size(); ++b) {
      const std::uint64_t in_bucket = h.bucket_count(b);
      cum += in_bucket;
      if (in_bucket == 0 && b != bounds.size()) continue;
      out += bucket_head;
      if (b < bounds.size()) {
        append_prom_number(out, bounds[b]);
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      append_count(out, cum);
      out += '\n';
    }
    out += name;
    out += "_sum";
    out += labels;
    out += ' ';
    append_prom_number(out, h.sum());
    out += '\n';
    out += name;
    out += "_count";
    out += labels;
    out += ' ';
    append_count(out, h.count());
    out += '\n';
  }
  return out;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::string out;
  append_number(out, v);
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Global attachment

MetricsRegistry* registry() noexcept {
  return g_registry.load(std::memory_order_acquire);
}

void attach_registry(MetricsRegistry* r) noexcept {
  g_registry.store(r, std::memory_order_release);
}

namespace {

/// The registry this thread's helpers write to when no journal is bound.
MetricsRegistry* sink() noexcept {
  MetricsRegistry* shard = t_shard;
  return shard != nullptr ? shard : registry();
}

const Labels kNoLabels;

}  // namespace

bool attached() noexcept { return t_journal != nullptr || sink() != nullptr; }

ScopedMetricShard::ScopedMetricShard(MetricsRegistry* shard) noexcept
    : prev_(t_shard), prev_journal_(t_journal) {
  t_shard = shard;
  t_journal = nullptr;
}

ScopedMetricShard::~ScopedMetricShard() {
  t_shard = prev_;
  t_journal = prev_journal_;
}

ScopedMetricJournal::ScopedMetricJournal(MetricJournal* journal) noexcept
    : prev_(t_journal) {
  t_journal = journal;
}

ScopedMetricJournal::~ScopedMetricJournal() { t_journal = prev_; }

void MetricJournal::record(char kind, std::string_view name,
                           const Labels& labels, double value) noexcept {
  // A task writes few distinct series many times over, so each is stored
  // once and a write costs a short scan instead of copying its strings.
  std::size_t i = 0;
  while (i < series_.size() &&
         (series_[i].kind != kind || series_[i].name != name ||
          series_[i].labels != labels)) {
    ++i;
  }
  try {
    if (i == series_.size()) {
      series_.push_back({kind, std::string(name), labels});
    }
    writes_.emplace_back(i, value);
  } catch (...) {
  }
}

void MetricJournal::replay() const noexcept {
  for (const auto& [i, value] : writes_) {
    const Series& s = series_[i];
    switch (s.kind) {
      case 'c':
        add_counter(s.name, s.labels, value);
        break;
      case 'g':
        set_gauge(s.name, s.labels, value);
        break;
      default:
        observe(s.name, s.labels, value);
        break;
    }
  }
}

namespace {

// Thread-local fast path for the helpers: a direct-mapped cache from a
// series key (the name, or name\0key\0value for one label pair) to the
// resolved metric pointer, validated by the owning registry's stamp.
// The slow path (mutex + map lookup + series_key string build) costs
// ~150 ns, which at ~5 helper calls per 12 µs OMP solve is most of the
// armed-vs-detached overhead budget; a cache hit is a hash and a few
// compares.  The per-event radio and energy writes and the per-zone
// series bypass it through their own SeriesCache sites: they would
// cost a key build each, and the per-zone family alone would evict
// every other key.  The slots form two-way sets, most recently used
// first: a round's ~40 unlabelled names direct-mapped into 64 slots
// left several pairs colliding, and each pair missed on every write.
// Entries self-heal on any mismatch (different sink, cleared registry,
// set full) by falling through to the slow path and taking the set's
// first slot.  A refused series is never cached, so every write to it
// still counts as a refused creation.
constexpr std::size_t kFastSlots = 64;   // power of two
constexpr std::size_t kFastSets = kFastSlots / 2;  // two slots each
constexpr std::size_t kFastKeyCap = 47;  // longer keys skip the cache

struct FastEntry {
  char key[kFastKeyCap + 1];
  std::uint8_t len = 0;
  char kind = 0;  // 'c' counter, 'g' gauge, 'h' histogram
  const MetricsRegistry* reg = nullptr;
  std::uint64_t stamp = 0;
  void* metric = nullptr;
};

thread_local FastEntry t_fast[kFastSlots];

/// The cache key for (name, labels), built in `buf` when labelled;
/// empty (uncached) for two or more labels or a key over the cap.
std::string_view fast_key(std::string_view name, const Labels& labels,
                          char* buf) noexcept {
  if (labels.empty()) return name.size() <= kFastKeyCap ? name : "";
  if (labels.size() > 1) return {};
  const auto& [k, v] = labels.front();
  const std::size_t n = name.size() + k.size() + v.size() + 2;
  if (n > kFastKeyCap) return {};
  char* p = std::copy(name.begin(), name.end(), buf);
  *p++ = '\0';
  p = std::copy(k.begin(), k.end(), p);
  *p++ = '\0';
  std::copy(v.begin(), v.end(), p);
  return {buf, n};
}

/// The first slot of the set that caches `key`.
std::size_t fast_set(std::string_view key, char kind) noexcept {
  const std::size_t h = std::hash<std::string_view>{}(key) * 31 +
                        static_cast<unsigned char>(kind);
  return (h & (kFastSets - 1)) * 2;
}

/// The metric behind (name, labels) in `r`, created on first use; the
/// registry's slow path, with nullptr when creation threw.
template <class T>
T* lookup(MetricsRegistry* r, std::string_view name,
          const Labels& labels) noexcept {
  try {
    if constexpr (std::is_same_v<T, Counter>) {
      return &r->counter(name, labels);
    } else if constexpr (std::is_same_v<T, Gauge>) {
      return &r->gauge(name, labels);
    } else {
      return &r->histogram(name, labels);
    }
  } catch (...) {
    return nullptr;
  }
}

/// lookup() behind the thread-local fast path.
template <class T>
T* resolve(MetricsRegistry* r, char kind, std::string_view name,
           const Labels& labels) noexcept {
  char buf[kFastKeyCap + 1];
  const std::string_view key = fast_key(name, labels, buf);
  FastEntry* set = key.empty() ? nullptr : &t_fast[fast_set(key, kind)];
  // Read before the lookup: a clear() racing it leaves a stale stamp
  // behind, never a fresh stamp on a stale pointer.
  const std::uint64_t stamp = r->stamp();
  const auto hit = [&](const FastEntry& e) {
    return e.kind == kind && e.reg == r && e.len == key.size() &&
           e.stamp == stamp && std::memcmp(e.key, key.data(), key.size()) == 0;
  };
  if (set != nullptr) {
    if (hit(set[0])) return static_cast<T*>(set[0].metric);
    if (hit(set[1])) {
      std::swap(set[0], set[1]);
      return static_cast<T*>(set[0].metric);
    }
  }
  T* m = lookup<T>(r, name, labels);
  if (set != nullptr && m != nullptr && !r->is_overflow(m)) {
    set[1] = set[0];
    FastEntry* e = &set[0];
    std::memcpy(e->key, key.data(), key.size());
    e->len = static_cast<std::uint8_t>(key.size());
    e->kind = kind;
    e->reg = r;
    e->stamp = stamp;
    e->metric = m;
  }
  return m;
}

/// lookup() behind a call site's own cache.
template <class T>
T* resolve(SeriesCache& site, MetricsRegistry* r, std::string_view name,
           const Labels& labels) noexcept {
  const std::uint64_t stamp = r->stamp();
  if (site.registry == r && site.stamp == stamp) {
    return static_cast<T*>(site.metric);
  }
  T* m = lookup<T>(r, name, labels);
  if (m != nullptr && !r->is_overflow(m)) site = {r, stamp, m};
  return m;
}

}  // namespace

void add_counter(std::string_view name, double v) noexcept {
  add_counter(name, kNoLabels, v);
}

void add_counter(std::string_view name, const Labels& labels,
                 double v) noexcept {
  if (MetricJournal* j = t_journal) return j->record('c', name, labels, v);
  if (MetricsRegistry* r = sink()) {
    if (Counter* c = resolve<Counter>(r, 'c', name, labels)) c->add(v);
  }
}

void set_gauge(std::string_view name, double v) noexcept {
  set_gauge(name, kNoLabels, v);
}

void set_gauge(std::string_view name, const Labels& labels,
               double v) noexcept {
  if (MetricJournal* j = t_journal) return j->record('g', name, labels, v);
  if (MetricsRegistry* r = sink()) {
    if (Gauge* g = resolve<Gauge>(r, 'g', name, labels)) g->set(v);
  }
}

void observe(std::string_view name, double v) noexcept {
  observe(name, kNoLabels, v);
}

void observe(std::string_view name, const Labels& labels,
             double v) noexcept {
  if (MetricJournal* j = t_journal) return j->record('h', name, labels, v);
  if (MetricsRegistry* r = sink()) {
    if (Histogram* h = resolve<Histogram>(r, 'h', name, labels)) {
      h->observe(v);
    }
  }
}

void add_counter(SeriesCache& site, std::string_view name,
                 const Labels& labels, double v) noexcept {
  if (MetricJournal* j = t_journal) return j->record('c', name, labels, v);
  if (MetricsRegistry* r = sink()) {
    if (Counter* c = resolve<Counter>(site, r, name, labels)) c->add(v);
  }
}

void set_gauge(SeriesCache& site, std::string_view name, const Labels& labels,
               double v) noexcept {
  if (MetricJournal* j = t_journal) return j->record('g', name, labels, v);
  if (MetricsRegistry* r = sink()) {
    if (Gauge* g = resolve<Gauge>(site, r, name, labels)) g->set(v);
  }
}

void observe(SeriesCache& site, std::string_view name, const Labels& labels,
             double v) noexcept {
  if (MetricJournal* j = t_journal) return j->record('h', name, labels, v);
  if (MetricsRegistry* r = sink()) {
    if (Histogram* h = resolve<Histogram>(site, r, name, labels)) {
      h->observe(v);
    }
  }
}

}  // namespace sensedroid::obs
