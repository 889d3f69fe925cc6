// sensedroid_obs unit tests: concurrent counter increments, histogram
// quantile correctness against a known distribution, span nesting,
// exporter output validity, the cardinality guard, Prometheus escaping
// conformance (golden file), the one-pass renderer against the
// Sample-based oracle over seeded random registries, and the RunReport
// schema golden.
// Deliberately depends only on the obs library so the sanitizer twin
// binaries stay small.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "support/prometheus_oracle.h"

#ifndef SENSEDROID_TESTS_DIR
#define SENSEDROID_TESTS_DIR "."
#endif

using namespace sensedroid;

namespace {

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker: enough to prove the
// exporters emit well-formed JSON (objects, arrays, strings, numbers,
// literals), which is the round-trip contract downstream tooling needs.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-' || peek() == '+') ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < s_.size() && std::isdigit(
                 static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (peek() == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (peek() == '-' || peek() == '+') ++pos_;
      eat_digits();
    }
    return digits && pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// Detach global sinks around every test so instrumented code elsewhere
// in the process never leaks into assertions.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::attach_registry(nullptr);
    obs::attach_trace(nullptr);
    obs::set_virtual_now(0.0);
  }
};

TEST_F(ObsTest, CounterConcurrentIncrements) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      auto& c = reg.counter("test.concurrent");
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(reg.counter("test.concurrent").value(),
                   static_cast<double>(kThreads * kPerThread));
}

TEST_F(ObsTest, CounterConcurrentViaGlobalHelpers) {
  obs::MetricsRegistry reg;
  obs::attach_registry(&reg);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::add_counter("test.global");
        // Series creation raced across threads as well.
        obs::add_counter("test.labelled",
                         {{"thread", std::to_string(t % 3)}}, 1.0);
        obs::observe("test.hist", static_cast<double>(i % 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(reg.counter_sum("test.global"),
                   static_cast<double>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(reg.counter_sum("test.labelled"),
                   static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(reg.find_histogram("test.hist")->count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, DetachedHelpersAreInert) {
  ASSERT_FALSE(obs::attached());
  obs::add_counter("nobody.home");
  obs::set_gauge("nobody.home", 3.0);
  obs::observe("nobody.home", 1.0);
  { obs::ScopedSpan s("nobody.home.span", "nobody.home_us"); }
  obs::MetricsRegistry reg;
  obs::attach_registry(&reg);
  obs::add_counter("somebody.home");
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  obs::MetricsRegistry reg;
  auto& g = reg.gauge("test.depth");
  g.set(10.0);
  g.add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test.depth"), 7.0);
}

TEST_F(ObsTest, LabelOrderAddressesSameSeries) {
  obs::MetricsRegistry reg;
  reg.counter("test.multi", {{"a", "1"}, {"b", "2"}}).add(1.0);
  reg.counter("test.multi", {{"b", "2"}, {"a", "1"}}).add(2.0);
  reg.counter("test.multi", {{"a", "9"}}).add(4.0);
  EXPECT_DOUBLE_EQ(
      reg.counter_value("test.multi", {{"b", "2"}, {"a", "1"}}), 3.0);
  EXPECT_DOUBLE_EQ(reg.counter_sum("test.multi"), 7.0);
}

TEST_F(ObsTest, HistogramQuantilesOfUniformDistribution) {
  obs::Histogram h;
  // 1..1000 uniformly: true quantile q is ~1000q.  Default bounds have
  // decade/2.5/5 spacing, so linear interpolation inside a bucket keeps
  // the estimate within the bucket width.
  for (int v = 1; v <= 1000; ++v) h.observe(static_cast<double>(v));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.sum(), 500500.0, 1e-6);
  EXPECT_NEAR(h.quantile(0.50), 500.0, 50.0);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 50.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST_F(ObsTest, HistogramCustomBoundsAndOverflow) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  h.observe(100.0);  // overflow bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // p99 lands in the overflow bucket, which is capped at max().
  EXPECT_LE(h.quantile(0.99), 100.0);
}

// A span given a histogram name times its scope into the attached
// registry, with or without a trace; with no registry it times nothing.
TEST_F(ObsTest, TimedSpanObservesItsHistogramOnlyWhenAttached) {
  obs::TraceLog log;
  obs::attach_trace(&log);
  { obs::ScopedSpan s("traced.only", "traced.only_us"); }
  EXPECT_EQ(log.size(), 1u);
  obs::attach_trace(nullptr);
  obs::MetricsRegistry reg;
  obs::attach_registry(&reg);
  { obs::ScopedSpan s("timed", "timed_us"); }
  EXPECT_EQ(reg.find_histogram("traced.only_us"), nullptr);
  const obs::Histogram* h = reg.find_histogram("timed_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(log.size(), 1u);
}

TEST_F(ObsTest, SpanNestingTracksParentAndDepth) {
  obs::TraceLog log;
  obs::attach_trace(&log);
  obs::set_virtual_now(10.0);
  {
    obs::ScopedSpan outer("outer");
    obs::set_virtual_now(11.0);
    {
      obs::ScopedSpan inner("inner");
      obs::set_virtual_now(12.0);
      { obs::ScopedSpan leaf("leaf"); }
    }
    { obs::ScopedSpan sibling("sibling"); }
  }
  const auto spans = log.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  const auto& outer = spans[0];
  const auto& inner = spans[1];
  const auto& leaf = spans[2];
  const auto& sibling = spans[3];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(leaf.parent, inner.id);
  EXPECT_EQ(leaf.depth, 2);
  EXPECT_EQ(sibling.parent, outer.id);
  EXPECT_EQ(sibling.depth, 1);
  // Virtual time: outer opened at vt=10, closed after it advanced to 12.
  EXPECT_DOUBLE_EQ(outer.virtual_start, 10.0);
  EXPECT_DOUBLE_EQ(outer.virtual_end, 12.0);
  EXPECT_DOUBLE_EQ(inner.virtual_start, 11.0);
  // Wall clock is monotone and closed.
  EXPECT_GE(outer.wall_end_us, outer.wall_start_us);
  EXPECT_GE(leaf.wall_start_us, inner.wall_start_us);
}

TEST_F(ObsTest, TraceJsonlEveryLineParses) {
  obs::TraceLog log;
  obs::attach_trace(&log);
  {
    obs::ScopedSpan a("round \"1\"");  // name needing escaping
    obs::ScopedSpan b("inner");
  }
  log.instant("marker");
  const std::string jsonl = log.to_jsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = jsonl.substr(start, end - start);
    EXPECT_TRUE(JsonChecker(line).valid()) << "bad JSONL line: " << line;
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
}

TEST_F(ObsTest, JsonExporterParsesCleanly) {
  obs::MetricsRegistry reg;
  reg.counter("cs.omp.iterations").add(42.0);
  reg.counter("sim.radio.tx_bytes", {{"radio", "wifi"}}).add(1024.0);
  reg.gauge("mw.broker.queue_depth").set(7.0);
  auto& h = reg.histogram("cs.chs.residual_rel");
  h.observe(0.01);
  h.observe(0.5);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("cs.omp.iterations"), std::string::npos);
  EXPECT_NE(json.find("\"radio\":\"wifi\""), std::string::npos);
  EXPECT_NE(json.find("mw.broker.queue_depth"), std::string::npos);
  EXPECT_NE(json.find("cs.chs.residual_rel"), std::string::npos);
}

TEST_F(ObsTest, PrometheusExporterWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("cs.omp.iterations").add(42.0);
  reg.counter("sim.radio.tx_bytes", {{"radio", "wifi"}}).add(1024.0);
  reg.gauge("sim.events.pending").set(3.0);
  reg.histogram("cs.chs.solve_us").observe(120.0);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE cs_omp_iterations counter"),
            std::string::npos);
  EXPECT_NE(text.find("cs_omp_iterations 42"), std::string::npos);
  EXPECT_NE(text.find("sim_radio_tx_bytes{radio=\"wifi\"} 1024"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sim_events_pending gauge"),
            std::string::npos);
  EXPECT_NE(text.find("cs_chs_solve_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      const std::size_t sp = line.rfind(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      EXPECT_GT(sp, 0u) << line;
      EXPECT_LT(sp + 1, line.size()) << line;
    }
    start = end + 1;
  }
}

TEST_F(ObsTest, RunReportAggregatesWellKnownNames) {
  obs::MetricsRegistry reg;
  reg.counter("sim.energy.joules", {{"category", "tx"}}).add(1.5);
  reg.counter("sim.energy.joules", {{"category", "sensing"}}).add(0.5);
  reg.counter("mw.broker.commands_sent").add(20.0);
  reg.counter("mw.broker.replies_received").add(18.0);
  reg.counter("cs.chs.solves").add(2.0);
  reg.counter("cs.chs.iterations").add(9.0);
  reg.counter("hier.nanocloud.rounds").add(2.0);
  reg.histogram("cs.chs.residual_rel").observe(0.05);

  auto report = obs::RunReport::from_registry(reg, "unit-test");
  report.reconstruction_error = 0.07;
  EXPECT_DOUBLE_EQ(report.energy_total_j, 2.0);
  EXPECT_DOUBLE_EQ(report.energy_tx_j, 1.5);
  EXPECT_DOUBLE_EQ(report.energy_sensing_j, 0.5);
  EXPECT_DOUBLE_EQ(report.broker_commands, 20.0);
  EXPECT_DOUBLE_EQ(report.broker_replies, 18.0);
  EXPECT_DOUBLE_EQ(report.chs_solves, 2.0);
  EXPECT_DOUBLE_EQ(report.chs_iterations, 9.0);
  EXPECT_DOUBLE_EQ(report.gather_rounds, 2.0);
  EXPECT_EQ(report.chs_residual.count, 1u);

  const std::string json = report.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"campaign\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"reconstruction_error\":0.07"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_FALSE(report.summary().empty());
}

TEST_F(ObsTest, JsonEscapesControlCharactersInEveryExporter) {
  // One escaper serves the RunReport, the span JSONL and the registry
  // JSON: control bytes become escape sequences, never raw bytes.
  const std::string name = "a\nb\t\"c\\\x01";
  const std::string escaped = R"(a\nb\t\"c\\\u0001)";
  EXPECT_EQ(obs::json_escape(name), escaped);
  const auto no_control_bytes = [](const std::string& text) {
    return std::none_of(text.begin(), text.end(), [](char c) {
      return static_cast<unsigned char>(c) < 0x20;
    });
  };

  obs::MetricsRegistry reg;
  reg.counter("test.escaped", {{"v", name}}).add(1.0);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_TRUE(no_control_bytes(json)) << json;
  EXPECT_NE(json.find("\"v\":\"" + escaped + '"'), std::string::npos)
      << json;

  const std::string report = obs::RunReport::from_registry(reg, name).to_json();
  EXPECT_TRUE(JsonChecker(report).valid()) << report;
  EXPECT_TRUE(no_control_bytes(report)) << report;
  EXPECT_NE(report.find("\"campaign\":\"" + escaped + '"'),
            std::string::npos)
      << report;

  obs::TraceLog log;
  log.instant(name);
  std::string jsonl = log.to_jsonl();
  ASSERT_FALSE(jsonl.empty());
  jsonl.pop_back();  // the line's own terminator
  EXPECT_TRUE(JsonChecker(jsonl).valid()) << jsonl;
  EXPECT_TRUE(no_control_bytes(jsonl)) << jsonl;
  EXPECT_NE(jsonl.find("\"name\":\"" + escaped + '"'), std::string::npos)
      << jsonl;
}

TEST_F(ObsTest, RegistryClearDropsSeries) {
  obs::MetricsRegistry reg;
  reg.counter("a").inc();
  reg.gauge("b").set(1.0);
  reg.histogram("c").observe(1.0);
  EXPECT_EQ(reg.series_count(), 3u);
  reg.clear();
  EXPECT_EQ(reg.series_count(), 0u);
  EXPECT_TRUE(JsonChecker(reg.to_json()).valid());
}

// ------------------------------------------------------ cardinality guard

TEST_F(ObsTest, CardinalityGuardCapsSeriesPerFamily) {
  obs::MetricsRegistry reg;
  reg.set_series_limit(3);
  for (int i = 0; i < 5; ++i) {
    reg.counter("test.burst", {{"node", std::to_string(i)}}).add(1.0);
  }
  // Three series admitted, two refused; refusals are counted per family.
  EXPECT_DOUBLE_EQ(reg.counter_sum("test.burst"), 3.0);
  EXPECT_DOUBLE_EQ(reg.dropped_series(), 2.0);
  EXPECT_DOUBLE_EQ(
      reg.counter_value("obs.dropped_series", {{"metric", "test.burst"}}),
      2.0);
  // Writes to a refused series land in the sink, never crash, and stay
  // out of the export.
  reg.counter("test.burst", {{"node", "99"}}).add(100.0);
  EXPECT_DOUBLE_EQ(reg.counter_sum("test.burst"), 3.0);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.find("\"node\":\"99\""), std::string::npos);
}

TEST_F(ObsTest, CardinalityGuardCoversGaugesAndHistograms) {
  obs::MetricsRegistry reg;
  reg.set_series_limit(2);
  for (int i = 0; i < 4; ++i) {
    reg.gauge("test.g", {{"z", std::to_string(i)}}).set(1.0);
    reg.histogram("test.h", {{"z", std::to_string(i)}}).observe(1.0);
  }
  EXPECT_DOUBLE_EQ(reg.dropped_series(), 4.0);  // 2 gauges + 2 histograms
  // An existing series is never evicted and stays writable after the cap.
  reg.gauge("test.g", {{"z", "0"}}).set(7.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test.g"), 7.0);
  // Distinct families have independent budgets.
  reg.counter("test.other", {{"z", "0"}}).add(1.0);
  EXPECT_DOUBLE_EQ(reg.counter_sum("test.other"), 1.0);
}

TEST_F(ObsTest, CardinalityGuardResetsOnClear) {
  obs::MetricsRegistry reg;
  reg.set_series_limit(1);
  reg.counter("test.c", {{"a", "1"}}).add(1.0);
  reg.counter("test.c", {{"a", "2"}}).add(1.0);  // refused
  EXPECT_DOUBLE_EQ(reg.dropped_series(), 1.0);
  reg.clear();
  EXPECT_DOUBLE_EQ(reg.dropped_series(), 0.0);
  reg.counter("test.c", {{"a", "2"}}).add(1.0);  // budget is fresh
  EXPECT_DOUBLE_EQ(reg.counter_sum("test.c"), 1.0);
}

// --------------------------------------------- helper fast path / stamping

TEST_F(ObsTest, HelperFastPathSurvivesClearAndRegistrySwap) {
  obs::MetricsRegistry a;
  obs::attach_registry(&a);
  obs::add_counter("test.fast");
  obs::add_counter("test.fast");
  EXPECT_DOUBLE_EQ(a.counter_sum("test.fast"), 2.0);

  // clear() re-stamps: the cached pointer must not resurrect the old
  // series storage.
  a.clear();
  obs::add_counter("test.fast");
  EXPECT_DOUBLE_EQ(a.counter_sum("test.fast"), 1.0);

  // Swapping the attached registry must redirect the same metric name.
  obs::MetricsRegistry b;
  obs::attach_registry(&b);
  obs::add_counter("test.fast");
  obs::set_gauge("test.fast.g", 5.0);
  obs::observe("test.fast.h", 2.0);
  EXPECT_DOUBLE_EQ(b.counter_sum("test.fast"), 1.0);
  EXPECT_DOUBLE_EQ(b.gauge_value("test.fast.g"), 5.0);
  EXPECT_EQ(b.find_histogram("test.fast.h")->count(), 1u);
  EXPECT_DOUBLE_EQ(a.counter_sum("test.fast"), 1.0);  // untouched

  // Names longer than the inline cache slot still work (slow path).
  const std::string long_name(80, 'x');
  obs::add_counter(long_name);
  obs::add_counter(long_name);
  EXPECT_DOUBLE_EQ(b.counter_sum(long_name), 2.0);
}

// Labelled helper calls share the fast path, but a series the
// cardinality guard refused is never cached: every write to it is
// counted as a refused creation, and admitted series stay exact.
TEST_F(ObsTest, LabelledFastPathNeverCachesRefusedSeries) {
  obs::MetricsRegistry reg;
  reg.set_series_limit(1);
  obs::attach_registry(&reg);
  obs::add_counter("test.cap", {{"k", "a"}}, 1.0);  // admitted
  for (int i = 0; i < 3; ++i) obs::add_counter("test.cap", {{"k", "b"}}, 1.0);
  EXPECT_DOUBLE_EQ(reg.dropped_series(), 3.0);
  obs::add_counter("test.cap", {{"k", "a"}}, 1.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("test.cap", {{"k", "a"}}), 2.0);
  EXPECT_DOUBLE_EQ(reg.counter_sum("test.cap"), 2.0);
}

// A journal holds every helper call of its scope back from the
// registry; replay() then lands exactly the writes the calls would have
// made directly, so the two registries export the same bytes.
TEST_F(ObsTest, JournalReplayMatchesDirectWrites) {
  const auto writes = [] {
    obs::add_counter("test.j.count", 0.1);
    obs::add_counter("test.j.count", {{"zone", "3"}}, 0.7);
    obs::set_gauge("test.j.gauge", 2.5);
    obs::set_gauge("test.j.gauge", {{"zone", "3"}}, 4.0);
    obs::observe("test.j.hist", 0.3);
    obs::observe("test.j.hist", {{"zone", "3"}}, 7.0);
    obs::add_counter("test.j.count", 0.2);
  };
  obs::MetricsRegistry direct;
  obs::attach_registry(&direct);
  writes();

  obs::MetricsRegistry replayed;
  obs::attach_registry(&replayed);
  obs::MetricJournal journal;
  {
    obs::ScopedMetricJournal bind(&journal);
    EXPECT_TRUE(obs::attached());
    writes();
  }
  EXPECT_EQ(replayed.series_count(), 0u);  // nothing landed yet
  journal.replay();
  EXPECT_EQ(replayed.to_json(), direct.to_json());

  // A shard bound inside a journal scope takes the writes for its scope.
  obs::MetricsRegistry shard;
  {
    obs::ScopedMetricJournal bind(&journal);
    obs::ScopedMetricShard inner(&shard);
    obs::add_counter("test.j.shard");
  }
  EXPECT_DOUBLE_EQ(shard.counter_sum("test.j.shard"), 1.0);
}

// --------------------------------------------------- exporter conformance

TEST_F(ObsTest, PrometheusEscapesLabelValues) {
  obs::MetricsRegistry reg;
  reg.counter("test.esc", {{"path", "a\\b\"c\nd"}}).add(1.0);
  const std::string text = reg.to_prometheus();
  // Spec: label values escape backslash, double-quote, and newline (and
  // nothing else) — the escaped form is the literal two-character
  // sequences below, with no raw newline inside the quotes.
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos)
      << text;
}

namespace {

// Builds the fixed registry both golden-file tests snapshot.  Everything
// here is deterministic: counters, a labelled gauge, one histogram with
// custom bounds (so the bucket lines are stable), label escaping.
obs::MetricsRegistry& golden_registry(obs::MetricsRegistry& reg) {
  reg.counter("cs.omp.solves").add(3.0);
  reg.counter("sim.radio.tx_bytes", {{"radio", "wifi"}}).add(2048.0);
  reg.counter("sim.radio.tx_bytes", {{"radio", "ble"}}).add(64.0);
  reg.counter("test.escaped", {{"v", "q\"b\\s\nn"}}).add(1.0);
  reg.gauge("mw.broker.queue_depth").set(4.0);
  auto& h = reg.histogram("cs.chs.residual_rel", {}, {0.1, 1.0, 10.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(100.0);  // overflow bucket -> +Inf line
  return reg;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

}  // namespace

TEST_F(ObsTest, PrometheusGoldenRoundTrip) {
  obs::MetricsRegistry reg;
  const std::string text = golden_registry(reg).to_prometheus();
  const std::string golden =
      read_file(std::string(SENSEDROID_TESTS_DIR) +
                "/golden/prometheus_conformance.txt");
  ASSERT_FALSE(golden.empty()) << "missing golden file";
  EXPECT_EQ(text, golden) << "--- actual ---\n" << text;
}

namespace {

// Draws for the renderer differential test.  Every pool entry is there
// for an edge the exposition format or %.12g formatting has: names and
// label keys that need '_' mapping (two that map to the same name),
// label values with '"', '\' and newlines, signed zeros, NaN, infinities,
// denormals, the largest finite magnitudes, integers on both sides of
// 1e12 (where %.12g leaves plain digits) and past 2^53.
class RegistryDraw {
 public:
  explicit RegistryDraw(std::uint64_t seed) : rng_(seed) {}

  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  bool coin(double p) { return std::bernoulli_distribution(p)(rng_); }

  template <class T, std::size_t N>
  const T& pick(const T (&pool)[N]) {
    return pool[index(N)];
  }

  std::string name() {
    static const char* const kNames[] = {
        "cs.omp.solves", "sim.radio.tx_bytes", "a-b.c d", "x/y:z",
        "9lead",         "_ok:name",           "\xc3\xbcn\xc3\xaf",
        "same_name",     "same.name",          "h.lat_us",
        "q"};
    if (coin(0.8)) return pick(kNames);
    static const char kChars[] = "abcXYZ019._-: /\"\\\n";
    std::string out;
    for (std::size_t i = 1 + index(6); i > 0; --i) {
      out += kChars[index(sizeof(kChars) - 1)];
    }
    return out;
  }

  obs::Labels labels() {
    static const char* const kKeys[] = {"zone", "radio", "k.e-y", "a b",
                                        "le2"};
    static const char* const kValues[] = {
        "",          "wifi",     "q\"b",  "back\\slash", "new\nline",
        "\\\"\n\\", "\xc3\xbc", "12",    "{}=,"};
    obs::Labels out;
    for (std::size_t i = index(4); i > 0; --i) {
      out.emplace_back(pick(kKeys), pick(kValues));
    }
    return out;
  }

  double value() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    static const double kSpecial[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::quiet_NaN(),
        kInf,
        -kInf,
        std::numeric_limits<double>::denorm_min(),
        -4.9406564584124654e-320,
        2.2250738585072e-309,
        1e308,
        -1e308,
        std::numeric_limits<double>::max(),
        9007199254740992.0,   // 2^53
        9007199254740994.0,   // 2^53 + 2
        9223372036854775808.0,  // 2^63
        123456789012345678.0,
        1.0 / 3.0,
        0.1,
        1e-5,
        100000000000.0,
        999999999999.0,
        999999999999.5,
        -123456.0,
        1e12};
    switch (index(3)) {
      case 0: return pick(kSpecial);
      case 1: return static_cast<double>(index(2000));
      default: {
        const double mant = std::normal_distribution<double>(0.0, 1.0)(rng_);
        const int exp = static_cast<int>(index(61)) - 30;
        return mant * std::pow(10.0, exp);
      }
    }
  }

  /// Custom histogram bounds: finite, any sign, sometimes repeated.
  std::vector<double> bounds() {
    std::vector<double> out;
    for (std::size_t i = 1 + index(6); i > 0; --i) {
      double b = value();
      if (!std::isfinite(b)) b = static_cast<double>(index(50)) - 10.0;
      out.push_back(b);
    }
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

}  // namespace

// The one-pass renderer against the Sample-based renderer it replaced
// (tests/support/prometheus_oracle.h): every seeded random registry must
// render to the same bytes.
TEST_F(ObsTest, PrometheusRenderMatchesOracleByteForByte) {
  constexpr int kDraws = 1200;
  RegistryDraw draw(20261017);
  std::size_t dropped = 0, empty_hists = 0, overflow_only = 0, custom = 0;
  std::size_t specials = 0;
  for (int d = 0; d < kDraws; ++d) {
    obs::MetricsRegistry reg;
    if (draw.coin(0.3)) reg.set_series_limit(1 + draw.index(3));
    for (std::size_t i = draw.index(13); i > 0; --i) {
      const std::string name = draw.name();
      const obs::Labels labels = draw.labels();
      switch (draw.index(3)) {
        case 0: {
          auto& c = reg.counter(name, labels);
          for (std::size_t k = 1 + draw.index(3); k > 0; --k) {
            c.add(draw.value());
          }
          break;
        }
        case 1:
          reg.gauge(name, labels).set(draw.value());
          break;
        default: {
          std::vector<double> bounds;
          if (draw.coin(0.6)) {
            bounds = draw.bounds();
            ++custom;
          }
          auto& h = reg.histogram(name, labels, bounds);
          switch (draw.index(3)) {
            case 0:
              ++empty_hists;
              break;
            case 1:
              h.observe(std::numeric_limits<double>::infinity());
              if (draw.coin(0.5)) h.observe(h.bounds().back() * 2.0 + 1.0);
              overflow_only += h.bucket_count(h.bounds().size()) == h.count();
              break;
            default:
              for (std::size_t k = 1 + draw.index(8); k > 0; --k) {
                const double v = draw.value();
                specials += !std::isfinite(v) || v == 0.0;
                h.observe(v);
              }
              break;
          }
          break;
        }
      }
    }
    dropped += reg.dropped_series() > 0.0;
    const std::string got = reg.to_prometheus();
    const std::string want = test_support::oracle_to_prometheus(reg);
    ASSERT_EQ(got.size(), want.size()) << "draw " << d << "\n--- got ---\n"
                                       << got << "--- want ---\n" << want;
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
        << "draw " << d << "\n--- got ---\n" << got << "--- want ---\n"
        << want;
  }
  // The draws reached every edge they are there for.
  EXPECT_GT(dropped, 50u);
  EXPECT_GT(empty_hists, 100u);
  EXPECT_GT(overflow_only, 100u);
  EXPECT_GT(custom, 200u);
  EXPECT_GT(specials, 100u);
}

// The shared JSON number format against the per-file ostream formatter
// it replaced: %.12g through an ostream at precision 12, "0" for NaN and
// infinities.  Draws add integers on both sides of 1e12 and 2^53 to the
// renderer draws' edge values.
TEST_F(ObsTest, FormatNumberMatchesOstreamByteForByte) {
  const auto reference = [](double v) -> std::string {
    if (!std::isfinite(v)) return "0";
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
  };
  constexpr int kDraws = 1200;
  RegistryDraw draw(20261018);
  std::size_t non_finite = 0, signed_zero = 0, denormal = 0, huge = 0;
  std::size_t near_1e12 = 0, near_2p53 = 0;
  for (int d = 0; d < kDraws; ++d) {
    double v = draw.value();
    if (draw.coin(0.25)) {
      const bool at_1e12 = draw.coin(0.5);
      const double centre = at_1e12 ? 1e12 : 9007199254740992.0;
      v = (centre + static_cast<double>(draw.index(9)) - 4.0) *
          (draw.coin(0.5) ? 1.0 : -1.0);
      near_1e12 += at_1e12;
      near_2p53 += !at_1e12;
    }
    non_finite += !std::isfinite(v);
    signed_zero += v == 0.0 && std::signbit(v);
    denormal += std::fpclassify(v) == FP_SUBNORMAL;
    huge += std::isfinite(v) && std::fabs(v) >= 1e308;
    const std::string got = obs::format_number(v);
    const std::string want = reference(v);
    ASSERT_EQ(got, want) << "draw " << d;
  }
  EXPECT_GT(non_finite, 0u);
  EXPECT_GT(signed_zero, 0u);
  EXPECT_GT(denormal, 0u);
  EXPECT_GT(huge, 0u);
  EXPECT_GT(near_1e12, 0u);
  EXPECT_GT(near_2p53, 0u);
}

TEST_F(ObsTest, RunReportSchemaGolden) {
  obs::MetricsRegistry reg;
  const auto report = obs::RunReport::from_registry(
      golden_registry(reg), "schema-golden", /*include_wall_clock=*/false);
  const std::string json = report.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"schema_version\":" +
                      std::to_string(obs::RunReport::kSchemaVersion)),
            std::string::npos);
  const std::string golden = read_file(
      std::string(SENSEDROID_TESTS_DIR) + "/golden/run_report_schema.json");
  ASSERT_FALSE(golden.empty()) << "missing golden file";
  EXPECT_EQ(json + "\n", golden) << "--- actual ---\n" << json;
}

TEST_F(ObsTest, ConcurrentSpansFromManyThreads) {
  obs::TraceLog log;
  obs::attach_trace(&log);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::ScopedSpan outer("outer");
        obs::ScopedSpan inner("inner");
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto spans = log.snapshot();
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kPerThread * 2);
  for (const auto& s : spans) {
    EXPECT_NE(s.wall_end_us, 0.0);  // everything closed
    if (s.name == "inner") {
      EXPECT_EQ(s.depth, 1);
    }
  }
}

}  // namespace
