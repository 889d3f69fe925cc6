// Call-site series caches (obs::SeriesCache): a site resolves its series
// once per (sink, stamp) and then writes straight to the metric.  These
// tests hold it to the plain helpers' semantics: it follows clear(), a
// newly attached registry and a ScopedMetricShard; under a bound journal
// it records the write and replay lands what the direct path lands; it
// never caches a series the cardinality guard refused; and thread_local
// sites keep concurrent writers on their own shards.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

using namespace sensedroid;

namespace {

const obs::Labels kLabels{{"zone", "7"}};

class SeriesCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::attach_registry(nullptr); }
  void TearDown() override { obs::attach_registry(nullptr); }
};

TEST_F(SeriesCacheTest, WritesTheSeriesThePlainHelperWrites) {
  obs::MetricsRegistry reg;
  obs::attach_registry(&reg);
  obs::SeriesCache c, g, h;
  for (int i = 1; i <= 3; ++i) {
    obs::add_counter(c, "test.site.c", kLabels, 0.5 * i);
    obs::set_gauge(g, "test.site.g", kLabels, i);
    obs::observe(h, "test.site.h", kLabels, i);
  }
  EXPECT_DOUBLE_EQ(reg.counter_value("test.site.c", kLabels), 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test.site.g"), 3.0);
  const obs::Histogram* hist = reg.find_histogram("test.site.h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 3u);
  EXPECT_EQ(c.registry, &reg);
  EXPECT_EQ(c.stamp, reg.stamp());
  EXPECT_EQ(reg.series_count(), 3u);
}

TEST_F(SeriesCacheTest, DetachedWritesNothingAndCachesNothing) {
  obs::SeriesCache site;
  obs::add_counter(site, "test.site.c", kLabels, 1.0);
  EXPECT_EQ(site.registry, nullptr);
  EXPECT_EQ(site.metric, nullptr);
}

TEST_F(SeriesCacheTest, ReResolvesAfterClear) {
  obs::MetricsRegistry reg;
  obs::attach_registry(&reg);
  obs::SeriesCache site;
  obs::add_counter(site, "test.site.c", kLabels, 2.0);
  const std::uint64_t before = site.stamp;
  reg.clear();
  obs::add_counter(site, "test.site.c", kLabels, 3.0);
  EXPECT_NE(site.stamp, before);
  EXPECT_EQ(site.stamp, reg.stamp());
  EXPECT_DOUBLE_EQ(reg.counter_value("test.site.c", kLabels), 3.0);
}

TEST_F(SeriesCacheTest, ReResolvesWhenAnotherRegistryIsAttached) {
  obs::MetricsRegistry a, b;
  obs::SeriesCache site;
  obs::attach_registry(&a);
  obs::add_counter(site, "test.site.c", kLabels, 1.0);
  obs::attach_registry(&b);
  obs::add_counter(site, "test.site.c", kLabels, 10.0);
  obs::attach_registry(&a);
  obs::add_counter(site, "test.site.c", kLabels, 100.0);
  EXPECT_DOUBLE_EQ(a.counter_value("test.site.c", kLabels), 101.0);
  EXPECT_DOUBLE_EQ(b.counter_value("test.site.c", kLabels), 10.0);
}

TEST_F(SeriesCacheTest, FollowsAScopedShard) {
  obs::MetricsRegistry global, shard;
  obs::attach_registry(&global);
  obs::SeriesCache site;
  obs::add_counter(site, "test.site.c", kLabels, 1.0);
  {
    obs::ScopedMetricShard bind(&shard);
    obs::add_counter(site, "test.site.c", kLabels, 2.0);
    EXPECT_EQ(site.registry, &shard);
  }
  obs::add_counter(site, "test.site.c", kLabels, 4.0);
  EXPECT_DOUBLE_EQ(global.counter_value("test.site.c", kLabels), 5.0);
  EXPECT_DOUBLE_EQ(shard.counter_value("test.site.c", kLabels), 2.0);
}

TEST_F(SeriesCacheTest, JournalRecordsAndReplayMatchesTheDirectPath) {
  const auto writes = [](obs::SeriesCache* sites) {
    for (int i = 0; i < 5; ++i) {
      obs::add_counter(sites[0], "test.site.c", kLabels, 0.1 * i);
      obs::set_gauge(sites[1], "test.site.g", kLabels, i);
      obs::observe(sites[2], "test.site.h", kLabels, 1.5 * i);
      obs::add_counter("test.site.plain", 1.0);
    }
  };
  obs::MetricsRegistry direct, replayed;
  {
    obs::SeriesCache sites[3];
    obs::ScopedMetricShard bind(&direct);
    writes(sites);
  }
  obs::MetricJournal journal;
  obs::SeriesCache sites[3];
  {
    obs::ScopedMetricShard bind(&replayed);
    obs::ScopedMetricJournal record(&journal);
    writes(sites);
  }
  EXPECT_EQ(replayed.series_count(), 0u);  // recorded, not written
  for (const obs::SeriesCache& s : sites) EXPECT_EQ(s.metric, nullptr);
  {
    obs::ScopedMetricShard bind(&replayed);
    journal.replay();
  }
  EXPECT_EQ(replayed.to_json(), direct.to_json());
}

TEST_F(SeriesCacheTest, NeverCachesARefusedSeries) {
  obs::MetricsRegistry reg;
  reg.set_series_limit(1);
  reg.counter("test.site.c", {{"zone", "0"}}).add(1.0);  // fills the family
  obs::attach_registry(&reg);
  obs::SeriesCache site;
  for (int i = 0; i < 3; ++i) {
    obs::add_counter(site, "test.site.c", kLabels, 1.0);
  }
  EXPECT_EQ(site.metric, nullptr);
  EXPECT_DOUBLE_EQ(reg.dropped_series(), 3.0);  // one drop per write
  // Room again: the next write creates the series and lands in it.
  reg.set_series_limit(2);
  obs::add_counter(site, "test.site.c", kLabels, 5.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("test.site.c", kLabels), 5.0);
  EXPECT_DOUBLE_EQ(reg.dropped_series(), 3.0);
}

// One static call site, written from two threads, each bound to its own
// shard: thread_local keeps each thread's resolution (and its writes) on
// its own shard.  Runs under TSan in test_obs_tsan.
void site_write(double v) {
  thread_local obs::SeriesCache site;
  obs::add_counter(site, "test.site.shared", kLabels, v);
}

TEST_F(SeriesCacheTest, ThreadLocalSiteKeepsTwoShardsApart) {
  constexpr int kWrites = 20000;
  obs::MetricsRegistry shards[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&shards, t] {
      obs::ScopedMetricShard bind(&shards[t]);
      for (int i = 0; i < kWrites; ++i) site_write(t + 1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(shards[0].counter_value("test.site.shared", kLabels),
                   1.0 * kWrites);
  EXPECT_DOUBLE_EQ(shards[1].counter_value("test.site.shared", kLabels),
                   2.0 * kWrites);
}

}  // namespace
