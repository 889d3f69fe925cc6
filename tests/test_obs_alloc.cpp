// Hot instrumentation allocates nothing once warm.  LinkModel's energy
// accessors and emit_zone_series are noexcept, so an allocation there
// that throws std::bad_alloc outside the helpers' try would terminate
// the process; EnergyMeter::add runs once per charged joule.  With a
// registry attached, each site is called once to resolve its series,
// then N more times while a replaced global operator new counts every
// allocation.  Its own executable: the replacement is process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "hierarchy/localcloud.h"
#include "linalg/random.h"
#include "obs/metrics.h"
#include "sim/energy.h"
#include "sim/radio.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace sensedroid;

namespace {

constexpr int kCalls = 1000;

class ObsAllocTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::attach_registry(&reg_); }
  void TearDown() override { obs::attach_registry(nullptr); }

  obs::MetricsRegistry reg_;
};

/// Allocations made by `f()`.
template <class F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST_F(ObsAllocTest, RadioSitesAllocateNothingOnceWarm) {
  const sim::LinkModel links[] = {
      sim::LinkModel::of(sim::RadioKind::kWiFi),
      sim::LinkModel::of(sim::RadioKind::kBluetooth),
      sim::LinkModel::of(sim::RadioKind::kGsm)};
  linalg::Rng rng(7);
  const auto calls = [&](int n) {
    double sink = 0.0;
    for (int i = 0; i < n; ++i) {
      for (const sim::LinkModel& l : links) {
        sink += l.tx_energy_j(64) + l.rx_energy_j(64);
        // Past the range edge: always a drop, so drops resolve too.
        sink += l.delivery_succeeds(l.range_m * 2.0, rng) ? 1.0 : 0.0;
        sink += l.delivery_succeeds(0.0, rng) ? 1.0 : 0.0;
      }
    }
    return sink;
  };
  calls(8);  // warm-up: resolves every series
  EXPECT_EQ(allocations_in([&] { calls(kCalls); }), 0u);
  EXPECT_DOUBLE_EQ(reg_.counter_value("sim.radio.tx_bytes",
                                      {{"radio", "gsm"}}),
                   64.0 * (8 + kCalls));
}

TEST_F(ObsAllocTest, EnergyMeterAddAllocatesNothingOnceWarm) {
  sim::EnergyMeter meter;
  const auto calls = [&](int n) {
    for (int i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < sim::kEnergyCategoryCount; ++c) {
        meter.add(static_cast<sim::EnergyCategory>(c), 0.25);
      }
    }
  };
  calls(1);
  EXPECT_EQ(allocations_in([&] { calls(kCalls); }), 0u);
  EXPECT_DOUBLE_EQ(reg_.counter_value("sim.energy.joules",
                                      {{"category", "idle"}}),
                   0.25 * (1 + kCalls));
}

TEST_F(ObsAllocTest, EmitZoneSeriesAllocatesNothingOnceWarm) {
  hierarchy::ZoneSeries zone(3);
  hierarchy::GatherResult res;
  res.m_requested = 20;
  res.m_used = 18;
  res.nrmse = 0.125;
  res.node_energy_j = 0.5;
  res.failed_over = res.degraded = res.shed = true;
  res.stats.radio_failures = 2;
  res.stats.retries = 3;
  res.stats.retry_recovered = 1;
  hierarchy::emit_zone_series(zone, res);  // warm-up: every branch
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < kCalls; ++i) {
                hierarchy::emit_zone_series(zone, res);
              }
            }),
            0u);
  EXPECT_DOUBLE_EQ(reg_.counter_value("hier.zone.retries", {{"zone", "3"}}),
                   3.0 * (1 + kCalls));
}

}  // namespace
