// Cross-cutting property suites (parameterized sweeps): invariants that
// must hold across whole parameter grids, not just single cases.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cs/chs.h"
#include "cs/omp.h"
#include "field/zones.h"
#include "hierarchy/nanocloud.h"
#include "field/generators.h"
#include "linalg/basis.h"
#include "linalg/vector_ops.h"
#include "sim/radio.h"

namespace sc = sensedroid::cs;
namespace sf = sensedroid::field;
namespace sh = sensedroid::hierarchy;
namespace sl = sensedroid::linalg;
namespace ss = sensedroid::sim;

// ---- ZoneGrid tiling: zones always partition the field exactly ----

class ZoneTiling : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::size_t,
                                  std::size_t>> {};

TEST_P(ZoneTiling, ZonesPartitionField) {
  const auto [w, h, rows, cols] = GetParam();
  sf::ZoneGrid grid(w, h, rows, cols);
  // Every cell belongs to exactly one zone, and zone sizes sum to N.
  std::size_t total = 0;
  for (const auto& z : grid.zones()) total += z.size();
  EXPECT_EQ(total, w * h);
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      const auto& z = grid.zone_at(i, j);
      EXPECT_GE(i, z.i0);
      EXPECT_LT(i, z.i0 + z.height);
      EXPECT_GE(j, z.j0);
      EXPECT_LT(j, z.j0 + z.width);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZoneTiling,
    ::testing::Values(std::make_tuple(8, 8, 2, 2),
                      std::make_tuple(13, 7, 3, 4),
                      std::make_tuple(17, 17, 5, 3),
                      std::make_tuple(6, 20, 4, 2),
                      std::make_tuple(9, 9, 9, 9),
                      std::make_tuple(31, 5, 2, 7)));

// ---- CS phase behaviour: recovery rate is monotone in M ----

class RecoveryMonotone
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(RecoveryMonotone, MoreMeasurementsNeverHurt) {
  const auto [n, k] = GetParam();
  auto rate_at = [&](std::size_t m) {
    int ok = 0;
    const int trials = 12;
    for (int t = 0; t < trials; ++t) {
      sl::Rng rng(4000 + static_cast<std::uint64_t>(t) * 7 + n + m);
      sl::Matrix a(m, n);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
      }
      sl::Vector alpha(n, 0.0);
      for (std::size_t j : rng.sample_without_replacement(n, k)) {
        alpha[j] = rng.uniform(1.0, 2.0);
      }
      const auto y = a * alpha;
      const auto sol = sc::omp_solve(a, y, {.max_sparsity = k});
      if (sl::relative_error(sol.coefficients, alpha) < 1e-6) ++ok;
    }
    return ok;
  };
  // Rates sampled on a coarse M grid must be non-decreasing within slack
  // of 1 trial (finite-sample noise).
  int prev = -1;
  for (std::size_t m = k + 2; m <= n / 2; m += n / 8) {
    const int r = rate_at(m);
    EXPECT_GE(r, prev - 1) << "n=" << n << " k=" << k << " m=" << m;
    prev = std::max(prev, r);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, RecoveryMonotone,
                         ::testing::Values(std::make_tuple(64u, 3u),
                                           std::make_tuple(96u, 5u),
                                           std::make_tuple(128u, 6u)));

// ---- Energy conservation in a NanoCloud round ----

TEST(EnergyConservation, NodeEnergyMatchesMeterSum) {
  sl::Rng rng(1);
  auto truth = sf::random_plume_field(10, 10, 2, rng, 20.0);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sh::NanoCloud nc(truth, cfg, rng);
  const double before = nc.total_node_energy_j();
  EXPECT_DOUBLE_EQ(before, 0.0);
  const auto r1 = nc.gather(30, rng);
  // gather's reported delta equals the meter total.
  EXPECT_NEAR(r1.node_energy_j, nc.total_node_energy_j(), 1e-12);
  const auto r2 = nc.gather(30, rng);
  EXPECT_NEAR(r1.node_energy_j + r2.node_energy_j,
              nc.total_node_energy_j(), 1e-12);
}

TEST(EnergyConservation, GatherStatsAccumulateAdditively) {
  sensedroid::middleware::GatherStats a;
  a.commands_sent = 3;
  a.broker_energy_j = 1.5;
  sensedroid::middleware::GatherStats b;
  b.commands_sent = 2;
  b.replies_received = 2;
  b.broker_energy_j = 0.5;
  a += b;
  EXPECT_EQ(a.commands_sent, 5u);
  EXPECT_EQ(a.replies_received, 2u);
  EXPECT_DOUBLE_EQ(a.broker_energy_j, 2.0);
}

// ---- Radio sanity across all kinds ----

class RadioProperties : public ::testing::TestWithParam<ss::RadioKind> {};

TEST_P(RadioProperties, DeliveryProbabilityMonotoneNonIncreasing) {
  const auto link = ss::LinkModel::of(GetParam());
  double prev = 1.1;
  for (double frac = 0.0; frac <= 1.3; frac += 0.05) {
    const double p = link.delivery_probability(frac * link.range_m);
    EXPECT_LE(p, prev + 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST_P(RadioProperties, CostsScaleLinearly) {
  const auto link = ss::LinkModel::of(GetParam());
  EXPECT_NEAR(link.tx_energy_j(2000), 2.0 * link.tx_energy_j(1000), 1e-15);
  EXPECT_GT(link.transfer_time_s(1'000'000), link.transfer_time_s(1000));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RadioProperties,
                         ::testing::Values(ss::RadioKind::kWiFi,
                                           ss::RadioKind::kBluetooth,
                                           ss::RadioKind::kGsm),
                         [](const ::testing::TestParamInfo<ss::RadioKind>&
                                info) { return ss::to_string(info.param); });

// ---- CHS solution invariants across budgets and bases ----

class ChsInvariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, sl::BasisKind>> {
};

TEST_P(ChsInvariants, SolutionIsInternallyConsistent) {
  const auto [m, kind] = GetParam();
  const std::size_t n = 64;
  sl::Rng rng(9000 + m);
  const auto basis = sl::make_basis(kind, n, 5);
  sl::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n / 2, 4)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto x = sl::synthesize(basis, alpha);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  const auto meas = sc::measure_exact(x, plan);
  const auto res = sc::chs_reconstruct(basis, meas);

  // (1) support sorted and within bounds, coefficients zero off-support;
  std::vector<bool> on(n, false);
  for (std::size_t i = 0; i < res.support.size(); ++i) {
    EXPECT_LT(res.support[i], n);
    if (i > 0) {
      EXPECT_LT(res.support[i - 1], res.support[i]);
    }
    on[res.support[i]] = true;
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (!on[j]) {
      EXPECT_DOUBLE_EQ(res.coefficients[j], 0.0);
    }
  }
  // (2) reported residual equals the recomputed one;
  const auto fitted = meas.plan.sample_signal(res.reconstruction);
  const double resid =
      sl::norm2(sl::subtract(fitted, meas.values));
  EXPECT_NEAR(res.residual_norm, resid, 1e-9);
  // (3) reconstruction synthesizes exactly from the coefficients.
  const auto direct = basis * res.coefficients;
  EXPECT_LT(sl::relative_error(res.reconstruction, direct), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChsInvariants,
    ::testing::Combine(::testing::Values(12u, 24u, 48u),
                       ::testing::Values(sl::BasisKind::kDct,
                                         sl::BasisKind::kHaar,
                                         sl::BasisKind::kGaussian)));
