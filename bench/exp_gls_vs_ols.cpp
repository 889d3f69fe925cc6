// E5 / eq. 12: GLS vs OLS under sensor heterogeneity.  "GLS solution for
// heterogeneous sensors ... where V is covariance matrix of sensor
// accuracy characteristics."  We sweep the spread of the phone-fleet
// noise (sigma drawn uniformly in [lo, hi]) and report reconstruction
// NRMSE for both refits inside the CHS loop.
#include <cstdio>

#include "cs/chs.h"
#include "linalg/basis.h"
#include "linalg/vector_ops.h"

using namespace sensedroid;

int main() {
  constexpr std::size_t kN = 128, kM = 48, kK = 5;
  constexpr int kTrials = 60;
  const auto basis = linalg::dct_basis(kN);

  std::printf("# E5 — GLS (eq. 12) vs OLS (eq. 11) under heterogeneity\n");
  std::printf("# N=%zu, M=%zu, K=%zu, sigma ~ U[lo, hi], %d trials\n", kN, kM,
              kK, kTrials);
  std::printf("%12s  %10s  %10s  %8s\n", "sigma-range", "ols-nrmse",
              "gls-nrmse", "gls-gain");

  struct Range {
    double lo, hi;
  };
  for (const auto& [lo, hi] : {Range{0.05, 0.05}, Range{0.02, 0.2},
                               Range{0.01, 0.5}, Range{0.005, 1.0}}) {
    double ols = 0.0, gls = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      linalg::Rng rng(3000 + t);
      linalg::Vector alpha(kN, 0.0);
      for (std::size_t j : rng.sample_without_replacement(kN / 2, kK)) {
        alpha[j] = rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
      }
      const auto x = linalg::synthesize(basis, alpha);
      auto plan = cs::MeasurementPlan::random(kN, kM, rng);
      auto noise = cs::SensorNoise::heterogeneous(kM, lo, hi, rng);
      const auto meas = cs::measure(x, std::move(plan), std::move(noise), rng);

      cs::ChsOptions o;
      o.max_support = kK;
      o.refit_solver = "ols";
      ols += linalg::nrmse(cs::chs_reconstruct(basis, meas, o).reconstruction,
                           x);
      o.refit_solver = "gls";
      gls += linalg::nrmse(cs::chs_reconstruct(basis, meas, o).reconstruction,
                           x);
    }
    ols /= kTrials;
    gls /= kTrials;
    std::printf("[%.3f,%.2f]  %10.4f  %10.4f  %7.1f%%\n", lo, hi, ols, gls,
                100.0 * (1.0 - gls / ols));
  }
  std::printf(
      "\n# paper: identical under homogeneous noise; GLS pulls ahead as "
      "the fleet spreads across quality tiers.\n");
  return 0;
}
