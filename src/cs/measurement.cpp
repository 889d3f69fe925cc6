#include "cs/measurement.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sensedroid::cs {

SensorNoise SensorNoise::homogeneous(std::size_t m, double sigma) {
  if (sigma < 0.0) {
    throw std::invalid_argument("SensorNoise: sigma must be non-negative");
  }
  return SensorNoise{Vector(m, sigma)};
}

SensorNoise SensorNoise::heterogeneous(std::size_t m, double lo, double hi,
                                       Rng& rng) {
  if (lo < 0.0 || hi < lo) {
    throw std::invalid_argument("SensorNoise: need 0 <= lo <= hi");
  }
  SensorNoise n;
  n.stddev.resize(m);
  for (double& s : n.stddev) s = rng.uniform(lo, hi);
  return n;
}

Matrix SensorNoise::covariance() const {
  Matrix v(stddev.size(), stddev.size());
  for (std::size_t i = 0; i < stddev.size(); ++i) {
    v(i, i) = stddev[i] * stddev[i];
  }
  return v;
}

Vector SensorNoise::sample(Rng& rng) const {
  Vector w(stddev.size());
  for (std::size_t i = 0; i < stddev.size(); ++i) {
    w[i] = stddev[i] > 0.0 ? rng.gaussian(0.0, stddev[i]) : 0.0;
  }
  return w;
}

MeasurementPlan::MeasurementPlan(std::size_t n, std::vector<std::size_t> idx)
    : n_(n), indices_(std::move(idx)) {}

MeasurementPlan MeasurementPlan::random(std::size_t n, std::size_t m,
                                        Rng& rng) {
  return MeasurementPlan(n, rng.sample_without_replacement(n, m));
}

MeasurementPlan MeasurementPlan::from_indices(
    std::size_t n, std::vector<std::size_t> indices) {
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= n) {
      throw std::invalid_argument("MeasurementPlan: index out of range");
    }
    if (i > 0 && indices[i] <= indices[i - 1]) {
      throw std::invalid_argument(
          "MeasurementPlan: indices must be strictly increasing");
    }
  }
  return MeasurementPlan(n, std::move(indices));
}

MeasurementPlan MeasurementPlan::uniform_grid(std::size_t n, std::size_t m) {
  if (m > n) {
    throw std::invalid_argument("MeasurementPlan: m must not exceed n");
  }
  std::vector<std::size_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) {
    // Spread samples across [0, n) with even spacing, first at 0.
    idx[i] = m == 0 ? 0 : (i * n) / m;
  }
  // Even spacing can collide only when m > n, excluded above.
  return MeasurementPlan(n, std::move(idx));
}

Vector MeasurementPlan::sample_signal(std::span<const double> x) const {
  if (x.size() != n_) {
    throw std::invalid_argument("MeasurementPlan: signal size mismatch");
  }
  Vector out(indices_.size());
  for (std::size_t i = 0; i < indices_.size(); ++i) out[i] = x[indices_[i]];
  return out;
}

Matrix MeasurementPlan::select_rows(const Matrix& basis) const {
  if (basis.rows() != n_) {
    throw std::invalid_argument("MeasurementPlan: basis row count mismatch");
  }
  return basis.select_rows(indices_);
}

Measurement measure(std::span<const double> x, MeasurementPlan plan,
                    SensorNoise noise, Rng& rng) {
  if (noise.size() != plan.measurement_count()) {
    throw std::invalid_argument("measure: noise/plan size mismatch");
  }
  Vector values = plan.sample_signal(x);
  const Vector w = noise.sample(rng);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] += w[i];
  return Measurement{std::move(plan), std::move(values), std::move(noise)};
}

Measurement measure_exact(std::span<const double> x, MeasurementPlan plan) {
  Vector values = plan.sample_signal(x);
  SensorNoise none = SensorNoise::homogeneous(values.size(), 0.0);
  return Measurement{std::move(plan), std::move(values), std::move(none)};
}

}  // namespace sensedroid::cs
