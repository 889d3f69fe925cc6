// Measurement operators and sensor-noise models (eqs. 4, 7, 14).
//
// A broker in a NanoCloud selects M of the N grid points (the sensor
// locations L), commands those nodes to measure, and receives
// x_S = x(L) + w where the noise w reflects the *heterogeneous* quality of
// the phones that happened to be there.  This module carries L, builds the
// row-selected basis Phi~ of eq. 7, and models w's covariance V for the
// GLS path of eq. 12.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/random.h"

namespace sensedroid::cs {

using linalg::Matrix;
using linalg::Rng;
using linalg::Vector;

/// Per-sensor noise description.  Diagonal covariance: entry i is the
/// noise variance of the sensor at location L[i].  (Phones do not share
/// noise sources, so off-diagonal terms are zero in practice; the GLS
/// solver nevertheless accepts a full V.)
struct SensorNoise {
  Vector stddev;  ///< per-measurement noise standard deviations

  /// Homogeneous noise: every sensor has the same stddev.
  static SensorNoise homogeneous(std::size_t m, double sigma);

  /// Heterogeneous noise: stddevs drawn uniformly from [lo, hi] — the
  /// phone-quality-tier model used in experiment E5.
  static SensorNoise heterogeneous(std::size_t m, double lo, double hi,
                                   Rng& rng);

  /// Diagonal covariance matrix V.
  Matrix covariance() const;

  /// Draws one noise realization w ~ N(0, diag(stddev^2)).
  Vector sample(Rng& rng) const;

  std::size_t size() const noexcept { return stddev.size(); }
};

/// The sampling plan of a gathering round: which grid points are measured.
/// Invariant: indices are sorted, distinct, and < n.
class MeasurementPlan {
 public:
  /// Uniform random plan: M distinct locations out of N (the broker's
  /// "stochastic spatial sampling", Fig. 2).  Throws if m > n.
  static MeasurementPlan random(std::size_t n, std::size_t m, Rng& rng);

  /// Deterministic plan from explicit sorted-unique indices; validates and
  /// throws std::invalid_argument on duplicates, disorder, or range.
  static MeasurementPlan from_indices(std::size_t n,
                                      std::vector<std::size_t> indices);

  /// Evenly spaced plan (the "continuous uniform measurement" baseline the
  /// paper contrasts compressive sampling against).
  static MeasurementPlan uniform_grid(std::size_t n, std::size_t m);

  std::size_t signal_size() const noexcept { return n_; }
  std::size_t measurement_count() const noexcept { return indices_.size(); }
  std::span<const std::size_t> indices() const noexcept { return indices_; }

  /// Extracts x(L) from a full signal; throws on size mismatch.
  Vector sample_signal(std::span<const double> x) const;

  /// Row-selects a basis: Phi~ = Phi(L, :) of eq. 7.
  Matrix select_rows(const Matrix& basis) const;

 private:
  MeasurementPlan(std::size_t n, std::vector<std::size_t> idx);
  std::size_t n_ = 0;
  std::vector<std::size_t> indices_;
};

/// One complete compressive measurement: the plan, the (noisy) samples,
/// and the noise model the broker assumes when reconstructing.
struct Measurement {
  MeasurementPlan plan;
  Vector values;      ///< x_S (+ w if noisy)
  SensorNoise noise;  ///< what the broker knows about sensor quality
};

/// Takes a measurement of a full signal under a plan and noise model
/// (eq. 14: x_s + w).  The rng draws the noise realization.
/// `plan` and `noise` are by-value on purpose: they are sink parameters,
/// moved into the returned Measurement (callers that keep their copy pass
/// it explicitly; the common path hands over a temporary for free).
Measurement measure(std::span<const double> x, MeasurementPlan plan,
                    SensorNoise noise, Rng& rng);

/// Noise-free measurement.
Measurement measure_exact(std::span<const double> x, MeasurementPlan plan);

}  // namespace sensedroid::cs
