// Reference Upsilon for the differential tests: the per-call
// interpolation CHS ran on every Fig. 6 iteration before Upsilon became a
// per-solve stencil, kept verbatim.  cs::Upsilon must match it bit for
// bit on every valid input.  It does not validate locations; callers pass
// strictly ascending locations < n.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>

#include "cs/chs.h"
#include "linalg/matrix.h"

namespace sensedroid::test_support {

namespace sc = sensedroid::cs;
namespace sl = sensedroid::linalg;

inline sl::Vector oracle_interpolate_to_grid(
    std::span<const double> values, std::span<const std::size_t> locations,
    std::size_t n, sc::Interpolation kind) {
  if (values.size() != locations.size()) {
    throw std::invalid_argument("oracle_interpolate_to_grid: size mismatch");
  }
  sl::Vector out(n, 0.0);
  if (values.empty()) return out;
  const std::size_t m = values.size();

  switch (kind) {
    case sc::Interpolation::kZeroFill:
      for (std::size_t i = 0; i < m; ++i) out[locations[i]] = values[i];
      return out;

    case sc::Interpolation::kNearest: {
      std::size_t j = 0;  // index of nearest-on-the-left sample
      for (std::size_t g = 0; g < n; ++g) {
        while (j + 1 < m && locations[j + 1] <= g) ++j;
        std::size_t pick = j;
        if (j + 1 < m) {
          const std::size_t dl = g >= locations[j] ? g - locations[j]
                                                   : locations[j] - g;
          const std::size_t dr = locations[j + 1] - g;
          if (dr < dl) pick = j + 1;
        }
        out[g] = values[pick];
      }
      return out;
    }

    case sc::Interpolation::kLinear: {
      for (std::size_t g = 0; g < n; ++g) {
        if (g <= locations.front()) {
          out[g] = values.front();
        } else if (g >= locations.back()) {
          out[g] = values.back();
        } else {
          // Find the bracketing pair (locations sorted).
          const auto it =
              std::upper_bound(locations.begin(), locations.end(), g);
          const std::size_t hi = static_cast<std::size_t>(
              std::distance(locations.begin(), it));
          const std::size_t lo = hi - 1;
          const double t = static_cast<double>(g - locations[lo]) /
                           static_cast<double>(locations[hi] - locations[lo]);
          out[g] = (1.0 - t) * values[lo] + t * values[hi];
        }
      }
      return out;
    }
  }
  throw std::invalid_argument("oracle_interpolate_to_grid: unknown kind");
}

inline sl::Vector oracle_interpolate_to_grid_2d(
    std::span<const double> values, std::span<const std::size_t> locations,
    std::size_t n, std::size_t height, sc::Interpolation kind) {
  if (values.size() != locations.size()) {
    throw std::invalid_argument("oracle_interpolate_to_grid_2d: size mismatch");
  }
  if (height == 0 || n % height != 0) {
    throw std::invalid_argument(
        "oracle_interpolate_to_grid_2d: height must divide n");
  }
  if (kind == sc::Interpolation::kZeroFill || values.empty()) {
    return oracle_interpolate_to_grid(values, locations, n,
                                      sc::Interpolation::kZeroFill);
  }
  const std::size_t m = values.size();
  sl::Vector out(n, 0.0);
  for (std::size_t g = 0; g < n; ++g) {
    const double gi = static_cast<double>(g % height);
    const double gj = static_cast<double>(g / height);
    if (kind == sc::Interpolation::kNearest) {
      double best_d2 = 1e300;
      double best_v = 0.0;
      for (std::size_t s = 0; s < m; ++s) {
        const double di = static_cast<double>(locations[s] % height) - gi;
        const double dj = static_cast<double>(locations[s] / height) - gj;
        const double d2 = di * di + dj * dj;
        if (d2 < best_d2) {
          best_d2 = d2;
          best_v = values[s];
        }
      }
      out[g] = best_v;
    } else {  // kLinear: inverse-distance blend of the 4 nearest samples
      constexpr std::size_t kNeighbors = 4;
      std::array<double, kNeighbors> nd2;
      std::array<double, kNeighbors> nv;
      nd2.fill(1e300);
      nv.fill(0.0);
      for (std::size_t s = 0; s < m; ++s) {
        const double di = static_cast<double>(locations[s] % height) - gi;
        const double dj = static_cast<double>(locations[s] / height) - gj;
        double d2 = di * di + dj * dj;
        double v = values[s];
        // Insertion into the small sorted neighbor set.
        for (std::size_t r = 0; r < kNeighbors; ++r) {
          if (d2 < nd2[r]) {
            std::swap(d2, nd2[r]);
            std::swap(v, nv[r]);
          }
        }
      }
      if (nd2[0] <= 1e-12) {
        out[g] = nv[0];  // exactly on a sample
      } else {
        double wsum = 0.0, acc = 0.0;
        for (std::size_t r = 0; r < kNeighbors && nd2[r] < 1e300; ++r) {
          const double w = 1.0 / nd2[r];  // inverse squared distance
          acc += w * nv[r];
          wsum += w;
        }
        out[g] = wsum > 0.0 ? acc / wsum : 0.0;
      }
    }
  }
  return out;
}

}  // namespace sensedroid::test_support
