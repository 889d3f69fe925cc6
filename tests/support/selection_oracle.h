// Reference batch selection for the differential tests: step (c) of the
// CHS loop as it ran before cs::select_batch and cs::pick_batch, kept
// verbatim — the largest |alpha| off the support, the ascending list of
// atoms at least `significance` times it, a full std::sort of that list
// by descending |alpha|, and its first `take` entries as the batch.
// cs::select_batch and cs::pick_batch must pick the same set on every
// input, ties included.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sensedroid::test_support {

/// The batch a full sort picks, returned ascending by index (CHS sorts
/// each batch by index before appending it, so only the set matters).
/// `candidates` must be strictly ascending, as CHS collects them.
inline std::vector<std::size_t> oracle_select_batch(
    std::vector<std::size_t> candidates, std::span<const double> alpha,
    std::size_t take) {
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              return std::abs(alpha[a]) > std::abs(alpha[b]);
            });
  candidates.resize(std::min(take, candidates.size()));
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

/// The whole of step (c): the batch of at most `want` atoms off the
/// support (in_support[j] != 0), ascending by index; empty where the
/// loop stops (the largest |alpha| off the support is 0, or no atom is
/// eligible).
inline std::vector<std::size_t> oracle_pick_batch(
    std::span<const double> alpha, std::span<const std::uint8_t> in_support,
    double significance, std::size_t want) {
  const std::size_t n = alpha.size();
  double max_mag = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (!in_support[j]) max_mag = std::max(max_mag, std::abs(alpha[j]));
  }
  if (max_mag == 0.0) return {};  // residual orthogonal to every new atom

  std::vector<std::size_t> candidates;
  for (std::size_t j = 0; j < n; ++j) {
    if (!in_support[j] && std::abs(alpha[j]) >= significance * max_mag) {
      candidates.push_back(j);
    }
  }
  const std::size_t take = std::min(candidates.size(), want);
  return oracle_select_batch(std::move(candidates), alpha, take);
}

}  // namespace sensedroid::test_support
