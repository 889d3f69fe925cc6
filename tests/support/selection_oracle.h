// Reference batch selection for the differential tests: step (c) of the
// CHS loop as it ran before cs::select_batch, kept verbatim — a full
// std::sort of the ascending candidate list by descending |alpha|, whose
// first `take` entries are the batch.  cs::select_batch must pick the
// same set on every input, ties included.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
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

}  // namespace sensedroid::test_support
