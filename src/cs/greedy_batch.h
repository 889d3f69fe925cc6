// The one lockstep batch driver behind omp_solve_batch (above the Gram
// gate) and cosamp_solve_batch.  Internal to cs: only the solver sources
// include it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "cs/omp.h"

namespace sensedroid::cs {

// A Run is one signal's pursuit, the same struct its sequential solver
// drives one signal at a time:
//   - needs_sweep() runs the pre-sweep checks (cancellation, tolerance,
//     budgets) and returns true when the run owes a proxy A^T r for its
//     current residual member `r`;
//   - step(proxy) advances one iteration on that proxy; it may use the
//     proxy as scratch, since no caller reads it afterwards;
//   - finish() returns the solution (OMP's also records its per-solve
//     metrics).
// Every round, the still-running signals' residuals pack into one block
// and a single A^T R GEMM (Matrix::transpose_times_block, bit-identical
// per signal to transpose_times_into) replaces the per-signal sweeps, so
// everything downstream of the sweep is the sequential code.  Results
// fold in signal order.
template <typename Run>
std::vector<SparseSolution> greedy_batch(const Matrix& a,
                                         std::vector<Run>& runs) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Vector packed;
  Vector proxies;
  std::vector<std::size_t> active;
  active.reserve(runs.size());
  while (true) {
    active.clear();
    for (std::size_t b = 0; b < runs.size(); ++b) {
      if (runs[b].needs_sweep()) active.push_back(b);
    }
    if (active.empty()) break;
    packed.resize(active.size() * m);
    proxies.resize(active.size() * n);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Vector& r = runs[active[i]].r;
      std::copy(r.begin(), r.end(), packed.begin() + i * m);
    }
    a.transpose_times_block(packed, active.size(), proxies);
    for (std::size_t i = 0; i < active.size(); ++i) {
      runs[active[i]].step(std::span<double>(proxies.data() + i * n, n));
    }
  }
  std::vector<SparseSolution> out;
  out.reserve(runs.size());
  for (Run& run : runs) out.push_back(run.finish());
  return out;
}

}  // namespace sensedroid::cs
