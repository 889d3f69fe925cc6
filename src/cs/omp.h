// Orthogonal Matching Pursuit (Tropp & Gilbert), the solver the paper
// recommends for the sparse-regression form of reconstruction (eq. 13):
//   min ||y - A alpha||_2^2  s.t.  ||alpha||_0 <= K.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cs/cancel.h"
#include "linalg/matrix.h"

namespace sensedroid::cs {

using linalg::Matrix;
using linalg::Vector;

/// Knobs for OMP; defaults match the paper's usage (run to the sparsity
/// budget unless the residual dies first).
struct OmpOptions {
  std::size_t max_sparsity = 0;  ///< K; 0 means min(rows, cols)
  double residual_tol = 1e-9;    ///< stop when ||r||_2 <= tol * ||y||_2
  /// Stop early if adding the best new atom no longer reduces the
  /// residual meaningfully (guards against noise fitting).
  double min_improvement = 0.0;
  /// Cooperative cancellation, polled once per greedy iteration; the
  /// partial solution built so far is returned.  nullptr = never cancel.
  const CancelToken* cancel = nullptr;
};

/// Result of a greedy sparse solve.
struct SparseSolution {
  Vector coefficients;                ///< full-length alpha (N), zeros off-support
  std::vector<std::size_t> support;   ///< selected column indices J, in pick order
  double residual_norm = 0.0;         ///< final ||y - A alpha||_2
  /// Greedy iterations actually performed, including a final iteration
  /// whose atom was rejected by min_improvement — i.e. work done, not
  /// atoms kept.  Accepted atoms = support.size().
  std::size_t iterations = 0;
};

/// Solves eq. 13 greedily: pick the column most correlated with the
/// residual, refit all picked coefficients by least squares, repeat.
/// A is M x N with M <= N typically; y has size M.
/// Throws std::invalid_argument on size mismatch or empty inputs.
SparseSolution omp_solve(const Matrix& a, std::span<const double> y,
                         const OmpOptions& opts = {});

/// Batch OMP over `ys.size()` signals sharing one dictionary.  For
/// dictionaries whose Gram matrix fits in cache budget, each signal's
/// pursuit runs in coefficient space (Rubinstein-style Batch-OMP): one
/// blocked A^T Y GEMM up front, a progressive Cholesky of G_SS, O(nk)
/// correlation updates in place of O(nm) sweeps, and one final
/// back-substitution for the coefficients; the reported residual_norm
/// is recomputed exactly from y - A_S alpha.  That path's supports match
/// the sequential solves except on near-exact correlation ties, and its
/// coefficients and residual_norm agree to ~1e-12 (same least-squares
/// problem, different arithmetic).  Above the Gram budget every signal
/// runs omp_solve's own pursuit, with each lockstep round's correlation
/// sweeps shared through one blocked GEMM: bit for bit the sequential
/// result.  Each signal's output is a deterministic function of
/// (a, y, opts) alone for any batch of two or more, so chunking a
/// workload into batches never changes a result bit (a batch of one
/// routes through omp_solve).  Returns one solution per signal, in
/// order.
std::vector<SparseSolution> omp_solve_batch(const Matrix& a,
                                            std::span<const Vector> ys,
                                            const OmpOptions& opts = {});

/// Reconstructs a full N-length signal from a sparse coefficient solution
/// in a given synthesis basis: x_hat = Phi alpha.
Vector reconstruct(const Matrix& basis, const SparseSolution& sol);

}  // namespace sensedroid::cs
