// Two-phase primal simplex solver for standard-form linear programs:
//
//     minimize    c^T x
//     subject to  A x = b,  x >= 0.
//
// Written from scratch because the paper's L1 reconstruction (eqs. 9-10)
// "can be re-formulated as a Linear Programming problem and solved
// efficiently"; this is that LP engine: a revised simplex over an m x m
// LU-factorized basis (linalg::UpdatableLU, Bartels-Golub column
// replacement, periodic refactorization), Dantzig or static
// steepest-edge pricing with an automatic Bland fallback after a
// degenerate-pivot streak, and warm starting from an exported basis.
// Per pivot: O(m^2) basis work + one pricing sweep — the 2n-wide
// tableau is never formed.  The original dense tableau with Bland's
// rule is the equivalence oracle in tests/support/tableau_oracle.h.
//
// simplex_solve_bp solves the basis-pursuit LP min 1^T [u; v] subject to
// [A, -A] [u; v] = y directly from the m x n dictionary: the +/- column
// pairing means the reduced costs of all 2n structural columns come from
// a single A^T w sweep through the fused kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cs/cancel.h"
#include "linalg/matrix.h"

namespace sensedroid::cs {

using linalg::Matrix;
using linalg::Vector;

/// A standard-form LP.  b may have any sign (rows are normalized
/// internally); x is implicitly constrained non-negative.
struct LpProblem {
  Matrix a;  ///< constraint matrix, M x N
  Vector b;  ///< right-hand side, length M
  Vector c;  ///< cost vector, length N
};

enum class LpStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kCancelled,
};

/// Human-readable status name.
const char* to_string(LpStatus status);

/// Entering-variable rule.  Every rule auto-falls-back to Bland after a
/// streak of degenerate pivots and returns to its own rule once progress
/// resumes — the anti-cycling guarantee without Bland's slow tail.
enum class SimplexPricing : std::uint8_t {
  kDantzig,       ///< most negative reduced cost
  kSteepestEdge,  ///< reduced cost scaled by 1/sqrt(1 + ||a_j||^2),
                  ///< static reference weights (computed once per solve)
  kBland,         ///< smallest eligible index (anti-cycling, slowest)
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  Vector x;                 ///< primal solution (valid when optimal)
  double objective = 0.0;   ///< c^T x at the solution
  std::size_t iterations = 0;
  /// Final basis, one column id per row slot: ids < N are structural,
  /// N + r is row r's artificial (possible only on redundant rows).
  /// Feed into SimplexOptions::warm_basis to warm-start a related solve.
  std::vector<std::size_t> basis;
};

struct SimplexOptions {
  std::size_t max_iterations = 0;  ///< 0 = auto (scales with problem size)
  double tol = 1e-9;               ///< pivot / feasibility tolerance
  SimplexPricing pricing = SimplexPricing::kDantzig;
  /// Refactorize the basis LU from scratch after this many
  /// Bartels-Golub updates (bounds operation-log fill; instability
  /// triggers refactorization regardless).  The default sits at the
  /// measured knee for sensing-sized bases (m ~ 30): shorter intervals
  /// waste O(m^3) refactorizations, longer ones drag every FTRAN/BTRAN
  /// through a deep operation log.
  std::size_t refactor_interval = 16;
  /// Starting basis (ids as in LpSolution::basis; empty = cold start).
  /// Accepted when it is nonsingular and primal feasible for this b —
  /// then phase 1 is skipped entirely; otherwise the solve silently
  /// falls back to a cold start.
  std::vector<std::size_t> warm_basis;
  /// Cooperative cancellation, polled once per pivot; returns
  /// LpStatus::kCancelled.  nullptr = never cancel.
  const CancelToken* cancel = nullptr;
};

/// Solves the LP.  Throws std::invalid_argument on shape mismatches.
LpSolution simplex_solve(const LpProblem& problem,
                         const SimplexOptions& opts = {});

/// Solves the basis-pursuit LP min 1^T [u; v] s.t. [A, -A][u; v] = y with
/// u, v >= 0, where `a` is the m x n dictionary.  The returned x has
/// length 2n (u first, then v); basis ids live in [0, 2n + m).  All 2n
/// columns are priced from one A^T w sweep; the doubled matrix is never
/// materialized.  Throws std::invalid_argument on shape mismatches.
LpSolution simplex_solve_bp(const Matrix& a, std::span<const double> y,
                            const SimplexOptions& opts = {});

}  // namespace sensedroid::cs
