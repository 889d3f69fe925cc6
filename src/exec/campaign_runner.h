// Deterministic parallel campaign execution (DESIGN.md §9).
//
// A LocalCloud round is embarrassingly parallel — each zone's gather is
// an independent NanoCloud simulation.  The runner adds nothing to the
// round itself: LocalCloud::gather is the one round engine, and the
// runner hands it exec::fan_out over a pool.  Determinism rests on
// three rules:
//
//   1. Seeding: the engine forks one Rng per zone from the campaign Rng,
//      in zone order, before any zone runs.  Zone z's stream is a pure
//      function of (campaign rng state, z) — never of scheduling.
//   2. Journals: each zone task records its metric-helper calls in its
//      own obs::MetricJournal and its spans in its own trace shard, so
//      nothing floating-point is shared across concurrent zones.  The
//      fault injector's streams are already keyed per zone / per node
//      (fault.h).
//   3. Replay: after ALL tasks complete, journals are replayed and trace
//      shards merged in ascending zone order, then the engine folds
//      results in zone order — the same writes, in the same order, as
//      the inline engine makes directly.
//
// Headline invariant (enforced by tests/test_exec.cpp): a campaign run
// inline (LocalCloud::gather with no pool), with 1 worker, and with N
// workers from the same seed produces byte-identical deterministic
// RunReports (RunReport::from_registry(reg, name,
// /*include_wall_clock=*/false)).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cs/chs.h"
#include "cs/solver.h"
#include "exec/thread_pool.h"
#include "hierarchy/localcloud.h"

namespace sensedroid::exec {

/// Drives one LocalCloud's rounds through a ThreadPool, one task per
/// admitted zone.  Non-owning: the cloud and pool must outlive the
/// runner.  The runner is the only writer to the cloud while a round is
/// in flight — zones never touch each other's NanoCloud state, which is
/// what makes the per-zone fan-out sound.
class ParallelCampaignRunner {
 public:
  ParallelCampaignRunner(hierarchy::LocalCloud& cloud, ThreadPool& pool)
      : cloud_(&cloud), pool_(&pool) {}

  /// LocalCloud::gather with the zone gathers fanned across the pool.
  /// Results and metrics equal the inline engine's at any worker count.
  /// `decisions` must cover zone ids 0..Z-1 exactly (throws
  /// std::invalid_argument).  A zone task that throws is rethrown here
  /// after every other zone of the round has finished (first zone in
  /// index order wins).
  hierarchy::RegionalResult run_round(
      const std::vector<hierarchy::ZoneDecision>& decisions,
      linalg::Rng& rng);

  /// Uniform budget per zone, like LocalCloud::gather_uniform.
  hierarchy::RegionalResult run_round_uniform(
      std::size_t measurements_per_zone, linalg::Rng& rng);

  std::size_t zone_count() const noexcept { return cloud_->zone_count(); }
  std::size_t worker_count() const noexcept { return pool_->worker_count(); }

 private:
  hierarchy::LocalCloud* cloud_;
  ThreadPool* pool_;
};

/// Fans independent CHS reconstructions (shared basis and options)
/// across the pool.  Signals are grouped into contiguous task batches of
/// `batch_size` (a scheduling knob only: each signal still solves
/// sequentially inside its task, amortizing the per-task overhead that
/// dominated at one-task-per-signal).  fan_out replays the batches'
/// metric journals in batch order, which visits signals in index order,
/// so the output and the metrics equal a sequential chs_reconstruct loop
/// at any worker count AND any batch size.  Signal i's solve must not
/// depend on signal j's (chs_reconstruct is stateless, so it doesn't).
/// A solve that throws is rethrown after every task completes.
std::vector<cs::ChsResult> chs_reconstruct_batch(
    ThreadPool& pool, const linalg::Matrix& basis,
    std::span<const cs::Measurement> signals, const cs::ChsOptions& opts,
    std::size_t batch_size = 8);

/// Fans a solver's batch API across the pool: `ys` splits into
/// contiguous chunks of `batch_size`, each chunk runs one
/// SparseSolver::solve_batch task against the shared dictionary (so the
/// greedy solvers' correlation sweeps become per-chunk GEMMs), and
/// results plus metric journals reduce in chunk order — the same
/// results and metrics as a sequential loop of solve_batch over the
/// chunks.  ctx.metrics, when set, receives the replayed journals
/// (tasks never bind it directly — sharing one registry across
/// concurrent chunks would race); otherwise the calling thread's sink
/// does.  A chunk that throws is rethrown after every task completes.
std::vector<cs::SparseSolution> solve_batch_parallel(
    ThreadPool& pool, const cs::SparseSolver& solver,
    const linalg::Matrix& a, std::span<const linalg::Vector> ys,
    const cs::SolveContext& ctx, std::size_t batch_size = 64);

}  // namespace sensedroid::exec
