#include "exec/campaign_runner.h"

#include <algorithm>
#include <optional>

#include "obs/metrics.h"

namespace sensedroid::exec {

namespace {

hierarchy::FanOut pool_fan_out(ThreadPool& pool) {
  return [&pool](std::size_t n,
                 const std::function<void(std::size_t)>& task) {
    fan_out(pool, n, task);
  };
}

}  // namespace

hierarchy::RegionalResult ParallelCampaignRunner::run_round(
    const std::vector<hierarchy::ZoneDecision>& decisions,
    linalg::Rng& rng) {
  return cloud_->gather(decisions, rng, pool_fan_out(*pool_));
}

hierarchy::RegionalResult ParallelCampaignRunner::run_round_uniform(
    std::size_t measurements_per_zone, linalg::Rng& rng) {
  return cloud_->gather_uniform(measurements_per_zone, rng,
                                pool_fan_out(*pool_));
}

std::vector<cs::ChsResult> chs_reconstruct_batch(
    ThreadPool& pool, const linalg::Matrix& basis,
    std::span<const cs::Measurement> signals, const cs::ChsOptions& opts,
    std::size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  std::vector<cs::ChsResult> results(signals.size());
  fan_out(pool, (signals.size() + batch_size - 1) / batch_size,
          [&](std::size_t t) {
            const std::size_t end =
                std::min(signals.size(), (t + 1) * batch_size);
            for (std::size_t i = t * batch_size; i < end; ++i) {
              results[i] = cs::chs_reconstruct(basis, signals[i], opts);
            }
          });
  return results;
}

std::vector<cs::SparseSolution> solve_batch_parallel(
    ThreadPool& pool, const cs::SparseSolver& solver,
    const linalg::Matrix& a, std::span<const linalg::Vector> ys,
    const cs::SolveContext& ctx, std::size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  // An explicit context sink becomes the calling thread's sink for the
  // fan-out, so the chunks' journals replay into it; the tasks
  // themselves journal instead of binding it.
  std::optional<obs::ScopedMetricShard> bind;
  if (ctx.metrics != nullptr) bind.emplace(ctx.metrics);
  cs::SolveContext task_ctx = ctx;
  task_ctx.metrics = nullptr;

  std::vector<cs::SparseSolution> results(ys.size());
  fan_out(pool, (ys.size() + batch_size - 1) / batch_size,
          [&](std::size_t t) {
            const std::size_t start = t * batch_size;
            const std::size_t count = std::min(batch_size, ys.size() - start);
            auto chunk =
                solver.solve_batch(a, ys.subspan(start, count), task_ctx);
            std::move(chunk.begin(), chunk.end(), results.begin() + start);
          });
  return results;
}

}  // namespace sensedroid::exec
