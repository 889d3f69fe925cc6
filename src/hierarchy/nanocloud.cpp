#include "hierarchy/nanocloud.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "cs/measurement.h"
#include "linalg/vector_ops.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::hierarchy {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
constexpr middleware::NodeId kBrokerId = 1'000'000;

// The zone basis.  Every branch consumes the same rng draws — one basis
// seed unless the basis is the separable 2-D DCT — so a campaign sharing
// the basis across zones sees identical node layouts, tiers, and noise
// streams downstream.
std::shared_ptr<const linalg::Basis> make_zone_basis(
    const field::SpatialField& truth, const NanoCloudConfig& config, Rng& rng,
    std::shared_ptr<const linalg::Basis> shared) {
  const bool separable =
      config.basis == linalg::BasisKind::kDct && config.separable_2d;
  const std::uint64_t seed = separable ? 0 : rng.next_u64();
  if (shared != nullptr) {
    // A factored basis of the right size but the transposed shape would
    // analyze a transposed grid, so its factors must match too.
    if (shared->size() != truth.size() ||
        (shared->factored() && (shared->outer().rows() != truth.width() ||
                                shared->inner().rows() != truth.height()))) {
      throw std::invalid_argument(
          "NanoCloud: shared basis does not match the zone shape");
    }
    return shared;
  }
  return std::make_shared<const linalg::Basis>(
      separable ? linalg::dct2_factored(truth.width(), truth.height())
                : linalg::Basis(
                      linalg::make_basis(config.basis, truth.size(), seed)));
}

}  // namespace

std::shared_ptr<const linalg::Basis> shared_zone_basis(
    const field::SpatialField& zone, const NanoCloudConfig& config) {
  switch (config.basis) {
    case linalg::BasisKind::kDct:
      if (config.separable_2d) {
        return std::make_shared<const linalg::Basis>(
            linalg::dct2_factored(zone.width(), zone.height()));
      }
      [[fallthrough]];
    case linalg::BasisKind::kHaar:
    case linalg::BasisKind::kIdentity:
      return std::make_shared<const linalg::Basis>(
          linalg::make_basis(config.basis, zone.size()));
    case linalg::BasisKind::kGaussian:
    case linalg::BasisKind::kPca:
      break;
  }
  return nullptr;
}

NanoCloud::NanoCloud(const field::SpatialField& truth,
                     const NanoCloudConfig& config, Rng& rng,
                     std::shared_ptr<const linalg::Basis> shared_basis)
    : truth_(&truth),
      config_(config),
      broker_(kBrokerId,
              {truth.width() * config.cell_m / 2.0,
               truth.height() * config.cell_m / 2.0}),
      basis_(make_zone_basis(truth, config, rng, std::move(shared_basis))) {
  if (config_.basis == linalg::BasisKind::kDct && config_.separable_2d) {
    config_.chs.grid_height = truth.height();
  }
  if (truth.size() == 0) {
    throw std::invalid_argument("NanoCloud: empty zone");
  }
  if (config.coverage < 0.0 || config.coverage > 1.0) {
    throw std::invalid_argument("NanoCloud: coverage must be in [0, 1]");
  }
  if (config.opt_out_fraction < 0.0 || config.opt_out_fraction > 1.0) {
    throw std::invalid_argument(
        "NanoCloud: opt_out_fraction must be in [0, 1]");
  }
  if (config.battery_capacity_j < 0.0) {
    throw std::invalid_argument("NanoCloud: negative battery capacity");
  }
  broker_.set_retry_policy(config_.retry);  // validates; throws when bad
  broker_.set_fault_injector(config_.injector, config_.zone_id);

  // Battery sabotage applies to phones only: backfill sensors are
  // mains-powered infrastructure.
  const bool battery_sabotage = config_.injector != nullptr &&
                                config_.injector->plan().battery.enabled();

  cell_to_node_.assign(truth.size(), kNpos);
  const auto flat = truth.flat();
  constexpr sensing::QualityTier kTiers[] = {sensing::QualityTier::kFlagship,
                                             sensing::QualityTier::kMidrange,
                                             sensing::QualityTier::kBudget};
  middleware::NodeId next_id = 1;

  for (std::size_t cell = 0; cell < truth.size(); ++cell) {
    const bool phone_here = rng.bernoulli(config.coverage);
    const bool backfill = !phone_here && config.infrastructure_backfill;
    if (!phone_here && !backfill) continue;

    const auto coord = truth.coord_of(cell);
    const sim::Point pos{
        (static_cast<double>(coord.j) + 0.5) * config.cell_m,
        (static_cast<double>(coord.i) + 0.5) * config.cell_m};
    const double capacity_j =
        (battery_sabotage && !backfill)
            ? config_.injector->plan().battery.capacity_override_j
            : config.battery_capacity_j;
    middleware::MobileNode node(next_id++, pos,
                                sim::LinkModel::of(sim::RadioKind::kWiFi),
                                sim::Battery(capacity_j));
    if (!backfill && rng.bernoulli(config.opt_out_fraction)) {
      node.policy().set_opted_out(true);
    }
    // Infrastructure sensors are wired and flagship-grade; phones draw a
    // random quality tier.
    const auto tier = backfill ? sensing::QualityTier::kFlagship
                               : kTiers[rng.uniform_index(3)];
    const double value = flat[cell];
    sensing::SimulatedSensor sensor(
        config.sensor, tier, [value](std::size_t) { return value; },
        rng.next_u64());
    // Phone sensors can be defective (stuck/drifting/spiking) per the
    // fault plan; maintained infrastructure hardware stays healthy.
    if (!backfill && config_.injector != nullptr) {
      auto hook = config_.injector->sensor_hook(
          node.id(), sensor.noise_sigma(), config_.zone_id);
      if (hook) sensor.set_read_hook(std::move(hook));
    }
    node.add_sensor(std::move(sensor));
    broker_.enroll(node);
    cell_to_node_[cell] = nodes_.size();
    covered_.push_back(cell);
    nodes_.push_back(std::move(node));
  }
}

GatherResult NanoCloud::gather(std::size_t m, Rng& rng) {
  if (m == 0) {
    throw std::invalid_argument("NanoCloud::gather: m must be positive");
  }
  obs::ScopedSpan span("hier.nanocloud.gather");
  m = std::min(m, covered_.size());
  // Random spatial sampling over covered cells.
  std::vector<std::size_t> picked_idx =
      rng.sample_without_replacement(covered_.size(), m);
  std::vector<std::size_t> cells;
  cells.reserve(m);
  for (std::size_t i : picked_idx) cells.push_back(covered_[i]);

  GatherResult out;
  out.m_requested = m;

  // Failover: when the fault plan has crashed this zone's broker, a
  // member node is promoted to stand-in head for the round.
  middleware::Broker* head = &broker_;
  std::optional<middleware::Broker> standin;
  if (config_.injector != nullptr &&
      config_.injector->broker_down(config_.zone_id)) {
    middleware::MobileNode* promoted = elect_standin(out);
    if (promoted == nullptr) {
      // Nobody can take over: the round is lost entirely.
      return reconstruct_readings({}, std::move(out), /*compressive=*/true);
    }
    standin.emplace(kBrokerId + promoted->id(), promoted->position(),
                    promoted->link());
    standin->set_retry_policy(config_.retry);
    standin->set_fault_injector(config_.injector, config_.zone_id);
    head = &*standin;
    out.failed_over = true;
    out.degraded = true;
  }

  auto readings = collect_cells(*head, cells, rng, out);

  // Top-up: replace silent cells with fresh covered cells until the
  // budget is met, the round allowance runs out, or the pool drains.
  if (config_.topup_rounds > 0 && readings.size() < m) {
    std::vector<char> tried(covered_.size(), 0);
    for (std::size_t i : picked_idx) tried[i] = 1;
    for (std::size_t round = 0;
         round < config_.topup_rounds && readings.size() < m; ++round) {
      std::vector<std::size_t> pool;
      for (std::size_t i = 0; i < covered_.size(); ++i) {
        if (!tried[i]) pool.push_back(i);
      }
      if (pool.empty()) break;
      const std::size_t deficit =
          std::min(m - readings.size(), pool.size());
      std::vector<std::size_t> extra_sel =
          rng.sample_without_replacement(pool.size(), deficit);
      std::vector<std::size_t> extra_cells;
      extra_cells.reserve(deficit);
      for (std::size_t j : extra_sel) {
        tried[pool[j]] = 1;
        extra_cells.push_back(covered_[pool[j]]);
      }
      const auto extra = collect_cells(*head, extra_cells, rng, out);
      out.stats.topup_requests += extra_cells.size();
      out.stats.topup_replies += extra.size();
      obs::fr_record(obs::FrEvent::kTopup, config_.zone_id,
                     static_cast<double>(extra.size()));
      if (obs::attached()) {
        obs::add_counter("mw.topup.requests",
                         static_cast<double>(extra_cells.size()));
        obs::add_counter("mw.topup.replies",
                         static_cast<double>(extra.size()));
      }
      readings.insert(readings.end(), extra.begin(), extra.end());
    }
  }

  return reconstruct_readings(readings, std::move(out),
                              /*compressive=*/true);
}

GatherResult NanoCloud::gather_dense(Rng& rng) {
  obs::ScopedSpan span("hier.nanocloud.gather");
  GatherResult out;
  out.m_requested = covered_.size();
  const auto readings = collect_cells(broker_, covered_, rng, out);
  return reconstruct_readings(readings, std::move(out),
                              /*compressive=*/false);
}

std::vector<middleware::Reading> NanoCloud::collect_cells(
    middleware::Broker& head, const std::vector<std::size_t>& cells,
    Rng& rng, GatherResult& out) {
  std::vector<middleware::MobileNode*> targets;
  targets.reserve(cells.size());
  for (std::size_t cell : cells) {
    targets.push_back(&nodes_[cell_to_node_[cell]]);
  }
  // Only the commanded nodes spend energy in a collect.
  const auto targets_energy_j = [&targets] {
    double total = 0.0;
    for (const auto* node : targets) total += node->meter().total_j();
    return total;
  };
  const double node_energy_before = targets_energy_j();
  auto readings = head.collect(targets, config_.sensor,
                               /*sample_index=*/0, rng, &out.stats);
  out.virtual_s += head.last_round_virtual_s();
  out.node_energy_j += targets_energy_j() - node_energy_before;
  out.m_used += readings.size();
  if (obs::attached()) {
    obs::add_counter("hier.nanocloud.nodes_commanded",
                     static_cast<double>(cells.size()));
    obs::add_counter("hier.nanocloud.replies",
                     static_cast<double>(readings.size()));
  }
  return readings;
}

middleware::MobileNode* NanoCloud::elect_standin(GatherResult& out) {
  for (auto& cand : nodes_) {
    if (cand.policy().opted_out()) continue;
    if (cand.battery().depleted()) continue;
    if (config_.injector != nullptr &&
        !config_.injector->node_present(cand.id())) {
      continue;
    }
    // Election broadcast: the stand-in announces itself to every member
    // (one command-sized frame each) before the round proceeds.
    const std::size_t announce = nodes_.size();
    for (std::size_t j = 0; j < announce; ++j) {
      cand.pay_tx(middleware::Broker::kCommandBytes);
    }
    out.stats.bytes_transferred +=
        middleware::Broker::kCommandBytes * announce;
    if (obs::attached()) obs::add_counter("fault.failover.promotions");
    obs::fr_record(obs::FrEvent::kFailover, config_.zone_id,
                   static_cast<double>(cand.id()));
    return &cand;
  }
  return nullptr;  // every member is gone, dead, or opted out
}

GatherResult NanoCloud::reconstruct_readings(
    const std::vector<middleware::Reading>& readings, GatherResult out,
    bool compressive) {
  if (obs::attached()) obs::add_counter("hier.nanocloud.rounds");

  // Build the measurement from the cells whose readings survived.
  // Readings come back in command order; map node -> cell.
  std::vector<std::size_t> got_cells;
  linalg::Vector values;
  linalg::Vector sigmas;
  got_cells.reserve(readings.size());
  for (const auto& r : readings) {
    // Node ids were assigned in covered-cell order starting at 1.
    const std::size_t node_idx = r.node - 1;
    got_cells.push_back(covered_[node_idx]);
    values.push_back(r.value);
    sigmas.push_back(r.sigma);
  }
  // Sort jointly by cell index (MeasurementPlan requires ascending).
  std::vector<std::size_t> order(got_cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return got_cells[a] < got_cells[b];
  });
  std::vector<std::size_t> sorted_cells(order.size());
  linalg::Vector sorted_values(order.size());
  linalg::Vector sorted_sigmas(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted_cells[i] = got_cells[order[i]];
    sorted_values[i] = values[order[i]];
    sorted_sigmas[i] = sigmas[order[i]];
  }

  const std::size_t n = truth_->size();
  if (sorted_cells.empty()) {
    out.reconstruction = field::SpatialField(truth_->width(),
                                             truth_->height());
    out.nrmse = field::field_nrmse(out.reconstruction, *truth_);
    return out;
  }

  auto plan = cs::MeasurementPlan::from_indices(n, sorted_cells);
  cs::Measurement meas{std::move(plan), std::move(sorted_values),
                       cs::SensorNoise{std::move(sorted_sigmas)}};

  linalg::Vector full;
  if (compressive) {
    const auto res = cs::chs_reconstruct(*basis_, meas, config_.chs);
    full = res.reconstruction;
    out.support_size = res.support.size();
    out.outliers_rejected = res.outliers_rejected;
    if (res.degraded) out.degraded = true;
  } else {
    // Dense baseline: no model, just interpolate the raw readings onto
    // the grid.
    full = cs::interpolate_to_grid(meas.values, meas.plan.indices(), n,
                                   cs::Interpolation::kLinear);
    out.support_size = meas.values.size();
  }
  out.reconstruction =
      field::SpatialField::from_vector(truth_->width(), truth_->height(),
                                       full);
  out.nrmse = field::field_nrmse(out.reconstruction, *truth_);
  obs::observe("hier.nanocloud.nrmse", out.nrmse);
  return out;
}

GatherResult NanoCloud::shed_result(std::size_t m_requested) const {
  GatherResult out;
  out.m_requested = std::min(m_requested, covered_.size());
  out.shed = true;
  out.reconstruction =
      field::SpatialField(truth_->width(), truth_->height());
  out.nrmse = field::field_nrmse(out.reconstruction, *truth_);
  return out;
}

double NanoCloud::total_node_energy_j() const noexcept {
  double total = 0.0;
  for (const auto& n : nodes_) total += n.meter().total_j();
  return total;
}

std::size_t NanoCloud::basis_state_bytes() const noexcept {
  return basis_->state_bytes();
}

}  // namespace sensedroid::hierarchy
