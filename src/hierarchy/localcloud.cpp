#include "hierarchy/localcloud.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::hierarchy {

ZoneSeries::ZoneSeries(std::uint32_t zone)
    : labels{{"zone", std::to_string(zone)}} {}

LocalCloud::LocalCloud(const field::SpatialField& truth,
                       const field::ZoneGrid& grid,
                       const NanoCloudConfig& nc_config, Rng& rng,
                       sim::LinkModel uplink)
    : truth_(&truth), grid_(grid), uplink_(uplink) {
  if (truth.width() != grid.field_width() ||
      truth.height() != grid.field_height()) {
    throw std::invalid_argument("LocalCloud: grid/field shape mismatch");
  }
  clouds_.reserve(grid.zone_count());
  zone_truths_.reserve(grid.zone_count());
  zone_series_.reserve(grid.zone_count());
  for (std::size_t id = 0; id < grid.zone_count(); ++id) {
    zone_truths_.push_back(grid.extract(truth, id));
  }
  // One immutable analytic basis per zone shape, read by every zone of
  // that shape.  The config is the same for every zone, so the shape is
  // the whole key; kinds a zone must build itself come back null.
  std::map<std::pair<std::size_t, std::size_t>,
           std::shared_ptr<const linalg::Basis>>
      bases;
  for (std::size_t id = 0; id < grid.zone_count(); ++id) {
    const field::SpatialField& zone = zone_truths_[id];
    const auto key = std::make_pair(zone.width(), zone.height());
    auto it = bases.find(key);
    if (it == bases.end()) {
      it = bases.emplace(key, shared_zone_basis(zone, nc_config)).first;
    }
    NanoCloudConfig zone_config = nc_config;
    zone_config.zone_id = static_cast<std::uint32_t>(id);
    clouds_.emplace_back(zone, zone_config, rng, it->second);
    zone_series_.emplace_back(zone_config.zone_id);
  }
}

RegionalResult LocalCloud::gather(const std::vector<ZoneDecision>& decisions,
                                  Rng& rng, const FanOut& fan_out) {
  const std::size_t z = clouds_.size();
  if (decisions.size() != z) {
    throw std::invalid_argument("LocalCloud::gather: decision count mismatch");
  }
  std::vector<std::size_t> budget(z, 0);
  std::vector<bool> seen(z, false);
  for (const auto& d : decisions) {
    if (d.zone_id >= z || seen[d.zone_id]) {
      throw std::invalid_argument("LocalCloud::gather: bad zone ids");
    }
    seen[d.zone_id] = true;
    budget[d.zone_id] = std::max<std::size_t>(d.measurements, 1);
  }

  obs::ScopedSpan span("hier.localcloud.gather");

  // One regional round = one fault round: churn and crash windows evolve
  // here, not per zone, so every zone sees the same fault epoch.  It runs
  // before any zone task exists (begin_round must not race in-round
  // queries — fault.h's one threading caveat).
  if (z > 0 && clouds_.front().config().injector != nullptr) {
    clouds_.front().config().injector->begin_round();
  }

  // Admission plan before any zone runs.  With no guard (or a disabled
  // one) the plan is empty and every zone runs.
  std::vector<fault::ZoneAdmission> plan;
  if (guard_ != nullptr && guard_->enabled()) plan = guard_->plan_round();
  const auto admitted = [&plan](std::size_t id) {
    return plan.empty() || plan[id] == fault::ZoneAdmission::kRun ||
           plan[id] == fault::ZoneAdmission::kProbe;
  };

  // Seeding: each zone's stream is a pure function of (rng state, zone
  // id), never of scheduling.  A shed zone's fork is never drawn from.
  std::vector<Rng> forks;
  forks.reserve(z);
  for (std::size_t id = 0; id < z; ++id) forks.push_back(rng.fork());

  std::vector<std::size_t> runs;
  for (std::size_t id = 0; id < z; ++id) {
    if (admitted(id)) runs.push_back(id);
  }
  std::vector<GatherResult> results(z);
  const auto task = [&](std::size_t i) {
    const std::size_t id = runs[i];
    const auto t0 = std::chrono::steady_clock::now();
    results[id] = clouds_[id].gather(budget[id], forks[id]);
    if (obs::attached()) {
      const auto dt = std::chrono::steady_clock::now() - t0;
      ZoneSeries& zs = zone_series_[id];
      obs::observe(zs.gather_us, "hier.zone.gather_us", zs.labels,
                   std::chrono::duration<double, std::micro>(dt).count());
    }
  };
  if (fan_out) {
    fan_out(runs.size(), task);
  } else {
    for (std::size_t i = 0; i < runs.size(); ++i) task(i);
  }

  RegionalResult out;
  out.reconstruction =
      field::SpatialField(grid_.field_width(), grid_.field_height());
  out.zone_nrmse.resize(z, 0.0);
  for (std::size_t id = 0; id < z; ++id) {
    GatherResult& res = results[id];
    if (!admitted(id)) {
      res = clouds_[id].shed_result(budget[id]);
      emit_shed(static_cast<std::uint32_t>(id), plan[id]);
    } else if (!plan.empty()) {
      guard_->record(id, res.m_used == 0 || res.failed_over, res.virtual_s);
    }
    emit_zone_series(zone_series_[id], res);
    out.total_measurements += res.m_used;
    out.node_energy_j += res.node_energy_j;
    out.stats += res.stats;
    out.zone_nrmse[id] = res.nrmse;
    if (res.failed_over) ++out.failovers;
    if (res.degraded) ++out.degraded_zones;
    if (res.shed) ++out.shed_zones;
    out.outliers_rejected += res.outliers_rejected;
    out.virtual_s += res.virtual_s;
    grid_.insert(out.reconstruction, id, res.reconstruction);

    // Uplink: the NC broker ships its support coefficients to the head.
    const std::size_t bytes = 32 + 16 * res.support_size;
    out.uplink_bytes += bytes;
    out.uplink_energy_j +=
        uplink_.tx_energy_j(bytes) + uplink_.rx_energy_j(bytes);
  }
  out.nrmse = field::field_nrmse(out.reconstruction, *truth_);
  if (obs::attached()) {
    obs::add_counter("hier.localcloud.rounds");
    obs::add_counter("hier.localcloud.zones_gathered", static_cast<double>(z));
    obs::add_counter("hier.localcloud.uplink_bytes",
                     static_cast<double>(out.uplink_bytes));
    obs::observe("hier.localcloud.nrmse", out.nrmse);
  }
  return out;
}

RegionalResult LocalCloud::gather_uniform(std::size_t measurements_per_zone,
                                          Rng& rng, const FanOut& fan_out) {
  std::vector<ZoneDecision> decisions(clouds_.size());
  for (std::size_t id = 0; id < clouds_.size(); ++id) {
    decisions[id].zone_id = id;
    decisions[id].measurements = measurements_per_zone;
  }
  return gather(decisions, rng, fan_out);
}

void emit_zone_series(ZoneSeries& zone, const GatherResult& res) noexcept {
  if (!obs::attached()) return;
  const obs::Labels& l = zone.labels;
  obs::add_counter(zone.rounds, "hier.zone.rounds", l, 1.0);
  obs::add_counter(zone.replies, "hier.zone.replies", l,
                   static_cast<double>(res.m_used));
  obs::add_counter(zone.requested, "hier.zone.requested", l,
                   static_cast<double>(res.m_requested));
  obs::add_counter(zone.energy_j, "hier.zone.energy_j", l,
                   res.node_energy_j + res.stats.broker_energy_j);
  obs::set_gauge(zone.nrmse, "hier.zone.nrmse", l, res.nrmse);
  if (res.degraded) {
    obs::add_counter(zone.degraded_rounds, "hier.zone.degraded_rounds", l,
                     1.0);
  }
  if (res.failed_over) {
    obs::add_counter(zone.failovers, "hier.zone.failovers", l, 1.0);
  }
  if (res.stats.radio_failures > 0) {
    obs::add_counter(zone.radio_failures, "hier.zone.radio_failures", l,
                     static_cast<double>(res.stats.radio_failures));
  }
  if (res.stats.retries > 0) {
    obs::add_counter(zone.retries, "hier.zone.retries", l,
                     static_cast<double>(res.stats.retries));
  }
  if (res.stats.retry_recovered > 0) {
    obs::add_counter(zone.recovered, "hier.zone.recovered", l,
                     static_cast<double>(res.stats.retry_recovered));
  }
  if (res.shed) obs::add_counter(zone.shed, "hier.zone.shed", l, 1.0);
}

void emit_shed(std::uint32_t zone, fault::ZoneAdmission why) noexcept {
  const bool budget = why == fault::ZoneAdmission::kShedBudget;
  obs::fr_record(obs::FrEvent::kShed, zone, budget ? 1.0 : 0.0);
  if (!obs::attached()) return;
  obs::add_counter("fault.shed.rounds");
  obs::add_counter(budget ? "fault.shed.budget" : "fault.shed.breaker");
}

}  // namespace sensedroid::hierarchy
