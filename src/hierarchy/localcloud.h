// The LocalCloud (Fig. 1): a head broker federating the NanoClouds of its
// region.  "This hierarchy allows the nodes to collaborate through the
// broker ... and concatenate the results of the NCs for the local
// region."  The head receives each NC's reconstruction summary (support
// coefficients, not raw samples) and stitches the regional field.
//
// LocalCloud::gather is the one round engine (DESIGN.md §9.2).  Inline,
// 1-worker and N-worker drivers differ only in the FanOut they hand it,
// which decides where the zone gathers run — never what they compute.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "fault/breaker.h"
#include "field/zones.h"
#include "hierarchy/adaptive.h"
#include "hierarchy/nanocloud.h"
#include "obs/metrics.h"
#include "sim/radio.h"

namespace sensedroid::hierarchy {

/// Aggregated accounting of one regional gathering round.
struct RegionalResult {
  field::SpatialField reconstruction;   ///< stitched regional field
  double nrmse = 0.0;                   ///< against regional ground truth
  std::size_t total_measurements = 0;   ///< phone readings taken
  std::size_t uplink_bytes = 0;         ///< NC broker -> head traffic
  double uplink_energy_j = 0.0;         ///< radio energy of those uplinks
  double node_energy_j = 0.0;           ///< summed phone energy
  middleware::GatherStats stats;        ///< summed NC gather stats
  std::vector<double> zone_nrmse;       ///< per-zone error map (Fig. 5)
  std::size_t failovers = 0;            ///< zones served by a stand-in broker
  std::size_t degraded_zones = 0;       ///< zones flagged degraded this round
  std::size_t outliers_rejected = 0;    ///< readings screened by MAD, summed
  std::size_t shed_zones = 0;           ///< zones skipped by admission control
  double virtual_s = 0.0;               ///< summed zone gather virtual time
};

/// How a round runs its zone tasks: fan_out(n, task) must call task(i)
/// once for every i in [0, n) and return after all have finished.  An
/// empty FanOut runs task(0..n-1) inline, in order, on the calling
/// thread, with metrics written straight to its sink.  A pool fan-out
/// (exec::fan_out) must make the tasks' metric writes and spans land as
/// if they had run that way, in index order.
using FanOut = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& task)>;

/// One zone's `{zone="<id>"}` label set, built once, and a call-site
/// cache for each of its `hier.zone.*` series, so a round's per-zone
/// writes neither allocate nor look a series up.  A LocalCloud holds one
/// per zone; only the thread running that zone's task (gather_us) or
/// the round's fold (the rest) touches it.
struct ZoneSeries {
  explicit ZoneSeries(std::uint32_t zone);

  obs::Labels labels;
  obs::SeriesCache gather_us, rounds, replies, requested, energy_j, nrmse,
      degraded_rounds, failovers, radio_failures, retries, recovered, shed;
};

/// A LocalCloud over a regional ground-truth field partitioned by a
/// ZoneGrid, one NanoCloud per zone.
class LocalCloud {
 public:
  /// Builds one NC per zone.  `truth` must outlive the cloud.  Each zone's
  /// NanoCloud gets `nc_config` with zone_id overridden to its zone index,
  /// so a FaultPlan CrashWindow targets zones by that index.
  LocalCloud(const field::SpatialField& truth, const field::ZoneGrid& grid,
             const NanoCloudConfig& nc_config, Rng& rng,
             sim::LinkModel uplink = sim::LinkModel::of(sim::RadioKind::kWiFi));

  std::size_t zone_count() const noexcept { return clouds_.size(); }
  NanoCloud& nanocloud(std::size_t id) { return clouds_.at(id); }
  const field::ZoneGrid& grid() const noexcept { return grid_; }
  /// NC-broker -> head uplink radio model (what gather() charges each
  /// zone's support-coefficient uplink to).
  const sim::LinkModel& uplink_link() const noexcept { return uplink_; }

  /// Attaches (or detaches, with nullptr) the degradation guard: gather()
  /// then runs its breaker/budget admission plan before the zone loop,
  /// substitutes NanoCloud::shed_result for refused zones, and records
  /// every admitted zone's outcome back — all on the calling (driver)
  /// thread in ascending zone order, so admissions are deterministic.
  /// Non-owning; the guard must outlive the cloud's rounds.  A disabled
  /// or absent guard leaves gather() bit-identical to pre-guard builds.
  void set_guard(fault::ZoneGuard* guard) noexcept { guard_ = guard; }
  fault::ZoneGuard* guard() const noexcept { return guard_; }

  /// The round engine, and the only one: every driver (sequential,
  /// ParallelCampaignRunner, ResumableCampaign) runs its rounds here.
  /// In order, on the calling thread unless noted:
  ///   1. validates `decisions` — one per zone, ids covering 0..Z-1
  ///      exactly in any order (throws std::invalid_argument otherwise);
  ///   2. advances the NC config's fault injector one fault round
  ///      (FaultInjector::begin_round) — standalone NanoCloud drivers
  ///      must advance it themselves;
  ///   3. plans admission through the attached guard;
  ///   4. forks one Rng per zone from `rng`, in zone order — always Z
  ///      draws, shed zones included, so admission shifts no stream;
  ///   5. runs the admitted zones' gathers through `fan_out`;
  ///   6. makes the shed zones' results;
  ///   7. folds, stitches and accounts uplink in zone order — each NC
  ///      broker ships its support coefficients (16 B per coefficient:
  ///      index + value) plus a 32 B header to the head broker;
  ///   8. emits the `hier.localcloud.*` rollup once.
  /// Zone z's work is a pure function of (rng state, z), so results
  /// and metrics are the same for any fan-out that honours FanOut's
  /// contract.
  RegionalResult gather(const std::vector<ZoneDecision>& decisions, Rng& rng,
                        const FanOut& fan_out = {});

  /// Convenience: uniform budget per zone (the Luo-style non-adaptive
  /// configuration at equal total cost).
  RegionalResult gather_uniform(std::size_t measurements_per_zone, Rng& rng,
                                const FanOut& fan_out = {});

 private:
  const field::SpatialField* truth_;
  field::ZoneGrid grid_;
  // Zone ground truths are materialized before the NanoClouds because each
  // NC keeps a pointer to its zone; the vector is fully reserved up front
  // so those pointers stay stable.
  std::vector<field::SpatialField> zone_truths_;
  std::vector<NanoCloud> clouds_;
  std::vector<ZoneSeries> zone_series_;  // one per zone, by zone id
  sim::LinkModel uplink_;
  fault::ZoneGuard* guard_ = nullptr;
};

/// Emits one zone's health-input series (counters `hier.zone.rounds` /
/// `degraded_rounds` / `failovers` / `radio_failures` / `retries` /
/// `recovered` / `replies` / `requested` / `energy_j`, gauge
/// `hier.zone.nrmse`), all labelled with `zone.labels` — the inputs
/// obs::HealthEngine scores.  No-op when detached.  Called from
/// gather()'s zone-order fold; flag-like series (degraded/failovers/
/// radio_failures/retries/recovered) only appear once nonzero, keeping
/// un-faulted runs' metric set unchanged.
void emit_zone_series(ZoneSeries& zone, const GatherResult& res) noexcept;

/// Emits the shed accounting for one refused zone (counters
/// `fault.shed.rounds` + `fault.shed.breaker`/`fault.shed.budget`, plus
/// a flight-recorder kShed event) — called from gather()'s fold, in the
/// same ascending zone order as emit_zone_series, only when a guard
/// actually refused the zone, so benign runs emit nothing new.
void emit_shed(std::uint32_t zone, fault::ZoneAdmission why) noexcept;

}  // namespace sensedroid::hierarchy
