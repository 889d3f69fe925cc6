// The NanoCloud (Figs. 1-2): "mobile nodes connected to a central head or
// a broker ... the broker performs stochastic (random) spatial sampling in
// various nodes" — one NC covers one zone of the spatial field.
//
// In the simulation each grid cell of the zone is covered by a phone with
// probability `coverage` (crowds are not everywhere); infrastructure
// sensors can back-fill cells the crowd misses, per Section 3's fallback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cs/chs.h"
#include "fault/fault.h"
#include "fault/retry.h"
#include "field/spatial_field.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "middleware/broker.h"
#include "middleware/node.h"

namespace sensedroid::hierarchy {

using linalg::Rng;

/// Construction parameters of one NanoCloud.
struct NanoCloudConfig {
  /// Probability a grid cell hosts a phone.
  double coverage = 0.9;
  /// Physical size of one grid cell in meters (node positions).  The
  /// default keeps even a 16x16 zone well inside one WiFi cell so the
  /// broker reaches every node reliably.
  double cell_m = 5.0;
  /// Sensor type the cloud gathers.
  sensing::SensorKind sensor = sensing::SensorKind::kTemperature;
  /// Sparsifying basis for reconstruction.
  linalg::BasisKind basis = linalg::BasisKind::kDct;
  /// For kDct: use the separable 2-D DCT of the zone (kron of the 1-D
  /// DCTs) and 2-D-aware residual interpolation.  Physical fields are
  /// 2-D smooth, so this is strictly better than the 1-D DCT of the
  /// stacked vector; disable only for ablation.
  bool separable_2d = true;
  /// Reconstruction options.  Defaults: linear Upsilon interpolation —
  /// physical spatial fields are smooth, and pre-smoothing the residual
  /// makes atom selection reliable even at tiny budgets — and GLS refit
  /// because phone fleets are heterogeneous.
  cs::ChsOptions chs = [] {
    cs::ChsOptions o;
    o.interpolation = cs::Interpolation::kLinear;
    o.refit_solver = "gls";
    return o;
  }();
  /// Add infrastructure sensors on cells without phone coverage.
  bool infrastructure_backfill = false;
  /// Battery capacity per phone in joules (default: 2014-era handset).
  /// Small values let tests exercise mid-round battery death.
  double battery_capacity_j = 36000.0;
  /// Fraction of phones whose owners opt out of sharing entirely
  /// (Section 5 privacy posture); they exist but refuse every command.
  double opt_out_fraction = 0.0;
  /// Zone identity for fault scheduling (CrashWindow::zone); LocalCloud
  /// assigns each member NC its zone index.
  std::uint32_t zone_id = 0;
  /// Non-owning fault injector; when set, the broker layers its link
  /// bursts/churn onto the radio, phone sensors get its defect hooks
  /// (infrastructure backfill stays healthy — it is maintained hardware),
  /// batteries honor its capacity override, and gather() fails over to a
  /// promoted member when the injector crashes this zone's broker.  Must
  /// outlive the cloud.  nullptr = no faults (seed behavior).
  fault::FaultInjector* injector = nullptr;
  /// Retry/timeout/energy-skip policy for every gather round.
  fault::RetryPolicy retry{};
  /// Top-up: when replies fall short of the requested m, gather() asks up
  /// to this many extra mini-rounds of replacement cells (fresh covered
  /// cells not yet commanded this round).  0 = off (seed behavior).
  std::size_t topup_rounds = 0;
};

/// Outcome of one gathering round.
struct GatherResult {
  field::SpatialField reconstruction;
  double nrmse = 0.0;                ///< against the ground-truth zone
  std::size_t m_requested = 0;       ///< plan size the broker asked for
  std::size_t m_used = 0;            ///< readings that actually arrived
  middleware::GatherStats stats;     ///< radio/energy accounting
  double node_energy_j = 0.0;        ///< summed phone energy this round
  std::size_t support_size = 0;      ///< |J| of the CHS solution
  std::size_t outliers_rejected = 0; ///< readings screened by MAD
  bool failed_over = false;          ///< round ran through a stand-in broker
  bool degraded = false;             ///< failover or MAD screening engaged
  bool shed = false;                 ///< round skipped by admission control
  double virtual_s = 0.0;            ///< virtual seconds the gather consumed
};

/// One NanoCloud over one ground-truth zone.
class NanoCloud {
 public:
  /// Builds the broker, phones (quality tiers drawn uniformly), and
  /// optional infrastructure sensors.  `truth` is the zone's field; the
  /// cloud does NOT own or mutate it.  `shared_basis`, when set, is the
  /// zone's analytic basis as shared_zone_basis() builds it for this
  /// zone's shape; the cloud reads it instead of building its own copy,
  /// and draws exactly the Rng values it would have drawn building one.
  /// Throws std::invalid_argument for empty zones, coverage outside
  /// [0, 1], or a shared basis whose size does not match the zone (for a
  /// factored one: whose outer and inner factors are not the zone's
  /// width and height).
  NanoCloud(const field::SpatialField& truth, const NanoCloudConfig& config,
            Rng& rng,
            std::shared_ptr<const linalg::Basis> shared_basis = nullptr);

  std::size_t grid_points() const noexcept { return truth_->size(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t covered_cells() const noexcept { return covered_.size(); }
  middleware::Broker& broker() noexcept { return broker_; }
  const NanoCloudConfig& config() const noexcept { return config_; }
  /// The basis the zone solves against, possibly shared with the other
  /// zones of its shape.
  const linalg::Basis* basis() const noexcept { return basis_.get(); }

  /// Member phone by construction index (checkpoint walks them in this
  /// order; indices are stable for the cloud's lifetime).
  middleware::MobileNode& node(std::size_t i) { return nodes_.at(i); }
  const middleware::MobileNode& node(std::size_t i) const {
    return nodes_.at(i);
  }

  /// Runs one compressive gathering round with a budget of `m` readings:
  /// the broker randomly selects m covered cells, telemeters their nodes,
  /// and CHS-reconstructs the zone.  m is clamped to the covered-cell
  /// count.  Throws std::invalid_argument when m == 0.
  GatherResult gather(std::size_t m, Rng& rng);

  /// Dense baseline round: every covered cell reports (no compression);
  /// missing cells are filled by interpolation of the measured ones.
  GatherResult gather_dense(Rng& rng);

  /// The honest outcome of a round admission control refused to run: an
  /// all-zero reconstruction scored against truth, zero readings, zero
  /// energy, `shed` set.  Draws NOTHING from any Rng and emits no
  /// metrics — the caller accounts for the shed (fault.shed.* series,
  /// zone rollups) so un-guarded runs stay bit-identical.
  GatherResult shed_result(std::size_t m_requested) const;

  /// Total energy drawn by all member phones so far.
  double total_node_energy_j() const noexcept;

  /// Bytes of basis state this zone reads during a solve (the E25
  /// memory axis): 8 (w^2 + h^2) for the factored separable 2-D DCT,
  /// 8 N^2 for a basis without factors.  A basis may be shared with the
  /// other zones of its shape (shared_zone_basis), so summing this over
  /// zones counts the shared state once per reader, not the bytes
  /// resident.
  std::size_t basis_state_bytes() const noexcept;

 private:
  /// Telemeters the nodes on `cells` through `head`, accumulating stats
  /// and node energy into `out`.
  std::vector<middleware::Reading> collect_cells(
      middleware::Broker& head, const std::vector<std::size_t>& cells,
      Rng& rng, GatherResult& out);

  /// CHS (or dense-interpolation) reconstruction from gathered readings.
  GatherResult reconstruct_readings(
      const std::vector<middleware::Reading>& readings, GatherResult out,
      bool compressive);

  /// Elects the first live, present, willing member as stand-in head
  /// when the injector has crashed this zone's broker; charges the
  /// election broadcast to `out`.  nullptr when nobody can take over.
  middleware::MobileNode* elect_standin(GatherResult& out);

  const field::SpatialField* truth_;
  NanoCloudConfig config_;
  middleware::Broker broker_;
  std::vector<middleware::MobileNode> nodes_;
  std::vector<std::size_t> covered_;          ///< cells with a node
  std::vector<std::size_t> cell_to_node_;     ///< cell -> index or npos
  /// The zone basis (only the 1-D factors when it is the separable 2-D
  /// DCT), possibly shared with other zones.
  std::shared_ptr<const linalg::Basis> basis_;
};

/// The analytic zone basis for `config` over `zone`'s shape: the
/// separable 2-D DCT (only its 1-D factors, which CHS reads every entry
/// from), or the dense 1-D DCT, Haar, or identity (no factors).  It
/// depends only on the basis kind and the zone's width and height, so
/// every zone of one shape can read one immutable copy (LocalCloud
/// shares it this way).  nullptr for the kinds a zone must build
/// itself: Gaussian (seeded per zone) and PCA (data-driven).  Throws as
/// linalg::make_basis does (Haar needs a power-of-two size).
std::shared_ptr<const linalg::Basis> shared_zone_basis(
    const field::SpatialField& zone, const NanoCloudConfig& config);

}  // namespace sensedroid::hierarchy
