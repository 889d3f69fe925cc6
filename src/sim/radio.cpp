#include "sim/radio.h"

#include <algorithm>

#include "obs/metrics.h"

namespace sensedroid::sim {

std::string to_string(RadioKind kind) {
  switch (kind) {
    case RadioKind::kWiFi: return "wifi";
    case RadioKind::kBluetooth: return "bluetooth";
    case RadioKind::kGsm: return "gsm";
  }
  return "unknown";
}

namespace {

// Per-event radio series, one label set per kind (an out-of-range kind
// is "unknown", as to_string says), built once so a write allocates
// nothing.
constexpr std::size_t kKindSlots = 4;

std::size_t kind_slot(RadioKind kind) noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(kind),
                               kKindSlots - 1);
}

const obs::Labels kKindLabels[kKindSlots] = {
    {{"radio", to_string(RadioKind::kWiFi)}},
    {{"radio", to_string(RadioKind::kBluetooth)}},
    {{"radio", to_string(RadioKind::kGsm)}},
    {{"radio", "unknown"}},
};

struct KindSites {
  obs::SeriesCache tx_bytes, rx_bytes, attempts, drops;
};
thread_local KindSites t_sites[kKindSlots];

}  // namespace

LinkModel LinkModel::of(RadioKind kind) {
  switch (kind) {
    case RadioKind::kWiFi:
      return LinkModel{RadioKind::kWiFi, 100.0, 20e6, 0.002,
                       0.6e-6, 0.3e-6, 0.01};
    case RadioKind::kBluetooth:
      return LinkModel{RadioKind::kBluetooth, 10.0, 2e6, 0.015,
                       0.1e-6, 0.05e-6, 0.02};
    case RadioKind::kGsm:
      return LinkModel{RadioKind::kGsm, 10000.0, 1e6, 0.120,
                       2.5e-6, 1.0e-6, 0.02};
  }
  return LinkModel{};
}

double LinkModel::transfer_time_s(std::size_t bytes) const noexcept {
  return base_latency_s +
         8.0 * static_cast<double>(bytes) / bandwidth_bps;
}

double LinkModel::tx_energy_j(std::size_t bytes) const noexcept {
  if (obs::attached()) {
    const std::size_t k = kind_slot(kind);
    obs::add_counter(t_sites[k].tx_bytes, "sim.radio.tx_bytes",
                     kKindLabels[k], static_cast<double>(bytes));
  }
  return tx_energy_per_byte_j * static_cast<double>(bytes);
}

double LinkModel::rx_energy_j(std::size_t bytes) const noexcept {
  if (obs::attached()) {
    const std::size_t k = kind_slot(kind);
    obs::add_counter(t_sites[k].rx_bytes, "sim.radio.rx_bytes",
                     kKindLabels[k], static_cast<double>(bytes));
  }
  return rx_energy_per_byte_j * static_cast<double>(bytes);
}

double LinkModel::delivery_probability(double dist) const noexcept {
  // The range edge is inclusive: at dist == range_m the ramp below lands
  // on loss == 1 exactly, and anything at or past the edge never
  // delivers.  Spelled out as >= so the boundary is policy, not a
  // floating-point accident of the polynomial.
  if (dist >= range_m || range_m <= 0.0) return 0.0;
  const double frac = std::clamp(dist / range_m, 0.0, 1.0);
  // Loss stays near the base rate across most of the cell and ramps
  // sharply at the range edge (link-budget knee), matching measured
  // indoor/outdoor packet-delivery curves far better than a linear or
  // quadratic falloff.
  const double knee = frac * frac;
  const double edge = knee * knee * knee * knee;  // frac^8
  const double loss = base_loss + (1.0 - base_loss) * edge;
  return 1.0 - std::min(loss, 1.0);
}

bool LinkModel::delivery_succeeds(double dist, Rng& rng) const {
  const bool ok = rng.bernoulli(delivery_probability(dist));
  if (obs::attached()) {
    const std::size_t k = kind_slot(kind);
    obs::add_counter(t_sites[k].attempts, "sim.radio.attempts",
                     kKindLabels[k], 1.0);
    if (!ok) {
      obs::add_counter(t_sites[k].drops, "sim.radio.drops", kKindLabels[k],
                       1.0);
    }
  }
  return ok;
}

}  // namespace sensedroid::sim
