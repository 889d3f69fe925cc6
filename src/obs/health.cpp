#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>

#include "obs/flight_recorder.h"

namespace sensedroid::obs {

namespace {

double clamp01(double v) noexcept {
  return std::clamp(std::isfinite(v) ? v : 0.0, 0.0, 1.0);
}

/// Raw per-zone inputs accumulated from the source registry's samples.
struct ZoneInputs {
  double rounds = 0.0;
  double degraded_rounds = 0.0;
  double shed_rounds = 0.0;
  double retries = 0.0;
  double recovered = 0.0;
  double energy_j = 0.0;
  std::uint64_t gather_count = 0;
  std::uint64_t gather_over_slo = 0;
};

/// Parses the `zone` label; returns false when absent/non-numeric.
bool zone_of(const Labels& labels, std::uint32_t* zone) {
  for (const auto& [k, v] : labels) {
    if (k != "zone") continue;
    std::uint32_t id = 0;
    for (char c : v) {
      if (c < '0' || c > '9') return false;
      id = id * 10 + static_cast<std::uint32_t>(c - '0');
    }
    *zone = id;
    return !v.empty();
  }
  return false;
}

}  // namespace

HealthEngine::HealthEngine(const MetricsRegistry* source, HealthConfig config)
    : source_(source), config_(config) {}

const char* HealthEngine::verdict_for(double score) const noexcept {
  if (score < config_.unhealthy_below) return "unhealthy";
  if (score < config_.degraded_below) return "degraded";
  return "healthy";
}

std::vector<ZoneHealth> HealthEngine::evaluate() {
  std::map<std::uint32_t, ZoneInputs> zones;
  double fault_sum = 0.0;
  if (source_ != nullptr) {
    for (const MetricsRegistry::Sample& s : source_->samples()) {
      const std::string_view name = s.name;
      if (s.kind == 'c' && name.starts_with("fault.")) fault_sum += s.value;
      if (!name.starts_with("hier.zone.")) continue;
      std::uint32_t zone = 0;
      if (!zone_of(s.labels, &zone)) continue;
      ZoneInputs& in = zones[zone];
      if (name == "hier.zone.rounds") {
        in.rounds = s.value;
      } else if (name == "hier.zone.degraded_rounds") {
        in.degraded_rounds = s.value;
      } else if (name == "hier.zone.shed") {
        in.shed_rounds = s.value;
      } else if (name == "hier.zone.retries") {
        in.retries = s.value;
      } else if (name == "hier.zone.recovered") {
        in.recovered = s.value;
      } else if (name == "hier.zone.energy_j") {
        in.energy_j = s.value;
      } else if (name == "hier.zone.gather_us" && s.kind == 'h') {
        in.gather_count = s.count;
        // Observations above the SLO: total minus the cumulative count
        // of buckets whose upper bound is within the target.
        std::uint64_t within = 0;
        for (std::size_t b = 0; b < s.bounds.size(); ++b) {
          if (s.bounds[b] <= config_.latency_slo_us) {
            within += s.buckets[b];
          }
        }
        in.gather_over_slo = s.count > within ? s.count - within : 0;
      }
    }
  }

  std::vector<ZoneHealth> out;
  out.reserve(zones.size());
  double worst = 1.0;
  for (const auto& [zone, in] : zones) {
    ZoneHealth h;
    h.zone = zone;
    if (in.gather_count > 0 && config_.latency_allowed_fraction > 0.0) {
      const double violation = static_cast<double>(in.gather_over_slo) /
                               static_cast<double>(in.gather_count);
      h.latency = clamp01(1.0 - violation / config_.latency_allowed_fraction);
    }
    if (in.retries > 0.0) h.recovery = clamp01(in.recovered / in.retries);
    if (in.rounds > 0.0) {
      // A shed round is an unavailable round: admission control refused
      // it, and the shed flag and degraded flag are mutually exclusive
      // (shed_result never sets degraded), so the sum never double
      // counts.
      h.availability = clamp01(
          1.0 - (in.degraded_rounds + in.shed_rounds) / in.rounds);
    }
    if (config_.energy_floor_j > 0.0) {
      h.energy = clamp01(1.0 - in.energy_j / config_.energy_floor_j);
    }
    h.score = clamp01(config_.w_latency * h.latency +
                      config_.w_recovery * h.recovery +
                      config_.w_availability * h.availability +
                      config_.w_energy * h.energy);
    h.verdict = verdict_for(h.score);
    worst = std::min(worst, h.score);
    out.push_back(h);

    gauges_.gauge("health.zone", {{"id", std::to_string(zone)}}).set(h.score);
  }
  gauges_.gauge("health.worst").set(worst);
  gauges_.gauge("health.zones").set(static_cast<double>(out.size()));

  bool dump = false;
  std::string path;
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_ = out;
    worst_ = worst;
    if (!auto_dump_path_.empty() && fault_sum > last_fault_sum_) {
      dump = true;
      path = auto_dump_path_;
    }
    last_fault_sum_ = fault_sum;
  }
  if (dump) FlightRecorder::dump_to_file(path);
  return out;
}

double HealthEngine::worst_score() const {
  std::lock_guard<std::mutex> lk(mu_);
  return worst_;
}

const char* HealthEngine::verdict() const {
  std::lock_guard<std::mutex> lk(mu_);
  return verdict_for(worst_);
}

std::string HealthEngine::to_json() {
  const std::vector<ZoneHealth> zones = evaluate();
  double worst = 1.0;
  for (const ZoneHealth& z : zones) worst = std::min(worst, z.score);
  std::string out = "{\"verdict\":\"";
  out += verdict_for(worst);
  out += "\",\"worst\":" + format_number(worst) + ",\"zones\":[";
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const ZoneHealth& z = zones[i];
    if (i > 0) out += ',';
    out += "{\"id\":" + std::to_string(z.zone) +
           ",\"score\":" + format_number(z.score) +
           ",\"latency\":" + format_number(z.latency) +
           ",\"recovery\":" + format_number(z.recovery) +
           ",\"availability\":" + format_number(z.availability) +
           ",\"energy\":" + format_number(z.energy) +
           ",\"verdict\":\"" + z.verdict + "\"}";
  }
  out += "]}";
  return out;
}

void HealthEngine::set_auto_dump(std::string path) {
  std::lock_guard<std::mutex> lk(mu_);
  auto_dump_path_ = std::move(path);
}

}  // namespace sensedroid::obs
