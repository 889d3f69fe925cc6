#include "sim/energy.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace sensedroid::sim {

std::string to_string(EnergyCategory c) {
  switch (c) {
    case EnergyCategory::kSensing: return "sensing";
    case EnergyCategory::kTx: return "tx";
    case EnergyCategory::kRx: return "rx";
    case EnergyCategory::kCompute: return "compute";
    case EnergyCategory::kIdle: return "idle";
  }
  return "unknown";
}

namespace {

// One label set per category, built once so a write allocates nothing.
const obs::Labels kCategoryLabels[kEnergyCategoryCount] = {
    {{"category", to_string(EnergyCategory::kSensing)}},
    {{"category", to_string(EnergyCategory::kTx)}},
    {{"category", to_string(EnergyCategory::kRx)}},
    {{"category", to_string(EnergyCategory::kCompute)}},
    {{"category", to_string(EnergyCategory::kIdle)}},
};

thread_local obs::SeriesCache t_joules[kEnergyCategoryCount];

}  // namespace

void EnergyMeter::add(EnergyCategory c, double joules) {
  if (joules < 0.0) {
    throw std::invalid_argument("EnergyMeter::add: negative energy");
  }
  const auto i = static_cast<std::size_t>(c);
  by_cat_[i] += joules;
  if (obs::attached()) {
    obs::add_counter(t_joules[i], "sim.energy.joules", kCategoryLabels[i],
                     joules);
  }
}

double EnergyMeter::total_j() const noexcept {
  double t = 0.0;
  for (double x : by_cat_) t += x;
  return t;
}

EnergyMeter& EnergyMeter::operator+=(const EnergyMeter& rhs) noexcept {
  for (std::size_t i = 0; i < kEnergyCategoryCount; ++i) {
    by_cat_[i] += rhs.by_cat_[i];
  }
  return *this;
}

Battery::Battery(double capacity_j) : capacity_j_(capacity_j) {
  if (capacity_j < 0.0) {
    throw std::invalid_argument("Battery: negative capacity");
  }
}

bool Battery::draw(double joules) {
  if (joules < 0.0) {
    throw std::invalid_argument("Battery::draw: negative draw");
  }
  if (joules > remaining_j()) {
    consumed_j_ = capacity_j_;
    obs::add_counter("sim.battery.depletions");
    return false;
  }
  consumed_j_ += joules;
  return true;
}

const SensingCosts& SensingCosts::defaults() noexcept {
  static const SensingCosts costs{};
  return costs;
}

}  // namespace sensedroid::sim
