#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sensedroid::obs {

namespace {

HistSummary summarize(const MetricsRegistry& reg, std::string_view name) {
  HistSummary out;
  if (const Histogram* h = reg.find_histogram(name)) {
    out.count = h->count();
    out.mean = h->mean();
    out.p50 = h->quantile(0.50);
    out.p95 = h->quantile(0.95);
    out.p99 = h->quantile(0.99);
    out.max = out.count ? h->max() : 0.0;
  }
  return out;
}

std::string hist_json(const HistSummary& h) {
  return "{\"count\":" + std::to_string(h.count) + ",\"mean\":" +
         format_number(h.mean) + ",\"p50\":" + format_number(h.p50) +
         ",\"p95\":" + format_number(h.p95) +
         ",\"p99\":" + format_number(h.p99) +
         ",\"max\":" + format_number(h.max) + '}';
}

}  // namespace

RunReport RunReport::from_registry(const MetricsRegistry& reg,
                                   std::string campaign) {
  return from_registry(reg, std::move(campaign), /*include_wall_clock=*/true);
}

RunReport RunReport::from_registry(const MetricsRegistry& reg,
                                   std::string campaign,
                                   bool include_wall_clock) {
  RunReport r;
  r.campaign = std::move(campaign);

  r.energy_total_j = reg.counter_sum("sim.energy.joules");
  r.energy_tx_j = reg.counter_value("sim.energy.joules", {{"category", "tx"}});
  r.energy_rx_j = reg.counter_value("sim.energy.joules", {{"category", "rx"}});
  r.energy_sensing_j =
      reg.counter_value("sim.energy.joules", {{"category", "sensing"}});
  r.energy_compute_j =
      reg.counter_value("sim.energy.joules", {{"category", "compute"}});
  r.radio_tx_bytes = reg.counter_sum("sim.radio.tx_bytes");
  r.radio_rx_bytes = reg.counter_sum("sim.radio.rx_bytes");
  r.radio_attempts = reg.counter_sum("sim.radio.attempts");
  r.radio_drops = reg.counter_sum("sim.radio.drops");
  r.sim_events = reg.counter_sum("sim.events.executed");

  r.broker_rounds = reg.counter_sum("mw.broker.collect_rounds");
  r.broker_commands = reg.counter_sum("mw.broker.commands_sent");
  r.broker_replies = reg.counter_sum("mw.broker.replies_received");
  r.broker_failures = reg.counter_sum("mw.broker.radio_failures");
  r.broker_bytes = reg.counter_sum("mw.broker.bytes");
  r.pubsub_published = reg.counter_sum("mw.pubsub.published");
  r.pubsub_delivered = reg.counter_sum("mw.pubsub.delivered");

  r.omp_solves = reg.counter_sum("cs.omp.solves");
  r.omp_iterations = reg.counter_sum("cs.omp.iterations");
  r.chs_solves = reg.counter_sum("cs.chs.solves");
  r.chs_iterations = reg.counter_sum("cs.chs.iterations");
  r.simplex_solves = reg.counter_sum("cs.simplex.solves");
  r.simplex_pivots = reg.counter_sum("cs.simplex.pivots");
  r.chs_residual = summarize(reg, "cs.chs.residual_rel");
  if (include_wall_clock) {
    r.chs_solve_us = summarize(reg, "cs.chs.solve_us");
    r.omp_solve_us = summarize(reg, "cs.omp.solve_us");
  }

  r.gather_rounds = reg.counter_sum("hier.nanocloud.rounds");
  r.nodes_commanded = reg.counter_sum("hier.nanocloud.nodes_commanded");
  r.zones_gathered = reg.counter_sum("hier.localcloud.zones_gathered");
  r.uplink_bytes = reg.counter_sum("hier.localcloud.uplink_bytes");

  r.fault_link_drops = reg.counter_sum("fault.link.drops");
  r.fault_link_bursts = reg.counter_sum("fault.link.bursts");
  r.fault_churn_absences = reg.counter_sum("fault.churn.absent");
  r.fault_sensor_spikes = reg.counter_sum("fault.sensor.spikes");
  r.fault_crashed_rounds = reg.counter_sum("fault.broker.crashed_rounds");
  r.failover_promotions = reg.counter_sum("fault.failover.promotions");
  r.retry_attempts = reg.counter_sum("mw.retry.attempts");
  r.retry_recovered = reg.counter_sum("mw.retry.recovered");
  r.topup_requests = reg.counter_sum("mw.topup.requests");
  r.topup_replies = reg.counter_sum("mw.topup.replies");
  r.outliers_rejected = reg.counter_sum("cs.chs.outliers_rejected");

  r.metrics_json = reg.to_json(include_wall_clock);
  return r;
}

std::string RunReport::to_json() const {
  std::string out = "{\"schema_version\":" + std::to_string(kSchemaVersion) +
                    ",\"campaign\":\"" + json_escape(campaign) + "\"";
  out += ",\"sim\":{\"energy_total_j\":" + format_number(energy_total_j) +
         ",\"energy_tx_j\":" + format_number(energy_tx_j) +
         ",\"energy_rx_j\":" + format_number(energy_rx_j) +
         ",\"energy_sensing_j\":" + format_number(energy_sensing_j) +
         ",\"energy_compute_j\":" + format_number(energy_compute_j) +
         ",\"radio_tx_bytes\":" + format_number(radio_tx_bytes) +
         ",\"radio_rx_bytes\":" + format_number(radio_rx_bytes) +
         ",\"radio_attempts\":" + format_number(radio_attempts) +
         ",\"radio_drops\":" + format_number(radio_drops) +
         ",\"events_executed\":" + format_number(sim_events) + '}';
  out += ",\"middleware\":{\"broker_rounds\":" + format_number(broker_rounds) +
         ",\"commands_sent\":" + format_number(broker_commands) +
         ",\"replies_received\":" + format_number(broker_replies) +
         ",\"radio_failures\":" + format_number(broker_failures) +
         ",\"bytes\":" + format_number(broker_bytes) +
         ",\"published\":" + format_number(pubsub_published) +
         ",\"delivered\":" + format_number(pubsub_delivered) + '}';
  out += ",\"cs\":{\"omp_solves\":" + format_number(omp_solves) +
         ",\"omp_iterations\":" + format_number(omp_iterations) +
         ",\"chs_solves\":" + format_number(chs_solves) +
         ",\"chs_iterations\":" + format_number(chs_iterations) +
         ",\"simplex_solves\":" + format_number(simplex_solves) +
         ",\"simplex_pivots\":" + format_number(simplex_pivots) +
         ",\"chs_residual_rel\":" + hist_json(chs_residual) +
         ",\"chs_solve_us\":" + hist_json(chs_solve_us) +
         ",\"omp_solve_us\":" + hist_json(omp_solve_us) + '}';
  out += ",\"hierarchy\":{\"gather_rounds\":" + format_number(gather_rounds) +
         ",\"nodes_commanded\":" + format_number(nodes_commanded) +
         ",\"zones_gathered\":" + format_number(zones_gathered) +
         ",\"uplink_bytes\":" + format_number(uplink_bytes) + '}';
  out += ",\"fault\":{\"link_drops\":" + format_number(fault_link_drops) +
         ",\"link_bursts\":" + format_number(fault_link_bursts) +
         ",\"churn_absences\":" + format_number(fault_churn_absences) +
         ",\"sensor_spikes\":" + format_number(fault_sensor_spikes) +
         ",\"crashed_broker_rounds\":" + format_number(fault_crashed_rounds) +
         ",\"failover_promotions\":" + format_number(failover_promotions) +
         ",\"retry_attempts\":" + format_number(retry_attempts) +
         ",\"retry_recovered\":" + format_number(retry_recovered) +
         ",\"topup_requests\":" + format_number(topup_requests) +
         ",\"topup_replies\":" + format_number(topup_replies) +
         ",\"outliers_rejected\":" + format_number(outliers_rejected) + '}';
  out += ",\"reconstruction_error\":" + format_number(reconstruction_error);
  out += ",\"metrics\":" +
         (metrics_json.empty() ? std::string("{}") : metrics_json);
  out += '}';
  return out;
}

std::string RunReport::summary() const {
  std::ostringstream os;
  os.precision(4);
  os << "RunReport[" << campaign << "]\n"
     << "  sim:        " << energy_total_j << " J total ("
     << energy_tx_j << " tx, " << energy_rx_j << " rx, "
     << energy_sensing_j << " sensing), " << radio_tx_bytes
     << " B tx, " << radio_drops << "/" << radio_attempts
     << " radio drops\n"
     << "  middleware: " << broker_rounds << " rounds, "
     << broker_commands << " cmds, " << broker_replies << " replies, "
     << pubsub_published << " published / " << pubsub_delivered
     << " delivered\n"
     << "  cs:         chs " << chs_solves << " solves / "
     << chs_iterations << " iters (residual p50 " << chs_residual.p50
     << "), omp " << omp_solves << " solves / " << omp_iterations
     << " iters, simplex " << simplex_pivots << " pivots\n"
     << "  hierarchy:  " << gather_rounds << " gathers, "
     << nodes_commanded << " nodes commanded, " << zones_gathered
     << " zones, " << uplink_bytes << " uplink B\n";
  const double injected = fault_link_drops + fault_churn_absences +
                          fault_sensor_spikes + fault_crashed_rounds;
  const double recovered = retry_recovered + topup_replies +
                           failover_promotions + outliers_rejected;
  if (injected > 0.0 || recovered > 0.0 || retry_attempts > 0.0) {
    os << "  fault:      " << injected << " injected ("
       << fault_link_drops << " link drops, " << fault_churn_absences
       << " churn absences, " << fault_sensor_spikes << " spikes, "
       << fault_crashed_rounds << " crashed rounds) vs " << recovered
       << " recovered (" << retry_recovered << " by retry, "
       << topup_replies << " by top-up, " << failover_promotions
       << " failovers, " << outliers_rejected << " outliers screened)\n";
  }
  if (reconstruction_error >= 0.0) {
    os << "  reconstruction error: " << reconstruction_error << "\n";
  }
  return os.str();
}

bool write_report(const RunReport& report) {
  const std::string json = report.to_json();
  if (const char* path = std::getenv("SENSEDROID_REPORT")) {
    std::ofstream f(path, std::ios::app);
    if (!f) {
      std::fprintf(stderr, "sensedroid: cannot open SENSEDROID_REPORT=%s\n",
                   path);
      return false;
    }
    f << json << '\n';
    return static_cast<bool>(f);
  }
  std::fputs(json.c_str(), stdout);
  std::fputc('\n', stdout);
  return true;
}

}  // namespace sensedroid::obs
