// Reference Prometheus renderer for the differential tests: the
// Sample-based MetricsRegistry::to_prometheus the registry shipped
// before it rendered in one pass, kept verbatim.  It copies every series
// into a Sample and formats each number through an ostringstream with
// precision(12).  The registry's renderer must match it byte for byte
// on every registry.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace sensedroid::test_support {

namespace oracle_detail {

inline std::string prom_name(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

inline std::string prom_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

inline std::string prom_labels(const obs::Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += prom_name(labels[i].first);
    out += "=\"";
    out += prom_escape(labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

inline std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace oracle_detail

inline std::string oracle_to_prometheus(const obs::MetricsRegistry& reg) {
  using namespace oracle_detail;
  const auto all = reg.samples();
  std::string out;
  std::string last_typed;
  for (const auto& s : all) {
    const std::string name = prom_name(s.name);
    if (s.kind == 'c' || s.kind == 'g') {
      if (name != last_typed) {
        out += "# TYPE " + name +
               (s.kind == 'c' ? " counter\n" : " gauge\n");
        last_typed = name;
      }
      out += name + prom_labels(s.labels) + ' ' + prom_number(s.value) +
             '\n';
    } else {
      if (name != last_typed) {
        out += "# TYPE " + name + " histogram\n";
        last_typed = name;
      }
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < s.buckets.size(); ++b) {
        cum += s.buckets[b];
        if (s.buckets[b] == 0 && b + 1 != s.buckets.size()) continue;
        obs::Labels le = s.labels;
        le.emplace_back(
            "le", b < s.bounds.size() ? prom_number(s.bounds[b]) : "+Inf");
        out += name + "_bucket" + prom_labels(le) + ' ' +
               std::to_string(cum) + '\n';
      }
      out += name + "_sum" + prom_labels(s.labels) + ' ' +
             prom_number(s.sum) + '\n';
      out += name + "_count" + prom_labels(s.labels) + ' ' +
             std::to_string(s.count) + '\n';
    }
  }
  return out;
}

}  // namespace sensedroid::test_support
