#include "obs/export.h"

#include <charconv>
#include <string>

namespace vc {

namespace {

/// Shortest decimal form that round-trips through a double.
std::string FormatDouble(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

/// Metric names are plain identifiers, but escape the JSON specials anyway
/// so the output is always well-formed.
std::string QuoteString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void AppendHistogramJson(const HistogramSnapshot& h, std::string* out) {
  out->append("{\"bounds\": [");
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append(FormatDouble(h.bounds[i]));
  }
  out->append("], \"counts\": [");
  for (size_t i = 0; i < h.counts.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append(std::to_string(h.counts[i]));
  }
  out->append("], \"count\": ");
  out->append(std::to_string(h.count));
  out->append(", \"sum\": ");
  out->append(FormatDouble(h.sum));
  out->append("}");
}

}  // namespace

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out.append(", ");
    first = false;
    out.append(QuoteString(name) + ": " + std::to_string(value));
  }
  out.append("}, \"gauges\": {");
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out.append(", ");
    first = false;
    out.append(QuoteString(name) + ": " + FormatDouble(value));
  }
  out.append("}, \"histograms\": {");
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (!first) out.append(", ");
    first = false;
    out.append(QuoteString(name) + ": ");
    AppendHistogramJson(histogram, &out);
  }
  out.append("}}");
  return out;
}

std::string MetricsToCsv(const MetricsSnapshot& snapshot) {
  std::string out = "type,name,field,value\n";
  for (const auto& [name, value] : snapshot.counters) {
    out.append("counter," + name + ",value," + std::to_string(value) + "\n");
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out.append("gauge," + name + ",value," + FormatDouble(value) + "\n");
  }
  for (const auto& [name, h] : snapshot.histograms) {
    out.append("histogram," + name + ",count," + std::to_string(h.count) +
               "\n");
    out.append("histogram," + name + ",sum," + FormatDouble(h.sum) + "\n");
    out.append("histogram," + name + ",mean," + FormatDouble(h.Mean()) + "\n");
    out.append("histogram," + name + ",p50," +
               FormatDouble(h.Percentile(0.50)) + "\n");
    out.append("histogram," + name + ",p95," +
               FormatDouble(h.Percentile(0.95)) + "\n");
    out.append("histogram," + name + ",p99," +
               FormatDouble(h.Percentile(0.99)) + "\n");
  }
  return out;
}

}  // namespace vc
