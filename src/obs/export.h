#ifndef VC_OBS_EXPORT_H_
#define VC_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace vc {

/// Serializes a snapshot as one JSON object:
///
///   {"counters": {"net.transfers": 12, ...},
///    "gauges": {"net.goodput_bps": 8.1e6, ...},
///    "histograms": {"storage.read_seconds":
///        {"bounds": [...], "counts": [...], "count": 9, "sum": 0.004}, ...}}
///
/// Numbers use shortest-round-trip formatting, so a JSON reader recovers
/// exactly the values that were serialized.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// Serializes a snapshot as CSV rows `type,name,field,value` — counters and
/// gauges one row each, histograms one row per aggregate (count, sum, mean,
/// p50, p95, p99). Includes a header line.
std::string MetricsToCsv(const MetricsSnapshot& snapshot);

}  // namespace vc

#endif  // VC_OBS_EXPORT_H_
