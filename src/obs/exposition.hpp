// Exposition: turning the metrics registry and the trace recorder into
// files other tools read (DESIGN.md §12).
//
//   PrometheusText         the standard text format a /metrics endpoint or
//                          node_exporter textfile collector serves
//   WriteMetricsJsonFile   "mobirescue-metrics-v1" snapshot, following the
//                          bench_json.hpp schema conventions (schema tag +
//                          label + flat records)
//   WriteChromeTraceFile   Chrome trace_event JSON ("traceEvents" array of
//                          complete "X" events) loadable in Perfetto /
//                          chrome://tracing
//   ValidateChromeTraceFile / ValidateMetricsJsonFile
//                          dependency-free structural validators on the
//                          one JSON cursor (obs/json_walker.hpp)
#pragma once

#include <ostream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mobirescue::obs {

/// Prometheus text exposition of every live metric: `# HELP`/`# TYPE`
/// headers, cumulative `_bucket{le="..."}` lines plus `_sum`/`_count` for
/// histograms.
std::string PrometheusText(const Registry& registry);
void WritePrometheusText(const Registry& registry, std::ostream& out);
/// Throws std::runtime_error when the file cannot be written.
void WritePrometheusTextFile(const std::string& path,
                             const Registry& registry);

/// JSON snapshot under the "mobirescue-metrics-v1" schema:
///   {"schema": "mobirescue-metrics-v1", "label": "...",
///    "metrics": [{"name": ..., "kind": "counter", "value": ...},
///                {"name": ..., "kind": "histogram", "count": ..,
///                 "sum": .., "buckets": [{"le": 0.5, "count": 3}, ...,
///                 {"le": "+Inf", "count": 9}]}]}
/// Bucket counts are cumulative, matching Prometheus semantics.
void WriteMetricsJson(const Registry& registry, const std::string& label,
                      std::ostream& out);
void WriteMetricsJsonFile(const std::string& path, const std::string& label,
                          const Registry& registry);
/// Structural check: schema tag, label, metrics array with name/kind and
/// the kind's required fields on every record.
bool ValidateMetricsJsonFile(const std::string& path, std::string* error);

/// Chrome trace_event JSON of every retained span (all threads), with
/// thread-name metadata events. Timestamps are microseconds since the
/// recorder's epoch.
void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& out);
void WriteChromeTraceFile(const std::string& path,
                          const TraceRecorder& recorder);
/// Structural check of a Chrome trace file: a top-level object with a
/// "traceEvents" array whose entries carry a non-empty name, a known phase
/// ("X" complete events need numeric ts >= 0, dur >= 0, pid, tid; "i"
/// instant events — incident markers — need ts >= 0, pid, tid). On
/// failure returns false and stores a description in `*error`.
bool ValidateChromeTraceFile(const std::string& path, std::string* error);

}  // namespace mobirescue::obs
