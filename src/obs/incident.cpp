#include "obs/incident.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/json_walker.hpp"

namespace mobirescue::obs {

namespace {

/// Triggers become part of the filename: keep [A-Za-z0-9_-], fold the rest.
std::string SanitizeTrigger(const std::string& trigger) {
  std::string out;
  out.reserve(trigger.size());
  for (const char c : trigger) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out += ok ? c : '-';
  }
  return out.empty() ? std::string("incident") : out;
}

void RequireGood(const std::ostream& out, const std::string& path) {
  if (!out.good()) {
    throw std::runtime_error("IncidentWriter: write failed for " + path);
  }
}

void WriteBundleJson(std::ostream& out, const IncidentConfig& config,
                     const std::string& trigger, std::uint64_t sequence,
                     const std::vector<Event>& events,
                     std::uint64_t events_dropped,
                     const std::vector<MetricSnapshot>& metrics,
                     const SnapshotDelta& delta, std::size_t spans_retained) {
  out << "{\n";
  out << "  \"schema\": \"mobirescue-incident-v1\",\n";
  out << "  \"label\": \"" << EscapeJson(config.label) << "\",\n";
  out << "  \"trigger\": \"" << EscapeJson(trigger) << "\",\n";
  out << "  \"sequence\": " << sequence << ",\n";
  out << "  \"events_dropped\": " << events_dropped << ",\n";
  out << "  \"spans_retained\": " << spans_retained << ",\n";
  out << "  \"events\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"seq\": %llu, \"ts_us\": %.3f, \"severity\": "
                  "\"%s\", \"component\": \"%s\", \"kind\": \"%s\", "
                  "\"attrs\": \"",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<double>(e.ts_ns) / 1000.0,
                  SeverityName(e.severity), e.component, e.kind);
    out << buf << EscapeJson(e.attrs) << "\"}"
        << (i + 1 < events.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSnapshot& m = metrics[i];
    const double value = m.kind == InstrumentKind::kHistogram
                             ? static_cast<double>(m.histogram.count)
                             : m.value;
    std::snprintf(buf, sizeof(buf),
                  "\", \"kind\": \"%s\", \"value\": %.12g, \"delta\": %.12g}",
                  KindName(m.kind), value, value - delta.Baseline(m.name));
    out << "    {\"name\": \"" << EscapeJson(m.name) << buf
        << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

/// Chrome-trace view of the incident window: the retained spans as "X"
/// complete events plus each flight event as an "i" instant marker, on one
/// timeline (the trace recorder's epoch; the flight recorder's epoch
/// offset is applied, negative timestamps clamp to 0).
void WriteIncidentTrace(std::ostream& out, const std::vector<Event>& events,
                        const std::vector<TraceEvent>& spans,
                        std::int64_t flight_minus_trace_epoch_ns) {
  out << "{\n";
  out << "  \"displayTimeUnit\": \"ms\",\n";
  out << "  \"traceEvents\": [\n";
  bool first = true;
  char buf[192];
  for (const TraceEvent& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"cat\": \"obs\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                  s.name, s.tid, static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0);
    out << (first ? "" : ",\n") << buf;
    first = false;
  }
  for (const Event& e : events) {
    const std::int64_t ts_ns =
        static_cast<std::int64_t>(e.ts_ns) + flight_minus_trace_epoch_ns;
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", "
                  "\"s\": \"p\", \"pid\": 1, \"tid\": 0, \"ts\": %.3f, "
                  "\"args\": {\"severity\": \"%s\", \"attrs\": \"",
                  e.kind, e.component,
                  ts_ns > 0 ? static_cast<double>(ts_ns) / 1000.0 : 0.0,
                  SeverityName(e.severity));
    out << (first ? "" : ",\n") << buf << EscapeJson(e.attrs) << "\"}}";
    first = false;
  }
  out << (first ? "" : "\n");
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

IncidentWriter::IncidentWriter(IncidentConfig config,
                               const Registry& registry,
                               FlightRecorder& flight,
                               const TraceRecorder& trace)
    : config_(std::move(config)),
      registry_(&registry),
      flight_(&flight),
      trace_(&trace),
      delta_(registry) {}

std::string IncidentWriter::Dump(const std::string& trigger) {
  if (!enabled()) return "";
  ++sequence_;
  char seq_buf[64];
  std::snprintf(seq_buf, sizeof(seq_buf), "incident-%06llu-",
                static_cast<unsigned long long>(sequence_));
  const std::string base =
      config_.dir + "/" + seq_buf + SanitizeTrigger(trigger);
  const std::string path = base + ".json";

  const std::vector<Event> events =
      flight_->CollectRecent(config_.event_window);
  const std::vector<MetricSnapshot> metrics = registry_->Snapshot();
  const std::vector<TraceEvent> spans = trace_->Collect();

  {
    std::ofstream out(path);
    if (!out) {
      throw std::runtime_error("IncidentWriter: cannot open " + path);
    }
    WriteBundleJson(out, config_, trigger, sequence_, events,
                    flight_->dropped(), metrics, delta_, spans.size());
    RequireGood(out, path);
  }
  if (config_.chrome_trace) {
    const std::string trace_path = base + ".trace.json";
    std::ofstream out(trace_path);
    if (!out) {
      throw std::runtime_error("IncidentWriter: cannot open " + trace_path);
    }
    WriteIncidentTrace(out, events, spans,
                       flight_->epoch_steady_ns() - trace_->epoch_steady_ns());
    RequireGood(out, trace_path);
  }
  // The next bundle reports movement since this one.
  delta_.Rebase();
  return path;
}

// --- Validator -------------------------------------------------------------

namespace {

bool ValidSeverity(const std::string& s) {
  return s == "info" || s == "warn" || s == "error";
}

bool ValidateOneIncidentEvent(JsonCursor& cur, std::size_t index,
                              std::string* kind_out) {
  const std::string where = "events[" + std::to_string(index) + "]: ";
  if (!cur.Consume('{')) return false;
  std::string severity, component, kind;
  bool has_seq = false, has_ts = false, has_attrs = false;
  for (;;) {
    std::string key;
    if (!cur.ParseString(&key)) return false;
    if (!cur.Consume(':')) return false;
    if (key == "seq") {
      double v;
      if (!cur.ParseNumber(&v)) return false;
      has_seq = true;
    } else if (key == "ts_us") {
      double v;
      if (!cur.ParseNumber(&v)) return false;
      has_ts = true;
    } else if (key == "severity") {
      if (!cur.ParseString(&severity)) return false;
    } else if (key == "component") {
      if (!cur.ParseString(&component)) return false;
    } else if (key == "kind") {
      if (!cur.ParseString(&kind)) return false;
    } else if (key == "attrs") {
      std::string attrs;
      if (!cur.ParseString(&attrs)) return false;
      has_attrs = true;
    } else {
      if (!cur.SkipValue()) return false;
    }
    if (cur.ConsumeIf(',')) continue;
    if (!cur.Consume('}')) return false;
    break;
  }
  if (!has_seq) return cur.Fail(where + "missing seq");
  if (!has_ts) return cur.Fail(where + "missing ts_us");
  if (!ValidSeverity(severity)) {
    return cur.Fail(where + "bad severity '" + severity + "'");
  }
  if (component.empty()) return cur.Fail(where + "missing component");
  if (kind.empty()) return cur.Fail(where + "missing kind");
  if (!has_attrs) return cur.Fail(where + "missing attrs");
  if (kind_out != nullptr) *kind_out = kind;
  return true;
}

bool ValidateOneIncidentMetric(JsonCursor& cur, std::size_t index) {
  const std::string where = "metrics[" + std::to_string(index) + "]: ";
  if (!cur.Consume('{')) return false;
  std::string name, kind;
  bool has_value = false, has_delta = false;
  for (;;) {
    std::string key;
    if (!cur.ParseString(&key)) return false;
    if (!cur.Consume(':')) return false;
    if (key == "name") {
      if (!cur.ParseString(&name)) return false;
    } else if (key == "kind") {
      if (!cur.ParseString(&kind)) return false;
    } else if (key == "value") {
      double v;
      if (!cur.ParseNumber(&v)) return false;
      has_value = true;
    } else if (key == "delta") {
      double v;
      if (!cur.ParseNumber(&v)) return false;
      has_delta = true;
    } else {
      if (!cur.SkipValue()) return false;
    }
    if (cur.ConsumeIf(',')) continue;
    if (!cur.Consume('}')) return false;
    break;
  }
  if (name.empty()) return cur.Fail(where + "missing name");
  if (kind != "counter" && kind != "gauge" && kind != "histogram") {
    return cur.Fail(where + "unknown kind '" + kind + "'");
  }
  if (!has_value || !has_delta) {
    return cur.Fail(where + "needs value and delta");
  }
  return true;
}

bool WalkIncidentFile(const std::string& path,
                      std::vector<std::string>* kinds, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  std::string text;
  if (!ReadWholeFile(path, &text, error)) return false;
  JsonCursor cur(text);

  if (!cur.Consume('{')) return fail(cur.error);
  bool saw_schema = false, saw_trigger = false, saw_label = false,
       saw_sequence = false, saw_events = false, saw_metrics = false;
  for (;;) {
    std::string key;
    if (!cur.ParseString(&key)) return fail(cur.error);
    if (!cur.Consume(':')) return fail(cur.error);
    if (key == "schema") {
      std::string value;
      if (!cur.ParseString(&value)) return fail(cur.error);
      if (value != "mobirescue-incident-v1") {
        return fail("unexpected schema tag: " + value);
      }
      saw_schema = true;
    } else if (key == "label") {
      std::string value;
      if (!cur.ParseString(&value)) return fail(cur.error);
      if (value.empty()) return fail("empty label");
      saw_label = true;
    } else if (key == "trigger") {
      std::string value;
      if (!cur.ParseString(&value)) return fail(cur.error);
      if (value.empty()) return fail("empty trigger");
      saw_trigger = true;
    } else if (key == "sequence") {
      double v;
      if (!cur.ParseNumber(&v)) return fail(cur.error);
      if (v < 1.0) return fail("sequence must be >= 1");
      saw_sequence = true;
    } else if (key == "events") {
      if (!cur.Consume('[')) return fail(cur.error);
      if (!cur.ConsumeIf(']')) {
        std::size_t index = 0;
        for (;;) {
          std::string kind;
          if (!ValidateOneIncidentEvent(cur, index, &kind)) {
            return fail(cur.error);
          }
          if (kinds != nullptr) kinds->push_back(std::move(kind));
          ++index;
          if (cur.ConsumeIf(',')) continue;
          if (!cur.Consume(']')) return fail(cur.error);
          break;
        }
      }
      saw_events = true;
    } else if (key == "metrics") {
      if (!cur.Consume('[')) return fail(cur.error);
      if (!cur.ConsumeIf(']')) {
        std::size_t index = 0;
        for (;;) {
          if (!ValidateOneIncidentMetric(cur, index)) return fail(cur.error);
          ++index;
          if (cur.ConsumeIf(',')) continue;
          if (!cur.Consume(']')) return fail(cur.error);
          break;
        }
      }
      saw_metrics = true;
    } else {
      if (!cur.SkipValue()) return fail(cur.error);  // events_dropped, ...
    }
    if (cur.ConsumeIf(',')) continue;
    if (!cur.Consume('}')) return fail(cur.error);
    break;
  }
  if (!saw_schema) return fail("missing schema tag");
  if (!saw_label) return fail("missing label");
  if (!saw_trigger) return fail("missing trigger");
  if (!saw_sequence) return fail("missing sequence");
  if (!saw_events) return fail("missing events array");
  if (!saw_metrics) return fail("missing metrics array");
  return true;
}

}  // namespace

bool ValidateIncidentJsonFile(const std::string& path, std::string* error) {
  return WalkIncidentFile(path, nullptr, error);
}

bool ReadIncidentEventKinds(const std::string& path,
                            std::vector<std::string>* kinds,
                            std::string* error) {
  return WalkIncidentFile(path, kinds, error);
}

}  // namespace mobirescue::obs
