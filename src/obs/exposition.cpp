#include "obs/exposition.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json_walker.hpp"

namespace mobirescue::obs {

namespace {

std::string EscapeHelp(const std::string& s) {
  // Prometheus HELP lines escape backslash and newline only.
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void RequireGood(const std::ostream& out, const std::string& what,
                 const std::string& path) {
  if (!out.good()) {
    throw std::runtime_error(what + ": write failed for " + path);
  }
}

}  // namespace

// --- Prometheus text -------------------------------------------------------

void WritePrometheusText(const Registry& registry, std::ostream& out) {
  for (const MetricSnapshot& m : registry.Snapshot()) {
    if (!m.help.empty()) {
      out << "# HELP " << m.name << " " << EscapeHelp(m.help) << "\n";
    }
    out << "# TYPE " << m.name << " " << KindName(m.kind) << "\n";
    switch (m.kind) {
      case InstrumentKind::kCounter:
        out << m.name << " "
            << static_cast<std::uint64_t>(m.value) << "\n";
        break;
      case InstrumentKind::kGauge:
        out << m.name << " " << FormatDouble(m.value) << "\n";
        break;
      case InstrumentKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.histogram.counts.size(); ++b) {
          cumulative += m.histogram.counts[b];
          out << m.name << "_bucket{le=\"";
          if (b < m.histogram.bounds.size()) {
            out << FormatDouble(m.histogram.bounds[b]);
          } else {
            out << "+Inf";
          }
          out << "\"} " << cumulative << "\n";
        }
        out << m.name << "_sum " << FormatDouble(m.histogram.sum) << "\n";
        out << m.name << "_count " << m.histogram.count << "\n";
        break;
      }
    }
  }
}

std::string PrometheusText(const Registry& registry) {
  std::ostringstream os;
  WritePrometheusText(registry, os);
  return os.str();
}

void WritePrometheusTextFile(const std::string& path,
                             const Registry& registry) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WritePrometheusTextFile: cannot open " + path);
  }
  WritePrometheusText(registry, out);
  RequireGood(out, "WritePrometheusTextFile", path);
}

// --- Metrics JSON ----------------------------------------------------------

void WriteMetricsJson(const Registry& registry, const std::string& label,
                      std::ostream& out) {
  const std::vector<MetricSnapshot> metrics = registry.Snapshot();
  out << "{\n";
  out << "  \"schema\": \"mobirescue-metrics-v1\",\n";
  out << "  \"label\": \"" << EscapeJson(label) << "\",\n";
  out << "  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSnapshot& m = metrics[i];
    out << "    {\"name\": \"" << EscapeJson(m.name) << "\", \"kind\": \""
        << KindName(m.kind) << "\"";
    if (m.kind == InstrumentKind::kHistogram) {
      out << ", \"count\": " << m.histogram.count
          << ", \"sum\": " << FormatDouble(m.histogram.sum)
          << ", \"buckets\": [";
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < m.histogram.counts.size(); ++b) {
        cumulative += m.histogram.counts[b];
        out << "{\"le\": ";
        if (b < m.histogram.bounds.size()) {
          out << FormatDouble(m.histogram.bounds[b]);
        } else {
          out << "\"+Inf\"";
        }
        out << ", \"count\": " << cumulative << "}"
            << (b + 1 < m.histogram.counts.size() ? ", " : "");
      }
      out << "]";
    } else {
      out << ", \"value\": " << FormatDouble(m.value);
    }
    out << "}" << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

void WriteMetricsJsonFile(const std::string& path, const std::string& label,
                          const Registry& registry) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteMetricsJsonFile: cannot open " + path);
  }
  WriteMetricsJson(registry, label, out);
  RequireGood(out, "WriteMetricsJsonFile", path);
}

// --- Chrome trace ----------------------------------------------------------

void WriteChromeTrace(const TraceRecorder& recorder, std::ostream& out) {
  const std::vector<TraceEvent> events = recorder.Collect();
  out << "{\n";
  out << "  \"displayTimeUnit\": \"ms\",\n";
  out << "  \"traceEvents\": [\n";
  // Thread-name metadata first, one per distinct tid (tids are small and
  // dense: recorder-assigned 1, 2, ...).
  std::uint32_t max_tid = 0;
  for (const TraceEvent& e : events) max_tid = std::max(max_tid, e.tid);
  bool first = true;
  char buf[160];
  for (std::uint32_t tid = 1; tid <= max_tid; ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"name\": \"obs-thread-%u\"}}",
                  tid, tid);
    out << (first ? "" : ",\n") << buf;
    first = false;
  }
  for (const TraceEvent& e : events) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"cat\": \"obs\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                  e.name, e.tid, static_cast<double>(e.start_ns) / 1000.0,
                  static_cast<double>(e.dur_ns) / 1000.0);
    out << (first ? "" : ",\n") << buf;
    first = false;
  }
  out << (first ? "" : "\n");
  out << "  ]\n";
  out << "}\n";
}

void WriteChromeTraceFile(const std::string& path,
                          const TraceRecorder& recorder) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteChromeTraceFile: cannot open " + path);
  }
  WriteChromeTrace(recorder, out);
  RequireGood(out, "WriteChromeTraceFile", path);
}

// --- Validators ------------------------------------------------------------

namespace {

bool ValidateOneTraceEvent(JsonCursor& cur, std::size_t index) {
  const std::string where = "traceEvents[" + std::to_string(index) + "]: ";
  if (!cur.Consume('{')) return false;
  std::string name, ph;
  double ts = -1.0, dur = -1.0, pid = -1.0, tid = -1.0;
  bool has_name = false, has_ph = false, has_ts = false, has_dur = false,
       has_pid = false, has_tid = false;
  if (!cur.ConsumeIf('}')) {
    for (;;) {
      std::string key;
      if (!cur.ParseString(&key)) return false;
      if (!cur.Consume(':')) return false;
      if (key == "name") {
        if (!cur.ParseString(&name)) return false;
        has_name = true;
      } else if (key == "ph") {
        if (!cur.ParseString(&ph)) return false;
        has_ph = true;
      } else if (key == "ts") {
        if (!cur.ParseNumber(&ts)) return false;
        has_ts = true;
      } else if (key == "dur") {
        if (!cur.ParseNumber(&dur)) return false;
        has_dur = true;
      } else if (key == "pid") {
        if (!cur.ParseNumber(&pid)) return false;
        has_pid = true;
      } else if (key == "tid") {
        if (!cur.ParseNumber(&tid)) return false;
        has_tid = true;
      } else {
        if (!cur.SkipValue()) return false;  // "cat", "args", ...
      }
      if (cur.ConsumeIf(',')) continue;
      if (!cur.Consume('}')) return false;
      break;
    }
  }
  if (!has_name || name.empty()) return cur.Fail(where + "missing name");
  if (!has_ph) return cur.Fail(where + "missing ph");
  if (ph == "X") {
    if (!has_ts || ts < 0.0) {
      return cur.Fail(where + "complete event needs ts >= 0");
    }
    if (!has_dur || dur < 0.0) {
      return cur.Fail(where + "complete event needs dur >= 0");
    }
    if (!has_pid || !has_tid) {
      return cur.Fail(where + "complete event needs pid and tid");
    }
  } else if (ph == "i") {
    // Instant events: incident bundles mark flight events this way.
    if (!has_ts || ts < 0.0) {
      return cur.Fail(where + "instant event needs ts >= 0");
    }
    if (!has_pid || !has_tid) {
      return cur.Fail(where + "instant event needs pid and tid");
    }
  } else if (ph != "M") {
    return cur.Fail(where + "unexpected phase '" + ph + "'");
  }
  return true;
}

}  // namespace

bool ValidateChromeTraceFile(const std::string& path, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  std::string text;
  if (!ReadWholeFile(path, &text, error)) return false;
  JsonCursor cur(text);

  if (!cur.Consume('{')) return fail(cur.error);
  bool saw_events = false;
  std::size_t num_complete = 0;
  for (;;) {
    std::string key;
    if (!cur.ParseString(&key)) return fail(cur.error);
    if (!cur.Consume(':')) return fail(cur.error);
    if (key == "traceEvents") {
      if (!cur.Consume('[')) return fail(cur.error);
      if (!cur.ConsumeIf(']')) {
        std::size_t index = 0;
        for (;;) {
          if (!ValidateOneTraceEvent(cur, index)) return fail(cur.error);
          ++index;
          ++num_complete;
          if (cur.ConsumeIf(',')) continue;
          if (!cur.Consume(']')) return fail(cur.error);
          break;
        }
      }
      saw_events = true;
    } else {
      if (!cur.SkipValue()) return fail(cur.error);
    }
    if (cur.ConsumeIf(',')) continue;
    if (!cur.Consume('}')) return fail(cur.error);
    break;
  }
  if (!saw_events) return fail("missing traceEvents array");
  if (num_complete == 0) return fail("traceEvents array is empty");
  return true;
}

namespace {

bool ValidateOneMetric(JsonCursor& cur, std::size_t index) {
  const std::string where = "metrics[" + std::to_string(index) + "]: ";
  if (!cur.Consume('{')) return false;
  std::string name, kind;
  bool has_value = false, has_count = false, has_sum = false,
       has_buckets = false;
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
    } else if (key == "count") {
      double v;
      if (!cur.ParseNumber(&v)) return false;
      has_count = true;
    } else if (key == "sum") {
      double v;
      if (!cur.ParseNumber(&v)) return false;
      has_sum = true;
    } else if (key == "buckets") {
      if (!cur.Consume('[')) return false;
      if (!cur.ConsumeIf(']')) {
        for (;;) {
          if (!cur.Consume('{')) return false;
          for (;;) {
            std::string bkey;
            if (!cur.ParseString(&bkey)) return false;
            if (!cur.Consume(':')) return false;
            if (bkey == "le" && cur.Peek() == '"') {
              std::string le;
              if (!cur.ParseString(&le)) return false;
              if (le != "+Inf") {
                return cur.Fail(where + "non-numeric le must be +Inf");
              }
            } else {
              double v;
              if (!cur.ParseNumber(&v)) return false;
            }
            if (cur.ConsumeIf(',')) continue;
            if (!cur.Consume('}')) return false;
            break;
          }
          if (cur.ConsumeIf(',')) continue;
          if (!cur.Consume(']')) return false;
          break;
        }
      }
      has_buckets = true;
    } else {
      if (!cur.SkipValue()) return false;
    }
    if (cur.ConsumeIf(',')) continue;
    if (!cur.Consume('}')) return false;
    break;
  }
  if (name.empty()) return cur.Fail(where + "missing name");
  if (kind == "counter" || kind == "gauge") {
    if (!has_value) return cur.Fail(where + kind + " needs a value");
  } else if (kind == "histogram") {
    if (!has_count || !has_sum || !has_buckets) {
      return cur.Fail(where + "histogram needs count, sum and buckets");
    }
  } else {
    return cur.Fail(where + "unknown kind '" + kind + "'");
  }
  return true;
}

}  // namespace

bool ValidateMetricsJsonFile(const std::string& path, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  std::string text;
  if (!ReadWholeFile(path, &text, error)) return false;
  JsonCursor cur(text);

  if (!cur.Consume('{')) return fail(cur.error);
  bool saw_schema = false, saw_label = false, saw_metrics = false;
  for (;;) {
    std::string key;
    if (!cur.ParseString(&key)) return fail(cur.error);
    if (!cur.Consume(':')) return fail(cur.error);
    if (key == "schema") {
      std::string value;
      if (!cur.ParseString(&value)) return fail(cur.error);
      if (value != "mobirescue-metrics-v1") {
        return fail("unexpected schema tag: " + value);
      }
      saw_schema = true;
    } else if (key == "label") {
      std::string value;
      if (!cur.ParseString(&value)) return fail(cur.error);
      if (value.empty()) return fail("empty label");
      saw_label = true;
    } else if (key == "metrics") {
      if (!cur.Consume('[')) return fail(cur.error);
      if (!cur.ConsumeIf(']')) {
        std::size_t index = 0;
        for (;;) {
          if (!ValidateOneMetric(cur, index)) return fail(cur.error);
          ++index;
          if (cur.ConsumeIf(',')) continue;
          if (!cur.Consume(']')) return fail(cur.error);
          break;
        }
      }
      saw_metrics = true;
    } else {
      return fail("unexpected top-level key: " + key);
    }
    if (cur.ConsumeIf(',')) continue;
    if (!cur.Consume('}')) return fail(cur.error);
    break;
  }
  if (!saw_schema) return fail("missing schema tag");
  if (!saw_label) return fail("missing label");
  if (!saw_metrics) return fail("missing metrics array");
  return true;
}

}  // namespace mobirescue::obs
