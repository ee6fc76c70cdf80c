#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "obs/json_walker.hpp"

namespace mobirescue::bench {

BenchTiming MeasureNsPerOp(const std::function<void()>& fn,
                           double min_time_s) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up: first-touch allocations, instruction cache
  std::int64_t batch = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::int64_t i = 0; i < batch; ++i) fn();
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (elapsed_s >= min_time_s || batch >= (std::int64_t{1} << 40)) {
      return {elapsed_s * 1e9 / static_cast<double>(batch), batch};
    }
    // Grow toward the target with 20% headroom; at least double so a
    // too-fast clock readout cannot stall the calibration.
    std::int64_t next = batch * 2;
    if (elapsed_s > 0.0) {
      const double scaled =
          static_cast<double>(batch) * min_time_s / elapsed_s * 1.2;
      if (scaled > static_cast<double>(next)) {
        next = static_cast<std::int64_t>(scaled);
      }
    }
    batch = next;
  }
}

OverheadMeasurement MeasureOverheadMedian(
    const std::function<void()>& baseline,
    const std::function<void()>& subject, double min_time_s, int reps,
    int runs) {
  if (reps < 1) reps = 1;
  if (runs < 1) runs = 1;
  std::vector<OverheadMeasurement> measured;
  measured.reserve(static_cast<std::size_t>(runs));
  for (int run = 0; run < runs; ++run) {
    OverheadMeasurement m;
    for (int rep = 0; rep < reps; ++rep) {
      const BenchTiming b = MeasureNsPerOp(baseline, min_time_s);
      const BenchTiming s = MeasureNsPerOp(subject, min_time_s);
      if (rep == 0 || b.ns_per_op < m.baseline.ns_per_op) m.baseline = b;
      if (rep == 0 || s.ns_per_op < m.subject.ns_per_op) m.subject = s;
    }
    m.overhead_pct = (m.subject.ns_per_op - m.baseline.ns_per_op) /
                     m.baseline.ns_per_op * 100.0;
    measured.push_back(m);
  }
  std::sort(measured.begin(), measured.end(),
            [](const OverheadMeasurement& a, const OverheadMeasurement& b) {
              return a.overhead_pct < b.overhead_pct;
            });
  // Lower middle for even run counts: still discards the worst run.
  return measured[(measured.size() - 1) / 2];
}

void WriteBenchJsonFile(const std::string& path, const std::string& label,
                        const std::vector<BenchRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("WriteBenchJsonFile: cannot open " + path);
  out << "{\n";
  out << "  \"schema\": \"mobirescue-bench-v1\",\n";
  out << "  \"label\": \"" << obs::EscapeJson(label) << "\",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << "    {\"op\": \"" << obs::EscapeJson(r.op) << "\", \"size\": \""
        << obs::EscapeJson(r.size)
        << "\", \"ns_per_op\": " << obs::FormatDouble(r.ns_per_op)
        << ", \"iterations\": " << r.iterations << ", \"speedup_vs_scalar\": "
        << obs::FormatDouble(r.speedup_vs_scalar) << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  if (!out.good()) {
    throw std::runtime_error("WriteBenchJsonFile: write failed for " + path);
  }
}

namespace {

using obs::JsonCursor;

struct ParsedRecord {
  std::string op, size;
  double ns_per_op = 0.0;
  double iterations = 0.0;
  bool has_op = false, has_size = false, has_ns = false, has_iters = false;
};

bool ParseRecord(JsonCursor& cur, ParsedRecord* rec) {
  if (!cur.Consume('{')) return false;
  for (;;) {
    std::string key;
    if (!cur.ParseString(&key)) return false;
    if (!cur.Consume(':')) return false;
    if (key == "op" || key == "size") {
      std::string value;
      if (!cur.ParseString(&value)) return false;
      (key == "op" ? rec->op : rec->size) = value;
      (key == "op" ? rec->has_op : rec->has_size) = true;
    } else {
      double value = 0.0;
      if (!cur.ParseNumber(&value)) return false;
      if (key == "ns_per_op") {
        rec->ns_per_op = value;
        rec->has_ns = true;
      } else if (key == "iterations") {
        rec->iterations = value;
        rec->has_iters = true;
      }
      // Unknown numeric keys (e.g. a future field) are tolerated.
    }
    if (!cur.ConsumeIf(',')) return cur.Consume('}');
  }
}

}  // namespace

bool ValidateBenchJsonFile(const std::string& path, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  std::string text;
  if (!obs::ReadWholeFile(path, &text, error)) return false;
  JsonCursor cur(text);

  if (!cur.Consume('{')) return fail(cur.error);
  bool saw_schema = false, saw_label = false, saw_results = false;
  std::size_t num_records = 0;
  for (;;) {
    std::string key;
    if (!cur.ParseString(&key)) return fail(cur.error);
    if (!cur.Consume(':')) return fail(cur.error);
    if (key == "schema") {
      std::string value;
      if (!cur.ParseString(&value)) return fail(cur.error);
      if (value != "mobirescue-bench-v1") {
        return fail("unexpected schema tag: " + value);
      }
      saw_schema = true;
    } else if (key == "label") {
      std::string value;
      if (!cur.ParseString(&value)) return fail(cur.error);
      if (value.empty()) return fail("empty label");
      saw_label = true;
    } else if (key == "results") {
      if (!cur.Consume('[')) return fail(cur.error);
      if (!cur.ConsumeIf(']')) {
        for (;;) {
          ParsedRecord rec;
          if (!ParseRecord(cur, &rec)) return fail(cur.error);
          ++num_records;
          const std::string where =
              "results[" + std::to_string(num_records - 1) + "]: ";
          if (!rec.has_op || rec.op.empty()) return fail(where + "missing op");
          if (!rec.has_size || rec.size.empty()) {
            return fail(where + "missing size");
          }
          if (!rec.has_ns || !(rec.ns_per_op > 0.0) ||
              !std::isfinite(rec.ns_per_op)) {
            return fail(where + "ns_per_op must be finite and positive");
          }
          if (!rec.has_iters || !(rec.iterations >= 1.0)) {
            return fail(where + "iterations must be >= 1");
          }
          if (cur.ConsumeIf(',')) continue;
          if (!cur.Consume(']')) return fail(cur.error);
          break;
        }
      }
      saw_results = true;
    } else {
      return fail("unexpected top-level key: " + key);
    }
    if (cur.ConsumeIf(',')) continue;
    if (!cur.Consume('}')) return fail(cur.error);
    break;
  }
  if (!saw_schema) return fail("missing schema tag");
  if (!saw_label) return fail("missing label");
  if (!saw_results) return fail("missing results array");
  if (num_records == 0) return fail("results array is empty");
  return true;
}

}  // namespace mobirescue::bench
