// Hostile-input tests for the one JSON cursor (obs/json_walker.hpp) behind
// every validator: the incident bundle, the Chrome trace, the metrics JSON
// and the BENCH JSON. Deep nesting fails cleanly instead of exhausting the
// stack, and seeded mutations of real files (replace, delete, duplicate,
// truncate, nest) validate or fail with an error: never a throw, a crash or
// a large allocation.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/exposition.hpp"
#include "obs/incident.hpp"
#include "obs/json_walker.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__)
// From the sanitizer runtime (compiler-rt's sanitizer/allocator_interface.h,
// which GCC does not install).
extern "C" void __sanitizer_purge_allocator();
#endif

namespace mobirescue::obs {
namespace {

/// A per-process scratch path: ctest runs every test in its own process,
/// in parallel.
std::string ScratchPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "json_fuzz_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Under AddressSanitizer freed blocks wait in a quarantine (256 MB by
/// default) before they are reused, which reads as RSS growth over a long
/// loop. Draining it now and then keeps the peak a measure of what the
/// validators allocate; elsewhere this does nothing.
void DrainSanitizerQuarantine() {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_purge_allocator();
#endif
}

using Validator = std::function<bool(const std::string&, std::string*)>;

struct Format {
  const char* name;
  std::string text;  // a real file the writers produced
  std::vector<Validator> validators;
};

bool ReadKinds(const std::string& path, std::string* error) {
  std::vector<std::string> kinds;
  return ReadIncidentEventKinds(path, &kinds, error);
}

/// Real files of all four formats, written by the production writers.
std::vector<Format> RealFiles() {
  Registry registry;
  Counter errors(registry, "json_fuzz_errors_total", "Errors.");
  Gauge depth(registry, "json_fuzz_depth", "Depth.");
  Histogram latency(registry, "json_fuzz_latency_ms", "Latency.",
                    {0.5, 1.0, 2.5});
  errors.Increment(3);
  depth.Set(1.5);
  latency.Observe(0.7);
  latency.Observe(9.0);
  FlightRecorder flight;
  flight.Emit(Severity::kWarn, "serve", "quarantine", "person=3 why=\"x\"");
  flight.Emit(Severity::kError, "serve", "kill", "tick=97");
  TraceRecorder trace;
  trace.Enable();
  { ScopedSpan span("serve.tick", trace); }
  { ScopedSpan span("serve.decide", trace); }

  IncidentConfig config;
  config.dir = std::string(::testing::TempDir());
  config.label = "json_fuzz_" + std::to_string(::getpid());
  IncidentWriter writer(config, registry, flight, trace);
  const std::string bundle = writer.Dump(config.label);
  const std::string bundle_trace =
      bundle.substr(0, bundle.size() - 5) + ".trace.json";

  const std::string chrome = ScratchPath("chrome.json");
  WriteChromeTraceFile(chrome, trace);
  const std::string metrics = ScratchPath("metrics.json");
  WriteMetricsJsonFile(metrics, "fuzz", registry);
  const std::string bench_path = ScratchPath("bench.json");
  bench::WriteBenchJsonFile(bench_path, "fuzz",
                            {{"gemm", "m=4", 12.5, 100, 0.0},
                             {"span", "n=1", 70.25, 4096, 1.5}});

  std::vector<Format> formats = {
      {"bundle", ReadFile(bundle), {ValidateIncidentJsonFile, ReadKinds}},
      {"bundle_trace", ReadFile(bundle_trace), {ValidateChromeTraceFile}},
      {"chrome", ReadFile(chrome), {ValidateChromeTraceFile}},
      {"metrics", ReadFile(metrics), {ValidateMetricsJsonFile}},
      {"bench", ReadFile(bench_path), {bench::ValidateBenchJsonFile}},
  };
  for (const std::string& path :
       {bundle, bundle_trace, chrome, metrics, bench_path}) {
    std::remove(path.c_str());
  }
  return formats;
}

/// `depth` nested arrays: "[[[...]]]".
std::string Nested(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonCursorTest, NestingIsBoundedAtMaxDepth) {
  const std::string ok = Nested(JsonCursor::kMaxDepth);
  JsonCursor shallow(ok);
  EXPECT_TRUE(shallow.SkipValue()) << shallow.error;

  const std::string deep = Nested(JsonCursor::kMaxDepth + 1);
  JsonCursor cur(deep);
  EXPECT_FALSE(cur.SkipValue());
  EXPECT_EQ(cur.error, "nesting too deep");
}

TEST(JsonCursorTest, NumbersReadWhatTheWritersWrite) {
  // FormatDouble's 12 digits (its extremes, nan and inf included) read in
  // full; a '+' sign and a number no double holds fail with an error.
  for (const double v : {0.0, -1.5, 1e5, 4.9406564584124654e-324,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::infinity()}) {
    const std::string text = FormatDouble(v);
    JsonCursor cur(text);
    double got = 0.0;
    EXPECT_TRUE(cur.ParseNumber(&got)) << text << ": " << cur.error;
    EXPECT_EQ(cur.p, cur.end) << text;
  }
  for (const char* text : {"+1", "1e400", "-1e400", "x"}) {
    const std::string bad = text;
    JsonCursor cur(bad);
    double got = 0.0;
    EXPECT_FALSE(cur.ParseNumber(&got)) << text;
    EXPECT_FALSE(cur.error.empty()) << text;
  }
}

TEST(JsonCursorTest, MillionDeepInputsFailEveryValidatorWithAnError) {
  // An unknown field holding 1,000,000 nested arrays used to overflow the
  // stack in the recursive skip.
  const std::string deep = Nested(1000000);
  struct Case {
    const char* name;
    std::string text;
    Validator validate;
    bool reaches_skip;  // the nesting sits where the cursor skips a value
  };
  const std::vector<Case> cases = {
      {"incident",
       "{\"schema\": \"mobirescue-incident-v1\", \"events\": [{\"seq\": 1, "
       "\"x\": " + deep + "}]}",
       ValidateIncidentJsonFile, true},
      {"incident_kinds", "{\"events_dropped\": " + deep + "}", ReadKinds,
       true},
      {"chrome",
       "{\"traceEvents\": [{\"name\": \"a\", \"args\": " + deep + "}]}",
       ValidateChromeTraceFile, true},
      {"metrics",
       "{\"schema\": \"mobirescue-metrics-v1\", \"metrics\": [{\"name\": "
       "\"a\", \"x\": " + deep + "}]}",
       ValidateMetricsJsonFile, true},
      {"bench", "{\"results\": " + deep + "}", bench::ValidateBenchJsonFile,
       false},
  };
  for (const Case& c : cases) {
    const std::string path = ScratchPath(std::string("deep_") + c.name);
    WriteFile(path, c.text);
    std::string error;
    EXPECT_FALSE(c.validate(path, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
    if (c.reaches_skip) {
      EXPECT_EQ(error, "nesting too deep") << c.name;
    }
    std::remove(path.c_str());
  }
}

/// One seeded mutation of `text`.
std::string Mutate(const std::string& text, int kind, util::Rng& rng) {
  static const char kAlphabet[] = "{}[]\":,0123456789-+.eE tfnu\\\n";
  const std::size_t at = rng.Index(text.size() + 1);
  const std::size_t len = 1 + rng.Index(32);
  std::string out = text;
  switch (kind) {
    case 0:  // replace one byte
      if (at < out.size()) {
        out[at] = kAlphabet[rng.Index(sizeof(kAlphabet) - 1)];
      }
      break;
    case 1:  // delete a run
      out.erase(at, len);
      break;
    case 2:  // duplicate a run in place
      out.insert(at, text.substr(at, len));
      break;
    case 3:  // truncate
      out.resize(at);
      break;
    default: {  // nest: an unknown field of shallow or deep arrays
      const std::size_t depth = rng.Bernoulli(0.5) ? 1 + rng.Index(80)
                                                   : 1 + rng.Index(200000);
      const std::size_t brace = text.find('{', rng.Index(text.size()));
      const std::size_t where = brace == std::string::npos ? at : brace + 1;
      out.insert(where, "\"zz\": " + Nested(depth) + ", ");
      break;
    }
  }
  return out;
}

TEST(JsonMutationTest, SeededMutantsValidateOrFailWithAnError) {
  const std::vector<Format> formats = RealFiles();
  for (const Format& f : formats) {
    ASSERT_FALSE(f.text.empty()) << f.name;
    const std::string path = ScratchPath(std::string("real_") + f.name);
    WriteFile(path, f.text);
    for (const Validator& validate : f.validators) {
      std::string error;
      EXPECT_TRUE(validate(path, &error)) << f.name << ": " << error;
    }
    std::remove(path.c_str());
  }

  DrainSanitizerQuarantine();
  const long rss0 = PeakRssKb();
  util::Rng rng(20261017);
  const char* const kKinds[] = {"replace", "delete", "duplicate", "truncate",
                                "nest"};
  int accepted = 0, rejected = 0, too_deep = 0;
  constexpr int kMutantsPerFormat = 300;
  for (const Format& f : formats) {
    const std::string path = ScratchPath(std::string("mutant_") + f.name);
    for (int i = 0; i < kMutantsPerFormat; ++i) {
      if (i % 32 == 0) DrainSanitizerQuarantine();
      const int kind = i % 5;
      WriteFile(path, Mutate(f.text, kind, rng));
      for (const Validator& validate : f.validators) {
        std::string error;
        bool ok = false;
        try {
          ok = validate(path, &error);
        } catch (const std::exception& e) {
          ADD_FAILURE() << f.name << " " << kKinds[kind] << " #" << i
                        << " threw: " << e.what();
          continue;
        }
        if (ok) {
          ++accepted;
        } else {
          ++rejected;
          EXPECT_FALSE(error.empty())
              << f.name << " " << kKinds[kind] << " #" << i;
          if (error == "nesting too deep") ++too_deep;
        }
      }
    }
    std::remove(path.c_str());
  }
  EXPECT_LT(PeakRssKb() - rss0, 256 * 1024) << "peak RSS grew (KB)";
  // Both outcomes occur, and the nest mutations reach the depth bound.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(too_deep, 0);
}

}  // namespace
}  // namespace mobirescue::obs
