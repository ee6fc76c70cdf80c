// Substrate microbenchmarks: the hot paths every experiment leans on —
// Dijkstra routing, reverse trees, spatial-index matching, flood
// evaluation, SVM kernel evaluation and DQN inference.
//
// Two modes:
//   (default)            google-benchmark over the substrate ops.
//   --json PATH [--smoke] machine-readable ML-kernel timings: GEMM, MLP
//                         forward/backward, SVM train/predict and batched
//                         Q-scoring, each against its naive scalar
//                         reference where one exists, written as
//                         mobirescue-bench-v1 JSON (see bench_json.hpp).
//                         --smoke shrinks every problem so the whole run
//                         fits in a CI smoke test.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "ml/nn/mlp.hpp"
#include "ml/svm/kernel.hpp"
#include "ml/svm/svm.hpp"
#include "rl/dqn_agent.hpp"
#include "roadnet/city_builder.hpp"
#include "roadnet/router.hpp"
#include "roadnet/spatial_index.hpp"
#include "util/rng.hpp"
#include "weather/flood_model.hpp"
#include "weather/scenario.hpp"

using namespace mobirescue;

namespace {

const roadnet::City& TestCity() {
  static const roadnet::City city = [] {
    roadnet::CityConfig config;
    return roadnet::BuildCity(config);  // 24x24 default
  }();
  return city;
}

/// TestCity() at the evaluation storm's peak: 746 of its 2,224 segments
/// are closed and a tree reaches ~341 of the 576 landmarks, where the
/// all-open benches reach every one (a served day's hour closes ~860).
const roadnet::NetworkCondition& FloodedCondition() {
  static const roadnet::NetworkCondition cond = [] {
    const roadnet::City& city = TestCity();
    const weather::ScenarioSpec spec = weather::FlorenceScenario();
    const weather::WeatherField field(city.box, spec.storm);
    const weather::FloodModel flood(field, city.terrain);
    return flood.NetworkConditionAt(city.network, spec.storm.storm_peak_s);
  }();
  return cond;
}

void BM_DijkstraTree(benchmark::State& state) {
  const roadnet::City& city = TestCity();
  roadnet::Router router(city.network);
  roadnet::NetworkCondition cond(city.network.num_segments());
  util::Rng rng(1);
  for (auto _ : state) {
    const auto source = static_cast<roadnet::LandmarkId>(
        rng.Index(city.network.num_landmarks()));
    benchmark::DoNotOptimize(router.Tree(source, cond));
  }
}
BENCHMARK(BM_DijkstraTree)->Unit(benchmark::kMicrosecond);

void BM_DijkstraTreeFlooded(benchmark::State& state) {
  const roadnet::City& city = TestCity();
  roadnet::Router router(city.network);
  const roadnet::NetworkCondition& cond = FloodedCondition();
  util::Rng rng(1);
  for (auto _ : state) {
    const auto source = static_cast<roadnet::LandmarkId>(
        rng.Index(city.network.num_landmarks()));
    benchmark::DoNotOptimize(router.Tree(source, cond));
  }
}
BENCHMARK(BM_DijkstraTreeFlooded)->Unit(benchmark::kMicrosecond);

void BM_ReverseTree(benchmark::State& state) {
  const roadnet::City& city = TestCity();
  roadnet::Router router(city.network);
  roadnet::NetworkCondition cond(city.network.num_segments());
  util::Rng rng(2);
  for (auto _ : state) {
    const auto target = static_cast<roadnet::LandmarkId>(
        rng.Index(city.network.num_landmarks()));
    benchmark::DoNotOptimize(router.ReverseTree(target, cond));
  }
}
BENCHMARK(BM_ReverseTree)->Unit(benchmark::kMicrosecond);

void BM_ReverseTreeFlooded(benchmark::State& state) {
  const roadnet::City& city = TestCity();
  roadnet::Router router(city.network);
  const roadnet::NetworkCondition& cond = FloodedCondition();
  util::Rng rng(2);
  for (auto _ : state) {
    const auto target = static_cast<roadnet::LandmarkId>(
        rng.Index(city.network.num_landmarks()));
    benchmark::DoNotOptimize(router.ReverseTree(target, cond));
  }
}
BENCHMARK(BM_ReverseTreeFlooded)->Unit(benchmark::kMicrosecond);

void BM_PointToPointRoute(benchmark::State& state) {
  const roadnet::City& city = TestCity();
  roadnet::Router router(city.network);
  roadnet::NetworkCondition cond(city.network.num_segments());
  util::Rng rng(3);
  for (auto _ : state) {
    const auto a = static_cast<roadnet::LandmarkId>(
        rng.Index(city.network.num_landmarks()));
    const auto b = static_cast<roadnet::LandmarkId>(
        rng.Index(city.network.num_landmarks()));
    benchmark::DoNotOptimize(router.ShortestRoute(a, b, cond));
  }
}
BENCHMARK(BM_PointToPointRoute)->Unit(benchmark::kMicrosecond);

void BM_NearestSegment(benchmark::State& state) {
  const roadnet::City& city = TestCity();
  roadnet::SpatialIndex index(city.network, city.box);
  util::Rng rng(4);
  for (auto _ : state) {
    const util::GeoPoint p =
        city.box.At(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    benchmark::DoNotOptimize(index.NearestSegment(p));
  }
}
BENCHMARK(BM_NearestSegment)->Unit(benchmark::kNanosecond);

void BM_FloodNetworkCondition(benchmark::State& state) {
  const roadnet::City& city = TestCity();
  const weather::ScenarioSpec spec = weather::FlorenceScenario();
  weather::WeatherField field(city.box, spec.storm);
  weather::FloodModel flood(field, city.terrain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flood.NetworkConditionAt(city.network, spec.storm.storm_peak_s));
  }
}
BENCHMARK(BM_FloodNetworkCondition)->Unit(benchmark::kMicrosecond);

void BM_RbfKernel(benchmark::State& state) {
  ml::KernelConfig config;
  const std::vector<double> x = {0.3, -0.8, 1.2};
  const std::vector<double> y = {-1.0, 0.5, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::EvalKernel(config, x, y));
  }
}
BENCHMARK(BM_RbfKernel)->Unit(benchmark::kNanosecond);

void BM_MlpForward(benchmark::State& state) {
  ml::MlpConfig config;
  config.input_dim = 11;
  config.hidden = {32, 32};
  ml::Mlp net(config);
  const std::vector<double> x(11, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Predict(x));
  }
}
BENCHMARK(BM_MlpForward)->Unit(benchmark::kNanosecond);

// ---------------------------------------------------------------------------
// --json mode: ML-kernel timings against naive scalar references.

// The seed's triple-loop GEMM, kept verbatim as the scalar baseline the
// blocked kernels are compared against.
ml::Matrix NaiveMatMul(const ml::Matrix& a, const ml::Matrix& b) {
  ml::Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double v = a(i, k);
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += v * b(k, j);
      }
    }
  }
  return out;
}

ml::Matrix RandomMatrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  ml::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

// Naive per-row MLP inference over the flattened weights (SaveWeights
// layout: per layer, w row-major (in x out) then b), scalar loops only.
std::vector<double> NaiveMlpForward(const std::vector<double>& flat,
                                    const ml::MlpConfig& config,
                                    std::vector<double> act) {
  std::vector<std::size_t> dims;
  dims.push_back(config.input_dim);
  for (const std::size_t h : config.hidden) dims.push_back(h);
  dims.push_back(config.output_dim);
  std::size_t pos = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::size_t in = dims[l], out_dim = dims[l + 1];
    const double* w = flat.data() + pos;
    const double* b = w + in * out_dim;
    pos += in * out_dim + out_dim;
    std::vector<double> out(out_dim);
    for (std::size_t o = 0; o < out_dim; ++o) {
      double v = b[o];
      for (std::size_t i = 0; i < in; ++i) v += act[i] * w[i * out_dim + o];
      const bool last = (l + 2 == dims.size());
      out[o] = (!last && v < 0.0) ? 0.0 : v;  // hidden ReLU, linear head
    }
    act = std::move(out);
  }
  return act;
}

// Decision function over the un-flattened support vectors, the way the
// seed's DecisionValue evaluated it (per-vector EvalKernel calls).
double NaiveDecisionValue(const ml::SvmModel& model,
                          const std::vector<double>& row) {
  double v = model.bias();
  for (std::size_t i = 0; i < model.num_support_vectors(); ++i) {
    v += model.coefficient(i) *
         ml::EvalKernel(model.kernel(), model.support_vector(i), row);
  }
  return v;
}

ml::SvmDataset BlobDataset(std::size_t n, util::Rng& rng) {
  ml::SvmDataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double cx = positive ? 1.5 : -1.5;
    data.Add({cx + rng.Normal(0, 1.0), rng.Normal(0, 1.0),
              rng.Normal(0, 1.0)},
             positive ? 1 : -1);
  }
  return data;
}

void TimePair(std::vector<bench::BenchRecord>& records, const std::string& op,
              const std::string& size, const std::function<void()>& fast,
              const std::function<void()>& scalar, double min_time_s) {
  const bench::BenchTiming fast_t = bench::MeasureNsPerOp(fast, min_time_s);
  bench::BenchRecord rec{op, size, fast_t.ns_per_op, fast_t.iterations, 0.0};
  if (scalar) {
    const bench::BenchTiming ref = bench::MeasureNsPerOp(scalar, min_time_s);
    rec.speedup_vs_scalar = ref.ns_per_op / fast_t.ns_per_op;
  }
  records.push_back(std::move(rec));
  std::printf("%-14s %-28s %12.1f ns/op", records.back().op.c_str(),
              records.back().size.c_str(), records.back().ns_per_op);
  if (records.back().speedup_vs_scalar > 0.0) {
    std::printf("  %5.2fx vs scalar", records.back().speedup_vs_scalar);
  }
  std::printf("\n");
}

int RunJsonMode(const std::string& path, bool smoke) {
  const double min_time_s = smoke ? 0.02 : 0.25;
  std::vector<bench::BenchRecord> records;
  util::Rng rng(99);

  // GEMM: blocked Matrix::MatMul vs the seed triple loop.
  for (const std::size_t n : smoke ? std::vector<std::size_t>{8}
                                   : std::vector<std::size_t>{32, 96, 192}) {
    const ml::Matrix a = RandomMatrix(n, n, rng);
    const ml::Matrix b = RandomMatrix(n, n, rng);
    TimePair(records, "gemm",
             "m=" + std::to_string(n) + ",k=" + std::to_string(n) +
                 ",n=" + std::to_string(n),
             [&] { benchmark::DoNotOptimize(a.MatMul(b)); },
             [&] { benchmark::DoNotOptimize(NaiveMatMul(a, b)); },
             min_time_s);
  }

  // MLP forward: batched PredictBatch vs naive per-row scalar loops.
  ml::MlpConfig mlp_config;
  mlp_config.input_dim = 11;
  mlp_config.hidden = {32, 32};
  const ml::Mlp net(mlp_config);
  const std::vector<double> flat = net.SaveWeights();
  const std::string net_size = "net=11-32-32-1";
  for (const std::size_t batch : smoke ? std::vector<std::size_t>{1, 8}
                                       : std::vector<std::size_t>{1, 32, 128}) {
    const ml::Matrix x = RandomMatrix(batch, mlp_config.input_dim, rng);
    TimePair(records, "mlp_forward",
             "batch=" + std::to_string(batch) + "," + net_size,
             [&] { benchmark::DoNotOptimize(net.PredictBatch(x)); },
             [&] {
               for (std::size_t r = 0; r < x.rows(); ++r) {
                 std::vector<double> row(
                     x.data().begin() + r * x.cols(),
                     x.data().begin() + (r + 1) * x.cols());
                 benchmark::DoNotOptimize(
                     NaiveMlpForward(flat, mlp_config, std::move(row)));
               }
             },
             min_time_s);
  }

  // MLP backward: one Forward+Backward pair (no scalar reference — the
  // gain comes from the shared GEMM kernels already measured above).
  {
    const std::size_t batch = smoke ? 8 : 64;
    ml::Mlp train_net(mlp_config);
    const ml::Matrix x = RandomMatrix(batch, mlp_config.input_dim, rng);
    const ml::Matrix targets = RandomMatrix(batch, 1, rng);
    TimePair(records, "mlp_backward",
             "batch=" + std::to_string(batch) + "," + net_size,
             [&] {
               train_net.Forward(x);
               benchmark::DoNotOptimize(train_net.Backward(targets));
             },
             nullptr, min_time_s);
  }

  // SVM train: SMO with the error cache vs full per-candidate decision
  // recomputation (the seed path, use_error_cache = false).
  const std::size_t svm_n = smoke ? 48 : 320;
  const ml::SvmDataset svm_data = BlobDataset(svm_n, rng);
  ml::SvmConfig svm_config;
  svm_config.c = 2.0;
  {
    ml::SvmConfig scalar_config = svm_config;
    scalar_config.use_error_cache = false;
    TimePair(records, "svm_train", "n=" + std::to_string(svm_n) + ",dim=3",
             [&] { benchmark::DoNotOptimize(ml::TrainSvm(svm_data, svm_config)); },
             [&] {
               benchmark::DoNotOptimize(ml::TrainSvm(svm_data, scalar_config));
             },
             min_time_s);
  }

  // SVM predict: batched DecisionValues vs per-row per-vector EvalKernel.
  {
    const ml::SvmModel model = ml::TrainSvm(svm_data, svm_config);
    const std::size_t queries = smoke ? 32 : 256;
    std::vector<std::vector<double>> query_rows;
    for (std::size_t i = 0; i < queries; ++i) {
      query_rows.push_back({rng.Uniform(-2, 2), rng.Uniform(-2, 2),
                            rng.Uniform(-2, 2)});
    }
    TimePair(records, "svm_predict",
             "rows=" + std::to_string(queries) +
                 ",nsv=" + std::to_string(model.num_support_vectors()),
             [&] { benchmark::DoNotOptimize(model.DecisionValues(query_rows)); },
             [&] {
               for (const std::vector<double>& row : query_rows) {
                 benchmark::DoNotOptimize(NaiveDecisionValue(model, row));
               }
             },
             min_time_s);
  }

  // Q-scoring: one batched QValues pass vs one 1-row forward per candidate
  // (how dispatch scored candidates before the batch-first rewire).
  {
    rl::DqnConfig dqn_config;
    const rl::DqnAgent agent(dqn_config);
    const std::size_t candidates = smoke ? 8 : 64;
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < candidates; ++i) {
      std::vector<double> row(dqn_config.feature_dim);
      for (double& v : row) v = rng.Uniform(-1.0, 1.0);
      rows.push_back(std::move(row));
    }
    TimePair(records, "q_scoring",
             "candidates=" + std::to_string(candidates),
             [&] { benchmark::DoNotOptimize(agent.QValues(rows)); },
             [&] {
               for (const std::vector<double>& row : rows) {
                 benchmark::DoNotOptimize(agent.QValue(row));
               }
             },
             min_time_s);
  }

  bench::WriteBenchJsonFile(path, smoke ? "micro-smoke" : "micro", records);
  std::string error;
  if (!bench::ValidateBenchJsonFile(path, &error)) {
    std::fprintf(stderr, "%s failed validation: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records, schema valid)\n", path.c_str(),
              records.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (!json_path.empty()) return RunJsonMode(json_path, smoke);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
