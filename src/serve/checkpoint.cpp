#include "serve/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "ml/serialize.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::serve {

namespace {

constexpr const char* kCkptMagic = "mobirescue-ckpt-v1";
constexpr const char* kDqnMagic = "mobirescue-dqn-v1";
constexpr const char* kServeStateMagic = "mobirescue-serve-state-v1";
constexpr const char* kServeStateEnd = "mobirescue-serve-state-end";
constexpr const char* kLearnMagic = "mobirescue-learn-v1";
constexpr const char* kLearnEnd = "mobirescue-learn-end";

// Sanity bounds for sizes read from a (possibly corrupt) file. Generous vs
// anything the system produces; the feature dimension and layer count
// share ml::kMaxFeatureDim / ml::kMaxHiddenLayers. No count sizes an
// allocation: containers grow as their elements are read, so a short
// input fails at its first missing token.
constexpr std::size_t kMaxHiddenWidth = 1u << 16;
constexpr std::size_t kMaxWeightCount = 1u << 28;
constexpr std::size_t kMaxStateRecords = 1u << 26;
constexpr std::size_t kMaxFlowEntries = 1u << 28;
constexpr std::size_t kMaxLearnTokens = 1u << 26;

void ExpectToken(std::istream& is, const char* token) {
  std::string got;
  if (!(is >> got) || got != token) {
    throw std::runtime_error(std::string("LoadCheckpoint: expected ") + token);
  }
}

/// strtod-based double parsing: accepts nan/inf (operator>> does not) and
/// rejects partially-numeric tokens.
double ReadDouble(std::istream& is, const char* what) {
  std::string tok;
  if (!(is >> tok)) {
    throw std::runtime_error(std::string("LoadCheckpoint: missing ") + what);
  }
  const char* begin = tok.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end != begin + tok.size() || end == begin) {
    throw std::runtime_error(std::string("LoadCheckpoint: bad ") + what +
                             " '" + tok + "'");
  }
  return v;
}

std::size_t ReadCount(std::istream& is, std::size_t max, const char* what) {
  std::uint64_t n = 0;
  if (!(is >> n)) {
    throw std::runtime_error(std::string("LoadCheckpoint: missing ") + what);
  }
  if (n > max) {
    throw std::runtime_error(std::string("LoadCheckpoint: ") + what +
                             " out of range");
  }
  return static_cast<std::size_t>(n);
}

void SaveWeightBlock(const std::vector<double>& weights,
                     util::TextWriter& out) {
  out << weights.size() << '\n';
  for (double w : weights) out << w << ' ';
  out << '\n';
}

void LoadWeightBlock(std::vector<double>& weights, std::istream& is,
                     std::size_t expected) {
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error("LoadCheckpoint: bad DQN size");
  // Empty target blocks mean "sync target to online on restore"; any other
  // size must match the topology exactly — this is what stops a corrupt
  // header from driving a huge allocation.
  if (n != expected && n != 0) {
    throw std::runtime_error(
        "LoadCheckpoint: DQN weight block size does not match topology");
  }
  weights.clear();
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(ReadDouble(is, "DQN weight"));
  }
}

void SaveDqn(const rl::DqnConfig& config, const std::vector<double>& weights,
             const std::vector<double>& target_weights,
             util::TextWriter& out) {
  out << kDqnMagic << '\n';
  out << config.feature_dim << ' ' << config.hidden.size();
  for (std::size_t h : config.hidden) out << ' ' << h;
  out << '\n'
      << config.gamma << ' ' << config.learning_rate << ' '
      << config.batch_size << ' ' << config.buffer_capacity << ' '
      << config.target_sync_every << ' ' << config.epsilon_start << ' '
      << config.epsilon_end << ' ' << config.epsilon_decay_steps << ' '
      << config.seed << '\n';
  SaveWeightBlock(weights, out);
  SaveWeightBlock(target_weights, out);
}

void LoadDqn(rl::DqnConfig& config, std::vector<double>& weights,
             std::vector<double>& target_weights, std::istream& is) {
  ExpectToken(is, kDqnMagic);
  std::size_t layers = 0;
  if (!(is >> config.feature_dim >> layers)) {
    throw std::runtime_error("LoadCheckpoint: bad DQN topology");
  }
  if (config.feature_dim == 0 || config.feature_dim > ml::kMaxFeatureDim ||
      layers > ml::kMaxHiddenLayers) {
    throw std::runtime_error("LoadCheckpoint: DQN topology out of range");
  }
  config.hidden.resize(layers);
  for (std::size_t& h : config.hidden) {
    if (!(is >> h)) throw std::runtime_error("LoadCheckpoint: bad DQN hidden");
    if (h == 0 || h > kMaxHiddenWidth) {
      throw std::runtime_error("LoadCheckpoint: DQN hidden width out of range");
    }
  }
  if (!(is >> config.gamma >> config.learning_rate >> config.batch_size >>
        config.buffer_capacity >> config.target_sync_every >>
        config.epsilon_start >> config.epsilon_end >>
        config.epsilon_decay_steps >> config.seed)) {
    throw std::runtime_error("LoadCheckpoint: bad DQN hyperparameters");
  }
  const std::size_t expected = ExpectedDqnWeightCount(config);
  if (expected > kMaxWeightCount) {
    throw std::runtime_error("LoadCheckpoint: DQN parameter count too large");
  }
  LoadWeightBlock(weights, is, expected);
  LoadWeightBlock(target_weights, is, expected);
}

void SaveRecord(const mobility::GpsRecord& r, util::TextWriter& out) {
  out << r.person << ' ' << r.t << ' ' << r.pos.lat << ' ' << r.pos.lon << ' '
      << r.altitude_m << ' ' << r.speed_mps << '\n';
}

mobility::GpsRecord LoadRecord(std::istream& is) {
  mobility::GpsRecord r;
  if (!(is >> r.person)) {
    throw std::runtime_error("LoadCheckpoint: bad record person id");
  }
  r.t = ReadDouble(is, "record time");
  r.pos.lat = ReadDouble(is, "record lat");
  r.pos.lon = ReadDouble(is, "record lon");
  r.altitude_m = ReadDouble(is, "record altitude");
  r.speed_mps = ReadDouble(is, "record speed");
  return r;
}

void SaveServingState(const ServingState& s, util::TextWriter& out) {
  out << kServeStateMagic << '\n';
  out << s.ticks << ' ' << s.watermark << '\n';
  out << "latest " << s.latest.size() << '\n';
  for (const mobility::GpsRecord& r : s.latest) SaveRecord(r, out);
  out << "deferred " << s.deferred.size() << '\n';
  for (const mobility::GpsRecord& r : s.deferred) SaveRecord(r, out);
  out << "counters " << s.counters.applied << ' ' << s.counters.matched << ' '
      << s.counters.unmatched << ' ' << s.counters.quarantined_non_finite
      << ' ' << s.counters.quarantined_out_of_box << ' '
      << s.counters.quarantined_stale << '\n';
  out << "flow-cells " << s.flow_cells.size() << '\n';
  for (const auto& [idx, count] : s.flow_cells) {
    out << idx << ' ' << count << '\n';
  }
  out << "flow-seen " << s.flow_seen.size() << '\n';
  for (const std::uint64_t key : s.flow_seen) out << key << ' ';
  out << '\n' << kServeStateEnd << '\n';
}

ServingState LoadServingState(std::istream& is) {
  // Caller has already consumed kServeStateMagic.
  ServingState s;
  if (!(is >> s.ticks)) {
    throw std::runtime_error("LoadCheckpoint: bad serving tick count");
  }
  s.watermark = ReadDouble(is, "serving watermark");
  ExpectToken(is, "latest");
  const std::size_t latest =
      ReadCount(is, kMaxStateRecords, "latest record count");
  for (std::size_t i = 0; i < latest; ++i) s.latest.push_back(LoadRecord(is));
  ExpectToken(is, "deferred");
  const std::size_t deferred =
      ReadCount(is, kMaxStateRecords, "deferred record count");
  for (std::size_t i = 0; i < deferred; ++i) {
    s.deferred.push_back(LoadRecord(is));
  }
  ExpectToken(is, "counters");
  if (!(is >> s.counters.applied >> s.counters.matched >>
        s.counters.unmatched >> s.counters.quarantined_non_finite >>
        s.counters.quarantined_out_of_box >> s.counters.quarantined_stale)) {
    throw std::runtime_error("LoadCheckpoint: bad stream counters");
  }
  ExpectToken(is, "flow-cells");
  const std::size_t cells = ReadCount(is, kMaxFlowEntries, "flow cell count");
  for (std::size_t i = 0; i < cells; ++i) {
    auto& [idx, count] = s.flow_cells.emplace_back();
    if (!(is >> idx >> count)) {
      throw std::runtime_error("LoadCheckpoint: bad flow cell");
    }
  }
  ExpectToken(is, "flow-seen");
  const std::size_t seen = ReadCount(is, kMaxFlowEntries, "flow seen count");
  for (std::size_t i = 0; i < seen; ++i) {
    std::uint64_t& key = s.flow_seen.emplace_back();
    if (!(is >> key)) {
      throw std::runtime_error("LoadCheckpoint: bad flow dedup key");
    }
  }
  ExpectToken(is, kServeStateEnd);
  return s;
}

}  // namespace

std::size_t ExpectedDqnWeightCount(const rl::DqnConfig& config) {
  // Mirrors the Mlp layout the agent builds: feature_dim -> hidden... -> 1,
  // each layer contributing in*out weights + out biases.
  std::size_t count = 0;
  std::size_t in = config.feature_dim;
  for (const std::size_t h : config.hidden) {
    count += in * h + h;
    in = h;
  }
  count += in + 1;  // linear output head (out = 1)
  return count;
}

ServiceCheckpoint MakeCheckpoint(const rl::DqnAgent& agent,
                                 const predict::SvmRequestPredictor& svm) {
  ServiceCheckpoint ckpt;
  ckpt.dqn = agent.config();
  ckpt.dqn_weights = agent.SaveWeights();
  ckpt.dqn_target_weights = agent.SaveTargetWeights();
  ckpt.svm = svm.model();
  ckpt.svm_scaler = svm.scaler();
  ckpt.svm_threshold = svm.threshold();
  return ckpt;
}

void SaveCheckpoint(const ServiceCheckpoint& ckpt, std::ostream& os) {
  util::TextWriter out;
  out << kCkptMagic << '\n';
  SaveDqn(ckpt.dqn, ckpt.dqn_weights, ckpt.dqn_target_weights, out);
  ml::SaveSvm(ckpt.svm, out);
  ml::SaveScaler(ckpt.svm_scaler, out);
  out << ckpt.svm_threshold << '\n';
  if (ckpt.has_serving_state) SaveServingState(ckpt.serving, out);
  // The learner blob carries its own begin/end magics; written verbatim.
  out << ckpt.learner_state;
  out.WriteTo(os);
  if (!os) throw std::runtime_error("SaveCheckpoint: write failed");
}

ServiceCheckpoint LoadCheckpoint(std::istream& is) {
  ExpectToken(is, kCkptMagic);
  ServiceCheckpoint ckpt;
  LoadDqn(ckpt.dqn, ckpt.dqn_weights, ckpt.dqn_target_weights, is);
  ckpt.svm = ml::LoadSvm(is);
  ckpt.svm_scaler = ml::LoadScaler(is);
  // The predictor scales each (P, W, A) factor row into one flat buffer,
  // then scores it with the SVM, so both must take exactly those factors
  // (an SVM without support vectors has no dimension).
  constexpr std::size_t kFactors = predict::SvmRequestPredictor::kNumFactors;
  if (ckpt.svm_scaler.dimension() != kFactors ||
      (ckpt.svm.num_support_vectors() != 0 &&
       ckpt.svm.dimension() != kFactors)) {
    throw std::runtime_error(
        "LoadCheckpoint: SVM or scaler does not take the 3 factors");
  }
  ckpt.svm_threshold = ReadDouble(is, "threshold");
  // Optional serving-state and learner sections; EOF here is a valid
  // model-only file.
  std::string token;
  if (!(is >> token)) return ckpt;
  if (token == kServeStateMagic) {
    ckpt.serving = LoadServingState(is);
    ckpt.has_serving_state = true;
    if (!(is >> token)) return ckpt;
  }
  if (token == kLearnMagic) {
    // Captured token-wise into the opaque blob the learner parses itself;
    // token capture whitespace-normalises, which the format permits.
    std::string blob = token;
    bool closed = false;
    std::size_t tokens = 0;
    while (is >> token) {
      blob += ' ';
      blob += token;
      if (++tokens > kMaxLearnTokens) {
        throw std::runtime_error("LoadCheckpoint: learner state too large");
      }
      if (token == kLearnEnd) {
        closed = true;
        break;
      }
    }
    if (!closed) {
      throw std::runtime_error("LoadCheckpoint: truncated learner state");
    }
    ckpt.learner_state = std::move(blob);
    if (!(is >> token)) return ckpt;
  }
  throw std::runtime_error("LoadCheckpoint: trailing garbage after checkpoint");
}

void SaveCheckpointToFile(const ServiceCheckpoint& ckpt,
                          const std::string& path) {
  // Written beside `path` and renamed over it only once complete and
  // closed, so a failed save (a full disk, a file-size limit) leaves the
  // previous checkpoint in place. No fsync: power-loss durability is not
  // promised, and disk latency would land in the serving tick.
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream os(tmp);
    if (!os) {
      throw std::runtime_error("SaveCheckpointToFile: cannot open " + tmp);
    }
    SaveCheckpoint(ckpt, os);
    os.close();
    if (!os) {
      throw std::runtime_error("SaveCheckpointToFile: cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("SaveCheckpointToFile: cannot rename " + tmp +
                               " to " + path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

ServiceCheckpoint LoadCheckpointFromFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("LoadCheckpointFromFile: cannot open " + path);
  }
  return LoadCheckpoint(is);
}

std::shared_ptr<rl::DqnAgent> RestoreAgent(const ServiceCheckpoint& ckpt) {
  auto agent = std::make_shared<rl::DqnAgent>(ckpt.dqn);
  agent->LoadWeights(ckpt.dqn_weights);
  if (!ckpt.dqn_target_weights.empty()) {
    agent->LoadTargetWeights(ckpt.dqn_target_weights);
  }
  return agent;
}

std::unique_ptr<predict::SvmRequestPredictor> RestorePredictor(
    const ServiceCheckpoint& ckpt, const weather::FactorSampler& factors) {
  return std::make_unique<predict::SvmRequestPredictor>(
      factors, ckpt.svm, ckpt.svm_scaler, ckpt.svm_threshold);
}

}  // namespace mobirescue::serve
