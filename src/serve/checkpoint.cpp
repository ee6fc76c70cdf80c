#include "serve/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ml/serialize.hpp"
#include "util/text_reader.hpp"
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

void SaveWeightBlock(const std::vector<double>& weights,
                     util::TextWriter& out) {
  out << weights.size() << '\n';
  for (double w : weights) out << w << ' ';
  out << '\n';
}

void LoadWeightBlock(std::vector<double>& weights, util::TextReader& in,
                     std::size_t expected) {
  std::size_t n = 0;
  in >> n;
  // Empty target blocks mean "sync target to online on restore"; any other
  // size must match the topology exactly — this is what stops a corrupt
  // header from driving a huge allocation.
  if (n != expected && n != 0) {
    in.Fail("DQN weight block size does not match topology");
  }
  weights.clear();
  for (std::size_t i = 0; i < n; ++i) in >> weights.emplace_back();
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
             std::vector<double>& target_weights, util::TextReader& in) {
  in.Expect(kDqnMagic);
  in >> config.feature_dim;
  if (config.feature_dim == 0 || config.feature_dim > ml::kMaxFeatureDim) {
    in.Fail("DQN feature dimension out of range");
  }
  config.hidden.resize(in.Count(ml::kMaxHiddenLayers));
  for (std::size_t& h : config.hidden) {
    h = in.Count(kMaxHiddenWidth);
    if (h == 0) in.Fail("DQN hidden width out of range");
  }
  // The floating-point hyperparameters must be finite; the weights need not.
  config.gamma = in.Finite();
  config.learning_rate = in.Finite();
  in >> config.batch_size >> config.buffer_capacity >>
      config.target_sync_every;
  config.epsilon_start = in.Finite();
  config.epsilon_end = in.Finite();
  in >> config.epsilon_decay_steps >> config.seed;
  const std::size_t expected = ExpectedDqnWeightCount(config);
  if (expected > kMaxWeightCount) in.Fail("DQN parameter count too large");
  LoadWeightBlock(weights, in, expected);
  LoadWeightBlock(target_weights, in, expected);
}

void SaveRecord(const mobility::GpsRecord& r, util::TextWriter& out) {
  out << r.person << ' ' << r.t << ' ' << r.pos.lat << ' ' << r.pos.lon << ' '
      << r.altitude_m << ' ' << r.speed_mps << '\n';
}

mobility::GpsRecord LoadRecord(util::TextReader& in) {
  mobility::GpsRecord r;
  in >> r.person >> r.t >> r.pos.lat >> r.pos.lon >> r.altitude_m >>
      r.speed_mps;
  return r;
}

}  // namespace

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

namespace {

ServingState LoadServingState(util::TextReader& in) {
  // Caller has already consumed kServeStateMagic.
  ServingState s;
  in >> s.ticks >> s.watermark;
  in.Expect("latest");
  const std::size_t latest = in.Count(kMaxStateRecords);
  for (std::size_t i = 0; i < latest; ++i) s.latest.push_back(LoadRecord(in));
  in.Expect("deferred");
  const std::size_t deferred = in.Count(kMaxStateRecords);
  for (std::size_t i = 0; i < deferred; ++i) {
    s.deferred.push_back(LoadRecord(in));
  }
  in.Expect("counters");
  in >> s.counters.applied >> s.counters.matched >> s.counters.unmatched >>
      s.counters.quarantined_non_finite >> s.counters.quarantined_out_of_box >>
      s.counters.quarantined_stale;
  in.Expect("flow-cells");
  const std::size_t cells = in.Count(kMaxFlowEntries);
  for (std::size_t i = 0; i < cells; ++i) {
    auto& [idx, count] = s.flow_cells.emplace_back();
    in >> idx >> count;
  }
  in.Expect("flow-seen");
  const std::size_t seen = in.Count(kMaxFlowEntries);
  for (std::size_t i = 0; i < seen; ++i) in >> s.flow_seen.emplace_back();
  in.Expect(kServeStateEnd);
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

void SaveCheckpoint(const ServiceCheckpoint& ckpt, util::TextWriter& out) {
  out << kCkptMagic << '\n';
  SaveDqn(ckpt.dqn, ckpt.dqn_weights, ckpt.dqn_target_weights, out);
  ml::SaveSvm(ckpt.svm, out);
  ml::SaveScaler(ckpt.svm_scaler, out);
  out << ckpt.svm_threshold << '\n';
  if (ckpt.has_serving_state) SaveServingState(ckpt.serving, out);
  // The learner blob carries its own begin/end magics; written verbatim.
  out << ckpt.learner_state;
}

void SaveCheckpoint(const ServiceCheckpoint& ckpt, std::ostream& os) {
  util::TextWriter out;
  SaveCheckpoint(ckpt, out);
  out.WriteTo(os);
  if (!os) throw std::runtime_error("SaveCheckpoint: write failed");
}

ServiceCheckpoint LoadCheckpoint(std::string_view text) {
  util::TextReader in(text, "LoadCheckpoint");
  in.Expect(kCkptMagic);
  ServiceCheckpoint ckpt;
  LoadDqn(ckpt.dqn, ckpt.dqn_weights, ckpt.dqn_target_weights, in);
  ckpt.svm = ml::LoadSvm(in);
  ckpt.svm_scaler = ml::LoadScaler(in);
  // The predictor scales each (P, W, A) factor row into one flat buffer,
  // then scores it with the SVM, so both must take exactly those factors
  // (an SVM without support vectors has no dimension).
  constexpr std::size_t kFactors = predict::SvmRequestPredictor::kNumFactors;
  if (ckpt.svm_scaler.dimension() != kFactors ||
      (ckpt.svm.num_support_vectors() != 0 &&
       ckpt.svm.dimension() != kFactors)) {
    in.Fail("SVM or scaler does not take the 3 factors");
  }
  in >> ckpt.svm_threshold;
  // Optional serving-state and learner sections; the end of the input
  // here is a valid model-only file.
  if (in.AtEnd()) return ckpt;
  std::size_t section = in.offset();
  std::string_view token = in.Token();
  if (token == kServeStateMagic) {
    ckpt.serving = LoadServingState(in);
    ckpt.has_serving_state = true;
    if (in.AtEnd()) return ckpt;
    section = in.offset();
    token = in.Token();
  }
  if (token != kLearnMagic) in.Fail("trailing garbage after checkpoint");
  // The learner parses its own blob; here it is only found, bounded and
  // handed over verbatim, from its magic to the end of the input.
  std::size_t tokens = 1;  // the end token counts toward the bound
  while (in.Token() != kLearnEnd) {
    if (++tokens > kMaxLearnTokens) in.Fail("learner state too large");
  }
  if (!in.AtEnd()) in.Fail("trailing garbage after checkpoint");
  ckpt.learner_state = std::string(text.substr(section));
  return ckpt;
}

void SaveCheckpointToFile(const ServiceCheckpoint& ckpt,
                          const std::string& path) {
  util::TextWriter out;
  SaveCheckpoint(ckpt, out);
  WriteCheckpointText(out.view(), path);
}

void WriteCheckpointText(std::string_view text, const std::string& path) {
  // Written beside `path` and renamed over it only once complete and
  // closed, so a failed save (a full disk, a file-size limit) leaves the
  // previous checkpoint in place. No fsync: power-loss durability is not
  // promised, and disk latency would land in the serving tick.
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    throw std::runtime_error("SaveCheckpointToFile: cannot open " + tmp);
  }
  // Blocks allocated before the write: a rename that replaces a file makes
  // ext4 allocate and flush the new file's delayed blocks inside rename()
  // (auto_da_alloc), which took longer than the write (DESIGN.md §13.4).
  // Linux fallocate, not posix_fallocate, which glibc emulates by writing
  // zeros. A failure here (no support, a size limit) is left to the write
  // to report.
  ::fallocate(fd, 0, 0, static_cast<off_t>(text.size()));
  bool written = true;
  for (std::size_t done = 0; written && done < text.size();) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      written = false;
    }
  }
  if (::close(fd) != 0) written = false;
  if (!written) {
    std::remove(tmp.c_str());
    throw std::runtime_error("SaveCheckpointToFile: cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("SaveCheckpointToFile: cannot rename " + tmp +
                             " to " + path);
  }
}

ServiceCheckpoint LoadCheckpointFromFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("LoadCheckpointFromFile: cannot open " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return LoadCheckpoint(std::move(text).str());
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
