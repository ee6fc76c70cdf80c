// Checkpoint format and robustness, on a checkpoint with every section
// (DQN, SVM + scaler, serving state, and a learner blob whose replay buffer
// is non-empty):
//   - a file whose doubles carry max_digits10 (%.17g) digits, as files
//     written before the to_chars writer do, loads to the same bits;
//   - a save that fails part-way (file-size limit) throws and leaves the
//     previous checkpoint loadable;
//   - the learner blob comes back verbatim;
//   - no count read from a checkpoint or a learner blob sizes an
//     allocation before its elements are read;
//   - a number outside its field's type, or a nan/inf where a field must
//     be finite, throws std::runtime_error;
//   - a learner blob whose windows overflow their capacity, whose rows do
//     not fit the agent or whose rollback weights do not fit its promotion
//     state throws at load, so a blob that loads can serve;
//   - seeded token mutations load or throw std::runtime_error, and the
//     learner blobs that load restore or throw.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "file_size_limit.hpp"
#include "learn/learner.hpp"
#include "serve/checkpoint.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__)
// From the sanitizer runtime (compiler-rt's sanitizer/allocator_interface.h,
// which GCC does not install).
extern "C" void __sanitizer_purge_allocator();
#endif

namespace mobirescue::serve {
namespace {

constexpr std::size_t kFeatureDim = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

rl::Transition RandomTransition(util::Rng& rng, bool terminal) {
  rl::Transition t;
  t.features.resize(kFeatureDim);
  for (double& f : t.features) f = rng.Uniform(-1.0, 1.0);
  t.reward = rng.Uniform(-1.0, 1.0);
  t.terminal = terminal;
  t.duration_rounds = 1 + static_cast<int>(rng.Index(3));
  if (!terminal) {
    t.next_candidates.assign(3, std::vector<double>(kFeatureDim));
    for (auto& row : t.next_candidates) {
      for (double& f : row) f = rng.Uniform(-1.0, 1.0);
    }
  }
  return t;
}

/// A 5-16-8-1 agent that has trained: its target lags its online net.
std::shared_ptr<rl::DqnAgent> TrainedLiveAgent() {
  rl::DqnConfig config;
  config.feature_dim = kFeatureDim;
  config.hidden = {16, 8};
  config.batch_size = 16;
  config.seed = 77;
  auto agent = std::make_shared<rl::DqnAgent>(config);
  util::Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    agent->Push(RandomTransition(rng, i % 5 == 0));
  }
  for (int i = 0; i < 10; ++i) agent->TrainStep();
  return agent;
}

std::unique_ptr<learn::OnlineLearner> MakeLearner(
    std::shared_ptr<rl::DqnAgent> live) {
  return std::make_unique<learn::OnlineLearner>(
      learn::LearnConfig{}, dispatch::RewardWeights{}, std::move(live));
}

/// A learner blob whose candidate trained on a 40-transition buffer (Adam
/// moments, a moved sampler, a non-empty ring).
std::string LearnerBlob(const std::shared_ptr<rl::DqnAgent>& live) {
  auto learner = MakeLearner(live);
  util::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    learner->candidate().mutable_buffer().Push(
        RandomTransition(rng, i % 7 == 0));
  }
  for (int i = 0; i < 3; ++i) learner->candidate().TrainStep();
  return learner->SaveStateString();
}

mobility::GpsRecord Record(mobility::PersonId person, util::Rng& rng) {
  mobility::GpsRecord r;
  r.person = person;
  r.t = 3 * 86400.0 + rng.Uniform(0.0, 86400.0);
  r.pos.lat = 34.2 + rng.Uniform(0.0, 0.1);
  r.pos.lon = -77.9 + rng.Uniform(0.0, 0.1);
  r.altitude_m = rng.Uniform(-2.0, 40.0);
  r.speed_mps = rng.Uniform(0.0, 20.0);
  return r;
}

/// Every section, with -0, a subnormal, ±inf and ±NaN in the serving
/// records (fields that take them) and finite values where the model
/// readers require them.
ServiceCheckpoint FullCheckpoint(const std::shared_ptr<rl::DqnAgent>& live) {
  ServiceCheckpoint ckpt;
  ckpt.dqn = live->config();
  ckpt.dqn_weights = live->SaveWeights();
  ckpt.dqn_target_weights = live->SaveTargetWeights();

  ml::KernelConfig kernel;
  kernel.type = ml::KernelType::kRbf;
  kernel.gamma = 0.37;
  ckpt.svm = ml::SvmModel(
      kernel,
      {{0.25, -1.5, 3.0}, {-0.75, 2.25, -0.0}, {1.0 / 3.0, 0.1, 1e-310}},
      {0.5, -1.25, 0.8125}, -0.3217);
  ml::FeatureScaler scaler;
  scaler.Restore({10.5, -2.25, 100.0 / 7.0}, {3.75, 0.5, 12.1});
  ckpt.svm_scaler = scaler;
  ckpt.svm_threshold = 0.1234567890123456;

  ckpt.has_serving_state = true;
  ServingState& s = ckpt.serving;
  util::Rng rng(9);
  s.ticks = 97;
  s.watermark = 3 * 86400.0 + 97 * 300.0 + 0.1;
  for (mobility::PersonId p = 0; p < 24; ++p) {
    s.latest.push_back(Record(p, rng));
  }
  s.latest[1].altitude_m = -0.0;
  s.latest[2].speed_mps = std::numeric_limits<double>::denorm_min();
  s.latest[3].altitude_m = kInf;
  s.latest[4].altitude_m = -kInf;
  s.latest[5].speed_mps = kNaN;
  s.latest[6].speed_mps = -kNaN;
  for (mobility::PersonId p = 30; p < 33; ++p) {
    s.deferred.push_back(Record(p, rng));
  }
  s.counters = {400, 380, 20, 3, 2, 1};
  s.flow_cells = {{7, 3}, {19, 1}, {1ull << 40, 12}};
  s.flow_seen = {11, 1ull << 63, 12345678901234567ull};
  ckpt.learner_state = LearnerBlob(live);
  return ckpt;
}

std::string Save(const ServiceCheckpoint& ckpt) {
  std::ostringstream out;
  SaveCheckpoint(ckpt, out);
  return out.str();
}

/// The checkpoint without its learner blob, which a load keeps verbatim:
/// the blob of an older file still carries its max_digits10 digits, so it
/// is compared by restoring it instead.
std::string ModelAndServingText(ServiceCheckpoint ckpt) {
  ckpt.learner_state.clear();
  return Save(ckpt);
}

/// The blob as a fresh learner on `live`'s topology saves it after a
/// restore (the writer's text is a function of the restored bits).
std::string RestoredBlob(const std::shared_ptr<rl::DqnAgent>& live,
                         const std::string& blob) {
  auto learner = MakeLearner(live);
  learner->LoadStateString(blob);
  return learner->SaveStateString();
}

/// Re-prints every non-integer numeric token with %.17g, the digits
/// `ostream << setprecision(17)` wrote before the to_chars writer.
/// Whitespace and every other token stay as they are.
std::string ReprintAtMaxDigits10(const std::string& text) {
  std::string out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      out += text[i++];
      continue;
    }
    std::size_t end = i;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    const std::string tok = text.substr(i, end - i);
    i = end;
    char* parsed_end = nullptr;
    const double v = std::strtod(tok.c_str(), &parsed_end);
    const bool integer =
        tok.find_first_not_of("-0123456789") == std::string::npos;
    if (integer || parsed_end != tok.c_str() + tok.size()) {
      out += tok;
      continue;
    }
    char digits[40];
    std::snprintf(digits, sizeof(digits), "%.17g", v);
    out += digits;
  }
  return out;
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Under AddressSanitizer freed blocks wait in a quarantine (256 MB by
/// default) before they are reused, which reads as RSS growth over a long
/// loop. Draining it now and then keeps the peak a measure of what the
/// loaders allocate; elsewhere this does nothing.
void DrainSanitizerQuarantine() {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_purge_allocator();
#endif
}

TEST(CheckpointFormatTest, MaxDigits10TextLoadsToTheSameBits) {
  const auto live = TrainedLiveAgent();
  const ServiceCheckpoint ckpt = FullCheckpoint(live);
  const std::string text = Save(ckpt);
  const std::string old_text = ReprintAtMaxDigits10(text);
  // The writer's digits are never longer, and here strictly shorter.
  ASSERT_LT(text.size(), old_text.size());

  const ServiceCheckpoint from_writer = LoadCheckpoint(text);
  const ServiceCheckpoint from_old = LoadCheckpoint(old_text);
  EXPECT_EQ(from_writer.learner_state, ckpt.learner_state);
  EXPECT_EQ(Save(from_writer), text);
  const std::string want = ModelAndServingText(ckpt);
  EXPECT_EQ(ModelAndServingText(from_writer), want);
  EXPECT_EQ(ModelAndServingText(from_old), want);
  EXPECT_EQ(RestoredBlob(live, from_writer.learner_state), ckpt.learner_state);
  EXPECT_EQ(RestoredBlob(live, from_old.learner_state), ckpt.learner_state);

  // The special values spelled out, both sign bits kept.
  const std::vector<mobility::GpsRecord>& latest = from_old.serving.latest;
  EXPECT_TRUE(std::signbit(latest[1].altitude_m));
  EXPECT_EQ(latest[2].speed_mps, std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(latest[3].altitude_m, kInf);
  EXPECT_EQ(latest[4].altitude_m, -kInf);
  EXPECT_TRUE(std::isnan(latest[5].speed_mps));
  EXPECT_FALSE(std::signbit(latest[5].speed_mps));
  EXPECT_TRUE(std::isnan(latest[6].speed_mps));
  EXPECT_TRUE(std::signbit(latest[6].speed_mps));
}

TEST(CheckpointFileTest, FailedSaveKeepsThePreviousCheckpoint) {
  const auto live = TrainedLiveAgent();
  const ServiceCheckpoint good = FullCheckpoint(live);
  ServiceCheckpoint next = good;
  next.serving.ticks += 16;
  const std::string path =
      std::string(::testing::TempDir()) + "ckpt_fsize_limit.txt";
  const std::string tmp = path + ".tmp";
  SaveCheckpointToFile(good, path);
  const std::string want = Save(good);

  bool threw = false;
  {
    // Half the file fits: the save fails after writing part of it.
    FileSizeLimit limit(want.size() / 2);
    try {
      SaveCheckpointToFile(next, path);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::ifstream in(path);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, want);
  EXPECT_EQ(LoadCheckpointFromFile(path).serving.ticks, good.serving.ticks);

  // Without the limit the same save replaces the file.
  SaveCheckpointToFile(next, path);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_EQ(LoadCheckpointFromFile(path).serving.ticks, next.serving.ticks);
  std::filesystem::remove(path);
}

TEST(CheckpointFileTest, SaveIntoAMissingDirectoryThrowsAndCreatesNothing) {
  const auto live = TrainedLiveAgent();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_missing_dir";
  std::filesystem::remove_all(dir);
  EXPECT_THROW(
      SaveCheckpointToFile(FullCheckpoint(live), (dir / "ckpt.txt").string()),
      std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(HostileCapacityTest, HugeDqnBufferCapacitySizesNoAllocation) {
  // The DQN section's buffer_capacity is only a bound: the replay ring
  // allocates as transitions arrive, so 2^40 restores, fills and trains.
  const auto live = TrainedLiveAgent();
  ServiceCheckpoint ckpt = FullCheckpoint(live);
  ckpt.dqn.buffer_capacity = std::size_t{1} << 40;
  const std::string text = Save(ckpt);
  DrainSanitizerQuarantine();
  const long rss0 = PeakRssKb();
  const std::shared_ptr<rl::DqnAgent> agent =
      RestoreAgent(LoadCheckpoint(text));
  ASSERT_EQ(agent->buffer().capacity(), std::size_t{1} << 40);
  util::Rng rng(9);
  for (int i = 0; i < 64; ++i) {
    agent->Push(RandomTransition(rng, i % 5 == 0));
  }
  agent->TrainStep();
  EXPECT_EQ(agent->buffer().size(), 64u);
  EXPECT_LT(PeakRssKb() - rss0, 64 * 1024) << "peak RSS grew (KB)";
}

/// One input per count: a valid prefix cut right after the count's
/// keyword, a claim of 2^24 elements, then the end of the input.
struct HostileCount {
  const char* name;
  bool learner_blob;  // false: the serving-state section
  const char* keyword;
  const char* claim;
};

void PrintTo(const HostileCount& c, std::ostream* os) { *os << c.name; }

class HostileCountTest : public ::testing::TestWithParam<HostileCount> {};

TEST_P(HostileCountTest, ThrowsWithoutSizingAnAllocation) {
  const HostileCount& c = GetParam();
  const auto live = TrainedLiveAgent();
  ServiceCheckpoint ckpt = FullCheckpoint(live);
  std::string source = ckpt.learner_state;
  if (!c.learner_blob) {
    ckpt.learner_state.clear();
    source = Save(ckpt);
  }
  const std::string key = std::string("\n") + c.keyword + " ";
  const std::size_t at = source.find(key);
  ASSERT_NE(at, std::string::npos) << c.keyword;
  const std::string input =
      source.substr(0, at + key.size()) + c.claim + "\n";

  const long rss0 = PeakRssKb();
  if (c.learner_blob) {
    auto learner = MakeLearner(live);
    EXPECT_THROW(learner->LoadStateString(input), std::runtime_error);
  } else {
    EXPECT_THROW(LoadCheckpoint(input), std::runtime_error);
  }
  EXPECT_LT(PeakRssKb() - rss0, 64 * 1024) << "peak RSS grew (KB)";
}

INSTANTIATE_TEST_SUITE_P(
    Counts, HostileCountTest,
    ::testing::Values(
        HostileCount{"latest", false, "latest", "16777216"},
        HostileCount{"deferred", false, "deferred", "16777216"},
        HostileCount{"flow_cells", false, "flow-cells", "16777216"},
        HostileCount{"flow_seen", false, "flow-seen", "16777216"},
        HostileCount{"buffer", true, "buffer", "16777216 0 16777216 0"},
        HostileCount{"collector", true, "collector", "16777216"},
        HostileCount{"vector", true, "candidate-weights", "16777216"},
        HostileCount{"promotion_ticks", true, "promotion-ticks",
                     "16777216"}),
    [](const ::testing::TestParamInfo<HostileCount>& info) {
      return std::string(info.param.name);
    });

std::vector<std::string> Tokens(const std::string& text) {
  std::istringstream in(text);
  return {std::istream_iterator<std::string>(in),
          std::istream_iterator<std::string>()};
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    out += t;
    out += '\n';
  }
  return out;
}

/// One token of a saved checkpoint (or of its learner blob) replaced: the
/// token `offset` places after the first `anchor` token. The numbers are
/// ones a looser rule takes (a negative wrapped into an unsigned field, a
/// '+' sign, a value past int, an overflow to inf), and nan/inf in fields
/// that must be finite.
struct HostileNumber {
  const char* name;
  bool learner_blob;  // false: the checkpoint without its blob
  const char* anchor;
  std::size_t offset;
  const char* was;  // the token replaced, where it is fixed; or nullptr
  const char* token;
};

void PrintTo(const HostileNumber& c, std::ostream* os) { *os << c.name; }

class HostileNumberTest : public ::testing::TestWithParam<HostileNumber> {};

TEST_P(HostileNumberTest, ThrowsRuntimeError) {
  const HostileNumber& c = GetParam();
  const auto live = TrainedLiveAgent();
  ServiceCheckpoint ckpt = FullCheckpoint(live);
  std::string source = ckpt.learner_state;
  if (!c.learner_blob) {
    ckpt.learner_state.clear();
    source = Save(ckpt);
  }
  std::vector<std::string> tokens = Tokens(source);
  const auto anchor = std::find(tokens.begin(), tokens.end(), c.anchor);
  ASSERT_NE(anchor, tokens.end()) << c.anchor;
  const std::size_t at = (anchor - tokens.begin()) + c.offset;
  ASSERT_LT(at, tokens.size());
  if (c.was != nullptr) {
    ASSERT_EQ(tokens[at], c.was);
  }
  tokens[at] = c.token;
  const std::string input = Join(tokens);

  auto learner = MakeLearner(live);
  if (c.learner_blob) {
    EXPECT_NO_THROW(learner->LoadStateString(source));
    EXPECT_THROW(learner->LoadStateString(input), std::runtime_error);
  } else {
    EXPECT_NO_THROW(LoadCheckpoint(source));
    EXPECT_THROW(LoadCheckpoint(input), std::runtime_error);
  }
}

// FullCheckpoint's DQN section is "mobirescue-dqn-v1 5 2 16 8" followed by
// gamma, learning_rate, batch_size (16), buffer_capacity,
// target_sync_every, epsilon_start and epsilon_end; its SVM section is
// "mobirescue-svm-v1 1 <gamma> <degree> <coef0> 3 3 <bias>" followed by
// each coefficient and its support vector; its scaler section is
// "mobirescue-scaler-v1 3" followed by the means and the deviations.
INSTANTIATE_TEST_SUITE_P(
    Numbers, HostileNumberTest,
    ::testing::Values(
        HostileNumber{"learner_ticks_negative", true, "ticks", 1, "0", "-1"},
        HostileNumber{"learner_ticks_plus", true, "ticks", 1, "0", "+5"},
        HostileNumber{"duration_rounds_past_int", true, "t", 3, nullptr,
                      "4294967298"},
        HostileNumber{"reward_overflows", true, "t", 1, nullptr, "1e400"},
        HostileNumber{"dqn_batch_size_negative", false, "mobirescue-dqn-v1",
                      7, "16", "-1"},
        HostileNumber{"serving_ticks_negative", false,
                      "mobirescue-serve-state-v1", 1, "97", "-1"},
        HostileNumber{"record_time_overflows", false, "latest", 3, nullptr,
                      "1e400"},
        HostileNumber{"svm_gamma_nan", false, "mobirescue-svm-v1", 2, "0.37",
                      "nan"},
        HostileNumber{"svm_support_vector_nan", false, "mobirescue-svm-v1",
                      9, "0.25", "nan"},
        HostileNumber{"svm_support_vector_inf", false, "mobirescue-svm-v1",
                      9, "0.25", "inf"},
        HostileNumber{"scaler_mean_nan", false, "mobirescue-scaler-v1", 2,
                      "10.5", "nan"},
        HostileNumber{"scaler_stddev_inf", false, "mobirescue-scaler-v1", 5,
                      "3.75", "-inf"},
        HostileNumber{"dqn_gamma_nan", false, "mobirescue-dqn-v1", 5, "0.9",
                      "nan"},
        HostileNumber{"dqn_gamma_inf", false, "mobirescue-dqn-v1", 5, "0.9",
                      "inf"},
        HostileNumber{"dqn_epsilon_end_nan", false, "mobirescue-dqn-v1", 11,
                      "0.05", "nan"}),
    [](const ::testing::TestParamInfo<HostileNumber>& info) {
      return std::string(info.param.name);
    });

/// `blob` with its first `from` replaced by `to`.
std::string Replaced(std::string blob, const std::string& from,
                     const std::string& to) {
  const std::size_t at = blob.find(from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no '" << from << "' in the blob";
    return blob;
  }
  return blob.replace(at, from.size(), to);
}

/// One row as the blob writes it: its width, then its values.
std::string RowText(std::size_t width) {
  std::string row = std::to_string(width);
  for (std::size_t i = 0; i < width; ++i) row += " 0.25";
  return row + "\n";
}

/// One bootstrapping transition as the blob writes it: a `width`-wide
/// feature row, then two next-candidate rows, the second `next_width` wide.
std::string TransitionText(std::size_t width, std::size_t next_width) {
  return "t 0.5 0 1 " + RowText(width) + "2\n" + RowText(kFeatureDim) +
         RowText(next_width);
}

/// The shadow section with `n` records, the policy slot of each `policy`.
std::string ShadowText(int n, const char* policy) {
  std::string text = "\nshadow " + std::to_string(n) + " " +
                     std::to_string(n) + "\n";
  for (int i = 1; i <= n; ++i) {
    text += std::to_string(i) + " " + policy + " 1 1\n";
  }
  return text;
}

/// The evidence section with `n` transitions, `width` wide.
std::string EvidenceText(int n, std::size_t width, std::size_t next_width) {
  std::string text = "\nevidence " + std::to_string(n) + "\n";
  for (int i = 0; i < n; ++i) text += TransitionText(width, next_width);
  return text;
}

/// The candidate's weight vector as the blob writes it.
std::string WeightsText(const std::string& blob) {
  const std::string key = "\ncandidate-weights ";
  const std::size_t at = blob.find(key) + key.size();
  return blob.substr(at, blob.find('\n', at) + 1 - at);
}

// LearnerBlob's learner saw no served tick: its shadow log and evidence
// window are empty and its controller warms up with no rollback weights.
constexpr char kNoShadow[] = "\nshadow 0 0\n";
constexpr char kNoEvidence[] = "\nevidence 0\n";
constexpr char kWarmup[] = "\npromotion 0 0 0 0 0 0 0 0\n";
constexpr char kNoRollback[] = "\nrollback 0\n0\n";

TEST(HostileWindowTest, WindowsOverTheirCapacityThrow) {
  const auto live = TrainedLiveAgent();
  const std::string blob = LearnerBlob(live);
  // At capacity: the shadow log keeps 256 rounds, the evidence window 64
  // transitions (LearnConfig's default).
  EXPECT_NO_THROW(MakeLearner(live)->LoadStateString(
      Replaced(blob, kNoShadow, ShadowText(256, "0"))));
  EXPECT_NO_THROW(MakeLearner(live)->LoadStateString(Replaced(
      blob, kNoEvidence, EvidenceText(64, kFeatureDim, kFeatureDim))));

  EXPECT_THROW(MakeLearner(live)->LoadStateString(
                   Replaced(blob, kNoShadow, ShadowText(300, "0"))),
               std::runtime_error);
  EXPECT_THROW(MakeLearner(live)->LoadStateString(Replaced(
                   blob, kNoEvidence,
                   EvidenceText(100, kFeatureDim, kFeatureDim))),
               std::invalid_argument);
}

TEST(HostileWindowTest, ShadowRecordOfAnotherPolicyThrows) {
  // The learner shadows one policy; its records' policy slot is always 0.
  const auto live = TrainedLiveAgent();
  const std::string blob = LearnerBlob(live);
  EXPECT_NO_THROW(MakeLearner(live)->LoadStateString(
      Replaced(blob, kNoShadow, ShadowText(1, "0"))));
  EXPECT_THROW(MakeLearner(live)->LoadStateString(
                   Replaced(blob, kNoShadow, ShadowText(1, "7"))),
               std::runtime_error);
}

/// A learner blob that parses but holds a part the agent cannot use.
/// Before the loader checked these, such blobs restored, and a misfit row
/// or a watching controller's missing rollback weights then threw out of a
/// later tick (the first TrainStep, gate or rollback that used it).
struct MisfitBlob {
  const char* name;
  std::string (*make)(const std::shared_ptr<rl::DqnAgent>& live);
};

void PrintTo(const MisfitBlob& c, std::ostream* os) { *os << c.name; }

/// A learner whose replay buffer holds `n` transitions with a `width`-wide
/// feature row and a `next_width`-wide second next-candidate row.
std::string ReplayBlob(const std::shared_ptr<rl::DqnAgent>& live, int n,
                       std::size_t width, std::size_t next_width) {
  auto learner = MakeLearner(live);
  for (int i = 0; i < n; ++i) {
    rl::Transition t;
    t.features.assign(width, 0.25);
    t.next_candidates = {std::vector<double>(kFeatureDim, 0.5),
                         std::vector<double>(next_width, 0.5)};
    t.duration_rounds = 1;
    learner->candidate().mutable_buffer().Push(std::move(t));
  }
  return learner->SaveStateString();
}

class MisfitBlobTest : public ::testing::TestWithParam<MisfitBlob> {};

TEST_P(MisfitBlobTest, ThrowsAtLoad) {
  const auto live = TrainedLiveAgent();
  const std::string input = GetParam().make(live);
  EXPECT_THROW(MakeLearner(live)->LoadStateString(input), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    Blobs, MisfitBlobTest,
    ::testing::Values(
        MisfitBlob{"watching_without_rollback_weights",
                   [](const std::shared_ptr<rl::DqnAgent>& live) {
                     return Replaced(LearnerBlob(live), kWarmup,
                                     "\npromotion 2 5 0 1 0 0 0 0\n");
                   }},
        MisfitBlob{"rollback_weights_while_warming_up",
                   [](const std::shared_ptr<rl::DqnAgent>& live) {
                     const std::string blob = LearnerBlob(live);
                     const std::string w = WeightsText(blob);
                     return Replaced(blob, kNoRollback,
                                     "\nrollback " + w + w);
                   }},
        MisfitBlob{"evidence_rows_narrow",
                   [](const std::shared_ptr<rl::DqnAgent>& live) {
                     return Replaced(
                         Replaced(LearnerBlob(live), kWarmup,
                                  "\npromotion 1 0 0 0 0 0 0 0\n"),
                         kNoEvidence,
                         EvidenceText(40, kFeatureDim - 2, kFeatureDim - 2));
                   }},
        MisfitBlob{"evidence_next_row_wide",
                   [](const std::shared_ptr<rl::DqnAgent>& live) {
                     return Replaced(LearnerBlob(live), kNoEvidence,
                                     EvidenceText(1, kFeatureDim,
                                                  kFeatureDim + 1));
                   }},
        MisfitBlob{"replay_rows_narrow",
                   [](const std::shared_ptr<rl::DqnAgent>& live) {
                     return ReplayBlob(live, 130, kFeatureDim - 2,
                                       kFeatureDim - 2);
                   }},
        MisfitBlob{"replay_next_row_wide",
                   [](const std::shared_ptr<rl::DqnAgent>& live) {
                     return ReplayBlob(live, 1, kFeatureDim, kFeatureDim + 1);
                   }},
        MisfitBlob{"open_transition_narrow",
                   [](const std::shared_ptr<rl::DqnAgent>& live) {
                     return Replaced(LearnerBlob(live), "\ncollector 0\n",
                                     "\ncollector 1\n1 0 0 0 " +
                                         RowText(kFeatureDim - 1));
                   }}),
    [](const ::testing::TestParamInfo<MisfitBlob>& info) {
      return std::string(info.param.name);
    });

TEST(MisfitBlobTest, FittingRowsAndRollbackWeightsLoad) {
  // The controls of MisfitBlobTest: the same edits with parts that fit.
  const auto live = TrainedLiveAgent();
  const std::string blob = LearnerBlob(live);
  const std::string w = WeightsText(blob);
  EXPECT_NO_THROW(MakeLearner(live)->LoadStateString(
      Replaced(Replaced(blob, kWarmup, "\npromotion 2 5 0 1 0 0 0 0\n"),
               kNoRollback, "\nrollback " + w + w)));
  EXPECT_NO_THROW(MakeLearner(live)->LoadStateString(
      Replaced(blob, kNoEvidence, EvidenceText(40, kFeatureDim, kFeatureDim))));
  EXPECT_NO_THROW(MakeLearner(live)->LoadStateString(
      ReplayBlob(live, 130, kFeatureDim, kFeatureDim)));
  // An invalid open transition's row is never used (Open replaces it), so
  // its width is not checked.
  EXPECT_NO_THROW(MakeLearner(live)->LoadStateString(Replaced(
      blob, "\ncollector 0\n",
      "\ncollector 2\n1 0 0 0 " + RowText(kFeatureDim) + "0 1 0 0 0\n")));
}

/// Counts at and past every loader bound, numbers just outside a type,
/// non-numbers, special doubles, section keywords; or any token of the
/// original.
std::string Replacement(util::Rng& rng,
                        const std::vector<std::string>& original) {
  static const char* const kPool[] = {
      "0",     "1",         "-1",       "3",          "4097",
      "65536", "16777216",  "67108864", "4294967296", "18446744073709551615",
      "-0",    "0.5",       "1e308",    "5e-324",     "nan",
      "-nan",  "inf",       "-inf",     "1x",         "t",
      "+1",    "1e400",     "0x10",     "4294967298",
      "latest", "buffer",   "mobirescue-learn-v1",    "mobirescue-learn-end",
      "mobirescue-serve-state-v1",      "mobirescue-serve-state-end",
      "99999999999999999999999"};
  constexpr std::size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  const std::size_t pick = rng.Index(kPoolSize + 1);
  if (pick < kPoolSize) return kPool[pick];
  return original[rng.Index(original.size())];
}

TEST(CheckpointMutationTest, SeededMutantsLoadOrThrowRuntimeError) {
  const auto live = TrainedLiveAgent();
  const std::vector<std::string> tokens = Tokens(Save(FullCheckpoint(live)));
  const long rss0 = PeakRssKb();
  util::Rng rng(20261017);
  int rejected = 0, loaded = 0, restored = 0, blob_rejected = 0;
  const char* const kKinds[] = {"replace", "delete", "duplicate", "truncate"};
  constexpr int kMutants = 1600;
  for (int i = 0; i < kMutants; ++i) {
    if (i % 64 == 0) DrainSanitizerQuarantine();
    std::vector<std::string> mutant = tokens;
    const std::size_t at = rng.Index(mutant.size());
    const char* kind = kKinds[i % 4];
    switch (i % 4) {
      case 0: mutant[at] = Replacement(rng, tokens); break;
      case 1: mutant.erase(mutant.begin() + at); break;
      case 2: mutant.insert(mutant.begin() + at, mutant[at]); break;
      default: mutant.resize(at); break;
    }
    ServiceCheckpoint got;
    try {
      got = LoadCheckpoint(Join(mutant));
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " at token " << at << ": " << e.what();
      continue;
    }
    ++loaded;
    if (got.learner_state.empty()) continue;
    auto learner = MakeLearner(live);
    try {
      learner->LoadStateString(got.learner_state);
      ++restored;
    } catch (const std::invalid_argument&) {
      ++blob_rejected;
    } catch (const std::runtime_error&) {
      ++blob_rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " at token " << at << " (learner): "
                    << e.what();
    }
  }
  EXPECT_LT(PeakRssKb() - rss0, 256 * 1024) << "peak RSS grew (KB)";
  // Every outcome occurs, so the mutations reach each stage.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded, 0);
  EXPECT_GT(restored, 0);
  EXPECT_GT(blob_rejected, 0);
}

}  // namespace
}  // namespace mobirescue::serve
