// Service checkpointing: everything a dispatch server needs to start
// serving without retraining — the trained DQN (config + weights) and the
// trained SVM request predictor (model + feature scaler + calibrated
// threshold) — in one versioned plain-text artifact built on ml/serialize.
//
// Every save path runs one formatter, SaveCheckpoint(ckpt, util::TextWriter&):
// doubles in their shortest round-trip form (std::to_chars), integers in
// decimal, the whole text in the writer's one buffer and written once.
// DispatchService's periodic save formats the same sections into a writer
// it keeps across saves and reuses the text that did not change
// (DispatchService::WriteCheckpoint). Every load parses the
// whole text through one util::TextReader (std::from_chars), which reads
// those digits back to the same bits, so a save/load round trip restores
// bit-identical Q-values and SVM decision values (checkpoint_test asserts
// this on probe batches), ±0 and ±inf included, and NaN keeps its sign.
// The DQN weights, serving records and threshold may be "nan" or "inf";
// the DQN hyperparameters and the SVM and scaler values must be finite.
// Files written before the writer carry max_digits10 (%.17g) digits for
// the same tokens and load to the same bits.
//
// An optional serving-state section (mobirescue-serve-state-v1) after the
// model blocks captures the live DispatchService state — tick count,
// watermark, latest per-person positions, deferred records, stream/
// quarantine counters, and flow-analyzer cells — enabling crash recovery
// (DESIGN.md §13). Files without it load as model-only checkpoints
// (backward compatible with pre-recovery v1 files).
//
// The loader is hardened against corrupt input: weight-block sizes must
// match the topology-derived parameter count, all counts are
// bounds-checked, no count sizes an allocation before its elements are
// read (containers grow as they are read), truncation at any token throws,
// and trailing garbage after a complete checkpoint throws.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ml/svm/scaler.hpp"
#include "ml/svm/svm.hpp"
#include "mobility/gps_record.hpp"
#include "predict/svm_predictor.hpp"
#include "rl/dqn_agent.hpp"
#include "serve/stream_state.hpp"
#include "util/text_writer.hpp"
#include "weather/disaster_factors.hpp"

namespace mobirescue::serve {

/// Live serving state for crash recovery: everything DispatchService::Tick
/// accumulates that a restarted process cannot re-derive from the models.
struct ServingState {
  std::uint64_t ticks = 0;
  double watermark = 0.0;
  /// Latest applied record per person, sorted by person id.
  std::vector<mobility::GpsRecord> latest;
  /// Records drained but parked ahead of the watermark.
  std::vector<mobility::GpsRecord> deferred;
  StreamStateCounters counters;
  /// FlowRateAnalyzer state (nonzero cells + sorted dedup keys).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> flow_cells;
  std::vector<std::uint64_t> flow_seen;
};

struct ServiceCheckpoint {
  rl::DqnConfig dqn;
  std::vector<double> dqn_weights;
  /// The lagged target network, saved separately so bootstrap targets
  /// continue seamlessly if training resumes after a restart. Empty means
  /// "sync target to online on restore".
  std::vector<double> dqn_target_weights;
  ml::SvmModel svm;
  ml::FeatureScaler svm_scaler;
  double svm_threshold = 0.0;
  /// Optional serving-state section (crash recovery). Model-only files
  /// have has_serving_state == false.
  bool has_serving_state = false;
  ServingState serving;
  /// Optional online-learner section (DESIGN.md §15): the learner's
  /// complete dynamic state as a `mobirescue-learn-v1 ...
  /// mobirescue-learn-end` token blob, produced and parsed by
  /// learn::OnlineLearner::SaveStateString/LoadStateString. The checkpoint
  /// layer only finds its end token and keeps the text verbatim, from the
  /// magic to the end of the file. Empty means "no learner".
  std::string learner_state;
};

/// The flat parameter count of the DQN network a config describes
/// (feature_dim -> hidden... -> 1, weights + biases per layer). Saved
/// weight blocks must have exactly this size.
std::size_t ExpectedDqnWeightCount(const rl::DqnConfig& config);

/// Captures the trained models from a finished training run.
ServiceCheckpoint MakeCheckpoint(const rl::DqnAgent& agent,
                                 const predict::SvmRequestPredictor& svm);

/// Appends the checkpoint's text to `out`: the formatter every save runs.
void SaveCheckpoint(const ServiceCheckpoint& ckpt, util::TextWriter& out);
/// Writes / parses the checkpoint; throws std::runtime_error on I/O failure
/// or malformed input (truncation, size/topology mismatch, a bad number,
/// trailing garbage).
void SaveCheckpoint(const ServiceCheckpoint& ckpt, std::ostream& os);
ServiceCheckpoint LoadCheckpoint(std::string_view text);
/// Appends the serving-state section alone (SaveCheckpoint writes it after
/// the model sections when has_serving_state is set).
void SaveServingState(const ServingState& s, util::TextWriter& out);

/// Writes the checkpoint's text to `path` (WriteCheckpointText).
void SaveCheckpointToFile(const ServiceCheckpoint& ckpt,
                          const std::string& path);
/// Writes `text` to `path + ".tmp"`, its blocks allocated first, closes it
/// and renames it onto `path`. A write that fails throws
/// std::runtime_error, removes the temporary file and leaves the file
/// already at `path` as it was. No fsync (DESIGN.md §13.4).
void WriteCheckpointText(std::string_view text, const std::string& path);
/// Reads the file in one piece and parses it.
ServiceCheckpoint LoadCheckpointFromFile(const std::string& path);

/// Rebuilds a ready-to-serve agent: constructed from the saved config with
/// the saved weights loaded (online and target networks both restored to
/// the saved snapshot).
std::shared_ptr<rl::DqnAgent> RestoreAgent(const ServiceCheckpoint& ckpt);

/// Rebuilds the request predictor over the serving scenario's factor
/// sampler (weather is an input of the serving deployment, not part of the
/// checkpoint).
std::unique_ptr<predict::SvmRequestPredictor> RestorePredictor(
    const ServiceCheckpoint& ckpt, const weather::FactorSampler& factors);

}  // namespace mobirescue::serve
