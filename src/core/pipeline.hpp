// End-to-end pipeline glue: trains the SVM predictor and the DQN agent on
// the training scenario, then evaluates any dispatching method on the
// evaluation day. This is the public API surface a downstream user drives
// (see examples/).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "dispatch/mobirescue_dispatcher.hpp"
#include "predict/svm_predictor.hpp"
#include "predict/time_series_predictor.hpp"
#include "rl/dqn_agent.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace mobirescue::core {

/// Which dispatching method to run on the evaluation day.
enum class Method {
  kMobiRescue,
  kRescue,
  kSchedule,
  kGreedyNearest,  // ablation
  kRandom,         // ablation
};

std::string MethodName(Method method);

/// Trains the Section IV-B SVM predictor from the training scenario: the
/// hospital-delivery detector labels the historical trace (Section III-B2)
/// and factor vectors come from the training storm's weather field.
std::unique_ptr<predict::SvmRequestPredictor> TrainSvmPredictor(
    const World& world, predict::SvmPredictorConfig config = {});

/// Builds the `Rescue` baseline's time-series predictor from the evaluation
/// scenario's request history before the evaluation day.
std::unique_ptr<predict::TimeSeriesPredictor> BuildTimeSeriesPredictor(
    const World& world, predict::TimeSeriesConfig config = {});

struct TrainingConfig {
  int episodes = 12;
  sim::SimConfig sim;
  dispatch::MobiRescueConfig dispatcher;
  rl::DqnConfig dqn;
};

struct TrainingReport {
  std::vector<double> episode_served;  // requests served per episode
  std::vector<double> episode_loss;    // final TD loss per episode
};

/// Trains the DQN dispatcher over the *training* scenario's storm days
/// (Section V-B: models are trained on Hurricane Michael data). Episodes
/// cycle over the storm/post-storm days.
std::shared_ptr<rl::DqnAgent> TrainAgent(
    const World& world, const predict::SvmRequestPredictor& svm,
    const TrainingConfig& config, TrainingReport* report = nullptr);

struct EvaluationOutcome {
  Method method = Method::kMobiRescue;
  std::string name;
  sim::MetricsCollector metrics{24};
  int total_requests = 0;
};

/// Runs one method over the evaluation day. `agent` is only needed for
/// kMobiRescue (trained; used greedily). Deterministic for fixed inputs.
/// `mr_config` tunes the MobiRescue dispatcher (default: evaluation mode;
/// set `mr_config.training = true` to keep learning online as in §IV-C4).
EvaluationOutcome RunMethod(const World& world, Method method,
                            const predict::SvmRequestPredictor* svm,
                            const predict::TimeSeriesPredictor* ts,
                            std::shared_ptr<rl::DqnAgent> agent,
                            sim::SimConfig sim_config = {},
                            dispatch::MobiRescueConfig mr_config = {});

/// Evaluates several methods on the evaluation day in parallel (one episode
/// per method) over a core::EpisodeRunner with `jobs` workers (<= 0:
/// hardware concurrency). Episodes share only read-only state — the World,
/// the predictors, and (greedy scoring being a const, cache-free batched
/// forward pass) the DQN agent itself — and each builds its own simulator
/// and dispatcher, so results are identical to calling RunMethod serially,
/// in `methods` order. With `mr_config.training` on, the caller's agent is
/// used directly so online updates propagate — in that case kMobiRescue
/// must appear at most once (TrainStep mutates the network).
std::vector<EvaluationOutcome> RunMethods(
    const World& world, const std::vector<Method>& methods,
    const predict::SvmRequestPredictor* svm,
    const predict::TimeSeriesPredictor* ts,
    std::shared_ptr<rl::DqnAgent> agent, sim::SimConfig sim_config = {},
    dispatch::MobiRescueConfig mr_config = {}, int jobs = 0);

/// Evaluates one method over `num_seeds` independent episodes in parallel.
/// Episode i runs with sim seed EpisodeRunner::DeriveSeed(sim_config.seed,
/// i) — the seed stream depends only on the episode index, so output is
/// bit-identical for any `jobs`, including 1 (serial). Greedy kMobiRescue
/// episodes share the caller's agent (batched Q scoring is const and
/// thread-safe); with `mr_config.training` on, each episode trains its own
/// weight-identical clone and online updates do not propagate back.
std::vector<EvaluationOutcome> RunMethodSeeds(
    const World& world, Method method,
    const predict::SvmRequestPredictor* svm,
    const predict::TimeSeriesPredictor* ts,
    std::shared_ptr<rl::DqnAgent> agent, sim::SimConfig sim_config,
    int num_seeds, int jobs = 0,
    dispatch::MobiRescueConfig mr_config = {});

}  // namespace mobirescue::core
