#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/episode_runner.hpp"
#include "dispatch/featurizer.hpp"
#include "dispatch/rescue_dispatcher.hpp"
#include "dispatch/schedule_dispatcher.hpp"
#include "dispatch/simple_dispatchers.hpp"
#include "mobility/data_cleaner.hpp"
#include "mobility/hospital_detector.hpp"
#include "sim/population_tracker.hpp"
#include "sim/request.hpp"

namespace mobirescue::core {

std::string MethodName(Method method) {
  switch (method) {
    case Method::kMobiRescue: return "MobiRescue";
    case Method::kRescue: return "Rescue";
    case Method::kSchedule: return "Schedule";
    case Method::kGreedyNearest: return "GreedyNearest";
    case Method::kRandom: return "Random";
  }
  return "?";
}

std::unique_ptr<predict::SvmRequestPredictor> TrainSvmPredictor(
    const World& world, predict::SvmPredictorConfig config) {
  // Label the historical (training-storm) trace with the Section III-B2
  // detector: clean -> detect deliveries -> flood back-check.
  mobility::CleaningConfig clean_config;
  clean_config.box = world.city->box;
  const mobility::GpsTrace cleaned =
      mobility::CleanTrace(world.train.trace.records, clean_config, nullptr);
  mobility::HospitalDeliveryDetector detector(*world.city, *world.train.flood);
  const auto deliveries = detector.Detect(cleaned);

  const util::SimTime storm_mid = 0.5 * (world.train.spec.storm.storm_begin_s +
                                         world.train.spec.storm.storm_end_s);
  return std::make_unique<predict::SvmRequestPredictor>(
      *world.train.factors, deliveries, cleaned, storm_mid, config);
}

std::unique_ptr<predict::TimeSeriesPredictor> BuildTimeSeriesPredictor(
    const World& world, predict::TimeSeriesConfig config) {
  return std::make_unique<predict::TimeSeriesPredictor>(
      world.eval.trace.rescues, world.eval.spec.eval_day, config);
}

std::shared_ptr<rl::DqnAgent> TrainAgent(
    const World& world, const predict::SvmRequestPredictor& svm,
    const TrainingConfig& config, TrainingReport* report) {
  rl::DqnConfig dqn_config = config.dqn;
  dqn_config.feature_dim = dispatch::DispatchFeaturizer::kFeatureDim;
  auto agent = std::make_shared<rl::DqnAgent>(dqn_config);

  // Training days: rank the training scenario's days by request volume and
  // train mostly on the heaviest ones — the regime the evaluation day is
  // drawn from.
  std::vector<int> per_day(world.train.spec.window_days, 0);
  for (const mobility::RescueEvent& ev : world.train.trace.rescues) {
    const int d = util::DayIndex(ev.request_time);
    if (d >= 0 && d < world.train.spec.window_days) ++per_day[d];
  }
  std::vector<int> days;
  for (int d = 0; d < world.train.spec.window_days; ++d) days.push_back(d);
  std::sort(days.begin(), days.end(),
            [&](int a, int b) { return per_day[a] > per_day[b]; });
  if (days.size() > 3) days.resize(3);  // the 3 busiest days, cycled

  for (int ep = 0; ep < config.episodes; ++ep) {
    const int day = days[ep % days.size()];
    auto requests = sim::RequestsFromEvents(world.train.trace.rescues, day);
    sim::PopulationTracker tracker(
        sim::DaySlice(world.train.trace.records, day));

    dispatch::MobiRescueConfig mr_config = config.dispatcher;
    mr_config.training = true;
    // Residual prior steers exploration while the Q network is cold.
    mr_config.prior_weight = 1.0;
    dispatch::MobiRescueDispatcher dispatcher(
        *world.city, svm, tracker, *world.index, agent,
        day * util::kSecondsPerDay, mr_config);

    sim::SimConfig sim_config = config.sim;
    sim_config.seed += static_cast<std::uint64_t>(ep);
    sim::RescueSimulator simulator(*world.city, *world.train.flood,
                                   std::move(requests),
                                   day * util::kSecondsPerDay, sim_config);
    const sim::MetricsCollector metrics = simulator.Run(dispatcher);
    if (report != nullptr) {
      report->episode_served.push_back(metrics.total_served());
      report->episode_loss.push_back(dispatcher.last_train_loss());
    }
  }
  return agent;
}

EvaluationOutcome RunMethod(const World& world, Method method,
                            const predict::SvmRequestPredictor* svm,
                            const predict::TimeSeriesPredictor* ts,
                            std::shared_ptr<rl::DqnAgent> agent,
                            sim::SimConfig sim_config,
                            dispatch::MobiRescueConfig mr_config) {
  const int day = world.eval.spec.eval_day;
  auto requests = sim::RequestsFromEvents(world.eval.trace.rescues, day);

  EvaluationOutcome outcome;
  outcome.method = method;
  outcome.name = MethodName(method);
  outcome.total_requests = static_cast<int>(requests.size());

  sim::RescueSimulator simulator(*world.city, *world.eval.flood,
                                 std::move(requests),
                                 day * util::kSecondsPerDay, sim_config);

  std::unique_ptr<sim::Dispatcher> dispatcher;
  std::unique_ptr<sim::PopulationTracker> tracker;
  switch (method) {
    case Method::kMobiRescue: {
      if (svm == nullptr || agent == nullptr) {
        throw std::invalid_argument("RunMethod: MobiRescue needs svm + agent");
      }
      tracker = std::make_unique<sim::PopulationTracker>(
          sim::DaySlice(world.eval.trace.records, day));
      dispatcher = std::make_unique<dispatch::MobiRescueDispatcher>(
          *world.city, *svm, *tracker, *world.index, agent,
          day * util::kSecondsPerDay, mr_config);
      break;
    }
    case Method::kRescue: {
      if (ts == nullptr) {
        throw std::invalid_argument("RunMethod: Rescue needs ts predictor");
      }
      dispatcher =
          std::make_unique<dispatch::RescueDispatcher>(*world.city, *ts);
      break;
    }
    case Method::kSchedule:
      dispatcher = std::make_unique<dispatch::ScheduleDispatcher>(
          *world.city, sim_config.num_teams);
      break;
    case Method::kGreedyNearest:
      dispatcher = std::make_unique<dispatch::GreedyNearestDispatcher>(
          *world.city);
      break;
    case Method::kRandom:
      dispatcher = std::make_unique<dispatch::RandomDispatcher>(*world.city);
      break;
  }

  outcome.metrics = simulator.Run(*dispatcher);
  return outcome;
}

namespace {

/// A weight-identical copy of the agent for episodes that learn online:
/// TrainStep mutates the network, so concurrent training episodes each need
/// their own instance (and their updates intentionally do not propagate
/// back). Greedy evaluation needs no copy — Q scoring goes through the
/// const, cache-free batched forward pass, which any number of episode
/// threads may share.
std::shared_ptr<rl::DqnAgent> CloneAgentForTraining(
    const std::shared_ptr<rl::DqnAgent>& agent) {
  if (agent == nullptr) return nullptr;
  auto clone = std::make_shared<rl::DqnAgent>(agent->config());
  clone->LoadWeights(agent->SaveWeights());
  return clone;
}

}  // namespace

std::vector<EvaluationOutcome> RunMethods(
    const World& world, const std::vector<Method>& methods,
    const predict::SvmRequestPredictor* svm,
    const predict::TimeSeriesPredictor* ts,
    std::shared_ptr<rl::DqnAgent> agent, sim::SimConfig sim_config,
    dispatch::MobiRescueConfig mr_config, int jobs) {
  EpisodeRunner runner(jobs);
  return runner.Map(methods.size(), [&](std::size_t i) {
    return RunMethod(world, methods[i], svm, ts, agent, sim_config,
                     mr_config);
  });
}

std::vector<EvaluationOutcome> RunMethodSeeds(
    const World& world, Method method,
    const predict::SvmRequestPredictor* svm,
    const predict::TimeSeriesPredictor* ts,
    std::shared_ptr<rl::DqnAgent> agent, sim::SimConfig sim_config,
    int num_seeds, int jobs, dispatch::MobiRescueConfig mr_config) {
  const std::size_t n = static_cast<std::size_t>(std::max(0, num_seeds));
  std::vector<std::shared_ptr<rl::DqnAgent>> episode_agents(n, agent);
  if (method == Method::kMobiRescue && mr_config.training) {
    for (std::size_t i = 0; i < n; ++i) {
      episode_agents[i] = CloneAgentForTraining(agent);
    }
  }
  EpisodeRunner runner(jobs);
  return runner.Map(n, [&](std::size_t i) {
    sim::SimConfig episode_config = sim_config;
    episode_config.seed = EpisodeRunner::DeriveSeed(sim_config.seed, i);
    return RunMethod(world, method, svm, ts, episode_agents[i],
                     episode_config, mr_config);
  });
}

}  // namespace mobirescue::core
