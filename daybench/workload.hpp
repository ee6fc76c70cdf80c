// Workload definitions of the served-day benchmark.
//
// A workload fixes the world's scale, the fleet, the training budget and
// the serving mode. City, population, trace, DQN and simulator seeds stay
// at the library defaults (42/7/99/21/5), so `demo-day` is the serve_demo
// day: across worlds the outcome counts and timings spread by 20-80%,
// more than any bound a regression gate can use. The run's --seed shapes
// the GPS arrival schedule instead (see MakeWorkload); seed 0 is the
// reference schedule, every record delivered exactly at its timestamp.
#pragma once

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"
#include "core/world.hpp"
#include "serve/dispatch_service.hpp"

namespace daybench {

struct Workload {
  std::string name;
  mobirescue::core::WorldConfig world;
  mobirescue::core::TrainingConfig training;
  /// The evaluation-day simulator (same fleet and seed as training's).
  mobirescue::sim::SimConfig sim;
  /// Serving config; learn-day enables the learner and periodic
  /// checkpoints (checkpoint_path is filled in by the driver).
  mobirescue::serve::ServiceConfig service;
  /// How far ahead of the tick that applies them records may be
  /// delivered (s); derived from the seed, 0 for the reference seed.
  double delivery_lead_s = 0.0;

  bool learning() const { return service.learn.enabled; }
};

/// Builds the named workload for `seed`; throws std::invalid_argument on
/// an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace daybench
