#include "workload.hpp"

#include <stdexcept>

#include "core/episode_runner.hpp"

namespace daybench {

namespace mr = mobirescue;

namespace {

/// Seed stream of the delivery lead.
constexpr std::uint64_t kLeadStream = 0x6c656164;  // "lead"

/// The serve_demo world: 16x16 grid, 7 hospitals, 900 people.
mr::core::WorldConfig DemoWorld() {
  mr::core::WorldConfig config;
  config.city.grid_width = 16;
  config.city.grid_height = 16;
  config.city.num_hospitals = 7;
  config.trace.population.num_people = 900;
  return config;
}

}  // namespace

Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "demo-day") {
    w.world = DemoWorld();
    w.training.episodes = 10;
    w.sim.num_teams = 50;
  } else if (name == "paper-day") {
    // Library defaults are the paper's §V world: 24x24, 10 hospitals,
    // 2,000 people, 100 teams.
    w.training.episodes = 12;
    w.sim.num_teams = 100;
  } else if (name == "learn-day") {
    w.world = DemoWorld();
    w.training.episodes = 6;
    w.sim.num_teams = 20;
    w.service.learn.enabled = true;
    w.service.checkpoint_every_n_ticks = 16;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }

  // The seed shapes the arrival schedule: GPS records may reach the
  // service up to `delivery_lead_s` ahead of the tick that applies them,
  // so the ingest path parks them as deferred records. Decisions depend
  // only on records at or before the tick, so outcomes are the same for
  // every seed; world, models and fleet stay at the reference seeds.
  // At most one 300 s tick early, so every seed parks a similar volume.
  w.delivery_lead_s =
      seed == 0 ? 0.0
                : 30.0 * static_cast<double>(
                             1 + mr::core::EpisodeRunner::DeriveSeed(
                                     kLeadStream, seed) % 10);
  w.training.sim = w.sim;
  // Producers are bounded only by the day's volume; no record may drop.
  w.service.queue.shard_capacity = 1 << 15;
  return w;
}

}  // namespace daybench
