#include "serve/fault_injector.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "obs/recorder.hpp"
#include "serve/checkpoint.hpp"
#include "serve/dispatch_service.hpp"
#include "util/rng.hpp"

namespace mobirescue::serve {

namespace {

// Fault-kind salts: each decision stream is an independent hash family.
constexpr std::uint64_t kSaltDrop = 1;
constexpr std::uint64_t kSaltCorrupt = 2;
constexpr std::uint64_t kSaltCorruptVariant = 3;
constexpr std::uint64_t kSaltDelay = 4;
constexpr std::uint64_t kSaltReorder = 5;
constexpr std::uint64_t kSaltDuplicate = 6;
constexpr std::uint64_t kSaltDecide = 7;
constexpr std::uint64_t kSaltPredictor = 8;

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

bool FaultPlan::AnyRecordFaults() const {
  return drop_prob > 0.0 || duplicate_prob > 0.0 || delay_prob > 0.0 ||
         corrupt_prob > 0.0 || reorder_prob > 0.0;
}

bool FaultPlan::Empty() const {
  return !AnyRecordFaults() && decide_failure_prob <= 0.0 &&
         predictor_failure_prob <= 0.0 && kill_at_ticks.empty();
}

FaultPlan FaultPlan::Chaos(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.03;
  plan.duplicate_prob = 0.03;
  plan.delay_prob = 0.04;
  plan.delay_s = 900.0;
  plan.corrupt_prob = 0.03;
  plan.reorder_prob = 0.03;
  plan.decide_failure_prob = 0.05;
  plan.predictor_failure_prob = 0.25;
  plan.kill_at_ticks = {97, 193};
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  std::sort(plan_.kill_at_ticks.begin(), plan_.kill_at_ticks.end());
  plan_.kill_at_ticks.erase(
      std::unique(plan_.kill_at_ticks.begin(), plan_.kill_at_ticks.end()),
      plan_.kill_at_ticks.end());
}

double FaultInjector::UnitHash(std::uint64_t a, std::uint64_t b,
                               std::uint64_t salt) const {
  std::uint64_t h = util::SplitMix64(plan_.seed ^ util::SplitMix64(salt));
  h = util::SplitMix64(h ^ a);
  h = util::SplitMix64(h ^ b);
  // Top 53 bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double FaultInjector::RecordHash(const mobility::GpsRecord& r,
                                 std::uint64_t salt) const {
  return UnitHash(static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(r.person)),
                  DoubleBits(r.t), salt);
}

double FaultInjector::TimeHash(util::SimTime t, std::uint64_t salt) const {
  return UnitHash(DoubleBits(t), 0, salt);
}

std::vector<TimedDelivery> FaultInjector::PlanDeliveries(
    const mobility::GpsTrace& trace) {
  std::vector<TimedDelivery> out;
  out.reserve(trace.size());
  // Index into `out` of a delivery waiting to swap delivery times with the
  // same person's next record.
  std::unordered_map<mobility::PersonId, std::size_t> reorder_pending;

  for (const mobility::GpsRecord& r : trace) {
    if (plan_.drop_prob > 0.0 && RecordHash(r, kSaltDrop) < plan_.drop_prob) {
      ++counts_.dropped;
      dropped_total_.Increment();
      continue;
    }
    mobility::GpsRecord rec = r;
    if (plan_.corrupt_prob > 0.0 &&
        RecordHash(r, kSaltCorrupt) < plan_.corrupt_prob) {
      // Three corruption shapes, matching the quarantine stage's reasons.
      const double variant = RecordHash(r, kSaltCorruptVariant);
      if (variant < 1.0 / 3.0) {
        rec.pos.lat = std::numeric_limits<double>::quiet_NaN();
      } else if (variant < 2.0 / 3.0) {
        rec.pos.lon = std::numeric_limits<double>::infinity();
      } else {
        rec.pos.lat += 90.0;  // far outside any city bounding box
      }
      ++counts_.corrupted;
      corrupted_total_.Increment();
    }
    TimedDelivery delivery{rec.t, rec};
    if (plan_.delay_prob > 0.0 &&
        RecordHash(r, kSaltDelay) < plan_.delay_prob) {
      delivery.deliver_at += plan_.delay_s;
      ++counts_.delayed;
      delayed_total_.Increment();
    }
    out.push_back(delivery);
    const std::size_t here = out.size() - 1;

    // Reorder: swap delivery times with the person's previous record when
    // that record was marked, producing a non-monotonic arrival pair.
    const auto pending = reorder_pending.find(r.person);
    if (pending != reorder_pending.end()) {
      std::swap(out[pending->second].deliver_at, out[here].deliver_at);
      reorder_pending.erase(pending);
      ++counts_.reordered;
      reordered_total_.Increment();
    } else if (plan_.reorder_prob > 0.0 &&
               RecordHash(r, kSaltReorder) < plan_.reorder_prob) {
      reorder_pending.emplace(r.person, here);
    }

    if (plan_.duplicate_prob > 0.0 &&
        RecordHash(r, kSaltDuplicate) < plan_.duplicate_prob) {
      out.push_back(TimedDelivery{delivery.deliver_at + 1.0, rec});
      ++counts_.duplicated;
      duplicated_total_.Increment();
    }
  }
  return out;
}

void FaultInjector::RecordKill() {
  ++counts_.kills;
  kills_total_.Increment();
}

bool FaultInjector::KillsBeforeTick(std::uint64_t tick) const {
  return std::binary_search(plan_.kill_at_ticks.begin(),
                            plan_.kill_at_ticks.end(), tick);
}

bool FaultInjector::ShouldFailDecide(util::SimTime now) {
  if (plan_.decide_failure_prob <= 0.0) return false;
  if (TimeHash(now, kSaltDecide) >= plan_.decide_failure_prob) return false;
  ++counts_.decide_failures;
  decide_failures_total_.Increment();
  return true;
}

bool FaultInjector::ShouldFailPrediction(util::SimTime now) {
  if (plan_.predictor_failure_prob <= 0.0) return false;
  if (TimeHash(now, kSaltPredictor) >= plan_.predictor_failure_prob) {
    return false;
  }
  ++counts_.predictor_failures;
  predictor_failures_total_.Increment();
  return true;
}

FaultedEpisodeOutcome RunFaultedEpisode(sim::RescueSimulator& simulator,
                                        const mobility::GpsTrace& trace,
                                        FaultInjector& injector,
                                        const ServiceFactory& factory,
                                        FaultedEpisodeConfig config) {
  FaultedEpisodeOutcome outcome;
  const std::vector<TimedDelivery> schedule = injector.PlanDeliveries(trace);

  std::unique_ptr<DispatchService> service = factory(nullptr);
  if (service == nullptr) {
    throw std::invalid_argument("RunFaultedEpisode: factory returned null");
  }
  auto streamer =
      std::make_unique<TraceStreamer>(schedule, *service, config.streamer);

  const bool checkpointing = config.checkpoint_every_n_ticks > 0 &&
                             !config.checkpoint_path.empty() &&
                             service->CanCheckpoint();
  bool have_checkpoint = false;
  std::uint64_t tick = 0;
  sim::DispatchContext ctx;
  for (;;) {
    if (have_checkpoint && injector.KillsBeforeTick(tick)) {
      // Kill: drop the streamer and the service on the floor — everything
      // not checkpointed is gone — then boot a replacement from the last
      // checkpoint and replay the delivery schedule from its watermark.
      streamer.reset();
      service.reset();
      const ServiceCheckpoint ckpt =
          LoadCheckpointFromFile(config.checkpoint_path);
      service = factory(&ckpt);
      if (service == nullptr) {
        throw std::invalid_argument(
            "RunFaultedEpisode: factory returned null on restore");
      }
      service->RestoreServingState(ckpt);
      std::vector<TimedDelivery> remaining;
      for (const TimedDelivery& d : schedule) {
        if (d.deliver_at > ckpt.serving.watermark) remaining.push_back(d);
      }
      streamer = std::make_unique<TraceStreamer>(std::move(remaining),
                                                 *service, config.streamer);
      injector.RecordKill();
      ++outcome.kills;
      char attrs[48];
      std::snprintf(attrs, sizeof(attrs), "tick=%llu",
                    static_cast<unsigned long long>(tick));
      obs::FlightRecorder::Global().Emit(obs::Severity::kError, "serve",
                                         "kill", attrs);
    }
    if (!simulator.NextRound(service->dispatcher(), &ctx)) break;
    streamer->WaitDelivered(ctx.now);
    simulator.SubmitDecision(service->Tick(ctx));
    ++tick;
    if (checkpointing && tick % config.checkpoint_every_n_ticks == 0) {
      service->WriteCheckpoint(config.checkpoint_path);
      have_checkpoint = true;
      ++outcome.checkpoints_written;
    }
  }
  streamer->WaitDelivered(simulator.now());
  service->AdvanceStateTo(simulator.now());

  outcome.metrics = simulator.metrics();
  outcome.ticks = tick;
  outcome.service = std::move(service);
  return outcome;
}

}  // namespace mobirescue::serve
