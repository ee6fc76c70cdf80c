#include "serve/dispatch_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "serve/trace_streamer.hpp"
#include "util/same_bits.hpp"

namespace mobirescue::serve {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Quarantine needs a box; a service always has a city, so default the
/// stream validation box to it when the caller left it unset.
ServiceConfig WithCityBox(ServiceConfig config, const util::BoundingBox& box) {
  if (!config.state.accept_box) config.state.accept_box = box;
  return config;
}

}  // namespace

std::vector<obs::HealthRule> DispatchService::DefaultHealthRules(
    const ServiceConfig& config) {
  std::vector<obs::HealthRule> rules;
  // Ladder rung 2 triggers, expressed as rules. Both observe values the
  // tick loop feeds in (not registry counters) so each evaluation sees
  // exactly this tick's evidence — the counters stay cumulative.
  obs::HealthRule error_rule;
  error_rule.name = "decide-error";
  error_rule.selector = "serve_decide_error";
  error_rule.observed = true;
  error_rule.cmp = obs::HealthCmp::kGreaterThan;
  error_rule.threshold = 0.0;
  error_rule.action = obs::HealthAction::kDegrade;
  rules.push_back(std::move(error_rule));
  if (config.decide_budget_ms > 0.0) {
    obs::HealthRule budget_rule;
    budget_rule.name = "decide-budget";
    budget_rule.selector = "serve_decide_over_ms";
    budget_rule.observed = true;
    budget_rule.cmp = obs::HealthCmp::kGreaterThan;
    budget_rule.threshold = config.decide_budget_ms;
    budget_rule.action = obs::HealthAction::kDegrade;
    rules.push_back(std::move(budget_rule));
  }
  return rules;
}

std::vector<obs::HealthRule> DispatchService::EffectiveHealthRules(
    const ServiceConfig& config) {
  std::vector<obs::HealthRule> rules;
  if (!config.replace_default_health_rules) {
    rules = DefaultHealthRules(config);
  }
  rules.insert(rules.end(), config.health_rules.begin(),
               config.health_rules.end());
  return rules;
}

std::unique_ptr<obs::IncidentWriter> DispatchService::MakeIncidentWriter(
    const ServiceConfig& config) {
  if (config.incident.dir.empty()) return nullptr;
  return std::make_unique<obs::IncidentWriter>(config.incident);
}

DispatchService::DispatchService(const roadnet::City& city,
                                 const roadnet::SpatialIndex& index,
                                 const predict::SvmRequestPredictor& svm,
                                 std::shared_ptr<rl::DqnAgent> agent,
                                 double day_offset_s, ServiceConfig config,
                                 dispatch::MobiRescueConfig mr_config)
    : config_(WithCityBox(std::move(config), city.box)),
      queue_(config_.queue),
      state_(city.network, index, config_.state),
      svm_(&svm),
      live_agent_(std::move(agent)),
      fallback_(city),
      health_(EffectiveHealthRules(config_), obs::Registry::Global(),
              "serve_healthy",
              "1 when the last SLO health evaluation passed, else 0."),
      incidents_(MakeIncidentWriter(config_)) {
  auto mr = std::make_unique<dispatch::MobiRescueDispatcher>(
      city, svm, state_, index, live_agent_, day_offset_s, mr_config);
  mobirescue_ = mr.get();
  owned_dispatcher_ = std::move(mr);
  dispatcher_ = owned_dispatcher_.get();
  if (config_.learn.enabled) {
    // The learner rides on the live round's kept action space
    // (last_capture()), which Decide() builds whether or not anyone reads
    // it, so learning never changes what the live policy decides
    // (dispatch_service_test proves bit-identity with learning disabled,
    // learn tests with it enabled).
    learner_ = std::make_unique<learn::OnlineLearner>(
        config_.learn, mr_config.reward, live_agent_);
  }
}

DispatchService::DispatchService(const roadnet::City& city,
                                 const roadnet::SpatialIndex& index,
                                 std::unique_ptr<sim::Dispatcher> dispatcher,
                                 ServiceConfig config)
    : config_(WithCityBox(std::move(config), city.box)),
      queue_(config_.queue),
      state_(city.network, index, config_.state),
      owned_dispatcher_(std::move(dispatcher)),
      fallback_(city),
      health_(EffectiveHealthRules(config_), obs::Registry::Global(),
              "serve_healthy",
              "1 when the last SLO health evaluation passed, else 0."),
      incidents_(MakeIncidentWriter(config_)) {
  dispatcher_ = owned_dispatcher_.get();
}

bool DispatchService::Ingest(const mobility::GpsRecord& record) {
  return queue_.Push(record);
}

void DispatchService::IngestBatch(
    const std::vector<mobility::GpsRecord>& records) {
  for (const mobility::GpsRecord& r : records) queue_.Push(r);
}

void DispatchService::AdvanceStateTo(util::SimTime now) {
  OBS_SPAN("serve.drain");
  // Deferred records were pushed before anything still in the queues, so
  // they go first — per-person time order is preserved end to end.
  incoming_.clear();
  std::swap(incoming_, deferred_);
  depth_gauge_.Set(static_cast<double>(queue_.DrainInto(incoming_)));

  std::uint64_t parked = 0;
  for (const mobility::GpsRecord& r : incoming_) {
    if (r.t <= now) {
      state_.Apply(r);
    } else {
      deferred_.push_back(r);
      ++parked;
    }
  }
  if (parked != 0) deferred_counter_.Increment(parked);
  incoming_.clear();
  imbalance_gauge_.Set(queue_.ShardImbalance());
  watermark_ = std::max(watermark_, now);
}

sim::DispatchDecision DispatchService::Tick(
    const sim::DispatchContext& context) {
  OBS_SPAN("serve.tick");
  obs::FlightRecorder& flight = obs::FlightRecorder::Global();
  char attrs[128];
  const unsigned long long tick_no =
      static_cast<unsigned long long>(lifetime_ticks_ + 1);
  std::snprintf(attrs, sizeof(attrs), "tick=%llu now=%.0f", tick_no,
                context.now);
  flight.Emit(obs::Severity::kInfo, "serve", "tick_start", attrs);
  const bool was_degraded = degraded_remaining_ > 0;
  const auto t0 = std::chrono::steady_clock::now();
  AdvanceStateTo(context.now);
  const auto t1 = std::chrono::steady_clock::now();
  sim::DispatchDecision decision;
  bool used_fallback = false;
  bool primary_threw = false;
  {
    OBS_SPAN("serve.decide");
    if (degraded_remaining_ > 0) {
      // Cooldown from a previous failure/overrun: serve on the fallback.
      --degraded_remaining_;
      decision = fallback_.Decide(context);
      used_fallback = true;
    } else {
      try {
        if (config_.decide_chaos) config_.decide_chaos(context.now);
        decision = dispatcher_->Decide(context);
      } catch (const std::exception&) {
        // Degradation ladder rung 2 (DESIGN.md §13): the tick must still
        // produce a decision — greedy nearest-team dispatch. The cooldown
        // itself is armed below by the health engine's decide-error rule.
        decide_errors_counter_.Increment();
        primary_threw = true;
        decision = fallback_.Decide(context);
        used_fallback = true;
      }
    }
  }
  const auto t2 = std::chrono::steady_clock::now();

  const double drain = ElapsedMs(t0, t1);
  const double decide = ElapsedMs(t1, t2);
  if (!used_fallback && config_.decide_budget_ms > 0.0 &&
      decide > config_.decide_budget_ms) {
    // The decision is already made (and used) — the budget protects the
    // *next* ticks from a dispatcher that has become slow. The counter
    // stays here; degrading is the decide-budget rule's call.
    overrun_counter_.Increment();
  }
  // SLO health evaluation (DESIGN.md §16), off the decision path. The
  // default rules reproduce the old hardcoded ladder bit-identically: a
  // degrade trip can only fire on a tick that ran the primary dispatcher
  // (cooldown/fallback ticks observe clean samples), and on such ticks
  // degraded_remaining_ is 0, so the max() equals the old assignments.
  health_.Observe("serve_decide_error", primary_threw ? 1.0 : 0.0);
  health_.Observe("serve_decide_over_ms", used_fallback ? 0.0 : decide);
  const obs::HealthVerdict& verdict = health_.Evaluate();
  if (!verdict.degrade_tripped.empty()) {
    degraded_remaining_ =
        std::max(degraded_remaining_, config_.degraded_cooldown_ticks);
  }
  if (used_fallback) fallback_counter_.Increment();
  if (used_fallback != fallback_active_) {
    if (used_fallback) {
      std::snprintf(attrs, sizeof(attrs), "tick=%llu reason=%s", tick_no,
                    primary_threw ? "decide_error" : "cooldown");
      flight.Emit(obs::Severity::kWarn, "serve", "fallback_enter", attrs);
    } else {
      std::snprintf(attrs, sizeof(attrs), "tick=%llu", tick_no);
      flight.Emit(obs::Severity::kInfo, "serve", "fallback_exit", attrs);
    }
    fallback_active_ = used_fallback;
  }
  degraded_gauge_.Set(degraded_remaining_ > 0 ? 1.0 : 0.0);
  drain_ms_.push_back(drain);
  decide_ms_.push_back(decide);
  decision_ms_.push_back(drain + decide);
  drain_hist_.Observe(drain);
  decide_hist_.Observe(decide);
  ++lifetime_ticks_;
  ticks_total_.Increment();
  people_gauge_.Set(static_cast<double>(state_.num_people_seen()));

  if (learner_ != nullptr) {
    // After the decide timing (learning cost must never read as decide
    // latency), before the periodic checkpoint (which must capture this
    // tick's learner state). The tick ordinal is the lifetime count so
    // train/gate cadences stay aligned across crash recoveries.
    OBS_SPAN("serve.learn");
    const auto l0 = std::chrono::steady_clock::now();
    learner_->OnServedTick(lifetime_ticks_, context, mobirescue_->last_capture(),
                           used_fallback);
    const double learn = ElapsedMs(l0, std::chrono::steady_clock::now());
    learn_ms_.push_back(learn);
    learn_hist_.Observe(learn);
    const std::uint64_t rollbacks = learner_->promotion().rollbacks();
    if (rollbacks > learner_rollbacks_seen_) {
      // A promotion was reverted inside the watch window — capture the
      // evidence trail (the controller already flight-recorded the event).
      learner_rollbacks_seen_ = rollbacks;
      DumpIncident("rollback");
    }
  }

  if (config_.checkpoint_every_n_ticks > 0 &&
      !config_.checkpoint_path.empty() && CanCheckpoint() &&
      lifetime_ticks_ % config_.checkpoint_every_n_ticks == 0) {
    OBS_SPAN("serve.checkpoint");
    const auto c0 = std::chrono::steady_clock::now();
    try {
      WriteCheckpoint(config_.checkpoint_path);
      checkpoint_counter_.Increment();
      std::snprintf(attrs, sizeof(attrs), "tick=%llu", tick_no);
      flight.Emit(obs::Severity::kInfo, "serve", "checkpoint", attrs);
    } catch (const std::exception& e) {
      // The decision stands and the last good checkpoint is still on disk
      // (the file is replaced only once complete); the next periodic save
      // tries again.
      checkpoint_failures_counter_.Increment();
      std::snprintf(attrs, sizeof(attrs), "tick=%llu error=%s", tick_no,
                    e.what());
      flight.Emit(obs::Severity::kError, "serve", "checkpoint_failed", attrs);
    }
    checkpoint_hist_.Observe(ElapsedMs(c0, std::chrono::steady_clock::now()));
  }
  std::snprintf(attrs, sizeof(attrs),
                "tick=%llu decide_ms=%.3f drain_ms=%.3f fallback=%d", tick_no,
                decide, drain, used_fallback ? 1 : 0);
  flight.Emit(obs::Severity::kInfo, "serve", "tick_end", attrs);
  if (!was_degraded && degraded_remaining_ > 0) {
    // First tick of a degradation episode: bundle the window that led in.
    DumpIncident("degradation");
  }
  return decision;
}

std::string DispatchService::DumpIncident(const std::string& trigger) {
  if (incidents_ == nullptr) return "";
  return incidents_->Dump(trigger);
}

sim::MetricsCollector DispatchService::ServeEpisode(
    sim::RescueSimulator& simulator, TraceStreamer* streamer) {
  OBS_SPAN("serve.episode");
  sim::DispatchContext ctx;
  while (simulator.NextRound(*dispatcher_, &ctx)) {
    if (streamer != nullptr) streamer->WaitDelivered(ctx.now);
    simulator.SubmitDecision(Tick(ctx));
  }
  // Flush any still-queued records (e.g. end-of-day samples after the last
  // round) so final metrics reflect the whole stream.
  if (streamer != nullptr) streamer->WaitDelivered(simulator.now());
  AdvanceStateTo(simulator.now());
  return simulator.metrics();
}

void DispatchService::RequireCheckpointable(const char* caller) const {
  if (!CanCheckpoint()) {
    throw std::logic_error(std::string("DispatchService::") + caller +
                           ": only MobiRescue services (built from an svm + "
                           "agent) can checkpoint");
  }
}

void DispatchService::ExportServingState(ServingState& s) const {
  s.ticks = lifetime_ticks_;
  s.watermark = watermark_;
  s.latest = state_.ExportLatest();
  s.deferred = deferred_;
  s.counters = state_.counters();
  state_.ExportFlowState(&s.flow_cells, &s.flow_seen);
}

ServiceCheckpoint DispatchService::Checkpoint() const {
  RequireCheckpointable("Checkpoint");
  ServiceCheckpoint ckpt = MakeCheckpoint(mobirescue_->agent(), *svm_);
  ckpt.has_serving_state = true;
  ExportServingState(ckpt.serving);
  if (learner_ != nullptr) ckpt.learner_state = learner_->SaveStateString();
  return ckpt;
}

void DispatchService::WriteCheckpoint(const std::string& path) {
  RequireCheckpointable("WriteCheckpoint");
  const rl::DqnAgent& agent = mobirescue_->agent();
  std::vector<double> online = agent.SaveWeights();
  std::vector<double> target = agent.SaveTargetWeights();
  if (save_.models.empty() || !util::SameBits(online, save_.models_online) ||
      !util::SameBits(target, save_.models_target)) {
    // Only a promotion or a rollback changes the live weights.
    util::TextWriter models;
    SaveCheckpoint(MakeCheckpoint(agent, *svm_), models);
    save_.models = models.Release();
    save_.models_online = std::move(online);
    save_.models_target = std::move(target);
  }
  util::TextWriter& out = save_.text;
  out.Clear();
  out << save_.models;
  ExportServingState(save_.serving);
  SaveServingState(save_.serving, out);
  if (learner_ != nullptr) learner_->AppendState(out);
  WriteCheckpointText(out.view(), path);
}

void DispatchService::RestoreServingState(const ServiceCheckpoint& ckpt) {
  if (!ckpt.has_serving_state) {
    throw std::invalid_argument(
        "DispatchService::RestoreServingState: checkpoint has no serving "
        "state");
  }
  state_.Restore(ckpt.serving.latest, ckpt.serving.counters,
                 ckpt.serving.flow_cells, ckpt.serving.flow_seen);
  deferred_ = ckpt.serving.deferred;
  watermark_ = ckpt.serving.watermark;
  lifetime_ticks_ = ckpt.serving.ticks;
  if (learner_ != nullptr && !ckpt.learner_state.empty()) {
    // The live agent's (possibly promoted) weights came back through the
    // checkpoint's DQN section; this restores everything around them —
    // candidate training state, replay buffer, open transitions, evidence
    // window, promotion state machine and the rollback snapshot.
    learner_->LoadStateString(ckpt.learner_state);
  }
  recovery_counter_.Increment();
  // The restore edge is incident-worthy in itself: the flight window shows
  // what the crashed instance was doing, the metric delta what was lost.
  char attrs[64];
  std::snprintf(attrs, sizeof(attrs), "ticks=%llu",
                static_cast<unsigned long long>(lifetime_ticks_));
  obs::FlightRecorder::Global().Emit(obs::Severity::kWarn, "serve",
                                     "restore", attrs);
  learner_rollbacks_seen_ =
      learner_ != nullptr ? learner_->promotion().rollbacks() : 0;
  DumpIncident("restore");
}

ServiceMetrics DispatchService::metrics() const {
  ServiceMetrics m;
  m.ingest = queue_.counters();
  m.state = state_.counters();
  m.queue_depths = queue_.Depths();
  m.shard_imbalance = queue_.ShardImbalance();
  // The restored service continues the crashed instance's tick count.
  m.ticks = lifetime_ticks_;
  m.deferred = deferred_counter_.Value();
  m.people_tracked = state_.num_people_seen();
  m.decide_ms = util::Summarize(decide_ms_);
  m.drain_ms = util::Summarize(drain_ms_);
  m.decision_ms = util::Summarize(decision_ms_);
  if (watermark_ > 0.0) {
    m.ingest_rate_per_s =
        static_cast<double>(m.ingest.accepted) / watermark_;
  }
  if (mobirescue_ != nullptr) {
    m.router_cache = mobirescue_->featurizer().router().cache_stats();
  }
  m.fallback_ticks = fallback_counter_.Value();
  m.decide_errors = decide_errors_counter_.Value();
  m.budget_overruns = overrun_counter_.Value();
  m.checkpoints_written = checkpoint_counter_.Value();
  m.recoveries = recovery_counter_.Value();
  m.incidents = incidents_ != nullptr ? incidents_->dumps() : 0;
  m.health_trips = health_.trips();
  m.degraded = degraded_remaining_ > 0;
  if (learner_ != nullptr) {
    m.learning = true;
    m.learn = learner_->metrics();
    m.learn_ms = util::Summarize(learn_ms_);
  }
  return m;
}

const predict::Distribution* DispatchService::predicted_demand() const {
  return mobirescue_ == nullptr ? nullptr
                                : &mobirescue_->predicted_distribution();
}

}  // namespace mobirescue::serve
