#include "learn/learner.hpp"

#include <chrono>
#include <utility>

#include "util/rng.hpp"
#include "util/text_reader.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::learn {

namespace {

constexpr char kLearnMagic[] = "mobirescue-learn-v1";
constexpr char kLearnEnd[] = "mobirescue-learn-end";
/// Upper bound on any serialised count (same hardening stance as
/// serve/checkpoint.cpp). A count never sizes an allocation: containers
/// grow as their elements are read, so a short input fails at its first
/// missing token.
constexpr std::size_t kMaxCount = 1u << 24;

void WriteVector(util::TextWriter& out, const std::vector<double>& v) {
  out << v.size();
  for (const double x : v) out << ' ' << x;
  out << '\n';
}

std::vector<double> ReadVector(util::TextReader& in) {
  const std::size_t n = in.Count(kMaxCount);
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) in >> v.emplace_back();
  return v;
}

/// A feature row, which must be `dim` wide: a narrower or wider row would
/// restore and then throw from the first TrainStep or gate that scores it.
std::vector<double> ReadRow(util::TextReader& in, std::size_t dim) {
  std::vector<double> row = ReadVector(in);
  if (row.size() != dim) in.Fail("feature row width");
  return row;
}

void WriteTransition(util::TextWriter& out, const rl::Transition& t) {
  out << "t " << t.reward << ' ' << (t.terminal ? 1 : 0) << ' '
      << t.duration_rounds << ' ';
  WriteVector(out, t.features);
  out << t.next_candidates.size() << '\n';
  for (const std::vector<double>& c : t.next_candidates) WriteVector(out, c);
}

rl::Transition ReadTransition(util::TextReader& in, std::size_t dim) {
  in.Expect("t");
  rl::Transition t;
  in >> t.reward >> t.terminal >> t.duration_rounds;
  t.features = ReadRow(in, dim);
  const std::size_t n = in.Count(kMaxCount);
  for (std::size_t i = 0; i < n; ++i) {
    t.next_candidates.push_back(ReadRow(in, dim));
  }
  return t;
}

}  // namespace

OnlineLearner::OnlineLearner(const LearnConfig& config,
                             dispatch::RewardWeights reward,
                             std::shared_ptr<rl::DqnAgent> live)
    : config_(config),
      live_(std::move(live)),
      candidate_([&] {
        // Candidate clone: live architecture, its own streamed-experience
        // buffer and an independent sampler stream (the live agent's
        // offline training stream is never replayed online).
        rl::DqnConfig c = live_->config();
        c.buffer_capacity = config.buffer_capacity;
        c.seed = util::SplitMix64(config.seed);
        auto agent = std::make_shared<rl::DqnAgent>(c);
        agent->LoadWeights(live_->SaveWeights());
        agent->LoadTargetWeights(live_->SaveTargetWeights());
        return agent;
      }()),
      collector_(reward,
                 [this](rl::Transition t) { AddTransition(std::move(t)); }),
      shadow_(candidate_),
      promotion_(config.promotion, *live_, *candidate_) {}

void OnlineLearner::OnServedTick(std::uint64_t tick,
                                 const sim::DispatchContext& context,
                                 const dispatch::RoundCapture& capture,
                                 bool used_fallback) {
  ++ticks_;
  if (used_fallback) {
    // The executed actions were not the policy's: abort attribution and
    // let the promotion ladder see the fault (rollback inside the watch
    // window).
    collector_.OnFallbackTick(context);
    promotion_.OnTick(tick, true, shadow_.SawNonFiniteQ());
    return;
  }
  collector_.Observe(context, capture);
  shadow_.OnTick(tick, capture);
  const int steps = config_.trainer.steps_per_tick;
  if (steps > 0 && candidate_->buffer().size() >= config_.trainer.min_buffer) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < steps; ++s) last_loss_ = candidate_->TrainStep();
    train_steps_ += static_cast<std::uint64_t>(steps);
    train_steps_total_.Increment(static_cast<std::uint64_t>(steps));
    train_tick_ms_.Observe(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
  promotion_.OnTick(tick, false, shadow_.SawNonFiniteQ());
}

void OnlineLearner::AddTransition(rl::Transition t) {
  promotion_.AddEvidence(t);
  candidate_->mutable_buffer().Push(std::move(t));
}

LearnMetrics OnlineLearner::metrics() const {
  LearnMetrics m;
  m.ticks_observed = ticks_;
  m.transitions = collector_.transitions();
  m.aborted_transitions = collector_.aborted();
  m.train_steps = train_steps_;
  m.shadow_rounds = shadow_.rounds_scored();
  m.promotions = promotion_.promotions();
  m.rollbacks = promotion_.rollbacks();
  m.rejections = promotion_.rejections();
  m.last_loss = last_loss_;
  m.last_live_td = promotion_.last_live_td();
  m.last_candidate_td = promotion_.last_candidate_td();
  m.shadow_agreement = shadow_.MeanAgreement();
  m.promotion_state = PromotionStateName(promotion_.state());
  return m;
}

std::string OnlineLearner::SaveStateString() const {
  util::TextWriter out;
  AppendState(out);
  return out.Release();
}

void OnlineLearner::AppendState(util::TextWriter& out) const {
  out << kLearnMagic << '\n';
  out << "ticks " << ticks_ << '\n';

  out << "candidate-weights ";
  WriteVector(out, candidate_->SaveWeights());
  out << "candidate-target ";
  WriteVector(out, candidate_->SaveTargetWeights());
  out << "trainer-rng ";
  candidate_->SaveTrainerState(out);
  out << '\n';

  const rl::ReplayBuffer& buf = candidate_->buffer();
  out << "buffer " << buf.size() << ' ' << buf.cursor() << ' ' << buf.pushes()
      << ' ' << buf.evictions() << '\n';
  buf.AppendText(out, WriteTransition);

  const auto& pending = collector_.pending();
  out << "collector " << pending.size() << '\n';
  for (const ExperienceCollector::Pending& p : pending) {
    out << (p.valid ? 1 : 0) << ' ' << (p.is_standdown ? 1 : 0) << ' '
        << p.accumulated << ' ' << p.rounds << ' ';
    WriteVector(out, p.features);
  }
  out << "collector-counters " << collector_.transitions() << ' '
      << collector_.aborted() << '\n';

  // The 0s are the always-0 slots (learner.hpp).
  out << "trainer-counters " << train_steps_ << " 0 " << last_loss_ << '\n';

  out << "shadow " << shadow_.rounds_scored() << ' ' << shadow_.log().size()
      << '\n';
  shadow_.log().ForEachOldestFirst([&](const ShadowRecord& rec) {
    out << rec.tick << " 0 " << rec.agreement << ' ' << (rec.q_finite ? 1 : 0)
        << '\n';
  });

  const PromotionController::Snapshot snap = promotion_.snapshot();
  out << "promotion " << static_cast<int>(snap.state) << ' ' << snap.watch_left
      << ' ' << snap.cooldown_left << ' ' << snap.promotions << ' '
      << snap.rollbacks << ' ' << snap.rejections << ' ' << snap.last_live_td
      << ' ' << snap.last_candidate_td << '\n';
  out << "promotion-ticks " << snap.promotion_ticks.size();
  for (const std::uint64_t t : snap.promotion_ticks) out << ' ' << t;
  out << '\n';
  const util::Ring<rl::Transition>& evidence = promotion_.evidence();
  out << "evidence " << evidence.size() << '\n';
  // The newest evidence transitions are the buffer's newest, whose text
  // the buffer section above just memoised. The buffer's bit check sends
  // the rest (a buffer smaller than the window, a restored blob whose two
  // sections differ) to WriteTransition.
  std::size_t age = evidence.size();
  evidence.ForEachOldestFirst([&](const rl::Transition& t) {
    const std::string_view text = buf.MemoisedText(--age, t);
    if (text.empty()) {
      WriteTransition(out, t);
    } else {
      out << text;
    }
  });
  out << "rollback ";
  WriteVector(out, snap.rollback_online);
  WriteVector(out, snap.rollback_target);

  out << kLearnEnd << '\n';
}

void OnlineLearner::LoadStateString(std::string_view blob) {
  util::TextReader in(blob, "learn state");
  in.Expect(kLearnMagic);
  in.Expect("ticks");
  in >> ticks_;

  const std::size_t dim = candidate_->config().feature_dim;
  in.Expect("candidate-weights");
  const std::vector<double> online = ReadVector(in);
  in.Expect("candidate-target");
  const std::vector<double> target = ReadVector(in);
  const std::size_t n_weights = candidate_->SaveWeights().size();
  if (online.size() != n_weights || target.size() != n_weights) {
    in.Fail("weight count mismatch");
  }
  candidate_->LoadWeights(online);        // also syncs target...
  candidate_->LoadTargetWeights(target);  // ...then restore the lagged copy
  in.Expect("trainer-rng");
  candidate_->LoadTrainerState(in);

  in.Expect("buffer");
  // Bounded by the candidate's capacity before any transition is read
  // (ReplayBuffer::Restore checks it only after the whole buffer).
  const std::size_t buf_size = in.Count(candidate_->buffer().capacity());
  const std::size_t cursor = in.Count(kMaxCount);
  std::uint64_t pushes = 0, evictions = 0;
  in >> pushes >> evictions;
  std::vector<rl::Transition> data;
  for (std::size_t i = 0; i < buf_size; ++i) {
    data.push_back(ReadTransition(in, dim));
  }
  candidate_->mutable_buffer().Restore(std::move(data), cursor, pushes,
                                       evictions);

  in.Expect("collector");
  const std::size_t teams = in.Count(kMaxCount);
  std::vector<ExperienceCollector::Pending> pending;
  for (std::size_t i = 0; i < teams; ++i) {
    ExperienceCollector::Pending& p = pending.emplace_back();
    in >> p.valid >> p.is_standdown >> p.accumulated >> p.rounds;
    p.features = p.valid ? ReadRow(in, dim) : ReadVector(in);
  }
  in.Expect("collector-counters");
  std::uint64_t transitions = 0, aborted = 0;
  in >> transitions >> aborted;
  collector_.RestorePending(std::move(pending), transitions, aborted);

  in.Expect("trainer-counters");
  in >> train_steps_;
  in.Expect("0");
  in >> last_loss_;

  in.Expect("shadow");
  std::uint64_t rounds_scored = 0;
  in >> rounds_scored;
  const std::size_t log_size = in.Count(ShadowPolicyRunner::kLogCapacity);
  std::vector<ShadowRecord> log;
  for (std::size_t i = 0; i < log_size; ++i) {
    ShadowRecord& rec = log.emplace_back();
    in >> rec.tick;
    in.Expect("0");
    in >> rec.agreement >> rec.q_finite;
  }
  shadow_.Restore(std::move(log), rounds_scored);

  in.Expect("promotion");
  PromotionController::Snapshot snap;
  snap.state = static_cast<PromotionState>(in.Count(3));  // its 4 values
  in >> snap.watch_left >> snap.cooldown_left >> snap.promotions >>
      snap.rollbacks >> snap.rejections >> snap.last_live_td >>
      snap.last_candidate_td;
  in.Expect("promotion-ticks");
  const std::size_t n_promos = in.Count(kMaxCount);
  for (std::size_t i = 0; i < n_promos; ++i) {
    in >> snap.promotion_ticks.emplace_back();
  }
  in.Expect("evidence");
  const std::size_t n_evidence = in.Count(kMaxCount);
  std::vector<rl::Transition> evidence;
  for (std::size_t i = 0; i < n_evidence; ++i) {
    evidence.push_back(ReadTransition(in, dim));
  }
  in.Expect("rollback");
  snap.rollback_online = ReadVector(in);
  snap.rollback_target = ReadVector(in);
  // Only a watching controller holds the weights a rollback restores.
  const std::size_t n_rollback =
      snap.state == PromotionState::kWatching ? n_weights : 0;
  if (snap.rollback_online.size() != n_rollback ||
      snap.rollback_target.size() != n_rollback) {
    in.Fail("rollback weights do not fit the promotion state");
  }
  promotion_.Restore(std::move(snap), std::move(evidence));

  in.Expect(kLearnEnd);
  if (!in.AtEnd()) in.Fail("trailing garbage");
}

}  // namespace mobirescue::learn
