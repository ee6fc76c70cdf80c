// Experience replay for the DQN dispatcher (Section IV-C4: the model keeps
// training online from freshly sampled state/action data).
//
// A transition is one team's dispatch decision: the feature vector of the
// chosen (team, candidate) pair, the team's share of the Eq. (5) reward, and
// the feature vectors of every candidate available at the next round (for
// the max_a' Q(s', a') bootstrap target).
//
// Each slot carries two memos of values that never change while the slot
// holds the same transition: its checkpoint text (AppendText, read back
// for a bit-identical copy by MemoisedText) and its
// bootstrap max_a' Q_target(s', a') under one target-network epoch
// (DqnAgent::TrainStep, DESIGN.md §15.5). Both are dropped in the same two
// places: Push() drops the slot it writes, whether it appends or overwrites
// the oldest slot, and Restore() drops every slot's. Both grow with the
// stored transitions, never with the capacity.
//
// Threading contract: single writer. Push(), Sample() and the checkpoint
// accessors are not synchronised; offline training and the online learner
// (which runs its whole tick phase on the serving thread) each own their
// buffer. AppendText() is const but fills the checkpoint-text memo, which
// MemoisedText() reads, and CacheBootstrap() fills the bootstrap memo, so
// all three belong to that writer too: call them from the thread that
// pushes, never beside a Push() or each other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::rl {

struct Transition {
  std::vector<double> features;                     // chosen action features
  double reward = 0.0;
  std::vector<std::vector<double>> next_candidates; // empty if terminal
  bool terminal = false;
  /// Semi-MDP macro-action duration in dispatch rounds; the bootstrap
  /// target discounts by gamma^duration so long legs and short waits are
  /// priced consistently.
  int duration_rounds = 1;
};

class ReplayBuffer {
 public:
  /// Storage grows with the pushes (util::Ring), so `capacity` is only a
  /// bound; 0 keeps nothing and counts every push as an eviction.
  explicit ReplayBuffer(std::size_t capacity) : ring_(capacity) {}

  void Push(Transition t);
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  bool empty() const { return ring_.empty(); }

  /// Lifetime append/eviction totals (evictions = appends that overwrote
  /// the oldest slot once the ring was full). Also exported through the
  /// obs registry as rl_replay_pushes_total / rl_replay_evictions_total.
  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t evictions() const { return ring_.evictions(); }

  /// Uniform random sample of slots (indices into data()): without
  /// replacement when n <= size() (no transition appears twice in a
  /// minibatch), with replacement otherwise.
  std::vector<std::size_t> Sample(std::size_t n, util::Rng& rng) const;

  /// Bootstrap memo: CachedBootstrap() returns true and stores the slot's
  /// max_a' Q_target(s', a') in `*max_q` when CacheBootstrap() recorded one
  /// under the same target epoch since the slot's last write. Epoch 0 is
  /// never a valid stamp (DqnAgent's epochs start at 1).
  bool CachedBootstrap(std::size_t slot, std::uint64_t epoch,
                       double* max_q) const;
  void CacheBootstrap(std::size_t slot, std::uint64_t epoch, double max_q);

  // Checkpointing access: the stored transitions in slot order plus the
  // ring cursor. Restore() rebuilds both so sampling after a restore is
  // bit-identical to the uninterrupted run; it throws std::invalid_argument
  // on data over capacity or a cursor out of range.
  const std::vector<Transition>& data() const { return ring_.data(); }
  std::size_t cursor() const { return ring_.oldest(); }
  void Restore(std::vector<Transition> data, std::size_t cursor,
               std::uint64_t pushes, std::uint64_t evictions);

  /// Appends every stored transition's checkpoint text to `out` in slot
  /// order, running `format` only for slots pushed since the last call (a
  /// transition never changes after its push, so each slot's text is
  /// memoised). Push() drops the text of the slot it writes and Restore()
  /// drops every slot's, so the output always equals formatting data()
  /// afresh, provided every call passes the same `format`.
  using FormatFn = std::function<void(util::TextWriter&, const Transition&)>;
  void AppendText(util::TextWriter& out, const FormatFn& format) const;
  /// The memoised text of the transition pushed `age` pushes before the
  /// newest (0 = the newest) if that slot's text is memoised and the slot
  /// holds a transition bit-identical to `t` (the reward's bits, terminal,
  /// duration_rounds and every feature row); empty otherwise, and valid
  /// until the next Push(), Restore() or AppendText(). Lets a caller that
  /// keeps copies of pushed transitions write them as AppendText's
  /// `format` would, without formatting them again.
  std::string_view MemoisedText(std::size_t age, const Transition& t) const;

 private:
  util::Ring<Transition> ring_;
  std::uint64_t pushes_ = 0;
  /// Checkpoint text per slot; empty = not formatted yet. Grows only in
  /// AppendText(), so a buffer that is never checkpointed (offline
  /// training) holds no text.
  mutable std::vector<std::string> text_;
  /// Bootstrap max per slot and the target epoch it was computed under;
  /// epoch 0 = none. Grows only in CacheBootstrap().
  struct Bootstrap {
    double max_q = 0.0;
    std::uint64_t epoch = 0;
  };
  std::vector<Bootstrap> bootstrap_;

  obs::Counter pushes_total_{"rl_replay_pushes_total",
                             "Transitions appended to a replay buffer."};
  obs::Counter evictions_total_{
      "rl_replay_evictions_total",
      "Replay appends that evicted the oldest transition (ring full)."};
};

}  // namespace mobirescue::rl
