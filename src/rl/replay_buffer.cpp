#include "rl/replay_buffer.hpp"

#include <bit>
#include <cstdint>
#include <numeric>

#include "util/same_bits.hpp"

namespace mobirescue::rl {

namespace {

bool SameBits(const Transition& a, const Transition& b) {
  if (std::bit_cast<std::uint64_t>(a.reward) !=
          std::bit_cast<std::uint64_t>(b.reward) ||
      a.terminal != b.terminal || a.duration_rounds != b.duration_rounds ||
      !util::SameBits(a.features, b.features) ||
      a.next_candidates.size() != b.next_candidates.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.next_candidates.size(); ++i) {
    if (!util::SameBits(a.next_candidates[i], b.next_candidates[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

void ReplayBuffer::Push(Transition t) {
  ++pushes_;
  pushes_total_.Increment();
  const std::size_t slot =
      ring_.size() < ring_.capacity() ? ring_.size() : ring_.oldest();
  if (slot < text_.size()) text_[slot].clear();
  if (slot < bootstrap_.size()) bootstrap_[slot].epoch = 0;
  const std::uint64_t evicted = ring_.evictions();
  ring_.Push(std::move(t));
  if (ring_.evictions() != evicted) evictions_total_.Increment();
}

std::vector<std::size_t> ReplayBuffer::Sample(std::size_t n,
                                              util::Rng& rng) const {
  const std::size_t size = ring_.size();
  if (size == 0) return {};
  if (n > size) {
    std::vector<std::size_t> out(n);
    for (std::size_t& slot : out) slot = rng.Index(size);
    return out;
  }
  // Without replacement (partial Fisher-Yates): a minibatch never contains
  // the same transition twice, which matters early in training when the
  // buffer is barely larger than the batch.
  std::vector<std::size_t> idx(size);
  std::iota(idx.begin(), idx.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(idx[i], idx[i + rng.Index(size - i)]);
  }
  idx.resize(n);
  return idx;
}

bool ReplayBuffer::CachedBootstrap(std::size_t slot, std::uint64_t epoch,
                                   double* max_q) const {
  if (slot >= bootstrap_.size() || bootstrap_[slot].epoch != epoch) {
    return false;
  }
  *max_q = bootstrap_[slot].max_q;
  return true;
}

void ReplayBuffer::CacheBootstrap(std::size_t slot, std::uint64_t epoch,
                                  double max_q) {
  if (bootstrap_.size() < ring_.size()) bootstrap_.resize(ring_.size());
  bootstrap_[slot] = {max_q, epoch};
}

void ReplayBuffer::Restore(std::vector<Transition> data, std::size_t cursor,
                           std::uint64_t pushes, std::uint64_t evictions) {
  ring_.Restore(std::move(data), cursor, evictions);
  pushes_ = pushes;
  text_.clear();
  bootstrap_.clear();
}

void ReplayBuffer::AppendText(util::TextWriter& out,
                              const FormatFn& format) const {
  const std::vector<Transition>& data = ring_.data();
  text_.resize(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (text_[i].empty()) {
      util::TextWriter slot;
      format(slot, data[i]);
      text_[i] = slot.Release();
    }
    out << text_[i];
  }
}

std::string_view ReplayBuffer::MemoisedText(std::size_t age,
                                           const Transition& t) const {
  const std::size_t size = ring_.size();
  if (age >= size) return {};
  // Slot order from the newest back: the ring's newest element sits just
  // before oldest(), and the bit check below covers any ring it does not.
  const std::size_t slot = (ring_.oldest() + size - 1 - age) % size;
  if (slot >= text_.size() || !SameBits(ring_.data()[slot], t)) return {};
  return text_[slot];
}

}  // namespace mobirescue::rl
