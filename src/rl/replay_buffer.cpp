#include "rl/replay_buffer.hpp"

#include <numeric>

namespace mobirescue::rl {

void ReplayBuffer::Push(Transition t) {
  ++pushes_;
  pushes_total_.Increment();
  const std::size_t slot =
      ring_.size() < ring_.capacity() ? ring_.size() : ring_.oldest();
  if (slot < text_.size()) text_[slot].clear();
  const std::uint64_t evicted = ring_.evictions();
  ring_.Push(std::move(t));
  if (ring_.evictions() != evicted) evictions_total_.Increment();
}

std::vector<const Transition*> ReplayBuffer::Sample(std::size_t n,
                                                    util::Rng& rng) const {
  const std::vector<Transition>& data = ring_.data();
  std::vector<const Transition*> out;
  if (data.empty()) return out;
  out.reserve(n);
  if (n <= data.size()) {
    // Without replacement (partial Fisher-Yates): a minibatch never
    // contains the same transition twice, which matters early in training
    // when the buffer is barely larger than the batch.
    std::vector<std::size_t> idx(data.size());
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(idx[i], idx[i + rng.Index(idx.size() - i)]);
      out.push_back(&data[idx[i]]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(&data[rng.Index(data.size())]);
    }
  }
  return out;
}

void ReplayBuffer::Restore(std::vector<Transition> data, std::size_t cursor,
                           std::uint64_t pushes, std::uint64_t evictions) {
  ring_.Restore(std::move(data), cursor, evictions);
  pushes_ = pushes;
  text_.clear();
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

}  // namespace mobirescue::rl
