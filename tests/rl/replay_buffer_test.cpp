#include "rl/replay_buffer.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

namespace mobirescue::rl {
namespace {

Transition Make(double reward) {
  Transition t;
  t.features = {reward};
  t.reward = reward;
  return t;
}

/// A checkpoint-text formatter that counts its calls and records which
/// transitions (by reward) it formatted.
struct CountingFormat {
  int calls = 0;
  std::vector<double> formatted;
  ReplayBuffer::FormatFn Fn() {
    return [this](util::TextWriter& out, const Transition& t) {
      ++calls;
      formatted.push_back(t.reward);
      out << "t " << t.reward << ' ' << t.features.size() << '\n';
    };
  }
};

std::string MemoText(const ReplayBuffer& buffer, CountingFormat& format) {
  util::TextWriter out;
  buffer.AppendText(out, format.Fn());
  return out.Release();
}

/// The same formatter run afresh over data() in slot order.
std::string FreshText(const ReplayBuffer& buffer) {
  CountingFormat format;
  const ReplayBuffer::FormatFn fn = format.Fn();
  util::TextWriter out;
  for (const Transition& t : buffer.data()) fn(out, t);
  return out.Release();
}

TEST(ReplayBufferTest, GrowsUntilCapacity) {
  ReplayBuffer buffer(3);
  EXPECT_TRUE(buffer.empty());
  buffer.Push(Make(1));
  buffer.Push(Make(2));
  EXPECT_EQ(buffer.size(), 2u);
  buffer.Push(Make(3));
  buffer.Push(Make(4));  // overwrites the oldest
  EXPECT_EQ(buffer.size(), 3u);
}

TEST(ReplayBufferTest, RingOverwritesOldestFirst) {
  ReplayBuffer buffer(2);
  buffer.Push(Make(1));
  buffer.Push(Make(2));
  buffer.Push(Make(3));  // should replace reward=1
  util::Rng rng(1);
  bool saw1 = false, saw3 = false;
  for (const std::size_t slot : buffer.Sample(200, rng)) {
    saw1 = saw1 || buffer.data()[slot].reward == 1.0;
    saw3 = saw3 || buffer.data()[slot].reward == 3.0;
  }
  EXPECT_FALSE(saw1);
  EXPECT_TRUE(saw3);
}

TEST(ReplayBufferTest, SampleFromEmptyIsEmpty) {
  ReplayBuffer buffer(4);
  util::Rng rng(2);
  EXPECT_TRUE(buffer.Sample(10, rng).empty());
}

TEST(ReplayBufferTest, SampleSizeAndMembership) {
  ReplayBuffer buffer(10);
  for (int i = 0; i < 5; ++i) buffer.Push(Make(i));
  util::Rng rng(3);
  const auto sample = buffer.Sample(32, rng);
  EXPECT_EQ(sample.size(), 32u);
  for (const std::size_t slot : sample) {
    EXPECT_LT(slot, buffer.size());
  }
}

TEST(ReplayBufferTest, SampleWithoutReplacementWhenBufferSuffices) {
  // Regression: sampling used to draw with replacement even when the batch
  // fit inside the buffer, so a small early-training buffer could fill a
  // minibatch with many copies of one transition.
  ReplayBuffer buffer(16);
  for (int i = 0; i < 10; ++i) buffer.Push(Make(i));
  util::Rng rng(7);
  const auto sample = buffer.Sample(10, rng);
  ASSERT_EQ(sample.size(), 10u);
  std::set<std::size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 10u);  // every stored transition exactly once

  util::Rng rng2(8);
  const auto partial = buffer.Sample(6, rng2);
  ASSERT_EQ(partial.size(), 6u);
  std::set<std::size_t> partial_distinct(partial.begin(), partial.end());
  EXPECT_EQ(partial_distinct.size(), 6u);
}

TEST(ReplayBufferTest, OversizedSampleStillFallsBackToReplacement) {
  ReplayBuffer buffer(4);
  buffer.Push(Make(1));
  buffer.Push(Make(2));
  util::Rng rng(9);
  const auto sample = buffer.Sample(7, rng);
  EXPECT_EQ(sample.size(), 7u);  // n > size(): duplicates are unavoidable
}

TEST(ReplayBufferTest, StoresFullTransitionPayload) {
  ReplayBuffer buffer(2);
  Transition t;
  t.features = {1, 2, 3};
  t.reward = -0.5;
  t.next_candidates = {{4, 5, 6}, {7, 8, 9}};
  t.terminal = true;
  t.duration_rounds = 7;
  buffer.Push(t);
  util::Rng rng(4);
  const Transition* got = &buffer.data()[buffer.Sample(1, rng)[0]];
  EXPECT_EQ(got->features, (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(got->next_candidates.size(), 2u);
  EXPECT_TRUE(got->terminal);
  EXPECT_EQ(got->duration_rounds, 7);
}

TEST(ReplayBufferTest, WrappedBufferSamplesDeterministicallyAndRestores) {
  constexpr std::size_t kCapacity = 128;
  constexpr int kPushes = 400;
  ReplayBuffer buffer(kCapacity);
  for (int i = 0; i < kPushes; ++i) buffer.Push(Make(0.001 * i));

  // Every append counted, and every append past capacity evicted exactly
  // one slot.
  EXPECT_EQ(buffer.size(), kCapacity);
  EXPECT_EQ(buffer.pushes(), static_cast<std::uint64_t>(kPushes));
  EXPECT_EQ(buffer.evictions(), static_cast<std::uint64_t>(kPushes) - kCapacity);
  EXPECT_EQ(buffer.cursor(), (kPushes - kCapacity) % kCapacity);

  // Sampling is a pure function of (content, rng): same seed, same
  // minibatch.
  util::Rng rng_a(77), rng_b(77);
  const auto sample_a = buffer.Sample(32, rng_a);
  const auto sample_b = buffer.Sample(32, rng_b);
  ASSERT_EQ(sample_a.size(), sample_b.size());
  for (std::size_t i = 0; i < sample_a.size(); ++i) {
    EXPECT_EQ(sample_a[i], sample_b[i]) << "sample index " << i;
  }

  // A Restore()d buffer samples identically to the original, and keeps
  // overwriting from the same slot.
  ReplayBuffer copy(kCapacity);
  copy.Restore(buffer.data(), buffer.cursor(), buffer.pushes(),
               buffer.evictions());
  util::Rng rng_c(77);
  const auto sample_c = copy.Sample(32, rng_c);
  ASSERT_EQ(sample_c.size(), sample_a.size());
  for (std::size_t i = 0; i < sample_a.size(); ++i) {
    EXPECT_EQ(buffer.data()[sample_a[i]].reward,
              copy.data()[sample_c[i]].reward);
    EXPECT_EQ(buffer.data()[sample_a[i]].features,
              copy.data()[sample_c[i]].features);
  }
  buffer.Push(Make(-1.0));
  copy.Push(Make(-1.0));
  ASSERT_EQ(copy.data().size(), buffer.data().size());
  for (std::size_t i = 0; i < buffer.data().size(); ++i) {
    EXPECT_EQ(copy.data()[i].reward, buffer.data()[i].reward);
  }
  EXPECT_EQ(copy.cursor(), buffer.cursor());
}

TEST(ReplayBufferTest, ZeroCapacityKeepsNothingAndCountsEvictions) {
  ReplayBuffer buffer(0);
  for (int i = 0; i < 3; ++i) buffer.Push(Make(i));
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.pushes(), 3u);
  EXPECT_EQ(buffer.evictions(), 3u);
  EXPECT_EQ(buffer.cursor(), 0u);
  util::Rng rng(5);
  EXPECT_TRUE(buffer.Sample(4, rng).empty());
  CountingFormat format;
  EXPECT_EQ(MemoText(buffer, format), "");
  EXPECT_EQ(format.calls, 0);
}

TEST(ReplayBufferTest, RestoreRejectsOverCapacityAndCursorOutOfRange) {
  ReplayBuffer buffer(2);
  EXPECT_THROW(buffer.Restore({Make(1), Make(2), Make(3)}, 0, 3, 1),
               std::invalid_argument);
  EXPECT_THROW(buffer.Restore({Make(1), Make(2)}, 2, 3, 1),
               std::invalid_argument);
  ReplayBuffer empty(0);
  EXPECT_THROW(empty.Restore({}, 1, 0, 0), std::invalid_argument);
  EXPECT_NO_THROW(empty.Restore({}, 0, 5, 5));
  EXPECT_EQ(empty.evictions(), 5u);
}

TEST(ReplayBufferTest, AppendTextFormatsEachSlotOncePerPush) {
  ReplayBuffer buffer(4);
  CountingFormat format;
  for (int i = 0; i < 3; ++i) buffer.Push(Make(i));

  // Cold memo: every slot formatted once.
  const std::string first = MemoText(buffer, format);
  EXPECT_EQ(format.calls, 3);
  EXPECT_EQ(first, FreshText(buffer));

  // Warm memo: nothing formatted, the same text.
  EXPECT_EQ(MemoText(buffer, format), first);
  EXPECT_EQ(format.calls, 3);

  // One appending push (slot 3) and one wrapping overwrite (slot 0):
  // exactly those two slots are formatted again.
  buffer.Push(Make(3));
  buffer.Push(Make(4));
  ASSERT_EQ(buffer.cursor(), 1u);
  format.formatted.clear();
  const std::string wrapped = MemoText(buffer, format);
  EXPECT_EQ(format.calls, 5);
  EXPECT_EQ(format.formatted, (std::vector<double>{4, 3}));  // slot order
  EXPECT_EQ(wrapped, FreshText(buffer));
  EXPECT_NE(wrapped, first);

  // Restore drops the whole memo: every slot formatted again.
  buffer.Restore(buffer.data(), buffer.cursor(), buffer.pushes(),
                 buffer.evictions());
  EXPECT_EQ(MemoText(buffer, format), wrapped);
  EXPECT_EQ(format.calls, 9);
  EXPECT_EQ(MemoText(buffer, format), FreshText(buffer));
  EXPECT_EQ(format.calls, 9);

  // Restoring smaller contents leaves no text from the longer ring behind.
  buffer.Restore({Make(7)}, 0, 1, 0);
  EXPECT_EQ(MemoText(buffer, format), FreshText(buffer));
  EXPECT_EQ(format.calls, 10);
}

TEST(ReplayBufferTest, BootstrapMemoDroppedByPushAndRestore) {
  ReplayBuffer buffer(2);
  buffer.Push(Make(1));
  double q = 0.0;
  EXPECT_FALSE(buffer.CachedBootstrap(0, 1, &q));
  buffer.CacheBootstrap(0, 1, 0.5);
  ASSERT_TRUE(buffer.CachedBootstrap(0, 1, &q));
  EXPECT_EQ(q, 0.5);
  EXPECT_FALSE(buffer.CachedBootstrap(0, 2, &q));  // another epoch
  buffer.Push(Make(2));  // appends to slot 1: slot 0 keeps its value
  EXPECT_TRUE(buffer.CachedBootstrap(0, 1, &q));
  buffer.CacheBootstrap(1, 1, 0.75);
  buffer.Push(Make(3));  // overwrites slot 0
  EXPECT_FALSE(buffer.CachedBootstrap(0, 1, &q));
  ASSERT_TRUE(buffer.CachedBootstrap(1, 1, &q));
  EXPECT_EQ(q, 0.75);
  buffer.Restore(buffer.data(), buffer.cursor(), buffer.pushes(),
                 buffer.evictions());
  EXPECT_FALSE(buffer.CachedBootstrap(1, 1, &q));
}

}  // namespace
}  // namespace mobirescue::rl
