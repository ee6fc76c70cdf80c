#include "util/ring.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mobirescue::util {
namespace {

TEST(RingTest, FillsSlotsInOrderThenOverwritesTheOldest) {
  Ring<int> ring(3);
  EXPECT_TRUE(ring.empty());
  ring.Push(1);
  ring.Push(2);
  ring.Push(3);
  EXPECT_EQ(ring.data(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ring.oldest(), 0u);  // stays 0 until the first wrap
  EXPECT_EQ(ring.evictions(), 0u);
  ring.Push(4);
  EXPECT_EQ(ring.data(), (std::vector<int>{4, 2, 3}));
  EXPECT_EQ(ring.oldest(), 1u);
  ring.Push(5);
  ring.Push(6);
  EXPECT_EQ(ring.data(), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(ring.oldest(), 0u);
  EXPECT_EQ(ring.evictions(), 3u);
  EXPECT_EQ(ring.size(), 3u);
}

TEST(RingTest, ZeroCapacityStoresNothingAndCountsEveryPush) {
  Ring<int> ring(0);
  for (int i = 0; i < 3; ++i) ring.Push(i);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.evictions(), 3u);
  EXPECT_EQ(ring.oldest(), 0u);
}

TEST(RingTest, ConstructedStorageGrowsWithThePushes) {
  // A huge capacity (as a hostile checkpoint could carry) allocates
  // nothing until elements arrive.
  Ring<double> huge(std::size_t{1} << 40);
  EXPECT_EQ(huge.data().capacity(), 0u);
  huge.Push(1.0);
  huge.Push(2.0);
  EXPECT_EQ(huge.size(), 2u);
  EXPECT_LT(huge.data().capacity(), 1024u);
}

TEST(RingTest, ResetAppliesALowerOrHigherCapacity) {
  Ring<int> ring(8);
  for (int i = 0; i < 10; ++i) ring.Push(i);
  ring.Reset(2);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.evictions(), 0u);
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_EQ(ring.data().capacity(), 2u);  // the old storage is released
  for (int i = 0; i < 5; ++i) ring.Push(i);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.evictions(), 3u);
  ring.Reset(6);
  EXPECT_GE(ring.data().capacity(), 6u);  // reserved: pushes never reallocate
  for (int i = 0; i < 5; ++i) ring.Push(i);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.evictions(), 0u);
}

TEST(RingTest, RestoreReproducesTheRingAndRejectsBadState) {
  Ring<int> ring(3);
  for (int i = 1; i <= 4; ++i) ring.Push(i);
  Ring<int> copy(3);
  copy.Restore(ring.data(), ring.oldest(), ring.evictions());
  ring.Push(5);
  copy.Push(5);
  EXPECT_EQ(copy.data(), ring.data());
  EXPECT_EQ(copy.oldest(), ring.oldest());
  EXPECT_EQ(copy.evictions(), ring.evictions());

  EXPECT_THROW(copy.Restore({1, 2, 3, 4}, 0, 0), std::invalid_argument);
  EXPECT_THROW(copy.Restore({1, 2, 3}, 3, 0), std::invalid_argument);
  Ring<int> none(0);
  EXPECT_THROW(none.Restore({}, 1, 0), std::invalid_argument);
  EXPECT_NO_THROW(none.Restore({}, 0, 7));
  EXPECT_EQ(none.evictions(), 7u);
}

std::vector<int> OldestFirst(const Ring<int>& ring) {
  std::vector<int> out;
  ring.ForEachOldestFirst([&](int v) { out.push_back(v); });
  return out;
}

TEST(RingTest, ForEachOldestFirstVisitsInAgeOrder) {
  Ring<int> ring(4);
  EXPECT_TRUE(OldestFirst(ring).empty());
  for (int i = 1; i <= 3; ++i) ring.Push(i);
  EXPECT_EQ(OldestFirst(ring), (std::vector<int>{1, 2, 3}));  // no wrap yet
  for (int i = 4; i <= 13; ++i) ring.Push(i);  // several wraps
  EXPECT_EQ(ring.data(), (std::vector<int>{13, 10, 11, 12}));
  EXPECT_EQ(OldestFirst(ring), (std::vector<int>{10, 11, 12, 13}));

  Ring<int> copy(4);
  copy.Restore(ring.data(), ring.oldest(), ring.evictions());
  EXPECT_EQ(OldestFirst(copy), (std::vector<int>{10, 11, 12, 13}));
  copy.Push(14);
  EXPECT_EQ(OldestFirst(copy), (std::vector<int>{11, 12, 13, 14}));

  // A list restored oldest first at cursor 0 (how the learner restores
  // its windows) stays in age order as pushes wrap it.
  Ring<int> window(4);
  window.Restore({7, 8}, 0, 0);
  for (int i = 9; i <= 11; ++i) window.Push(i);
  EXPECT_EQ(OldestFirst(window), (std::vector<int>{8, 9, 10, 11}));
}

}  // namespace
}  // namespace mobirescue::util
