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

}  // namespace
}  // namespace mobirescue::util
