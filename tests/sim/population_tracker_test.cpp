#include "sim/population_tracker.hpp"

#include <gtest/gtest.h>

namespace mobirescue::sim {
namespace {

mobility::GpsRecord Rec(mobility::PersonId p, double t, double lat) {
  mobility::GpsRecord r;
  r.person = p;
  r.t = t;
  r.pos = {lat, -78.9};
  return r;
}

TEST(PopulationTrackerTest, SnapshotAdvancesWithTime) {
  PopulationTracker tracker({Rec(0, 10, 35.1), Rec(0, 100, 35.2),
                             Rec(1, 50, 35.3)});
  const auto& early = tracker.Snapshot(20.0);
  ASSERT_EQ(early.size(), 1u);
  EXPECT_DOUBLE_EQ(early[0].pos.lat, 35.1);

  const auto& later = tracker.Snapshot(200.0);
  EXPECT_EQ(later.size(), 2u);
  for (const auto& r : later) {
    if (r.person == 0) {
      EXPECT_DOUBLE_EQ(r.pos.lat, 35.2);
    }
  }
}

TEST(PopulationTrackerTest, HandlesUnsortedInput) {
  PopulationTracker tracker({Rec(0, 100, 35.2), Rec(0, 10, 35.1)});
  const auto& snap = tracker.Snapshot(50.0);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].pos.lat, 35.1);
}

TEST(PopulationTrackerTest, EmptyTrace) {
  PopulationTracker tracker({});
  EXPECT_TRUE(tracker.Snapshot(100.0).empty());
}

TEST(DaySliceTest, FiltersAndRetimes) {
  mobility::GpsTrace trace = {
      Rec(0, 0.5 * util::kSecondsPerDay, 35.1),
      Rec(0, 1.5 * util::kSecondsPerDay, 35.2),
      Rec(0, 2.5 * util::kSecondsPerDay, 35.3),
  };
  const auto slice = DaySlice(trace, 1);
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_NEAR(slice[0].t, 0.5 * util::kSecondsPerDay, 1e-9);
  EXPECT_DOUBLE_EQ(slice[0].pos.lat, 35.2);
}

}  // namespace
}  // namespace mobirescue::sim
