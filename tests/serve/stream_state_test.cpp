#include "serve/stream_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "roadnet/city_builder.hpp"
#include "roadnet/spatial_index.hpp"

namespace mobirescue::serve {
namespace {

class StreamStateTest : public ::testing::Test {
 protected:
  StreamStateTest() {
    roadnet::CityConfig config;
    config.grid_width = 6;
    config.grid_height = 6;
    city_ = roadnet::BuildCity(config);
    index_ = std::make_unique<roadnet::SpatialIndex>(city_.network, city_.box);
  }

  /// A moving record pinned to a landmark's position (always matchable).
  mobility::GpsRecord At(mobility::PersonId p, double t,
                         roadnet::LandmarkId lm,
                         double speed = 10.0) const {
    mobility::GpsRecord r;
    r.person = p;
    r.t = t;
    r.pos = city_.network.landmark(lm).pos;
    r.speed_mps = speed;
    return r;
  }

  /// A synthetic day: people hop between landmarks, pinging every few
  /// minutes; per-person timestamps strictly increase.
  mobility::GpsTrace SyntheticDay(int people = 12, int pings = 40) const {
    mobility::GpsTrace trace;
    const std::size_t n = city_.network.num_landmarks();
    for (int p = 0; p < people; ++p) {
      for (int i = 0; i < pings; ++i) {
        const auto lm = static_cast<roadnet::LandmarkId>(
            (static_cast<std::size_t>(p) * 31 + static_cast<std::size_t>(i) * 7) % n);
        trace.push_back(At(p, 120.0 * i + p, lm, i % 3 == 0 ? 0.0 : 9.0));
      }
    }
    std::sort(trace.begin(), trace.end(),
              [](const mobility::GpsRecord& a, const mobility::GpsRecord& b) {
                return a.t < b.t;
              });
    return trace;
  }

  /// Checks that every SnapshotSegments() entry is kInvalidSegment or the
  /// unbounded nearest segment of its row's position; returns the number
  /// of valid entries.
  std::size_t ExpectSegmentsExact(StreamState& state) const {
    const auto& snap = state.Snapshot(0.0);
    const std::span<const roadnet::SegmentId> segs = state.SnapshotSegments();
    EXPECT_EQ(segs.size(), snap.size());
    if (segs.size() != snap.size()) return 0;
    std::vector<util::GeoPoint> pts;
    for (const mobility::GpsRecord& r : snap) pts.push_back(r.pos);
    std::vector<roadnet::SegmentId> nearest(pts.size());
    index_->NearestSegments(pts.data(), pts.size(), -1.0, nearest.data());
    std::size_t valid = 0;
    for (std::size_t i = 0; i < snap.size(); ++i) {
      if (segs[i] == roadnet::kInvalidSegment) continue;
      ++valid;
      EXPECT_EQ(segs[i], nearest[i]) << "person " << snap[i].person;
    }
    return valid;
  }

  /// The segment SnapshotSegments() holds for `person`.
  static roadnet::SegmentId SegmentOf(StreamState& state,
                                      mobility::PersonId person) {
    const auto& snap = state.Snapshot(0.0);
    for (std::size_t i = 0; i < snap.size(); ++i) {
      if (snap[i].person == person) return state.SnapshotSegments()[i];
    }
    ADD_FAILURE() << "person " << person << " not in the snapshot";
    return roadnet::kInvalidSegment;
  }

  roadnet::City city_;
  std::unique_ptr<roadnet::SpatialIndex> index_;
};

TEST_F(StreamStateTest, TracksLatestPositionPerPerson) {
  StreamState state(city_.network, *index_);
  state.Apply(At(1, 0.0, 0));
  state.Apply(At(1, 60.0, 3));
  state.Apply(At(2, 30.0, 5));

  const auto& snap = state.Snapshot(60.0);
  ASSERT_EQ(snap.size(), 2u);
  std::unordered_map<mobility::PersonId, mobility::GpsRecord> by_person;
  for (const auto& r : snap) by_person[r.person] = r;
  EXPECT_DOUBLE_EQ(by_person.at(1).t, 60.0);
  EXPECT_DOUBLE_EQ(by_person.at(2).t, 30.0);
  EXPECT_EQ(state.num_people_seen(), 2u);
}

TEST_F(StreamStateTest, SnapshotContentMatchesBatchTracker) {
  const mobility::GpsTrace trace = SyntheticDay();
  sim::PopulationTracker batch(trace);

  StreamState streamed(city_.network, *index_);
  std::size_t cursor = 0;
  for (double t : {600.0, 1800.0, 3600.0, 5400.0}) {
    while (cursor < trace.size() && trace[cursor].t <= t) {
      streamed.Apply(trace[cursor]);
      ++cursor;
    }
    const auto& a = batch.Snapshot(t);
    const auto& b = streamed.Snapshot(t);
    ASSERT_EQ(a.size(), b.size()) << "t=" << t;

    // Same content keyed by person (row order is implementation detail).
    std::unordered_map<mobility::PersonId, mobility::GpsRecord> want;
    for (const auto& r : a) want[r.person] = r;
    for (const auto& r : b) {
      const auto it = want.find(r.person);
      ASSERT_NE(it, want.end()) << "person " << r.person;
      EXPECT_DOUBLE_EQ(r.t, it->second.t);
      EXPECT_DOUBLE_EQ(r.pos.lat, it->second.pos.lat);
      EXPECT_DOUBLE_EQ(r.pos.lon, it->second.pos.lon);
      EXPECT_DOUBLE_EQ(r.speed_mps, it->second.speed_mps);
    }
  }
}

TEST_F(StreamStateTest, IncrementalFlowsMatchBatchAnalyzer) {
  const mobility::GpsTrace trace = SyntheticDay();

  // Batch path: match the whole trace, ingest once.
  mobility::MapMatcher matcher(city_.network, *index_);
  mobility::FlowRateAnalyzer batch(city_.network, 24);
  batch.Ingest(matcher.MatchTrace(trace));

  // Streamed path: one record at a time, in time order.
  StreamState streamed(city_.network, *index_);
  streamed.ApplyAll(trace);

  for (std::size_t seg = 0; seg < city_.network.num_segments(); ++seg) {
    for (int h = 0; h < 24; ++h) {
      ASSERT_DOUBLE_EQ(
          streamed.flows().SegmentFlow(static_cast<roadnet::SegmentId>(seg), h),
          batch.SegmentFlow(static_cast<roadnet::SegmentId>(seg), h))
          << "seg=" << seg << " hour=" << h;
    }
  }
}

TEST_F(StreamStateTest, CountsUnmatchedRecords) {
  mobility::MatchConfig strict;
  strict.max_match_distance_m = 1.0;
  StreamStateConfig config;
  config.match = strict;
  StreamState state(city_.network, *index_, config);

  mobility::GpsRecord far = At(1, 0.0, 0);
  far.pos.lat += 1.0;
  far.pos.lon += 1.0;
  state.Apply(far);
  state.Apply(At(2, 10.0, 0));

  const StreamStateCounters& c = state.counters();
  EXPECT_EQ(c.applied, 2u);
  EXPECT_EQ(c.matched, 1u);
  EXPECT_EQ(c.unmatched, 1u);
  // Unmatched records still update the person's latest position.
  EXPECT_EQ(state.Snapshot(10.0).size(), 2u);
}

// --- Quarantine (DESIGN.md §13) --------------------------------------------

TEST_F(StreamStateTest, QuarantinesNonFiniteRecords) {
  StreamState state(city_.network, *index_);

  mobility::GpsRecord nan_lat = At(1, 0.0, 0);
  nan_lat.pos.lat = std::numeric_limits<double>::quiet_NaN();
  mobility::GpsRecord inf_lon = At(2, 1.0, 0);
  inf_lon.pos.lon = std::numeric_limits<double>::infinity();
  mobility::GpsRecord nan_speed = At(3, 2.0, 0);
  nan_speed.speed_mps = std::numeric_limits<double>::quiet_NaN();
  mobility::GpsRecord nan_t = At(4, 3.0, 0);
  nan_t.t = std::numeric_limits<double>::quiet_NaN();

  for (const auto& r : {nan_lat, inf_lon, nan_speed, nan_t}) state.Apply(r);
  state.Apply(At(5, 4.0, 0));  // one clean record

  const StreamStateCounters& c = state.counters();
  EXPECT_EQ(c.quarantined_non_finite, 4u);
  EXPECT_EQ(c.quarantined(), 4u);
  EXPECT_EQ(c.applied, 1u);
  // Quarantined records never reach the latest-position state.
  EXPECT_EQ(state.num_people_seen(), 1u);
}

TEST_F(StreamStateTest, QuarantinesOutOfBoxWhenBoxConfigured) {
  StreamStateConfig config;
  config.accept_box = city_.box;
  StreamState state(city_.network, *index_, config);

  mobility::GpsRecord inside = At(1, 0.0, 0);
  mobility::GpsRecord outside = At(2, 1.0, 0);
  outside.pos.lat += 90.0;
  state.Apply(inside);
  state.Apply(outside);

  EXPECT_EQ(state.counters().applied, 1u);
  EXPECT_EQ(state.counters().quarantined_out_of_box, 1u);
  EXPECT_EQ(state.num_people_seen(), 1u);
}

TEST_F(StreamStateTest, QuarantinesStaleButAcceptsEqualTimestamps) {
  StreamState state(city_.network, *index_);
  state.Apply(At(1, 100.0, 0));
  // Strictly older: stale, the newer position survives.
  state.Apply(At(1, 50.0, 3));
  EXPECT_EQ(state.counters().quarantined_stale, 1u);
  EXPECT_EQ(state.Snapshot(100.0)[0].t, 100.0);

  // Equal timestamp: overwrite, NOT quarantine — the batch tracker's
  // stable-sort "latest wins" semantics (bit-identity depends on this).
  const mobility::GpsRecord equal_t = At(1, 100.0, 5);
  state.Apply(equal_t);
  EXPECT_EQ(state.counters().quarantined_stale, 1u);
  EXPECT_EQ(state.counters().applied, 2u);
  const auto& snap = state.Snapshot(100.0);
  EXPECT_EQ(snap[0].pos.lat, equal_t.pos.lat);
  EXPECT_EQ(snap[0].pos.lon, equal_t.pos.lon);
}

TEST_F(StreamStateTest, ValidationOffTrustsInput) {
  StreamStateConfig config;
  config.validate = false;
  config.accept_box = city_.box;
  StreamState state(city_.network, *index_, config);

  mobility::GpsRecord nan_lat = At(1, 0.0, 0);
  nan_lat.pos.lat = std::numeric_limits<double>::quiet_NaN();
  state.Apply(nan_lat);
  state.Apply(At(2, 1.0, 0));
  state.Apply(At(2, 0.5, 3));  // out of order, trusted anyway

  EXPECT_EQ(state.counters().quarantined(), 0u);
  EXPECT_EQ(state.counters().applied, 3u);
}

TEST_F(StreamStateTest, ExportRestoreRoundTrip) {
  // Build two states over the same network; run a day through the first,
  // export, restore into the second: snapshots, counters and flow counts
  // must all carry over (this is what crash recovery replays onto).
  const mobility::GpsTrace trace = SyntheticDay();
  StreamState original(city_.network, *index_);
  original.ApplyAll(trace);

  std::vector<mobility::GpsRecord> latest = original.ExportLatest();
  // ExportLatest is sorted by person (deterministic checkpoint bytes).
  for (std::size_t i = 1; i < latest.size(); ++i) {
    EXPECT_LT(latest[i - 1].person, latest[i].person);
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cells;
  std::vector<std::uint64_t> seen;
  original.ExportFlowState(&cells, &seen);

  StreamState restored(city_.network, *index_);
  restored.Restore(latest, original.counters(), cells, seen);

  EXPECT_EQ(restored.num_people_seen(), original.num_people_seen());
  EXPECT_EQ(restored.counters().applied, original.counters().applied);
  const double t = trace.back().t;
  ASSERT_EQ(restored.Snapshot(t).size(), original.Snapshot(t).size());
  for (std::size_t seg = 0; seg < city_.network.num_segments(); ++seg) {
    for (int h = 0; h < 24; ++h) {
      ASSERT_DOUBLE_EQ(
          restored.flows().SegmentFlow(static_cast<roadnet::SegmentId>(seg), h),
          original.flows().SegmentFlow(static_cast<roadnet::SegmentId>(seg), h))
          << "seg=" << seg << " hour=" << h;
    }
  }

  // The flow dedup state restored too: re-applying an already-counted
  // record must not double-count anywhere (crash recovery replays records
  // that overlap the checkpoint).
  const int hour = static_cast<int>(trace.back().t / 3600.0);
  std::vector<double> before;
  for (std::size_t seg = 0; seg < city_.network.num_segments(); ++seg) {
    before.push_back(
        restored.flows().SegmentFlow(static_cast<roadnet::SegmentId>(seg), hour));
  }
  restored.Apply(trace.back());
  for (std::size_t seg = 0; seg < city_.network.num_segments(); ++seg) {
    EXPECT_DOUBLE_EQ(
        restored.flows().SegmentFlow(static_cast<roadnet::SegmentId>(seg), hour),
        before[seg])
        << "seg=" << seg;
  }

  // Mid-stream: export at the trace's half, restore into a fresh state and
  // apply the rest. It must end exactly where the uninterrupted state did.
  const std::span<const mobility::GpsRecord> all(trace);
  const std::size_t half = trace.size() / 2;
  StreamState first_half(city_.network, *index_);
  first_half.ApplyAll(all.first(half));
  first_half.ExportFlowState(&cells, &seen);
  StreamState resumed(city_.network, *index_);
  resumed.Restore(first_half.ExportLatest(), first_half.counters(), cells,
                  seen);
  resumed.ApplyAll(all.subspan(half));

  const std::vector<mobility::GpsRecord> want = original.ExportLatest();
  const std::vector<mobility::GpsRecord> got = resumed.ExportLatest();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].person, want[i].person) << "latest " << i;
    EXPECT_EQ(got[i].t, want[i].t) << "latest " << i;
    EXPECT_EQ(got[i].pos.lat, want[i].pos.lat) << "latest " << i;
    EXPECT_EQ(got[i].pos.lon, want[i].pos.lon) << "latest " << i;
    EXPECT_EQ(got[i].altitude_m, want[i].altitude_m) << "latest " << i;
    EXPECT_EQ(got[i].speed_mps, want[i].speed_mps) << "latest " << i;
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> want_cells, got_cells;
  std::vector<std::uint64_t> want_seen, got_seen;
  original.ExportFlowState(&want_cells, &want_seen);
  resumed.ExportFlowState(&got_cells, &got_seen);
  EXPECT_FALSE(want_cells.empty());
  EXPECT_EQ(got_cells, want_cells);
  EXPECT_EQ(got_seen, want_seen);
  EXPECT_EQ(resumed.counters().applied, original.counters().applied);
  EXPECT_EQ(resumed.counters().matched, original.counters().matched);
  EXPECT_EQ(resumed.counters().unmatched, original.counters().unmatched);
}

TEST_F(StreamStateTest, SnapshotSegmentsAreTheUnboundedNearestOrInvalid) {
  StreamState state(city_.network, *index_);
  state.ApplyAll(SyntheticDay());

  // A record far outside the city: no road within the 400 m match radius.
  mobility::GpsRecord far = At(100, 10.0, 0);
  far.pos = city_.box.At(-0.8, -0.8);
  ASSERT_EQ(index_->NearestSegment(far.pos, 400.0), roadnet::kInvalidSegment);
  state.Apply(far);
  // Equal-timestamp overwrites at different positions: the later record
  // wins, with its own match.
  state.Apply(At(101, 20.0, 3));
  mobility::GpsRecord overwrite_far = far;
  overwrite_far.person = 101;
  overwrite_far.t = 20.0;
  state.Apply(overwrite_far);
  mobility::GpsRecord far_then_road = far;
  far_then_road.person = 102;
  far_then_road.t = 30.0;
  state.Apply(far_then_road);
  state.Apply(At(102, 30.0, 5));

  EXPECT_GT(ExpectSegmentsExact(state), 0u);
  EXPECT_EQ(SegmentOf(state, 100), roadnet::kInvalidSegment);
  EXPECT_EQ(SegmentOf(state, 101), roadnet::kInvalidSegment);
  EXPECT_EQ(SegmentOf(state, 102),
            index_->NearestSegment(city_.network.landmark(5).pos));
  EXPECT_NE(SegmentOf(state, 102), roadnet::kInvalidSegment);

  // A restored state holds no segments until each person's next record.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cells;
  std::vector<std::uint64_t> seen;
  state.ExportFlowState(&cells, &seen);
  StreamState restored(city_.network, *index_);
  restored.Restore(state.ExportLatest(), state.counters(), cells, seen);
  EXPECT_EQ(ExpectSegmentsExact(restored), 0u);
  restored.Apply(At(1, 1e6, 7));
  EXPECT_EQ(ExpectSegmentsExact(restored), 1u);
  EXPECT_EQ(SegmentOf(restored, 1),
            index_->NearestSegment(city_.network.landmark(7).pos));
}

TEST_F(StreamStateTest, SlotsHoldEachPersonsLatestRecordAndMatch) {
  // The snapshot is the state's own slot arrays, written in place. Through
  // interleaved applies, every quarantine, equal-time overwrites, extreme
  // person ids and a Restore, it must hold exactly the latest record of
  // each person (the ExportLatest set) and, parallel to it, that record's
  // own match.
  StreamStateConfig config;
  // A box wide enough for a record too far from every road to match.
  config.accept_box = util::BoundingBox{city_.box.At(-1.0, -1.0),
                                        city_.box.At(2.0, 2.0)};
  StreamState state(city_.network, *index_, config);
  const double radius = config.match.max_match_distance_m;
  mobility::GpsRecord far = At(0, 0.0, 0);
  far.pos = city_.box.At(-0.8, -0.8);
  ASSERT_EQ(index_->NearestSegment(far.pos, radius), roadnet::kInvalidSegment);
  auto far_at = [&far](mobility::PersonId p, double t) {
    mobility::GpsRecord r = far;
    r.person = p;
    r.t = t;
    return r;
  };

  // Test-local model: each person's latest record and its expected segment.
  std::map<mobility::PersonId, std::pair<mobility::GpsRecord, roadnet::SegmentId>>
      want;
  auto apply = [&](const mobility::GpsRecord& r, bool accepted) {
    const std::uint64_t quarantined = state.counters().quarantined();
    state.Apply(r);
    EXPECT_EQ(state.counters().quarantined(), quarantined + (accepted ? 0 : 1))
        << "person " << r.person << " t " << r.t;
    if (accepted) want[r.person] = {r, index_->NearestSegment(r.pos, radius)};
  };
  auto same = [](const mobility::GpsRecord& a, const mobility::GpsRecord& b) {
    return a.person == b.person && a.t == b.t && a.pos.lat == b.pos.lat &&
           a.pos.lon == b.pos.lon && a.altitude_m == b.altitude_m &&
           a.speed_mps == b.speed_mps;
  };
  auto check = [&](const char* stage) {
    SCOPED_TRACE(stage);
    const std::vector<mobility::GpsRecord>& snap = state.Snapshot(0.0);
    const std::span<const roadnet::SegmentId> segs = state.SnapshotSegments();
    ASSERT_EQ(snap.size(), want.size());
    ASSERT_EQ(segs.size(), snap.size());
    EXPECT_EQ(state.num_people_seen(), want.size());
    std::vector<mobility::GpsRecord> sorted = snap;
    std::sort(sorted.begin(), sorted.end(),
              [](const mobility::GpsRecord& a, const mobility::GpsRecord& b) {
                return a.person < b.person;
              });
    const std::vector<mobility::GpsRecord> exported = state.ExportLatest();
    ASSERT_EQ(exported.size(), sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_TRUE(same(sorted[i], exported[i])) << "person " << sorted[i].person;
    }
    for (std::size_t i = 0; i < snap.size(); ++i) {
      const auto it = want.find(snap[i].person);
      ASSERT_NE(it, want.end()) << "person " << snap[i].person;
      EXPECT_TRUE(same(snap[i], it->second.first)) << "person " << snap[i].person;
      EXPECT_EQ(segs[i], it->second.second) << "person " << snap[i].person;
    }
  };

  constexpr mobility::PersonId kMin = std::numeric_limits<std::int32_t>::min();
  constexpr mobility::PersonId kMax = std::numeric_limits<std::int32_t>::max();
  // Interleaved first sightings and updates, matched and unmatched.
  apply(At(kMax, 10.0, 3), true);
  apply(At(-1, 11.0, 4), true);
  apply(At(kMin, 12.0, 5), true);
  apply(far_at(7, 13.0), true);
  apply(At(-1, 20.0, 8), true);
  apply(At(kMax, 25.0, 9), true);
  apply(At(7, 26.0, 10), true);
  // Quarantines change nothing: stale, non-finite, out of the box.
  apply(At(kMax, 24.0, 11), false);
  mobility::GpsRecord nan_lat = At(-1, 30.0, 12);
  nan_lat.pos.lat = std::numeric_limits<double>::quiet_NaN();
  apply(nan_lat, false);
  mobility::GpsRecord nan_new = At(42, 30.0, 12);
  nan_new.speed_mps = std::numeric_limits<double>::infinity();
  apply(nan_new, false);
  mobility::GpsRecord outside = At(kMin, 31.0, 13);
  outside.pos.lat += 90.0;
  apply(outside, false);
  // Equal-time overwrites: matched to unmatched and back, and a move.
  apply(far_at(kMin, 12.0), true);
  apply(far_at(-1, 20.0), true);
  apply(At(-1, 20.0, 14), true);
  apply(At(7, 26.0, 15), true);
  check("applies");

  // A Restore from a list that names person 5 twice: the later record
  // wins, and no person keeps a segment.
  const std::vector<mobility::GpsRecord> latest = {
      At(5, 1.0, 2), At(kMin, 2.0, 3), At(5, 3.0, 4), At(-1, 4.0, 5),
      At(kMax, 5.0, 6)};
  state.Restore(latest, state.counters(), {}, {});
  want.clear();
  for (const mobility::GpsRecord& r : latest) {
    want[r.person] = {r, roadnet::kInvalidSegment};
  }
  check("restore");

  // Applies after the restore write the restored slots and add new ones.
  apply(At(5, 10.0, 6), true);
  apply(At(5, 2.0, 7), false);  // older than the restored-then-applied 10 s
  apply(At(kMin, 1.0, 8), false);  // older than the restored 2 s
  apply(At(99, 11.0, 8), true);
  apply(At(-1, 4.0, 9), true);  // equal time to the restored record
  apply(far_at(kMax, 6.0), true);
  check("applies after restore");
}

TEST_F(StreamStateTest, RestoreRejectsCorruptFlowState) {
  StreamState state(city_.network, *index_);
  const std::vector<mobility::GpsRecord> empty_latest;
  const StreamStateCounters counters;

  // Cell index past the dense count table.
  EXPECT_THROW(
      state.Restore(empty_latest, counters, {{1u << 30, 1}}, {}),
      std::runtime_error);
  // Duplicate cell entries.
  EXPECT_THROW(state.Restore(empty_latest, counters, {{3, 1}, {3, 2}}, {}),
               std::runtime_error);
  // Duplicate dedup keys.
  EXPECT_THROW(state.Restore(empty_latest, counters, {}, {7, 7}),
               std::runtime_error);
}

}  // namespace
}  // namespace mobirescue::serve
