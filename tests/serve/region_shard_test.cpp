// Region-sharded StreamState (DESIGN.md §17): for every shard count and
// worker count, the sharded ApplyBatch path must leave *bit-identical*
// state to the classic single-state path — latest positions, quarantine
// counters, flow counts, and the exported crash-recovery bytes — because
// matching is per-record independent and flow dedup is order-independent.
// Also audits the ingest queue's splitmix64 person sharding at 1M strictly
// sequential ids (the adversarial id distribution for a multiplicative mix).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dispatch/simple_dispatchers.hpp"
#include "roadnet/city_builder.hpp"
#include "roadnet/spatial_index.hpp"
#include "serve/dispatch_service.hpp"
#include "serve/ingest_queue.hpp"
#include "serve/stream_state.hpp"
#include "util/rng.hpp"

namespace mobirescue::serve {
namespace {

class RegionShardTest : public ::testing::Test {
 protected:
  RegionShardTest() {
    roadnet::CityConfig config;
    config.grid_width = 10;
    config.grid_height = 10;
    city_ = roadnet::BuildCity(config);
    index_ = std::make_unique<roadnet::SpatialIndex>(city_.network, city_.box);
  }

  StreamStateConfig ShardedConfig(int shards, int workers = 0) const {
    StreamStateConfig cfg;
    cfg.accept_box = city_.box;
    cfg.shards = shards;
    cfg.shard_workers = workers;
    return cfg;
  }

  /// Random day: per-person strictly increasing timestamps, positions all
  /// over the box (some too far from any segment — the unmatched path),
  /// interleaved across people by global time sort.
  mobility::GpsTrace RandomTrace(int people, int per_person,
                                 std::uint64_t seed) const {
    util::Rng rng(seed);
    mobility::GpsTrace trace;
    trace.reserve(static_cast<std::size_t>(people) * per_person);
    for (int p = 0; p < people; ++p) {
      for (int k = 0; k < per_person; ++k) {
        mobility::GpsRecord r;
        r.person = p;
        r.t = 300.0 * k + rng.Uniform(0.0, 100.0);
        r.pos = city_.box.At(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
        r.altitude_m = rng.Uniform(0.0, 120.0);
        r.speed_mps = rng.Uniform(0.0, 25.0);
        trace.push_back(r);
      }
    }
    std::sort(trace.begin(), trace.end(),
              [](const mobility::GpsRecord& a, const mobility::GpsRecord& b) {
                return a.t < b.t;
              });
    return trace;
  }

  /// Feeds a trace through ApplyBatch in uneven chunks (the drain pattern).
  static void Feed(StreamState& state, const mobility::GpsTrace& trace) {
    std::size_t i = 0;
    while (i < trace.size()) {
      const std::size_t n = std::min<std::size_t>(997, trace.size() - i);
      state.ApplyBatch(trace.data() + i, n);
      i += n;
    }
  }

  /// Full bit-identity check between two states over the same input.
  void ExpectSameState(const StreamState& a, const StreamState& b) {
    const auto la = a.ExportLatest();
    const auto lb = b.ExportLatest();
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i].person, lb[i].person) << "latest " << i;
      ASSERT_EQ(la[i].t, lb[i].t) << "latest " << i;
      ASSERT_EQ(la[i].pos.lat, lb[i].pos.lat) << "latest " << i;
      ASSERT_EQ(la[i].pos.lon, lb[i].pos.lon) << "latest " << i;
      ASSERT_EQ(la[i].speed_mps, lb[i].speed_mps) << "latest " << i;
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ca, cb;
    std::vector<std::uint64_t> sa, sb;
    a.ExportFlowState(&ca, &sa);
    b.ExportFlowState(&cb, &sb);
    ASSERT_EQ(ca, cb);
    ASSERT_EQ(sa, sb);
    EXPECT_EQ(a.counters().applied, b.counters().applied);
    EXPECT_EQ(a.counters().matched, b.counters().matched);
    EXPECT_EQ(a.counters().unmatched, b.counters().unmatched);
    EXPECT_EQ(a.counters().quarantined_non_finite,
              b.counters().quarantined_non_finite);
    EXPECT_EQ(a.counters().quarantined_out_of_box,
              b.counters().quarantined_out_of_box);
    EXPECT_EQ(a.counters().quarantined_stale, b.counters().quarantined_stale);
    EXPECT_EQ(a.num_people_seen(), b.num_people_seen());
    // The merged flow mirror answers reads identically to the single path.
    for (const roadnet::RoadSegment& seg : city_.network.segments()) {
      for (int h = 0; h < a.flows().total_hours(); ++h) {
        ASSERT_EQ(a.flows().SegmentFlow(seg.id, h),
                  b.flows().SegmentFlow(seg.id, h))
            << "segment " << seg.id << " hour " << h;
      }
    }
  }

  /// Checks every SnapshotSegments() entry against the unbounded nearest
  /// segment of its row's position (kInvalidSegment is always allowed) and
  /// against `want` (person -> segment) where given. Returns the number of
  /// valid entries.
  std::size_t ExpectSegmentsExact(
      StreamState& state,
      const std::unordered_map<mobility::PersonId, roadnet::SegmentId>&
          want = {}) const {
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
      const auto it = want.find(snap[i].person);
      if (it != want.end()) {
        EXPECT_EQ(segs[i], it->second) << "person " << snap[i].person;
      }
      if (segs[i] == roadnet::kInvalidSegment) continue;
      ++valid;
      EXPECT_EQ(segs[i], nearest[i]) << "person " << snap[i].person;
    }
    return valid;
  }

  /// Two records per person at one timestamp later than any RandomTrace
  /// record, at two random box positions: an equal-timestamp overwrite
  /// inside one batch, usually across shards. Fills `want` with the
  /// second record's bounded match, which must win.
  mobility::GpsTrace OverwriteBatch(
      int people, double t, std::uint64_t seed,
      std::unordered_map<mobility::PersonId, roadnet::SegmentId>* want)
      const {
    util::Rng rng(seed);
    mobility::GpsTrace batch;
    for (int p = 0; p < people; ++p) {
      for (int k = 0; k < 2; ++k) {
        mobility::GpsRecord r;
        r.person = p;
        r.t = t;
        r.pos = city_.box.At(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
        batch.push_back(r);
      }
      (*want)[p] = index_->NearestSegment(batch.back().pos, 400.0);
    }
    return batch;
  }

  roadnet::City city_;
  std::unique_ptr<roadnet::SpatialIndex> index_;
};

TEST_F(RegionShardTest, SnapshotSegmentsAreTheUnboundedNearestOrInvalid) {
  // Each person's latest record keeps the segment its apply path matched
  // within 400 m, on the single and the sharded path alike, and a
  // restored state keeps none until a person's next record.
  const mobility::GpsTrace trace = RandomTrace(1500, 6, 77);
  std::unordered_map<mobility::PersonId, roadnet::SegmentId> want;
  const mobility::GpsTrace overwrite = OverwriteBatch(300, 1e5, 78, &want);
  std::size_t want_invalid = 0;
  for (const auto& [person, seg] : want) {
    want_invalid += seg == roadnet::kInvalidSegment ? 1 : 0;
  }
  ASSERT_GT(want_invalid, 0u);  // some latest records match no road
  ASSERT_LT(want_invalid, want.size());

  for (const auto& [shards, workers] : {std::pair{1, 0}, std::pair{4, 2}}) {
    StreamState state(city_.network, *index_, ShardedConfig(shards, workers));
    Feed(state, trace);
    state.ApplyBatch(overwrite.data(), overwrite.size());
    const std::size_t valid = ExpectSegmentsExact(state, want);
    EXPECT_GT(valid, 0u) << "shards " << shards;
    EXPECT_LT(valid, state.num_people_seen()) << "shards " << shards;

    std::vector<std::pair<std::uint64_t, std::uint32_t>> cells;
    std::vector<std::uint64_t> seen;
    state.ExportFlowState(&cells, &seen);
    StreamState restored(city_.network, *index_,
                         ShardedConfig(shards, workers));
    restored.Restore(state.ExportLatest(), state.counters(), cells, seen);
    EXPECT_EQ(ExpectSegmentsExact(restored), 0u) << "shards " << shards;
    std::unordered_map<mobility::PersonId, roadnet::SegmentId> want_next;
    const mobility::GpsTrace next = OverwriteBatch(300, 2e5, 79, &want_next);
    restored.ApplyBatch(next.data(), next.size());
    EXPECT_GT(ExpectSegmentsExact(restored, want_next), 0u)
        << "shards " << shards;
  }
}

TEST_F(RegionShardTest, ShardedStateBitIdenticalToSingle) {
  const mobility::GpsTrace trace = RandomTrace(3000, 8, 99);
  StreamState single(city_.network, *index_, ShardedConfig(1));
  Feed(single, trace);
  ASSERT_GT(single.counters().matched, 0u);
  ASSERT_GT(single.counters().unmatched, 0u);  // both branches exercised
  for (const int shards : {2, 6, 8}) {
    StreamState sharded(city_.network, *index_, ShardedConfig(shards));
    ASSERT_EQ(sharded.num_shards(), shards);
    Feed(sharded, trace);
    ExpectSameState(single, sharded);
  }
}

TEST_F(RegionShardTest, QuarantineParityUnderFaultyInput) {
  // Inject every rejection class; the sharded path's phase A must
  // quarantine the exact same records as the single path.
  mobility::GpsTrace trace = RandomTrace(400, 10, 7);
  util::Rng rng(13);
  const std::size_t clean = trace.size();
  for (int i = 0; i < 200; ++i) {
    mobility::GpsRecord r = trace[rng.Index(clean)];
    switch (i % 4) {
      case 0:
        r.t = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        r.pos.lat = std::numeric_limits<double>::infinity();
        break;
      case 2:
        r.pos.lat = city_.box.south_west.lat - 1.0;  // out of accept box
        break;
      case 3:
        r.t = -5.0;  // older than the person's first record: stale
        break;
    }
    trace.push_back(r);
  }
  StreamState single(city_.network, *index_, ShardedConfig(1));
  StreamState sharded(city_.network, *index_, ShardedConfig(6));
  Feed(single, trace);
  Feed(sharded, trace);
  ASSERT_GT(single.counters().quarantined_non_finite, 0u);
  ASSERT_GT(single.counters().quarantined_out_of_box, 0u);
  ASSERT_GT(single.counters().quarantined_stale, 0u);
  ExpectSameState(single, sharded);
}

TEST_F(RegionShardTest, WorkerThreadsDoNotChangeResults) {
  // Segment ownership makes per-shard flow cells disjoint, so the
  // threaded match/ingest phases must be bit-identical to inline.
  const mobility::GpsTrace trace = RandomTrace(2000, 6, 2025);
  StreamState inline_state(city_.network, *index_, ShardedConfig(8, 0));
  StreamState threaded(city_.network, *index_, ShardedConfig(8, 3));
  Feed(inline_state, trace);
  Feed(threaded, trace);
  ExpectSameState(inline_state, threaded);
}

TEST_F(RegionShardTest, ExportRestoreRoundTripsAcrossShardCounts) {
  const mobility::GpsTrace part1 = RandomTrace(1200, 5, 41);
  const mobility::GpsTrace part2 = RandomTrace(1200, 5, 42);

  // Oracle: a single-shard state that lived through both parts. part2's
  // timestamps overlap part1's, so replay them as one time-sorted stream
  // (per-person order must hold across the restore boundary).
  mobility::GpsTrace all = part1;
  all.insert(all.end(), part2.begin(), part2.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const mobility::GpsRecord& a,
                      const mobility::GpsRecord& b) { return a.t < b.t; });
  const std::size_t half = all.size() / 2;

  StreamState oracle(city_.network, *index_, ShardedConfig(1));
  Feed(oracle, all);

  // A 6-shard state sees the first half, exports, and its bytes restore
  // into a 4-shard and a single state; both finish the second half and
  // must land exactly on the oracle.
  StreamState exporter(city_.network, *index_, ShardedConfig(6));
  exporter.ApplyBatch(all.data(), half);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cells;
  std::vector<std::uint64_t> seen;
  exporter.ExportFlowState(&cells, &seen);
  const auto latest = exporter.ExportLatest();

  for (const int shards : {4, 1}) {
    StreamState restored(city_.network, *index_, ShardedConfig(shards));
    restored.Restore(latest, exporter.counters(), cells, seen);
    restored.ApplyBatch(all.data() + half, all.size() - half);
    ExpectSameState(oracle, restored);
  }
}

TEST_F(RegionShardTest, SequentialPersonIdsBalanceAtMillionScale) {
  // The balance audit (DESIGN.md §17): strictly sequential person ids are
  // the adversarial input for a multiplicative hash. splitmix64 sharding
  // must keep max/mean cumulative accepted within ~1% of even at 1M
  // people over 16 shards (multinomial sigma there is ~0.4% of the mean).
  IngestQueueConfig config;
  config.num_shards = 16;
  config.shard_capacity = 8192;
  ShardedIngestQueue queue(config);
  EXPECT_EQ(queue.ShardImbalance(), 0.0);  // defined before any record

  std::vector<mobility::GpsRecord> drained;
  mobility::GpsRecord r;
  r.pos = city_.box.Center();
  constexpr int kPeople = 1'000'000;
  for (int person = 0; person < kPeople; ++person) {
    r.person = person;
    r.t = static_cast<double>(person);
    ASSERT_TRUE(queue.Push(r));
    if (person % 50'000 == 49'999) {
      drained.clear();
      queue.DrainInto(drained);
    }
  }
  drained.clear();
  queue.DrainInto(drained);

  const auto accepted = queue.ShardAccepted();
  ASSERT_EQ(accepted.size(), 16u);
  std::uint64_t total = 0;
  std::uint64_t max_shard = 0;
  std::uint64_t min_shard = UINT64_MAX;
  for (const std::uint64_t a : accepted) {
    total += a;
    max_shard = std::max(max_shard, a);
    min_shard = std::min(min_shard, a);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kPeople));
  EXPECT_EQ(queue.counters().accepted, static_cast<std::uint64_t>(kPeople));
  EXPECT_EQ(queue.counters().dropped, 0u);
  const double mean = static_cast<double>(total) / 16.0;
  EXPECT_LE(static_cast<double>(max_shard) / mean, 1.02)
      << "max " << max_shard << " mean " << mean;
  EXPECT_GE(static_cast<double>(min_shard) / mean, 0.98)
      << "min " << min_shard << " mean " << mean;
  EXPECT_LE(queue.ShardImbalance(), 1.02);
  EXPECT_GT(queue.ShardImbalance(), 0.99);
}

TEST_F(RegionShardTest, ServiceLevelShardingIsInvisible) {
  // Two baseline services, one with an 8-way sharded state: after
  // ingesting the same day and advancing to the same watermark, their
  // derived states are bit-identical and the imbalance gauge is live.
  const mobility::GpsTrace trace = RandomTrace(300, 20, 321);
  ServiceConfig plain;
  ServiceConfig sharded;
  sharded.state.shards = 8;

  DispatchService service_plain(
      city_, *index_,
      std::make_unique<dispatch::GreedyNearestDispatcher>(city_), plain);
  DispatchService service_sharded(
      city_, *index_,
      std::make_unique<dispatch::GreedyNearestDispatcher>(city_), sharded);

  service_plain.IngestBatch(trace);
  service_sharded.IngestBatch(trace);
  const double end = trace.back().t + 1.0;
  service_plain.AdvanceStateTo(end);
  service_sharded.AdvanceStateTo(end);

  ExpectSameState(service_plain.state(), service_sharded.state());
  const ServiceMetrics m = service_sharded.metrics();
  EXPECT_GT(m.shard_imbalance, 0.0);
  EXPECT_LE(m.shard_imbalance, 2.0);  // 300 people over 8 shards is lumpy
  EXPECT_EQ(m.state.applied, trace.size());
}

}  // namespace
}  // namespace mobirescue::serve
