#include "predict/svm_predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "core/pipeline.hpp"
#include "core/world.hpp"
#include "serve/stream_state.hpp"

namespace mobirescue::predict {
namespace {

/// One shared small world: building it (trace generation) is the expensive
/// part, so do it once for the whole suite.
class SvmPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::WorldConfig config;
    config.city.grid_width = 12;
    config.city.grid_height = 12;
    config.city.num_hospitals = 5;
    config.trace.population.num_people = 400;
    world_ = new core::World(core::BuildWorld(config));
    predictor_ = core::TrainSvmPredictor(*world_).release();
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete world_;
  }

  static core::World* world_;
  static SvmRequestPredictor* predictor_;
};

core::World* SvmPredictorTest::world_ = nullptr;
SvmRequestPredictor* SvmPredictorTest::predictor_ = nullptr;

TEST_F(SvmPredictorTest, HeldOutAccuracyIsHigh) {
  // Flooding labels are strongly determined by (P, W, A); the SVM should
  // comfortably beat coin flipping on the 20% hold-out.
  EXPECT_GT(predictor_->validation().Accuracy(), 0.8);
  EXPECT_GT(predictor_->validation().Precision(), 0.7);
  EXPECT_GT(predictor_->training_rows(), 100u);
}

TEST_F(SvmPredictorTest, FloodedPositionPredictedPositive) {
  // At the eval storm's end, the wet low-lying south-east screams "rescue".
  // (Pre-storm inputs are out of the training distribution — the system
  // only ever queries the SVM during an active disaster.)
  const auto& spec = world_->eval.spec;
  const util::GeoPoint wet = world_->city->box.At(0.85, 0.15);
  EXPECT_TRUE(predictor_->PredictPerson(wet, spec.storm.storm_end_s));
}

TEST_F(SvmPredictorTest, HighGroundPredictedNegativeEvenInStorm) {
  const auto& spec = world_->eval.spec;
  const util::GeoPoint high = world_->city->box.At(0.05, 0.95);
  EXPECT_FALSE(predictor_->PredictPerson(high, spec.storm.storm_peak_s));
}

TEST_F(SvmPredictorTest, DistributionCountsPeopleOnSegments) {
  const auto& spec = world_->eval.spec;
  // Synthetic snapshot: 5 people at a flooded spot, 3 on high ground.
  std::vector<mobility::GpsRecord> snapshot;
  const util::GeoPoint wet = world_->city->box.At(0.85, 0.15);
  const util::GeoPoint dry = world_->city->box.At(0.05, 0.95);
  for (int i = 0; i < 5; ++i) {
    snapshot.push_back({i, 0.0, wet, 0.0, 0.0});
  }
  for (int i = 5; i < 8; ++i) {
    snapshot.push_back({i, 0.0, dry, 0.0, 0.0});
  }
  const Distribution dist = predictor_->PredictDistribution(
      snapshot, 0.0, spec.storm.storm_end_s, *world_->index);
  int total = 0;
  for (const auto& [seg, count] : dist) total += count;
  EXPECT_EQ(total, 5);  // only the flooded five
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist.begin()->second, 5);
}

TEST_F(SvmPredictorTest, DistributionMatchesPerPersonReference) {
  // The batched refresh (one DecisionValues pass, one NearestSegments call)
  // must count exactly what per-person PredictPerson + NearestSegment
  // would, on snapshots of the evaluation trace before the storm and
  // during it.
  const auto& spec = world_->eval.spec;
  const mobility::GpsTrace& trace = world_->eval.trace.records;
  std::vector<mobility::GpsRecord> snapshot;
  for (std::size_t i = 0; i < trace.size(); i += 10) {
    snapshot.push_back(trace[i]);
  }
  ASSERT_GT(snapshot.size(), 1000u);
  std::size_t positives = 0, negatives = 0;
  for (const util::SimTime at :
       {0.0, spec.storm.storm_peak_s, spec.storm.storm_end_s}) {
    const double offset = at - 600.0;
    const Distribution dist = predictor_->PredictDistribution(
        snapshot, 600.0, offset, *world_->index);
    // The reference is a hash map, not the container under test.
    std::unordered_map<roadnet::SegmentId, int> reference;
    for (const mobility::GpsRecord& r : snapshot) {
      if (!predictor_->PredictPerson(r.pos, 600.0 + offset)) {
        ++negatives;
        continue;
      }
      ++positives;
      const roadnet::SegmentId seg = world_->index->NearestSegment(r.pos);
      if (seg != roadnet::kInvalidSegment) ++reference[seg];
    }
    EXPECT_EQ(dist.size(), reference.size()) << "at " << at;
    roadnet::SegmentId previous = roadnet::kInvalidSegment;
    for (const auto& [seg, count] : dist) {
      EXPECT_GT(seg, previous) << "at " << at;  // ascending, distinct
      previous = seg;
      const auto it = reference.find(seg);
      ASSERT_NE(it, reference.end()) << "segment " << seg << " at " << at;
      EXPECT_EQ(count, it->second) << "segment " << seg << " at " << at;
    }
  }
  EXPECT_GT(positives, 0u);
  EXPECT_GT(negatives, 0u);
}

TEST_F(SvmPredictorTest, StreamedSegmentsGiveTheSameDistribution) {
  // The service hands the predictor StreamState's 400 m map-match of each
  // latest record; counting on those segments must give exactly what
  // matching every positive here gives, whichever entries are missing.
  const auto& spec = world_->eval.spec;
  const mobility::GpsTrace& trace = world_->eval.trace.records;
  serve::StreamState state(world_->city->network, *world_->index);
  const std::size_t half = trace.size() / 2;
  state.ApplyAll({trace.data(), half});
  const std::vector<mobility::GpsRecord> snapshot = state.Snapshot(0.0);
  const std::vector<roadnet::SegmentId> segments(
      state.SnapshotSegments().begin(), state.SnapshotSegments().end());
  ASSERT_EQ(segments.size(), snapshot.size());
  ASSERT_GT(std::count_if(segments.begin(), segments.end(),
                          [](roadnet::SegmentId s) {
                            return s != roadnet::kInvalidSegment;
                          }),
            0);
  // Every other entry dropped: those people are matched by the predictor.
  std::vector<roadnet::SegmentId> partial = segments;
  for (std::size_t i = 0; i < partial.size(); i += 2) {
    partial[i] = roadnet::kInvalidSegment;
  }
  std::size_t counted = 0;
  for (const util::SimTime at :
       {0.0, spec.storm.storm_peak_s, spec.storm.storm_end_s}) {
    const Distribution plain = predictor_->PredictDistribution(
        snapshot, 600.0, at - 600.0, *world_->index);
    counted += plain.size();
    EXPECT_EQ(predictor_->PredictDistribution(snapshot, 600.0, at - 600.0,
                                              *world_->index, segments),
              plain)
        << "at " << at;
    EXPECT_EQ(predictor_->PredictDistribution(snapshot, 600.0, at - 600.0,
                                              *world_->index, partial),
              plain)
        << "at " << at;
  }
  EXPECT_GT(counted, 0u);
  // Segments not parallel to the snapshot are a caller bug.
  EXPECT_THROW(predictor_->PredictDistribution(
                   snapshot, 600.0, 0.0, *world_->index,
                   std::span<const roadnet::SegmentId>(segments).first(1)),
               std::invalid_argument);
  // So is a matched id that is not a segment of the index's network.
  const auto num_segments =
      static_cast<roadnet::SegmentId>(world_->index->num_segments());
  ASSERT_EQ(world_->index->num_segments(),
            world_->city->network.num_segments());
  for (const roadnet::SegmentId bad : {roadnet::SegmentId{-2}, num_segments}) {
    std::vector<roadnet::SegmentId> corrupt = segments;
    corrupt.back() = bad;
    EXPECT_THROW(predictor_->PredictDistribution(snapshot, 600.0, 0.0,
                                                 *world_->index, corrupt),
                 std::invalid_argument)
        << "segment " << bad;
  }
}

TEST(DistributionTest, FlatMapKeepsTheMapApi) {
  // Ascending segment order whatever the insertion order; a duplicate
  // segment in the list keeps its first count.
  Distribution dist = {{9, 1}, {2, 5}, {9, 7}, {4, 3}, {2, 8}};
  std::vector<std::pair<roadnet::SegmentId, int>> entries(dist.begin(),
                                                          dist.end());
  const std::vector<std::pair<roadnet::SegmentId, int>> want = {
      {2, 5}, {4, 3}, {9, 1}};
  EXPECT_EQ(entries, want);
  EXPECT_EQ(dist.size(), 3u);
  EXPECT_FALSE(dist.empty());
  EXPECT_TRUE(Distribution{}.empty());

  // find: a hit, and misses before, between and past the entries.
  const Distribution& view = dist;
  ASSERT_NE(view.find(4), view.end());
  EXPECT_EQ(view.find(4)->second, 3);
  EXPECT_EQ(view.find(1), view.end());
  EXPECT_EQ(view.find(3), view.end());
  EXPECT_EQ(dist.find(10), dist.end());
  dist.find(9)->second += 2;
  EXPECT_EQ(dist.find(9)->second, 3);

  // operator[] inserts 0 for a new segment, in order, and reads old ones.
  EXPECT_EQ(dist[6], 0);
  dist[0] += 4;
  EXPECT_EQ(dist[2], 5);
  entries.assign(dist.begin(), dist.end());
  const std::vector<std::pair<roadnet::SegmentId, int>> grown = {
      {0, 4}, {2, 5}, {4, 3}, {6, 0}, {9, 3}};
  EXPECT_EQ(entries, grown);

  // ==: equal content, whatever the order the entries were listed in.
  EXPECT_EQ(dist, (Distribution{{9, 3}, {6, 0}, {4, 3}, {2, 5}, {0, 4}}));
  EXPECT_NE(dist, (Distribution{{9, 3}, {4, 3}, {2, 5}, {0, 4}}));
  EXPECT_NE(dist, (Distribution{{9, 3}, {6, 1}, {4, 3}, {2, 5}, {0, 4}}));
}

TEST_F(SvmPredictorTest, EmptySnapshotEmptyDistribution) {
  EXPECT_TRUE(predictor_
                  ->PredictDistribution({}, 0.0,
                                        world_->eval.spec.storm.storm_end_s,
                                        *world_->index)
                  .empty());
}

}  // namespace
}  // namespace mobirescue::predict
