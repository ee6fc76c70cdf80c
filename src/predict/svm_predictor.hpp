// MobiRescue's rescue-request predictor (Section IV-B): an SVM over the
// disaster-related factor vector h = (precipitation, wind, altitude).
//
// Training data construction follows Section V-B: from a historical disaster
// trace (the Michael-like scenario) the hospital-delivery detector yields the
// ground truth "was rescued"; each rescued person contributes the factor
// vector at their previous staying position before delivery (positive), and
// non-rescued people contribute factors at sampled storm-time positions
// (negative).
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "ml/svm/metrics.hpp"
#include "ml/svm/scaler.hpp"
#include "ml/svm/svm.hpp"
#include "mobility/gps_record.hpp"
#include "mobility/hospital_detector.hpp"
#include "roadnet/spatial_index.hpp"
#include "weather/disaster_factors.hpp"

namespace mobirescue::predict {

/// Per-segment predicted request counts: the paper's {ñ_e}. A flat map of
/// (segment, count) entries sorted by segment, so a copy reuses one buffer
/// and a walk reads contiguous memory; it iterates in ascending segment
/// order. It keeps the std::unordered_map API its callers use. Entries
/// are mutable pairs: change a count through them, never a segment.
class Distribution {
 public:
  using value_type = std::pair<roadnet::SegmentId, int>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

 private:
  template <typename Entries>
  static auto LowerBound(Entries& entries, roadnet::SegmentId seg) {
    return std::lower_bound(
        entries.begin(), entries.end(), seg,
        [](const value_type& e, roadnet::SegmentId s) { return e.first < s; });
  }
  template <typename Entries>
  static auto Find(Entries& entries, roadnet::SegmentId seg) {
    const auto it = LowerBound(entries, seg);
    return it != entries.end() && it->first == seg ? it : entries.end();
  }

 public:
  Distribution() = default;
  /// A duplicate segment keeps its first count, as in std::unordered_map.
  Distribution(std::initializer_list<value_type> entries)
      : entries_(entries) {
    const auto key_less = [](const value_type& a, const value_type& b) {
      return a.first < b.first;
    };
    const auto key_equal = [](const value_type& a, const value_type& b) {
      return a.first == b.first;
    };
    std::stable_sort(entries_.begin(), entries_.end(), key_less);
    entries_.erase(std::unique(entries_.begin(), entries_.end(), key_equal),
                   entries_.end());
  }

  /// The nonzero entries of `counts`, where counts[s] is segment s's count.
  static Distribution FromCounts(std::span<const int> counts) {
    Distribution d;
    for (std::size_t s = 0; s < counts.size(); ++s) {
      if (counts[s] != 0) {
        d.entries_.emplace_back(static_cast<roadnet::SegmentId>(s), counts[s]);
      }
    }
    return d;
  }

  /// The count of `seg`, inserted as 0 when absent.
  int& operator[](roadnet::SegmentId seg) {
    const iterator it = LowerBound(entries_, seg);
    if (it != entries_.end() && it->first == seg) return it->second;
    return entries_.insert(it, {seg, 0})->second;
  }
  iterator find(roadnet::SegmentId seg) { return Find(entries_, seg); }
  const_iterator find(roadnet::SegmentId seg) const {
    return Find(entries_, seg);
  }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  bool operator==(const Distribution&) const = default;

 private:
  std::vector<value_type> entries_;  // ascending, distinct segments
};

struct SvmPredictorConfig {
  SvmPredictorConfig() {
    // Linear kernel by default: the predictor must extrapolate from the
    // training storm to a *different* storm whose factor magnitudes can
    // exceed anything seen in training. An RBF kernel's response vanishes
    // far from the support vectors (it falls back to the bias sign there),
    // while a linear decision function extrapolates monotonically — more
    // rain, more wind, lower ground => more danger. The kernel ablation
    // bench compares all three kernels.
    // Measured, the trained altitude weight has the other sign: z-scored
    // +0.21 in the 12x12 test and 16x16 demo worlds, +0.13 in the 24x24
    // paper world, so higher ground scores as more dangerous. The cause is
    // in the negatives: 59 of the 101 never-rescued peers sampled at
    // rescue-matched times (test world) stand in water at least
    // TraceConfig::evacuated_depth_m (1.2 m) deep, where the generator traps
    // nobody (CHANGES.md, the FOUND line on
    // DistributionCountsPeopleOnSegments).
    svm.kernel.type = ml::KernelType::kLinear;
    svm.c = 2.0;
  }

  ml::SvmConfig svm;
  /// Cap on training rows (SMO is O(n^2)); data is subsampled beyond this.
  std::size_t max_training_rows = 1200;
  /// Negative : positive class ratio kept after subsampling.
  double negative_ratio = 2.0;
  std::uint64_t seed = 31;
};

class SvmRequestPredictor {
 public:
  /// The factor vector h = (P, W, A): the SVM's input dimension.
  static constexpr std::size_t kNumFactors = 3;

  /// Builds training rows from a historical trace and trains the SVM.
  /// `deliveries` must come from the same trace (detector output);
  /// `trace` provides the negative-class position samples.
  SvmRequestPredictor(const weather::FactorSampler& factors,
                      const std::vector<mobility::HospitalDelivery>& deliveries,
                      const mobility::GpsTrace& trace,
                      util::SimTime storm_mid_time,
                      SvmPredictorConfig config = {});

  /// Restores an already-trained predictor from checkpointed parts
  /// (serve::ServiceCheckpoint): no training happens; validation() is
  /// empty and training_rows() is 0. Throws std::invalid_argument unless
  /// the scaler, and the SVM when it has support vectors, take exactly the
  /// kNumFactors factors.
  SvmRequestPredictor(const weather::FactorSampler& factors, ml::SvmModel model,
                      ml::FeatureScaler scaler, double threshold);

  /// The paper's Equation (1): should this person (at pos, time t) be
  /// rescued?
  bool PredictPerson(const util::GeoPoint& pos, util::SimTime t) const;

  /// Equation (2): predicted distribution of potential rescue requests over
  /// road segments from a population snapshot. `time_offset` re-anchors the
  /// snapshot's relative timestamps into scenario time. `segments`, when
  /// not empty, runs parallel to the snapshot: a valid entry is the
  /// person's nearest segment, already matched by the caller
  /// (sim::PopulationSource::SnapshotSegments); positives without one are
  /// matched here. The result is the same with or without it, and in any
  /// row order. Throws std::invalid_argument, before any work, when
  /// `segments` is not parallel to the snapshot or holds an id that is
  /// neither kInvalidSegment nor one of the index's segments.
  Distribution PredictDistribution(
      const std::vector<mobility::GpsRecord>& snapshot, util::SimTime t,
      double time_offset, const roadnet::SpatialIndex& index,
      std::span<const roadnet::SegmentId> segments = {}) const;

  /// Held-out confusion matrix built during training (20% split), at the
  /// calibrated threshold.
  const ml::ConfusionMatrix& validation() const { return validation_; }
  const ml::SvmModel& model() const { return model_; }
  /// The feature scaler fitted on the training rows (introspection: maps a
  /// raw (P, W, A) factor row into the model's input space).
  const ml::FeatureScaler& scaler() const { return scaler_; }
  std::size_t training_rows() const { return training_rows_; }
  /// Decision threshold: the SVM's own boundary 0, unless a cut between
  /// two hold-out scores has a strictly better hold-out F1 than 0, in which
  /// case it is the midpoint of the first F1-optimal cut.
  double threshold() const { return threshold_; }

 private:
  const weather::FactorSampler& factors_;
  ml::FeatureScaler scaler_;
  ml::SvmModel model_;
  ml::ConfusionMatrix validation_;
  std::size_t training_rows_ = 0;
  double threshold_ = 0.0;
};

}  // namespace mobirescue::predict
