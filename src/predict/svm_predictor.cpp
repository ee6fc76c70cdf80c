#include "predict/svm_predictor.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "obs/trace.hpp"

namespace mobirescue::predict {

SvmRequestPredictor::SvmRequestPredictor(const weather::FactorSampler& factors,
                                         ml::SvmModel model,
                                         ml::FeatureScaler scaler,
                                         double threshold)
    : factors_(factors),
      scaler_(std::move(scaler)),
      model_(std::move(model)),
      threshold_(threshold) {
  // PredictDistribution indexes exactly kNumFactors values per row.
  if (scaler_.dimension() != kNumFactors ||
      (model_.num_support_vectors() != 0 &&
       model_.dimension() != kNumFactors)) {
    throw std::invalid_argument(
        "SvmRequestPredictor: model does not take the 3 factors (P, W, A)");
  }
}

SvmRequestPredictor::SvmRequestPredictor(
    const weather::FactorSampler& factors,
    const std::vector<mobility::HospitalDelivery>& deliveries,
    const mobility::GpsTrace& trace, util::SimTime storm_mid_time,
    SvmPredictorConfig config)
    : factors_(factors) {
  util::Rng rng(config.seed);

  // Positive rows: factor vectors at rescued people's pre-delivery
  // positions/times.
  std::vector<std::vector<double>> pos_rows;
  std::vector<util::SimTime> pos_times;
  std::unordered_set<mobility::PersonId> rescued;
  for (const mobility::HospitalDelivery& d : deliveries) {
    if (!d.flood_rescue) continue;
    rescued.insert(d.person);
    const weather::FactorVector h = factors_.At(d.previous_pos, d.previous_time);
    pos_rows.push_back({h.precipitation_mm, h.wind_mph, h.altitude_m});
    pos_times.push_back(d.previous_time);
  }

  // Negative rows: positions of people never flood-rescued, sampled at the
  // SAME time distribution as the positives. Sampling negatives at a fixed
  // time (e.g. the storm midpoint) would teach the classifier the *time*
  // difference between the classes instead of the place difference — e.g.
  // "high instantaneous wind => not rescued" because many rescues are
  // detected post-peak.
  std::vector<std::vector<double>> neg_rows;
  mobility::PersonId cur = mobility::kInvalidPerson;
  const mobility::GpsRecord* best_matched = nullptr;   // near a positive time
  const mobility::GpsRecord* best_early = nullptr;     // pre-disaster time
  util::SimTime target_time = storm_mid_time;
  util::SimTime early_time = 0.0;
  auto next_targets = [&]() {
    target_time = pos_times.empty() ? storm_mid_time
                                    : pos_times[rng.Index(pos_times.size())];
    early_time = rng.Uniform(0.0, 0.8 * storm_mid_time);
  };
  next_targets();
  auto flush = [&]() {
    // (a) Never-rescued people at rescue-time-matched instants: the peer
    //     who faced the same storm hour but did not need rescue.
    if (best_matched != nullptr && rescued.count(cur) == 0) {
      const weather::FactorVector h =
          factors_.At(best_matched->pos, target_time);
      neg_rows.push_back({h.precipitation_mm, h.wind_mph, h.altitude_m});
    }
    // (b) Everyone at a pre-/early-disaster instant: nobody needed rescue
    //     before the water rose — the factor-threshold signal itself.
    if (best_early != nullptr) {
      const weather::FactorVector h = factors_.At(best_early->pos, early_time);
      neg_rows.push_back({h.precipitation_mm, h.wind_mph, h.altitude_m});
    }
    best_matched = nullptr;
    best_early = nullptr;
    next_targets();
  };
  for (const mobility::GpsRecord& r : trace) {
    if (r.person != cur) {
      flush();
      cur = r.person;
    }
    if (best_matched == nullptr ||
        std::abs(r.t - target_time) < std::abs(best_matched->t - target_time)) {
      best_matched = &r;
    }
    if (best_early == nullptr ||
        std::abs(r.t - early_time) < std::abs(best_early->t - early_time)) {
      best_early = &r;
    }
  }
  flush();

  // Balance and cap: bound the class ratio from BOTH sides — a severely
  // imbalanced training set pushes the soft-margin SVM toward the trivial
  // majority classifier.
  rng.Shuffle(pos_rows);
  rng.Shuffle(neg_rows);
  std::size_t n_pos = pos_rows.size();
  std::size_t n_neg = std::min(
      neg_rows.size(),
      static_cast<std::size_t>(config.negative_ratio * (n_pos > 0 ? n_pos : 1)));
  n_pos = std::min(
      n_pos, static_cast<std::size_t>(config.negative_ratio *
                                      (n_neg > 0 ? n_neg : 1)));
  while (n_pos + n_neg > config.max_training_rows) {
    if (n_neg > n_pos && n_neg > 1) {
      --n_neg;
    } else if (n_pos > 1) {
      --n_pos;
    } else {
      break;
    }
  }
  pos_rows.resize(n_pos);
  neg_rows.resize(n_neg);

  std::vector<std::vector<double>> all_rows;
  std::vector<int> labels;
  for (auto& r : pos_rows) {
    all_rows.push_back(std::move(r));
    labels.push_back(1);
  }
  for (auto& r : neg_rows) {
    all_rows.push_back(std::move(r));
    labels.push_back(-1);
  }
  // Shuffle rows and labels together, then split 80/20 train/validation.
  std::vector<std::size_t> perm(all_rows.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng.Shuffle(perm);

  scaler_.Fit(all_rows);

  ml::SvmDataset train;
  std::vector<std::pair<std::vector<double>, int>> holdout;
  const std::size_t train_n = perm.size() - perm.size() / 5;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    auto scaled = scaler_.Transform(all_rows[perm[i]]);
    if (i < train_n) {
      train.Add(std::move(scaled), labels[perm[i]]);
    } else {
      holdout.emplace_back(std::move(scaled), labels[perm[i]]);
    }
  }
  training_rows_ = train.size();
  model_ = ml::TrainSvm(train, config.svm);

  // Calibrate the decision threshold on the hold-out. The SVM's own
  // boundary, 0, stays the threshold unless a cut between two hold-out
  // scores gives a strictly better F1; then the threshold moves to the
  // midpoint of the first such F1-optimal cut. Every threshold inside one
  // gap gives the same hold-out confusion, so a cut that only ties 0 is no
  // reason to leave the margin.
  std::vector<std::vector<double>> holdout_rows;
  holdout_rows.reserve(holdout.size());
  for (const auto& [row, label] : holdout) holdout_rows.push_back(row);
  const std::vector<double> holdout_values =
      model_.DecisionValues(holdout_rows);
  std::vector<std::pair<double, int>> scored;
  for (std::size_t i = 0; i < holdout.size(); ++i) {
    scored.emplace_back(holdout_values[i], holdout[i].second);
  }
  std::sort(scored.begin(), scored.end());
  // Hold-out F1 when the entries at index >= cut are predicted positive.
  auto f1_at = [&scored](std::size_t cut) {
    int tp = 0, fp = 0, fn = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      const bool pred = i >= cut;
      if (pred && scored[i].second == 1) ++tp;
      if (pred && scored[i].second == -1) ++fp;
      if (!pred && scored[i].second == 1) ++fn;
    }
    return (2 * tp + fp + fn) > 0 ? 2.0 * tp / (2.0 * tp + fp + fn) : 0.0;
  };
  // Threshold 0 predicts positive from the first score >= 0 on.
  const auto first_nonnegative = std::partition_point(
      scored.begin(), scored.end(),
      [](const std::pair<double, int>& s) { return s.first < 0.0; });
  double best_f1 = f1_at(first_nonnegative - scored.begin());
  threshold_ = 0.0;
  for (std::size_t cut = 0; cut <= scored.size(); ++cut) {
    const double f1 = f1_at(cut);
    if (f1 > best_f1) {
      best_f1 = f1;
      if (cut == 0) {
        threshold_ = scored.empty() ? 0.0 : scored.front().first - 1.0;
      } else if (cut == scored.size()) {
        threshold_ = scored.back().first + 1.0;
      } else {
        threshold_ = 0.5 * (scored[cut - 1].first + scored[cut].first);
      }
    }
  }

  for (std::size_t i = 0; i < holdout.size(); ++i) {
    validation_.Add(holdout[i].second == 1, holdout_values[i] >= threshold_);
  }
}

bool SvmRequestPredictor::PredictPerson(const util::GeoPoint& pos,
                                        util::SimTime t) const {
  const weather::FactorVector h = factors_.At(pos, t);
  const std::vector<double> row =
      scaler_.Transform(std::vector<double>{h.precipitation_mm, h.wind_mph,
                                            h.altitude_m});
  return model_.DecisionValue(row) >= threshold_;
}

Distribution SvmRequestPredictor::PredictDistribution(
    const std::vector<mobility::GpsRecord>& snapshot, util::SimTime t,
    double time_offset, const roadnet::SpatialIndex& index,
    std::span<const roadnet::SegmentId> segments) const {
  if (!segments.empty() && segments.size() != snapshot.size()) {
    throw std::invalid_argument(
        "PredictDistribution: segments not parallel to the snapshot");
  }
  const std::size_t num_segments = index.num_segments();
  for (const roadnet::SegmentId seg : segments) {
    if (seg != roadnet::kInvalidSegment &&
        (seg < 0 || static_cast<std::size_t>(seg) >= num_segments)) {
      throw std::invalid_argument(
          "PredictDistribution: matched segment not in the index");
    }
  }
  // Sample and z-score every snapshot row into one flat buffer, then
  // classify the whole batch in one DecisionValues pass.
  const std::size_t n = snapshot.size();
  std::vector<double> rows(n * kNumFactors);
  {
    OBS_SPAN("predict.factors");
    for (std::size_t i = 0; i < n; ++i) {
      const weather::FactorVector h =
          factors_.At(snapshot[i].pos, t + time_offset);
      double* row = rows.data() + i * kNumFactors;
      row[0] = h.precipitation_mm;
      row[1] = h.wind_mph;
      row[2] = h.altitude_m;
    }
  }
  std::vector<double> values(n);
  {
    OBS_SPAN("predict.score");
    scaler_.TransformRows(rows);
    model_.DecisionValues(rows, kNumFactors, values);
  }

  // A positive counts on its caller-matched segment when it has one. A
  // bounded match that found a segment is the unbounded nearest one, so
  // only the rest go through one batched, unbounded NearestSegments call.
  auto matched = [&](std::size_t i) {
    return segments.empty() ? roadnet::kInvalidSegment : segments[i];
  };
  std::vector<util::GeoPoint> unmatched;
  std::vector<roadnet::SegmentId> found;
  {
    OBS_SPAN("predict.match");
    for (std::size_t i = 0; i < n; ++i) {
      if (values[i] < threshold_ || matched(i) != roadnet::kInvalidSegment) {
        continue;
      }
      unmatched.push_back(snapshot[i].pos);
    }
    found.resize(unmatched.size());
    index.NearestSegments(unmatched.data(), unmatched.size(), -1.0,
                          found.data());
  }
  // One count per segment, then the nonzero ones in segment order: the
  // result does not depend on the snapshot's row order.
  OBS_SPAN("predict.count");
  std::vector<int> counts(num_segments, 0);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (values[i] < threshold_) continue;
    roadnet::SegmentId seg = matched(i);
    if (seg == roadnet::kInvalidSegment) seg = found[next++];
    if (seg == roadnet::kInvalidSegment) continue;
    ++counts[static_cast<std::size_t>(seg)];
  }
  return Distribution::FromCounts(counts);
}

}  // namespace mobirescue::predict
