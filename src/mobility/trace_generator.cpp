#include "mobility/trace_generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mobirescue::mobility {

using util::SimTime;

namespace {

/// Mutable per-person day state threaded through the generator helpers.
struct PersonState {
  roadnet::LandmarkId at = roadnet::kInvalidLandmark;  // current anchor
  SimTime time = 0.0;                                  // last emitted time
  bool trapped = false;       // awaiting rescue (never delivered)
  bool hospitalized = false;  // staying at a hospital overnight
  bool day_over = false;      // no more activity today
};

}  // namespace

TraceGenerator::TraceGenerator(const roadnet::City& city,
                               const weather::WeatherField& field,
                               const weather::FloodModel& flood,
                               const weather::ScenarioSpec& scenario,
                               TraceConfig config)
    : city_(city),
      field_(field),
      flood_(flood),
      scenario_(scenario),
      config_(std::move(config)),
      router_(city.network),
      index_(city.network, city.box),
      hospitals_sorted_(city.hospitals) {
  const int hours = scenario_.window_days * 24;
  hour_conditions_.resize(hours);
  hour_condition_ready_.assign(hours, false);
  for (int h = 0; h < 24; ++h) hour_weights_[h] = HourWeight(h);
  std::sort(hospitals_sorted_.begin(), hospitals_sorted_.end());
}

double TraceGenerator::SeverityAt(const util::GeoPoint& p, SimTime t) const {
  const double rain = field_.PrecipitationAt(p, t);
  const double depth = flood_.DepthAt(p, t);
  const double rain_part = std::clamp(rain / 18.0, 0.0, 1.0);
  const double flood_part = std::clamp(depth / 0.5, 0.0, 1.0);
  return std::clamp(0.45 * rain_part + 0.65 * flood_part, 0.0, 1.0);
}

double TraceGenerator::HourWeight(int hour) {
  // Morning (7-9) and evening (16-19) commute peaks over a daytime base.
  if (hour < 6 || hour >= 23) return 0.1;
  double w = 1.0;
  if (hour >= 7 && hour <= 9) w = 3.0;
  if (hour >= 16 && hour <= 19) w = 3.2;
  return w;
}

util::Rng TraceGenerator::PersonRng(PersonId id) const {
  // Splitmix finalisation of (seed, id): person streams are decorrelated
  // and depend on nothing but the config seed and the person id, which is
  // what makes chunk generation order-independent.
  const std::uint64_t mixed = util::SplitMix64(
      config_.seed ^
      util::SplitMix64(
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) +
          0x51ED270B0A9F4C1DULL));
  return util::Rng(mixed);
}

const roadnet::NetworkCondition& TraceGenerator::ConditionAtHour(
    int hour_index) {
  hour_index = std::clamp(hour_index, 0,
                          static_cast<int>(hour_conditions_.size()) - 1);
  if (!hour_condition_ready_[hour_index]) {
    hour_conditions_[hour_index] = flood_.NetworkConditionAt(
        city_.network, (hour_index + 0.5) * util::kSecondsPerHour);
    hour_condition_ready_[hour_index] = true;
  }
  return hour_conditions_[hour_index];
}

util::GeoPoint TraceGenerator::Jitter(util::Rng& rng,
                                      const util::GeoPoint& p) {
  // ~1.1e-5 deg per metre of latitude.
  const double m_to_deg = 1.0 / 111320.0;
  return {p.lat + rng.Normal(0.0, config_.gps_noise_m) * m_to_deg,
          p.lon + rng.Normal(0.0, config_.gps_noise_m) * m_to_deg};
}

void TraceGenerator::EmitStationary(util::Rng& rng, PersonId person,
                                    const util::GeoPoint& pos, double altitude,
                                    SimTime from, SimTime to, double sample_s,
                                    GpsTrace& out) {
  for (SimTime t = from; t < to; t += sample_s * rng.Uniform(0.8, 1.2)) {
    out.push_back({person, t, Jitter(rng, pos), altitude, 0.0});
  }
}

TraceGenerator::TripOutcome TraceGenerator::EmitTrip(
    util::Rng& rng, PersonId person, roadnet::LandmarkId from,
    roadnet::LandmarkId to, SimTime depart, GpsTrace& out) {
  const auto& plan_cond = ConditionAtHour(util::HourIndex(depart));
  const auto route = router_.ShortestRoute(from, to, plan_cond);
  if (!route.has_value() || route->empty()) {
    return {depart, from};  // trip abandoned
  }

  SimTime t = depart;
  SimTime next_sample = depart;
  const auto& net = city_.network;
  roadnet::LandmarkId cur = from;
  out.push_back({person, t, Jitter(rng, net.landmark(from).pos),
                 net.landmark(from).altitude_m, 0.0});
  for (roadnet::SegmentId sid : route->segments) {
    // Re-check the segment under the conditions of the hour it is entered
    // in: a trip spanning an hour boundary can run into a closure (or a
    // zeroed speed factor) the departure-hour plan never saw. Guarding the
    // division keeps one flooded segment from turning the rest of the trip
    // into inf/NaN timestamps.
    const auto& cond = ConditionAtHour(util::HourIndex(t));
    const roadnet::RoadSegment& seg = net.segment(sid);
    const double speed = seg.speed_limit_mps * cond.SpeedFactor(sid);
    if (!cond.IsOpen(sid) || !(speed > 0.0) || !std::isfinite(speed)) {
      break;  // flooded out mid-trip: strand at the segment's entry landmark
    }
    const double dur = seg.length_m / speed;
    while (next_sample < t + dur) {
      if (next_sample >= t) {
        const double frac = (next_sample - t) / dur;
        const util::GeoPoint p = util::Lerp(net.landmark(seg.from).pos,
                                            net.landmark(seg.to).pos, frac);
        out.push_back({person, next_sample, Jitter(rng, p),
                       net.SegmentAltitude(sid), speed});
      }
      next_sample += config_.moving_sample_s * rng.Uniform(0.85, 1.15);
    }
    t += dur;
    cur = seg.to;
  }
  out.push_back({person, t, Jitter(rng, net.landmark(cur).pos),
                 net.landmark(cur).altitude_m, 0.0});
  return {t, cur};
}

void TraceGenerator::GeneratePersonInto(const Person& person,
                                        GpsTrace& records,
                                        std::vector<RescueEvent>& rescues) {
  const auto& net = city_.network;
  const int days = scenario_.window_days;
  util::Rng prng = PersonRng(person.id);

  // Entrapment at `st.at` around time `when`. Trapping is a per-check
  // hazard, so requests spread over the day and across days instead of all
  // firing at the first flooded check. Hospitals are safe spots. If the
  // person traps, records the ground-truth event, emits the in-place /
  // hospital trace, updates the state, and returns true (day over).
  auto maybe_entrap = [&](PersonState& st, SimTime when, SimTime day_end) {
    if (std::binary_search(hospitals_sorted_.begin(), hospitals_sorted_.end(),
                           st.at)) {
      return false;
    }
    const util::GeoPoint pos = net.landmark(st.at).pos;
    const double depth = flood_.DepthAt(pos, when);
    if (depth < config_.trap_depth_m) return false;
    if (depth >= config_.evacuated_depth_m) return false;
    const double hazard =
        std::min(config_.trap_hazard_max,
                 config_.trap_hazard_base + config_.trap_hazard_per_m * depth);
    if (!prng.Bernoulli(hazard)) return false;

    RescueEvent ev;
    ev.person = person.id;
    ev.request_time = when + prng.Uniform(0.0, 1800.0);
    ev.request_pos = pos;
    ev.request_segment = index_.NearestSegment(pos);
    ev.region = net.landmark(st.at).region;
    if (prng.Bernoulli(config_.delivery_prob)) {
      ev.delivered = true;
      ev.delivery_time =
          ev.request_time + prng.Uniform(config_.delivery_delay_min_s,
                                         config_.delivery_delay_max_s);
      roadnet::LandmarkId best = city_.hospitals.front();
      double best_d = std::numeric_limits<double>::infinity();
      for (roadnet::LandmarkId h : city_.hospitals) {
        const double d = util::ApproxDistanceMeters(pos, net.landmark(h).pos);
        if (d < best_d) {
          best_d = d;
          best = h;
        }
      }
      ev.hospital = best;
      EmitStationary(prng, person.id, pos, net.landmark(st.at).altitude_m,
                     st.time, ev.delivery_time, config_.trapped_sample_s,
                     records);
      const SimTime stay_end =
          ev.delivery_time + prng.Uniform(config_.hospital_stay_min_s,
                                          config_.hospital_stay_max_s);
      EmitStationary(prng, person.id, net.landmark(best).pos,
                     net.landmark(best).altitude_m, ev.delivery_time,
                     std::min(stay_end, day_end), 1200.0, records);
      st.at = best;
      st.time = std::min(stay_end, day_end);
      st.hospitalized = true;
    } else {
      st.trapped = true;
      EmitStationary(prng, person.id, pos, net.landmark(st.at).altitude_m,
                     st.time, day_end, config_.trapped_sample_s, records);
      st.time = day_end;
    }
    rescues.push_back(ev);
    st.day_over = true;
    return true;
  };

  PersonState st;
  st.at = person.home;

  for (int day = 0; day < days; ++day) {
    const SimTime day_start = day * util::kSecondsPerDay;
    const SimTime day_end = day_start + util::kSecondsPerDay;
    st.time = day_start;
    st.day_over = false;

    if (st.trapped) {
      // Never delivered: keeps pinging in place until flood recedes.
      EmitStationary(prng, person.id, net.landmark(st.at).pos,
                     net.landmark(st.at).altitude_m, day_start, day_end,
                     config_.trapped_sample_s, records);
      if (flood_.DepthAt(net.landmark(st.at).pos, day_end) <
          0.5 * config_.trap_depth_m) {
        st.trapped = false;  // water receded; resumes life tomorrow
      }
      continue;
    }

    if (st.hospitalized) {
      // Discharged home once home ground is safe again; otherwise the
      // person remains sheltered at the hospital all day.
      const double home_depth =
          flood_.DepthAt(net.landmark(person.home).pos, day_start);
      if (home_depth < 0.5 * config_.trap_depth_m) {
        st.hospitalized = false;
        const SimTime leave =
            day_start + prng.Uniform(8.0, 11.0) * util::kSecondsPerHour;
        EmitStationary(prng, person.id, net.landmark(st.at).pos,
                       net.landmark(st.at).altitude_m, day_start, leave,
                       1800.0, records);
        const TripOutcome tr =
            EmitTrip(prng, person.id, st.at, person.home, leave, records);
        st.time = tr.arrival;
        st.at = tr.reached;  // may strand short of home if flooded out
        // Falls through to a (shortened) normal day below.
      } else {
        EmitStationary(prng, person.id, net.landmark(st.at).pos,
                       net.landmark(st.at).altitude_m, day_start, day_end,
                       1800.0, records);
        continue;
      }
    }

    // Morning shelter check: flooding overnight can trap people who had
    // no travel planned at all.
    const SimTime morning =
        day_start + prng.Uniform(5.0, 9.0) * util::kSecondsPerHour;
    if (morning > st.time && maybe_entrap(st, morning, day_end)) {
      continue;
    }

    // Plan today's trips.
    const int planned = prng.Poisson(person.trip_rate);
    std::vector<SimTime> trip_times;
    for (int i = 0; i < planned; ++i) {
      const auto hour = static_cast<int>(prng.WeightedIndex(hour_weights_));
      trip_times.push_back(day_start + hour * util::kSecondsPerHour +
                           prng.Uniform(0.0, util::kSecondsPerHour));
    }
    std::sort(trip_times.begin(), trip_times.end());

    for (SimTime depart : trip_times) {
      if (st.day_over || depart <= st.time) continue;
      const util::GeoPoint cur_pos = net.landmark(st.at).pos;

      // Storm suppression: the worse the conditions, the more likely the
      // person shelters in place instead of travelling.
      const double sev = SeverityAt(cur_pos, depart);
      if (prng.Bernoulli(sev)) {
        if (maybe_entrap(st, depart, day_end)) break;
        continue;
      }

      EmitStationary(prng, person.id, cur_pos, net.landmark(st.at).altitude_m,
                     st.time, depart,
                     prng.Uniform(config_.stationary_sample_min_s,
                                  config_.stationary_sample_max_s),
                     records);

      roadnet::LandmarkId dest;
      if (st.at == person.home && prng.Bernoulli(0.6)) {
        dest = person.work;
      } else if (st.at == person.work && prng.Bernoulli(0.7)) {
        dest = person.home;
      } else {
        dest =
            static_cast<roadnet::LandmarkId>(prng.Index(net.num_landmarks()));
      }
      if (dest == st.at) continue;
      const TripOutcome tr =
          EmitTrip(prng, person.id, st.at, dest, depart, records);
      st.time = tr.arrival;
      st.at = tr.reached;
    }
    if (st.day_over) continue;

    // Afternoon / evening shelter checks at the current anchor: rising
    // water can trap people later in the day too.
    {
      bool trapped_later = false;
      for (double hour : {prng.Uniform(12.0, 15.0), prng.Uniform(17.0, 22.0)}) {
        const SimTime check = day_start + hour * util::kSecondsPerHour;
        if (check <= st.time) continue;
        if (maybe_entrap(st, check, day_end)) {
          trapped_later = true;
          break;
        }
      }
      if (trapped_later) continue;
    }

    // Background (non-flood) hospital visit.
    if (prng.Bernoulli(config_.background_hospital_prob)) {
      const roadnet::LandmarkId h =
          city_.hospitals[prng.Index(city_.hospitals.size())];
      const SimTime arrive =
          day_start + prng.Uniform(8.0, 20.0) * util::kSecondsPerHour;
      if (arrive > st.time) {
        const SimTime leave = arrive + prng.Uniform(config_.hospital_stay_min_s,
                                                    config_.hospital_stay_max_s);
        EmitStationary(prng, person.id, net.landmark(h).pos,
                       net.landmark(h).altitude_m, arrive,
                       std::min(leave, day_end), 1200.0, records);
        st.time = std::min(leave, day_end);
      }
    }

    // Evening at the current anchor until midnight.
    EmitStationary(prng, person.id, net.landmark(st.at).pos,
                   net.landmark(st.at).altitude_m,
                   std::max(st.time, day_start), day_end,
                   prng.Uniform(config_.stationary_sample_min_s,
                                config_.stationary_sample_max_s),
                   records);
  }
}

PersonTrace TraceGenerator::GeneratePerson(const Person& person) {
  PersonTrace chunk;
  chunk.person = person;
  GeneratePersonInto(person, chunk.records, chunk.rescues);
  // Stable: records are emitted per day in order, but hospital handoffs can
  // interleave timestamps across emission calls. Stability pins tie order
  // to emission order, identically for every generation path.
  std::stable_sort(chunk.records.begin(), chunk.records.end(),
                   [](const GpsRecord& a, const GpsRecord& b) {
                     return a.t < b.t;
                   });
  return chunk;
}

std::vector<Person> TraceGenerator::GenerateStreaming(
    const std::function<void(PersonTrace&&)>& sink) {
  std::vector<Person> population = BuildPopulation(city_, config_.population);
  for (const Person& person : population) {
    sink(GeneratePerson(person));
  }
  return population;
}

TraceResult TraceGenerator::Generate() {
  TraceResult result;
  result.population = GenerateStreaming([&result](PersonTrace&& chunk) {
    result.records.insert(result.records.end(),
                          std::make_move_iterator(chunk.records.begin()),
                          std::make_move_iterator(chunk.records.end()));
    result.rescues.insert(result.rescues.end(),
                          std::make_move_iterator(chunk.rescues.begin()),
                          std::make_move_iterator(chunk.rescues.end()));
  });
  // Population order is ascending person id and every chunk is time-sorted,
  // so records are already (person, time)-sorted. Rescues are re-ordered
  // city-wide by request time (stable: emission order breaks ties).
  std::stable_sort(result.rescues.begin(), result.rescues.end(),
                   [](const RescueEvent& a, const RescueEvent& b) {
                     return a.request_time < b.request_time;
                   });
  return result;
}

}  // namespace mobirescue::mobility
