#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mobirescue::util {
namespace {

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
}

TEST(StatsTest, StdDevBasics) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(StdDev(std::vector<double>{5.0}), 0.0);
}

TEST(StatsTest, PearsonPerfectPositive) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(StatsTest, PearsonPerfectNegative) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSeriesIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {5, 5, 5};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(StatsTest, PearsonLengthMismatchThrows) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {1, 2};
  EXPECT_THROW(PearsonCorrelation(x, y), std::invalid_argument);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(CdfTest, AtAndQuantile) {
  EmpiricalCdf cdf({4.0, 1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(cdf.At(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.At(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.At(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 4.0);
}

TEST(CdfTest, IncrementalAdd) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  cdf.Add(3.0);
  cdf.Add(1.0);
  EXPECT_DOUBLE_EQ(cdf.At(2.0), 0.5);
  cdf.Add(2.0);
  EXPECT_NEAR(cdf.At(2.0), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
}

TEST(CdfTest, CurveIsMonotone) {
  EmpiricalCdf cdf;
  for (int i = 0; i < 200; ++i) cdf.Add((i * 37) % 100);
  const auto curve = cdf.Curve(20);
  ASSERT_EQ(curve.size(), 20u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].second, curve[i].second);
    EXPECT_LT(curve[i - 1].first, curve[i].first);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(RunningStatsTest, MatchesBatchStats) {
  RunningStats rs;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_DOUBLE_EQ(rs.mean(), Mean(xs));
  EXPECT_NEAR(rs.stddev(), StdDev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
  EXPECT_EQ(rs.count(), 0u);
}

TEST(PercentilesTest, MatchesPerCallPercentile) {
  const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0};
  const std::vector<double> ps = {0.0, 25.0, 50.0, 90.0, 99.0, 100.0};
  const std::vector<double> got = Percentiles(xs, ps);
  ASSERT_EQ(got.size(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], Percentile(xs, ps[i])) << "p=" << ps[i];
  }
}

TEST(PercentilesTest, EmptyGivesZeros) {
  const std::vector<double> ps = {50.0, 99.0};
  const std::vector<double> got = Percentiles({}, ps);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 0.0);
  EXPECT_DOUBLE_EQ(got[1], 0.0);
}

TEST(SummarizeTest, AllFieldsAgreeWithBatchHelpers) {
  const std::vector<double> xs = {4.0, 1.0, 9.0, 2.0, 6.0, 3.0, 8.0, 5.0,
                                  7.0, 10.0};
  const PercentileSummary s = Summarize(xs);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_DOUBLE_EQ(s.mean, Mean(xs));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.p50, Percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(s.p90, Percentile(xs, 90.0));
  EXPECT_DOUBLE_EQ(s.p95, Percentile(xs, 95.0));
  EXPECT_DOUBLE_EQ(s.p99, Percentile(xs, 99.0));
}

TEST(PercentilesTest, P0AndP100AreExactBounds) {
  const std::vector<double> xs = {42.0, -3.0, 17.0, 8.0};
  const std::vector<double> ps = {0.0, 100.0};
  const std::vector<double> got = Percentiles(xs, ps);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], -3.0);  // p0 is the minimum, no interpolation
  EXPECT_DOUBLE_EQ(got[1], 42.0);  // p100 is the maximum
}

TEST(PercentilesTest, SingleSampleEveryPercentile) {
  const std::vector<double> one = {7.25};
  const std::vector<double> ps = {0.0, 50.0, 99.9, 100.0};
  const std::vector<double> got = Percentiles(one, ps);
  for (double v : got) EXPECT_DOUBLE_EQ(v, 7.25);
}

TEST(PercentilesTest, DuplicatesCollapseToTheRepeatedValue) {
  const std::vector<double> xs = {5.0, 5.0, 5.0, 5.0, 5.0};
  const std::vector<double> ps = {0.0, 25.0, 50.0, 75.0, 100.0};
  const std::vector<double> got = Percentiles(xs, ps);
  for (double v : got) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(PercentilesTest, PartialDuplicatesStayWithinDataRange) {
  // 1 appears 3x, 9 appears 1x: every percentile must interpolate inside
  // [1, 9] and stay monotone in p.
  const std::vector<double> xs = {1.0, 1.0, 1.0, 9.0};
  const std::vector<double> ps = {0.0, 30.0, 60.0, 90.0, 100.0};
  const std::vector<double> got = Percentiles(xs, ps);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_GE(got[i], 1.0);
    EXPECT_LE(got[i], 9.0);
    if (i > 0) {
      EXPECT_GE(got[i], got[i - 1]);
    }
  }
  EXPECT_DOUBLE_EQ(got.front(), 1.0);
  EXPECT_DOUBLE_EQ(got.back(), 9.0);
}

TEST(SummarizeTest, DuplicateHeavyInput) {
  const std::vector<double> xs = {2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0};
  const PercentileSummary s = Summarize(xs);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_DOUBLE_EQ(s.p90, 2.0);
  EXPECT_DOUBLE_EQ(s.p95, 2.0);
  EXPECT_DOUBLE_EQ(s.p99, 2.0);
}

TEST(SummarizeTest, EmptyIsAllZeros) {
  const PercentileSummary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(SummarizeTest, SingleSampleAndEmpty) {
  const std::vector<double> one = {3.5};
  const PercentileSummary s = Summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 3.5);
  EXPECT_DOUBLE_EQ(s.p99, 3.5);
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);

  const PercentileSummary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

}  // namespace
}  // namespace mobirescue::util
