#include "src/sim/stats.h"

#include <gtest/gtest.h>

namespace rtvirt {
namespace {

TEST(Samples, BasicMoments) {
  Samples s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(Samples, NearestRankPercentile) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99.9), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1), 1.0);
}

TEST(Samples, PercentileIsSmallestValueCoveringFraction) {
  Samples s;
  for (int i = 0; i < 999; ++i) {
    s.Add(1.0);
  }
  s.Add(100.0);
  // 99.9% of samples are <= 1.0.
  EXPECT_DOUBLE_EQ(s.Percentile(99.9), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99.95), 100.0);
}

TEST(Samples, CdfMonotone) {
  Samples s;
  for (int i = 100; i > 0; --i) {
    s.Add(i * 0.5);
  }
  auto cdf = s.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].fraction, cdf[i].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 50.0);
}

TEST(Samples, EmptyIsSafe) {
  Samples s;
  EXPECT_EQ(s.Percentile(99), 0.0);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_TRUE(s.Cdf(10).empty());
}

TEST(Samples, AddAfterQueryResorts) {
  Samples s;
  s.Add(5.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  s.Add(0.5);
  EXPECT_DOUBLE_EQ(s.Min(), 0.5);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
}

}  // namespace
}  // namespace rtvirt
