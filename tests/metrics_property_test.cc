// Property-based tests of the evaluation metrics over randomized
// prediction/label configurations (parameterized by seed).

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "eval/metrics.h"

namespace triad::eval {
namespace {

struct RandomCase {
  std::vector<int> labels;
  std::vector<int> pred;
};

RandomCase MakeCase(uint64_t seed) {
  Rng rng(seed);
  const int64_t n = rng.UniformInt(50, 400);
  RandomCase c;
  c.labels.assign(static_cast<size_t>(n), 0);
  // 1-4 ground truth events of varied lengths.
  const int64_t events = rng.UniformInt(1, 4);
  for (int64_t e = 0; e < events; ++e) {
    const int64_t len = rng.UniformInt(1, std::max<int64_t>(2, n / 8));
    const int64_t begin = rng.UniformInt(0, n - len);
    for (int64_t i = begin; i < begin + len; ++i) {
      c.labels[static_cast<size_t>(i)] = 1;
    }
  }
  // Noisy predictions correlated with the labels.
  c.pred.assign(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    const double p = c.labels[static_cast<size_t>(i)] ? 0.5 : 0.05;
    c.pred[static_cast<size_t>(i)] = rng.Bernoulli(p) ? 1 : 0;
  }
  return c;
}

class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, PointAdjustNeverRemovesPredictions) {
  const RandomCase c = MakeCase(GetParam());
  const std::vector<int> adjusted = PointAdjust(c.pred, c.labels);
  for (size_t i = 0; i < c.pred.size(); ++i) {
    EXPECT_GE(adjusted[i], c.pred[i]);
  }
}

TEST_P(MetricsPropertyTest, PointAdjustOnlyFillsLabeledEvents) {
  const RandomCase c = MakeCase(GetParam() + 1000);
  const std::vector<int> adjusted = PointAdjust(c.pred, c.labels);
  for (size_t i = 0; i < c.pred.size(); ++i) {
    if (adjusted[i] != c.pred[i]) {
      EXPECT_EQ(c.labels[i], 1) << i;
    }
  }
}

TEST_P(MetricsPropertyTest, PaKRecallMonotoneNonIncreasingInK) {
  const RandomCase c = MakeCase(GetParam() + 2000);
  const PaKCurve curve = ComputePaKCurve(c.pred, c.labels);
  for (size_t k = 1; k < curve.recall.size(); ++k) {
    EXPECT_LE(curve.recall[k], curve.recall[k - 1] + 1e-12) << k;
  }
}

TEST_P(MetricsPropertyTest, PaKF1BoundedByPaAndPw) {
  const RandomCase c = MakeCase(GetParam() + 3000);
  const double pw = ComputeConfusion(c.pred, c.labels).F1();
  const double pa =
      ComputeConfusion(PointAdjust(c.pred, c.labels), c.labels).F1();
  const PaKCurve curve = ComputePaKCurve(c.pred, c.labels);
  EXPECT_GE(curve.f1_auc + 1e-9, std::min(pw, pa));
  EXPECT_LE(curve.f1_auc - 1e-9, std::max(pw, pa));
}

TEST_P(MetricsPropertyTest, AffiliationScoresInUnitInterval) {
  const RandomCase c = MakeCase(GetParam() + 4000);
  const AffiliationScore s = ComputeAffiliation(c.pred, c.labels);
  EXPECT_GE(s.precision, 0.0);
  EXPECT_LE(s.precision, 1.0 + 1e-9);
  EXPECT_GE(s.recall, 0.0);
  EXPECT_LE(s.recall, 1.0 + 1e-9);
  EXPECT_GE(s.F1(), 0.0);
  EXPECT_LE(s.F1(), 1.0 + 1e-9);
}

TEST_P(MetricsPropertyTest, PerfectPredictionMaximizesEverything) {
  const RandomCase c = MakeCase(GetParam() + 5000);
  EXPECT_DOUBLE_EQ(ComputeConfusion(c.labels, c.labels).F1(), 1.0);
  EXPECT_DOUBLE_EQ(ComputePaKCurve(c.labels, c.labels).f1_auc, 1.0);
  const AffiliationScore s = ComputeAffiliation(c.labels, c.labels);
  EXPECT_NEAR(s.F1(), 1.0, 1e-9);
}

TEST_P(MetricsPropertyTest, EventDetectionMonotoneInMargin) {
  const RandomCase c = MakeCase(GetParam() + 6000);
  bool prev = EventDetected(c.pred, c.labels, 0);
  for (int64_t margin : {5, 20, 50, 100, 1000}) {
    const bool now = EventDetected(c.pred, c.labels, margin);
    EXPECT_TRUE(now || !prev);  // once detected, stays detected
    prev = now;
  }
}

TEST_P(MetricsPropertyTest, ConfusionCountsPartitionTheSeries) {
  const RandomCase c = MakeCase(GetParam() + 7000);
  const Confusion conf = ComputeConfusion(c.pred, c.labels);
  EXPECT_EQ(conf.tp + conf.fp + conf.fn + conf.tn,
            static_cast<int64_t>(c.pred.size()));
}

TEST_P(MetricsPropertyTest, EventsRoundTripToLabels) {
  const RandomCase c = MakeCase(GetParam() + 8000);
  std::vector<int> rebuilt(c.labels.size(), 0);
  for (const Event& e : ExtractEvents(c.labels)) {
    for (int64_t i = e.begin; i < e.end; ++i) {
      rebuilt[static_cast<size_t>(i)] = 1;
    }
  }
  EXPECT_EQ(rebuilt, c.labels);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace triad::eval
