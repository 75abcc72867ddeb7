#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "eval/metrics.h"

namespace triad::eval {
namespace {

// ---------- confusion / F1 ----------

TEST(ConfusionTest, CountsAllQuadrants) {
  const Confusion c = ComputeConfusion({1, 1, 0, 0}, {1, 0, 1, 0});
  EXPECT_EQ(c.tp, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.tn, 1);
  EXPECT_DOUBLE_EQ(c.Precision(), 0.5);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.5);
  EXPECT_DOUBLE_EQ(c.F1(), 0.5);
}

TEST(ConfusionTest, DegenerateCasesAreZeroNotNan) {
  const Confusion none = ComputeConfusion({0, 0}, {0, 0});
  EXPECT_EQ(none.Precision(), 0.0);
  EXPECT_EQ(none.Recall(), 0.0);
  EXPECT_EQ(none.F1(), 0.0);
}

TEST(ConfusionTest, PerfectPrediction) {
  const Confusion c = ComputeConfusion({0, 1, 1, 0}, {0, 1, 1, 0});
  EXPECT_DOUBLE_EQ(c.F1(), 1.0);
}

// ---------- events ----------

TEST(EventsTest, ExtractsRuns) {
  const std::vector<Event> events = ExtractEvents({0, 1, 1, 0, 0, 1, 0, 1});
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].begin, 1);
  EXPECT_EQ(events[0].end, 3);
  EXPECT_EQ(events[1].begin, 5);
  EXPECT_EQ(events[1].end, 6);
  EXPECT_EQ(events[2].begin, 7);
  EXPECT_EQ(events[2].end, 8);
}

TEST(EventsTest, AllZerosAndAllOnes) {
  EXPECT_TRUE(ExtractEvents({0, 0, 0}).empty());
  const std::vector<Event> events = ExtractEvents({1, 1, 1});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].begin, 0);
  EXPECT_EQ(events[0].end, 3);
}

// ---------- point adjustment ----------

TEST(PointAdjustTest, SingleHitMarksWholeEvent) {
  const std::vector<int> labels = {0, 1, 1, 1, 1, 0};
  const std::vector<int> pred = {0, 0, 1, 0, 0, 0};
  const std::vector<int> adjusted = PointAdjust(pred, labels);
  EXPECT_EQ(adjusted, (std::vector<int>{0, 1, 1, 1, 1, 0}));
}

TEST(PointAdjustTest, DoesNotInventDetections) {
  const std::vector<int> labels = {0, 1, 1, 0};
  const std::vector<int> pred = {1, 0, 0, 0};
  const std::vector<int> adjusted = PointAdjust(pred, labels);
  EXPECT_EQ(adjusted, pred);  // no hit inside the event
}

TEST(PointAdjustKTest, K0IsPaAndK100IsPointwise) {
  const std::vector<int> labels = {0, 1, 1, 1, 1, 0};
  const std::vector<int> pred = {0, 0, 1, 0, 0, 0};  // 25% of the event
  EXPECT_EQ(PointAdjustK(pred, labels, 0.0), PointAdjust(pred, labels));
  EXPECT_EQ(PointAdjustK(pred, labels, 100.0), pred);
}

TEST(PointAdjustKTest, ThresholdGatesAdjustment) {
  const std::vector<int> labels = {1, 1, 1, 1, 0, 0};
  const std::vector<int> pred = {1, 1, 0, 0, 0, 0};  // 50% detected
  // K=40: 50% > 40% -> adjust; K=60: 50% <= 60% -> keep.
  EXPECT_EQ(PointAdjustK(pred, labels, 40.0),
            (std::vector<int>{1, 1, 1, 1, 0, 0}));
  EXPECT_EQ(PointAdjustK(pred, labels, 60.0), pred);
}

TEST(PaKCurveTest, InterpolatesBetweenPaAndPw) {
  const std::vector<int> labels = {0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0};
  std::vector<int> pred(labels.size(), 0);
  pred[2] = pred[3] = pred[4] = 1;  // 30% of the 10-point event
  const PaKCurve curve = ComputePaKCurve(pred, labels);
  ASSERT_EQ(curve.f1.size(), 100u);
  // Below K=30 the event is fully credited, above it only the raw hits.
  EXPECT_GT(curve.f1[10], curve.f1[50]);
  const Confusion raw = ComputeConfusion(pred, labels);
  EXPECT_NEAR(curve.f1[99], raw.F1(), 1e-12);
  // AUC lies between the extremes.
  EXPECT_GE(curve.f1_auc, raw.F1());
  const Confusion pa = ComputeConfusion(PointAdjust(pred, labels), labels);
  EXPECT_LE(curve.f1_auc, pa.F1());
}

TEST(PaKCurveTest, PerfectPredictionIsFlatOne) {
  const std::vector<int> labels = {0, 1, 1, 0};
  const PaKCurve curve = ComputePaKCurve(labels, labels);
  EXPECT_DOUBLE_EQ(curve.f1_auc, 1.0);
  EXPECT_DOUBLE_EQ(curve.precision_auc, 1.0);
  EXPECT_DOUBLE_EQ(curve.recall_auc, 1.0);
}

// ---------- affiliation ----------

TEST(AffiliationTest, PerfectPredictionScoresOne) {
  std::vector<int> labels(200, 0);
  for (int i = 80; i < 100; ++i) labels[static_cast<size_t>(i)] = 1;
  const AffiliationScore s = ComputeAffiliation(labels, labels);
  EXPECT_NEAR(s.precision, 1.0, 1e-9);
  EXPECT_NEAR(s.recall, 1.0, 1e-9);
  EXPECT_NEAR(s.F1(), 1.0, 1e-9);
}

TEST(AffiliationTest, NearMissBeatsFarMiss) {
  std::vector<int> labels(300, 0);
  for (int i = 100; i < 120; ++i) labels[static_cast<size_t>(i)] = 1;
  std::vector<int> near_pred(300, 0);
  near_pred[125] = 1;  // 5 points after the event
  std::vector<int> far_pred(300, 0);
  far_pred[260] = 1;  // far away
  const AffiliationScore near_score = ComputeAffiliation(near_pred, labels);
  const AffiliationScore far_score = ComputeAffiliation(far_pred, labels);
  EXPECT_GT(near_score.precision, far_score.precision);
  EXPECT_GT(near_score.recall, far_score.recall);
}

TEST(AffiliationTest, NoPredictionsGivesZero) {
  std::vector<int> labels(100, 0);
  labels[50] = 1;
  const AffiliationScore s = ComputeAffiliation(std::vector<int>(100, 0),
                                                labels);
  EXPECT_EQ(s.precision, 0.0);
  EXPECT_EQ(s.recall, 0.0);
  EXPECT_EQ(s.F1(), 0.0);
}

TEST(AffiliationTest, NoEventsGivesZero) {
  const AffiliationScore s =
      ComputeAffiliation({1, 0, 1}, {0, 0, 0});
  EXPECT_EQ(s.precision, 0.0);
  EXPECT_EQ(s.recall, 0.0);
}

TEST(AffiliationTest, MultipleEventsZonedIndependently) {
  std::vector<int> labels(400, 0);
  for (int i = 50; i < 70; ++i) labels[static_cast<size_t>(i)] = 1;
  for (int i = 300; i < 320; ++i) labels[static_cast<size_t>(i)] = 1;
  // Predict only the first event exactly.
  std::vector<int> pred(400, 0);
  for (int i = 50; i < 70; ++i) pred[static_cast<size_t>(i)] = 1;
  const AffiliationScore s = ComputeAffiliation(pred, labels);
  // Precision: only the first zone has predictions, and they are perfect.
  EXPECT_NEAR(s.precision, 1.0, 1e-9);
  // Recall averages a perfect zone with a missed zone.
  EXPECT_NEAR(s.recall, 0.5, 1e-9);
}

// ---------- event-wise protocol ----------

TEST(EventDetectedTest, MarginGatesDetection) {
  std::vector<int> labels(500, 0);
  for (int i = 200; i < 220; ++i) labels[static_cast<size_t>(i)] = 1;
  std::vector<int> pred(500, 0);
  pred[300] = 1;  // 80 points after the event end
  EXPECT_TRUE(EventDetected(pred, labels, 100));
  EXPECT_FALSE(EventDetected(pred, labels, 50));
}

TEST(EventDetectedTest, NoEventsNeverDetected) {
  EXPECT_FALSE(EventDetected({1, 1}, {0, 0}, 10));
}

TEST(OneLinerTest, CatchesExtremeSpikesOnly) {
  Rng rng(5);
  std::vector<double> x(1000);
  for (auto& v : x) v = rng.Normal();
  x[500] = 25.0;  // blatant spike
  const std::vector<int> pred = OneLinerDetector(x, 5.0);
  EXPECT_EQ(pred[500], 1);
  int total = 0;
  for (int p : pred) total += p;
  EXPECT_EQ(total, 1);  // nothing else is 5-sigma
}

}  // namespace
}  // namespace triad::eval
