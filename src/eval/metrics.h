#ifndef TRIAD_EVAL_METRICS_H_
#define TRIAD_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

namespace triad::eval {

/// \brief Binary confusion counts and the derived point-wise scores.
struct Confusion {
  int64_t tp = 0, fp = 0, fn = 0, tn = 0;

  double Precision() const {
    return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
  }
  double Recall() const {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
  }
  double F1() const {
    const double p = Precision(), r = Recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

/// Counts TP/FP/FN/TN; `pred` and `labels` are 0/1 and equal-length.
Confusion ComputeConfusion(const std::vector<int>& pred,
                           const std::vector<int>& labels);

/// A contiguous anomaly event [begin, end) extracted from the labels.
struct Event {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Maximal runs of 1s in `labels`.
std::vector<Event> ExtractEvents(const std::vector<int>& labels);

/// \brief Point adjustment (PA): if any point inside a ground-truth event is
/// predicted anomalous, the whole event counts as detected. The paper argues
/// this inflates scores (Section II-B); it is provided for Table II/III.
std::vector<int> PointAdjust(const std::vector<int>& pred,
                             const std::vector<int>& labels);

/// \brief PA%K (Kim et al., AAAI'22): an event is adjusted only when more
/// than `k_percent`% of its points were detected. k_percent = 0 reduces to
/// PA; k_percent = 100 reduces to the raw point-wise scores.
std::vector<int> PointAdjustK(const std::vector<int>& pred,
                              const std::vector<int>& labels,
                              double k_percent);

/// \brief The PA%K sweep over K = 1..100 plus area-under-curve summaries
/// (reported as Precision-AUC / Recall-AUC / F1-AUC in paper Table III).
struct PaKCurve {
  std::vector<double> precision;  ///< indexed by K-1
  std::vector<double> recall;
  std::vector<double> f1;
  double precision_auc = 0.0;
  double recall_auc = 0.0;
  double f1_auc = 0.0;
};
PaKCurve ComputePaKCurve(const std::vector<int>& pred,
                         const std::vector<int>& labels);

/// \brief Affiliation precision/recall (Huet et al., KDD'22).
///
/// The timeline is partitioned into affiliation zones (one per ground-truth
/// event, split at midpoints between events). Distances from predictions to
/// the event (precision) and from event points to predictions (recall) are
/// converted to probabilities against the survival function of a uniformly
/// random point in the zone, then averaged.
struct AffiliationScore {
  double precision = 0.0;
  double recall = 0.0;
  double F1() const {
    return precision + recall == 0.0
               ? 0.0
               : 2.0 * precision * recall / (precision + recall);
  }
};
AffiliationScore ComputeAffiliation(const std::vector<int>& pred,
                                    const std::vector<int>& labels);

/// \brief MERLIN++'s event-wise protocol: a detection counts when any
/// predicted point lies within `margin` points of the ground-truth event.
bool EventDetected(const std::vector<int>& pred,
                   const std::vector<int>& labels, int64_t margin = 100);

/// \brief The "one-liner" detector of the paper's Fig. 3 discussion:
/// flags points whose global z-score magnitude exceeds `z`.
std::vector<int> OneLinerDetector(const std::vector<double>& series,
                                  double z = 3.0);

}  // namespace triad::eval

#endif  // TRIAD_EVAL_METRICS_H_
