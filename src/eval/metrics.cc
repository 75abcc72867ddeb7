#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/stats.h"

namespace triad::eval {

Confusion ComputeConfusion(const std::vector<int>& pred,
                           const std::vector<int>& labels) {
  TRIAD_CHECK_EQ(pred.size(), labels.size());
  Confusion c;
  for (size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] != 0 && labels[i] != 0) {
      ++c.tp;
    } else if (pred[i] != 0) {
      ++c.fp;
    } else if (labels[i] != 0) {
      ++c.fn;
    } else {
      ++c.tn;
    }
  }
  return c;
}

std::vector<Event> ExtractEvents(const std::vector<int>& labels) {
  std::vector<Event> events;
  const int64_t n = static_cast<int64_t>(labels.size());
  int64_t i = 0;
  while (i < n) {
    if (labels[static_cast<size_t>(i)] != 0) {
      Event e;
      e.begin = i;
      while (i < n && labels[static_cast<size_t>(i)] != 0) ++i;
      e.end = i;
      events.push_back(e);
    } else {
      ++i;
    }
  }
  return events;
}

std::vector<int> PointAdjust(const std::vector<int>& pred,
                             const std::vector<int>& labels) {
  return PointAdjustK(pred, labels, 0.0);
}

std::vector<int> PointAdjustK(const std::vector<int>& pred,
                              const std::vector<int>& labels,
                              double k_percent) {
  TRIAD_CHECK_EQ(pred.size(), labels.size());
  std::vector<int> adjusted = pred;
  for (const Event& e : ExtractEvents(labels)) {
    int64_t hits = 0;
    for (int64_t i = e.begin; i < e.end; ++i) {
      if (pred[static_cast<size_t>(i)] != 0) ++hits;
    }
    const double ratio =
        100.0 * static_cast<double>(hits) / static_cast<double>(e.end - e.begin);
    if (hits > 0 && ratio > k_percent) {
      for (int64_t i = e.begin; i < e.end; ++i) {
        adjusted[static_cast<size_t>(i)] = 1;
      }
    }
  }
  return adjusted;
}

PaKCurve ComputePaKCurve(const std::vector<int>& pred,
                         const std::vector<int>& labels) {
  PaKCurve curve;
  curve.precision.reserve(100);
  curve.recall.reserve(100);
  curve.f1.reserve(100);
  for (int k = 1; k <= 100; ++k) {
    const Confusion c = ComputeConfusion(
        PointAdjustK(pred, labels, static_cast<double>(k)), labels);
    curve.precision.push_back(c.Precision());
    curve.recall.push_back(c.Recall());
    curve.f1.push_back(c.F1());
  }
  curve.precision_auc = Mean(curve.precision);
  curve.recall_auc = Mean(curve.recall);
  curve.f1_auc = Mean(curve.f1);
  return curve;
}

namespace {

// Distance from point u to the closed interval [b, e-1].
double DistToEvent(double u, const Event& ev) {
  if (u < static_cast<double>(ev.begin)) return static_cast<double>(ev.begin) - u;
  if (u > static_cast<double>(ev.end - 1)) return u - static_cast<double>(ev.end - 1);
  return 0.0;
}

// Survival function of the distance from a uniform point in [zlo, zhi) to
// the event: P(dist(U, event) >= d).
double SurvivalEventDistance(double d, double zlo, double zhi,
                             const Event& ev) {
  if (d <= 0.0) return 1.0;
  const double left = std::max(0.0, (static_cast<double>(ev.begin) - d) - zlo);
  const double right =
      std::max(0.0, zhi - (static_cast<double>(ev.end - 1) + d));
  const double len = std::max(zhi - zlo, 1e-12);
  return std::min(1.0, (left + right) / len);
}

// Survival function of |U - a| for U uniform in [zlo, zhi).
double SurvivalPointDistance(double d, double zlo, double zhi, double a) {
  if (d <= 0.0) return 1.0;
  const double left = std::max(0.0, (a - d) - zlo);
  const double right = std::max(0.0, zhi - (a + d));
  const double len = std::max(zhi - zlo, 1e-12);
  return std::min(1.0, (left + right) / len);
}

}  // namespace

AffiliationScore ComputeAffiliation(const std::vector<int>& pred,
                                    const std::vector<int>& labels) {
  TRIAD_CHECK_EQ(pred.size(), labels.size());
  const std::vector<Event> events = ExtractEvents(labels);
  AffiliationScore out;
  if (events.empty()) return out;
  const double n = static_cast<double>(labels.size());

  // Zone boundaries: midpoints between consecutive events.
  std::vector<double> bounds;
  bounds.push_back(0.0);
  for (size_t j = 0; j + 1 < events.size(); ++j) {
    bounds.push_back(0.5 * (static_cast<double>(events[j].end - 1) +
                            static_cast<double>(events[j + 1].begin)));
  }
  bounds.push_back(n);

  double precision_sum = 0.0;
  int64_t precision_zones = 0;
  double recall_sum = 0.0;

  for (size_t j = 0; j < events.size(); ++j) {
    const Event& ev = events[j];
    const double zlo = bounds[j];
    const double zhi = bounds[j + 1];

    // Individual precision: mean survival over predicted points in the zone.
    double p_sum = 0.0;
    int64_t p_count = 0;
    const int64_t ilo = static_cast<int64_t>(std::ceil(zlo));
    const int64_t ihi = std::min(static_cast<int64_t>(std::ceil(zhi)),
                                 static_cast<int64_t>(labels.size()));
    for (int64_t i = ilo; i < ihi; ++i) {
      if (pred[static_cast<size_t>(i)] == 0) continue;
      const double d = DistToEvent(static_cast<double>(i), ev);
      p_sum += SurvivalEventDistance(d, zlo, zhi, ev);
      ++p_count;
    }
    if (p_count > 0) {
      precision_sum += p_sum / static_cast<double>(p_count);
      ++precision_zones;
    }

    // Individual recall: mean survival over the event's points, with the
    // distance to the nearest predicted point inside the zone.
    double r_sum = 0.0;
    for (int64_t a = ev.begin; a < ev.end; ++a) {
      double best = std::numeric_limits<double>::infinity();
      for (int64_t i = ilo; i < ihi; ++i) {
        if (pred[static_cast<size_t>(i)] == 0) continue;
        best = std::min(best, std::abs(static_cast<double>(i - a)));
      }
      r_sum += std::isfinite(best)
                   ? SurvivalPointDistance(best, zlo, zhi,
                                           static_cast<double>(a))
                   : 0.0;
    }
    recall_sum += r_sum / static_cast<double>(ev.end - ev.begin);
  }

  out.precision =
      precision_zones == 0 ? 0.0 : precision_sum / precision_zones;
  out.recall = recall_sum / static_cast<double>(events.size());
  return out;
}

bool EventDetected(const std::vector<int>& pred,
                   const std::vector<int>& labels, int64_t margin) {
  const std::vector<Event> events = ExtractEvents(labels);
  if (events.empty()) return false;
  const int64_t n = static_cast<int64_t>(pred.size());
  for (const Event& e : events) {
    const int64_t lo = std::max<int64_t>(0, e.begin - margin);
    const int64_t hi = std::min(n, e.end + margin);
    bool hit = false;
    for (int64_t i = lo; i < hi; ++i) {
      if (pred[static_cast<size_t>(i)] != 0) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

std::vector<int> OneLinerDetector(const std::vector<double>& series,
                                  double z) {
  const double mu = Mean(series);
  const double sd = std::max(StdDev(series), 1e-12);
  std::vector<int> out(series.size(), 0);
  for (size_t i = 0; i < series.size(); ++i) {
    out[i] = std::abs(series[i] - mu) / sd > z ? 1 : 0;
  }
  return out;
}

}  // namespace triad::eval
