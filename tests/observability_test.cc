// Unit tests for the observability layer (src/common/metrics.{h,cc},
// src/common/trace.{h,cc}; ARCHITECTURE.md §6): exactness of concurrent
// counter, histogram and span updates, the TRIAD_METRICS off-gate contract
// (nothing is ever recorded), and the text/JSON exporters. Also the TSan
// target for the record paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace triad {
namespace {

// Every test manipulates the process-global registry, so each starts from a
// clean slate under an explicit enable override.
void ResetObservability() { metrics::Registry::Global().ResetAll(); }

// The histogram a span named `name` records into.
const metrics::Histogram& SpanHistogram(const char* name) {
  return *metrics::Registry::Global().histogram(name);
}

TEST(MetricsTest, CounterIncrementsAndResets) {
  metrics::ScopedEnable enable(true);
  metrics::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsTest, ConcurrentCounterIncrementsFromParallelForSumExactly) {
  metrics::ScopedEnable enable(true);
  metrics::Counter counter;
  // A dedicated multi-lane pool: the default pool may have one lane on
  // small CI hosts, which would make this test vacuous.
  ThreadPool pool(4);
  constexpr int64_t kItems = 100000;
  ParallelFor(
      0, kItems, /*grain=*/64,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) counter.Increment();
      },
      &pool);
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kItems));
}

TEST(MetricsTest, HistogramBucketBoundsAreLogSpaced) {
  EXPECT_DOUBLE_EQ(metrics::Histogram::BucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(metrics::Histogram::BucketUpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(metrics::Histogram::BucketUpperBound(10), 1024e-6);
  EXPECT_TRUE(std::isinf(metrics::Histogram::BucketUpperBound(
      metrics::Histogram::kNumBuckets - 1)));
}

TEST(MetricsTest, HistogramObservationsLandInTheRightBuckets) {
  metrics::ScopedEnable enable(true);
  metrics::Histogram hist;
  hist.Observe(0.5e-6);  // bucket 0
  hist.Observe(1.5e-6);  // bucket 1
  hist.Observe(3e-6);    // bucket 2
  hist.Observe(1e9);     // overflow bucket
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(metrics::Histogram::kNumBuckets - 1), 1u);
  EXPECT_NEAR(hist.sum(), 0.5e-6 + 1.5e-6 + 3e-6 + 1e9, 1e-3);
}

TEST(MetricsTest, HistogramNonFiniteObservationsCountButDoNotPoisonSum) {
  metrics::ScopedEnable enable(true);
  metrics::Histogram hist;
  hist.Observe(std::numeric_limits<double>::quiet_NaN());
  hist.Observe(std::numeric_limits<double>::infinity());
  hist.Observe(2.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 2.0);  // finite observations only
}

TEST(MetricsTest, ConcurrentHistogramSumIsExactForEqualValues) {
  metrics::ScopedEnable enable(true);
  metrics::Histogram hist;
  ThreadPool pool(4);
  constexpr int64_t kItems = 20000;
  // 0.5 sums exactly in binary; the CAS loop must lose no update.
  ParallelFor(
      0, kItems, /*grain=*/64,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) hist.Observe(0.5);
      },
      &pool);
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kItems));
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 * static_cast<double>(kItems));
}

TEST(MetricsTest, DisabledModeRecordsNothing) {
  metrics::ScopedEnable disable(false);
  EXPECT_FALSE(metrics::Enabled());
  metrics::Counter counter;
  metrics::Histogram hist;
  counter.Increment(7);
  hist.Observe(0.1);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0.0);

  ResetObservability();
  trace::TraceSpan("test.disabled_span").Stop();
  EXPECT_EQ(SpanHistogram("test.disabled_span").count(), 0u);
}

TEST(MetricsTest, ScopedEnableNestsAndRestores) {
  metrics::ScopedEnable outer(false);
  EXPECT_FALSE(metrics::Enabled());
  {
    metrics::ScopedEnable inner(true);
    EXPECT_TRUE(metrics::Enabled());
  }
  EXPECT_FALSE(metrics::Enabled());
}

TEST(MetricsTest, RegistryReturnsStablePointersPerName) {
  metrics::ScopedEnable enable(true);
  ResetObservability();
  metrics::Counter* a = metrics::Registry::Global().counter("test.stable");
  metrics::Counter* b = metrics::Registry::Global().counter("test.stable");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, metrics::Registry::Global().counter("test.other"));
}

TEST(MetricsTest, ExportTextIsSortedAndComplete) {
  metrics::ScopedEnable enable(true);
  ResetObservability();
  metrics::Registry::Global().counter("test.b")->Increment(3);
  metrics::Registry::Global().counter("test.a")->Increment(4);
  metrics::Registry::Global().histogram("test.c")->Observe(2.0);
  const std::string text = metrics::Registry::Global().ExportText();
  const size_t a = text.find("counter test.a 4\n");
  const size_t b = text.find("counter test.b 3\n");
  EXPECT_NE(a, std::string::npos) << text;
  EXPECT_NE(b, std::string::npos) << text;
  EXPECT_LT(a, b) << text;
  EXPECT_NE(text.find("histogram test.c count 1 sum 2"), std::string::npos)
      << text;
  // Counters and histograms are the only instrument kinds.
  std::istringstream lines(text);
  std::string kind, rest;
  while (lines >> kind && std::getline(lines, rest)) {
    EXPECT_TRUE(kind == "counter" || kind == "histogram") << kind << rest;
  }
}

TEST(MetricsTest, ExportJsonMembersFormsAValidDocumentBody) {
  metrics::ScopedEnable enable(true);
  ResetObservability();
  metrics::Registry::Global().counter("test.j")->Increment();
  metrics::Registry::Global().histogram("test.h")->Observe(1e-5);
  std::string doc = "{";
  doc += metrics::Registry::Global().ExportJsonMembers();
  doc += "}";
  // Structural sanity without a JSON parser: balanced braces/brackets and
  // exactly the two member keys.
  int64_t braces = 0, brackets = 0;
  for (char c : doc) {
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_EQ(doc.find("\"gauges\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.j\": 1"), std::string::npos) << doc;
}

// JSON has no NaN/Inf literals: a non-finite wall time or extra value
// exports as 0 rather than as a token that would break the document.
TEST(TraceTest, NonFiniteNumbersExportAsZeroInJson) {
  metrics::ScopedEnable enable(true);
  ResetObservability();
  std::ostringstream os;
  trace::WriteObservabilityJson(
      os, "nonfinite", std::numeric_limits<double>::quiet_NaN(),
      {{"test.x", std::numeric_limits<double>::infinity()},
       {"test.y", -std::numeric_limits<double>::quiet_NaN()}});
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"wall_seconds\": 0,"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"extra\": {\"test.x\": 0, \"test.y\": 0}"),
            std::string::npos)
      << doc;
  EXPECT_EQ(doc.find("nan"), std::string::npos) << doc;  // no bare nan token
}

TEST(TraceTest, SpanIsObservedByTheHistogramOfItsName) {
  metrics::ScopedEnable enable(true);
  ResetObservability();
  {
    trace::TraceSpan span("test.span");
  }
  const metrics::Histogram& hist = SpanHistogram("test.span");
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(hist.sum(), 0.0);
}

TEST(TraceTest, StopRecordsOnceAndReturnsDuration) {
  metrics::ScopedEnable enable(true);
  ResetObservability();
  double d1 = 0.0;
  {
    trace::TraceSpan span("test.stop");
    d1 = span.Stop();
    const double d2 = span.Stop();  // no-op, still returns elapsed
    EXPECT_GE(d1, 0.0);
    EXPECT_GE(d2, d1);
  }  // the destructor records nothing either
  EXPECT_EQ(SpanHistogram("test.stop").count(), 1u);
  EXPECT_EQ(SpanHistogram("test.stop").sum(), d1);
}

TEST(TraceTest, StopAlwaysMeasuresEvenWhenDisabled) {
  // The compatibility contract: DetectionResult stage-seconds fields are
  // fed by Stop(), so the measurement must survive TRIAD_METRICS=off.
  metrics::ScopedEnable disable(false);
  ResetObservability();
  trace::TraceSpan span("test.measure");
  EXPECT_GE(span.Stop(), 0.0);
  EXPECT_EQ(SpanHistogram("test.measure").count(), 0u);
}

// 20,480 spans from four lanes over two names: the registry counts every
// one, so nothing is sampled or evicted however many spans a run records.
TEST(TraceTest, ConcurrentSpansAreCountedExactly) {
  metrics::ScopedEnable enable(true);
  ResetObservability();
  ThreadPool pool(4);
  constexpr int64_t kSpans = 20480;
  ParallelFor(
      0, kSpans, /*grain=*/64,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          trace::TraceSpan span(i % 2 == 0 ? "test.even" : "test.odd");
        }
      },
      &pool);
  for (const char* name : {"test.even", "test.odd"}) {
    const metrics::Histogram& hist = SpanHistogram(name);
    EXPECT_EQ(hist.count(), static_cast<uint64_t>(kSpans / 2)) << name;
    uint64_t bucketed = 0;
    for (int i = 0; i < metrics::Histogram::kNumBuckets; ++i) {
      bucketed += hist.bucket_count(i);
    }
    EXPECT_EQ(bucketed, hist.count()) << name;
  }
}

TEST(TraceTest, WriteObservabilityJsonIsStructurallyBalanced) {
  metrics::ScopedEnable enable(true);
  ResetObservability();
  metrics::Registry::Global().counter("test.doc")->Increment();
  {
    trace::TraceSpan span("test.doc_span");
  }
  std::ostringstream os;
  trace::WriteObservabilityJson(os, "unit \"quoted\" name", 1.25,
                                {{"extra_key", 2.5}});
  const std::string doc = os.str();
  int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (c == '"' && (i == 0 || doc[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(doc.find("\"schema\": \"triad-observability-v3\""),
            std::string::npos);
  EXPECT_EQ(doc.find("\"gauges\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"wall_seconds\": 1.25"), std::string::npos);
  EXPECT_NE(doc.find("\"simd_tier\": \""), std::string::npos);
  EXPECT_NE(doc.find("\"threads\": "), std::string::npos);
  // The span is a histogram; there is no separate span list.
  EXPECT_NE(doc.find("{\"name\": \"test.doc_span\", \"count\": 1"),
            std::string::npos)
      << doc;
  EXPECT_EQ(doc.find("\"spans\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"extra_key\": 2.5"), std::string::npos);
  EXPECT_NE(doc.find("\\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace triad
