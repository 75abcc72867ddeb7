#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/env.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace triad {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad window");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kIoError,
        StatusCode::kFailedPrecondition, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> MakeValue(bool ok) {
  if (ok) return 42;
  return Status::NotFound("nope");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = MakeValue(true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = MakeValue(false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status UseAssignOrReturn(bool ok, int* out) {
  TRIAD_ASSIGN_OR_RETURN(*out, MakeValue(ok));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(true, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(UseAssignOrReturn(false, &out).code(), StatusCode::kNotFound);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen, (std::set<int64_t>{3, 4, 5, 6, 7}));
}

TEST(RngTest, UniformIntSinglePoint) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  std::vector<double> xs = rng.NormalVector(20000);
  EXPECT_NEAR(Mean(xs), 0.0, 0.03);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a(), child());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------- stats ----------

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
}

TEST(StatsTest, EmptyAndSingleInputs) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({1.0}), 0.0);
}

TEST(StatsTest, Quantile) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
}

// Regression (observability PR): empty input and out-of-range q used to
// TRIAD_CHECK-crash, and both are reachable from user config through
// ThresholdRule::kQuantile. Table-driven guarded-fallback contract.
TEST(StatsTest, QuantileGuardedFallbacks) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* name;
    std::vector<double> input;
    double q;
    double want;
  };
  const Case cases[] = {
      {"empty input", {}, 0.5, 0.0},
      {"empty input, bad q", {}, 7.0, 0.0},
      {"q below range clamps to min", v, -0.5, 1.0},
      {"q above range clamps to max", v, 1.5, 5.0},
      {"q -inf clamps to min", v, -std::numeric_limits<double>::infinity(),
       1.0},
      {"q +inf clamps to max", v, std::numeric_limits<double>::infinity(),
       5.0},
      {"NaN q treated as 0", v, nan, 1.0},
      {"single element, any q", {42.0}, 0.3, 42.0},
  };
  for (const Case& c : cases) {
    EXPECT_DOUBLE_EQ(Quantile(c.input, c.q), c.want) << c.name;
  }
}

TEST(StatsTest, ArgMinMax) {
  std::vector<double> v = {3, 1, 4, 1, 5};
  EXPECT_EQ(ArgMax(v), 4);
  EXPECT_EQ(ArgMin(v), 1);  // first of the ties
  EXPECT_DOUBLE_EQ(Min(v), 1.0);
  EXPECT_DOUBLE_EQ(Max(v), 5.0);
}

// ---------- table ----------

TEST(TableTest, RendersAlignedRows) {
  TablePrinter t({"Model", "F1"});
  t.AddRow({"TriAD", TablePrinter::Num(0.263)});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("Model"), std::string::npos);
  EXPECT_NE(s.find("0.263"), std::string::npos);
  EXPECT_NE(s.find("TriAD"), std::string::npos);
}

TEST(TableTest, MeanSdFormat) {
  EXPECT_EQ(TablePrinter::MeanSd(0.5, 0.01, 2), "0.50 ±0.01");
}

// ---------- env ----------

TEST(EnvTest, DefaultsWhenUnset) {
  EXPECT_EQ(GetEnvInt("TRIAD_TEST_UNSET_VAR", 17), 17);
  EXPECT_DOUBLE_EQ(GetEnvDouble("TRIAD_TEST_UNSET_VAR", 2.5), 2.5);
  EXPECT_EQ(GetEnvString("TRIAD_TEST_UNSET_VAR", "x"), "x");
}

TEST(EnvTest, ParsesSetValues) {
  setenv("TRIAD_TEST_SET_VAR", "123", 1);
  EXPECT_EQ(GetEnvInt("TRIAD_TEST_SET_VAR", 0), 123);
  setenv("TRIAD_TEST_SET_VAR", "1.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("TRIAD_TEST_SET_VAR", 0.0), 1.5);
  unsetenv("TRIAD_TEST_SET_VAR");
}

}  // namespace
}  // namespace triad
