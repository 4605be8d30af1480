#include "sim/bench_diff.h"

#include <string>

#include "gtest/gtest.h"

namespace viewmat::sim {
namespace {

// Minimal report with one sim result (one run) and one table, shaped like
// BenchReport::ToJson output. `ms` and `cell` parameterize the run's
// ms-per-query and the table cell so tests can synthesize regressions.
std::string Fixture(double ms, double cell, const char* extra_run = "") {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      R"({"bench":"bench_fake","quick":false,)"
      R"("sim_results":[{"model":1,"seed":42,)"
      R"("params":{"N":4000,"k":30,"l":10,"q":30,"f":0.1,"f_v":0.1},)"
      R"("baseline_ms_per_query":100.0,)"
      R"("runs":[{"name":"deferred","measured_ms_per_query":%.6f,)"
      R"("explain_gap":{"component_ms_per_query":)"
      R"({"bptree":%.6f,"heap":1.0}}}%s]}],)"
      R"("tables":[{"title":"t1","x_label":"x","series":["a","b"],)"
      R"("rows":[{"x":0.5,"values":[%.6f,2.0]}]}]})",
      ms, ms / 2, extra_run, cell);
  return buf;
}

TEST(BenchDiff, IdenticalReportsPass) {
  const std::string report = Fixture(200.0, 10.0);
  auto result = DiffBenchReports(report, report, DiffOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->regressions(), 0u);
  EXPECT_EQ(result->errors.size(), 0u);
  // baseline + run + two table cells compared.
  EXPECT_EQ(result->entries.size(), 4u);
}

TEST(BenchDiff, TenPercentRegressionFailsAtFivePercentThreshold) {
  const auto result = DiffBenchReports(Fixture(200.0, 10.0),
                                       Fixture(220.0, 10.0), DiffOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->regressions(), 1u);
  const std::string text = result->ToString();
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("measured_ms_per_query"), std::string::npos);
  // The regression carries a component attribution from explain_gap.
  EXPECT_NE(text.find("bptree"), std::string::npos);
}

TEST(BenchDiff, TenPercentRegressionPassesAtTwentyPercentThreshold) {
  DiffOptions options;
  options.threshold = 0.2;
  const auto result =
      DiffBenchReports(Fixture(200.0, 10.0), Fixture(220.0, 10.0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
}

TEST(BenchDiff, ImprovementIsNotARegression) {
  const auto result = DiffBenchReports(Fixture(200.0, 10.0),
                                       Fixture(150.0, 10.0), DiffOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->improvements(), 1u);
}

TEST(BenchDiff, TableCellRegressionIsCaught) {
  const auto result = DiffBenchReports(Fixture(200.0, 10.0),
                                       Fixture(200.0, 11.0), DiffOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->regressions(), 1u);
  EXPECT_NE(result->ToString().find("table 't1'"), std::string::npos);
}

TEST(BenchDiff, ThroughputIsAGainNotACost) {
  // A `*_tps` series is a rate: rising is the improvement, falling the
  // regression.
  const auto report = [](double tps) {
    return std::string(R"({"bench":"bench_fake","quick":false,)"
                       R"("tables":[{"title":"t1","x_label":"x",)"
                       R"("series":["model_ms","throughput_tps"],)"
                       R"("rows":[{"x":0,"values":[10.0,)") +
           std::to_string(tps) + "]}]}]}";
  };
  const auto rise = DiffBenchReports(report(80.0), report(160.0), {});
  ASSERT_TRUE(rise.ok());
  EXPECT_TRUE(rise->ok()) << rise->ToString();
  EXPECT_EQ(rise->regressions(), 0u);
  EXPECT_EQ(rise->improvements(), 1u);
  EXPECT_EQ(rise->ToString().find("REGRESSION"), std::string::npos);

  const auto fall = DiffBenchReports(report(160.0), report(80.0), {});
  ASSERT_TRUE(fall.ok());
  EXPECT_FALSE(fall->ok());
  EXPECT_EQ(fall->regressions(), 1u);
  EXPECT_EQ(fall->improvements(), 0u);
  EXPECT_NE(fall->ToString().find("throughput_tps"), std::string::npos);
}

TEST(BenchDiff, MissingRunIsAStructuralError) {
  const std::string with_extra = Fixture(
      200.0, 10.0, R"(,{"name":"immediate","measured_ms_per_query":50.0})");
  const auto result =
      DiffBenchReports(with_extra, Fixture(200.0, 10.0), DiffOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
  ASSERT_EQ(result->errors.size(), 1u);
  EXPECT_NE(result->errors[0].find("immediate"), std::string::npos);
  // The reverse direction is only a note, not a failure.
  const auto reverse =
      DiffBenchReports(Fixture(200.0, 10.0), with_extra, DiffOptions{});
  ASSERT_TRUE(reverse.ok());
  EXPECT_TRUE(reverse->ok());
}

TEST(BenchDiff, ZeroToNonzeroIsAlwaysARegression) {
  DiffOptions options;
  options.threshold = 5.0;  // even a huge threshold cannot excuse 0 -> x
  const auto result =
      DiffBenchReports(Fixture(0.0, 10.0), Fixture(1.0, 10.0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
}

TEST(BenchDiff, BenchNameMismatchIsAnError) {
  std::string other = Fixture(200.0, 10.0);
  other.replace(other.find("bench_fake"), 10, "bench_else");
  const auto result =
      DiffBenchReports(Fixture(200.0, 10.0), other, DiffOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
}

TEST(BenchDiff, ParseThresholdAcceptsPercentAndFraction) {
  auto percent = ParseThreshold("5%");
  ASSERT_TRUE(percent.ok());
  EXPECT_DOUBLE_EQ(*percent, 0.05);
  auto fraction = ParseThreshold("0.05");
  ASSERT_TRUE(fraction.ok());
  EXPECT_DOUBLE_EQ(*fraction, 0.05);
  EXPECT_FALSE(ParseThreshold("").ok());
  EXPECT_FALSE(ParseThreshold("abc").ok());
  EXPECT_FALSE(ParseThreshold("-1").ok());
  EXPECT_FALSE(ParseThreshold("1e9").ok());
}

TEST(BenchDiff, ParseThresholdRejectsNonFiniteAndMalformedInput) {
  // A bare '%' leaves nothing to parse.
  EXPECT_FALSE(ParseThreshold("%").ok());
  // Negative stays rejected in both spellings.
  EXPECT_FALSE(ParseThreshold("-5%").ok());
  EXPECT_FALSE(ParseThreshold("-0.001").ok());
  // Non-finite values parse as numbers but can never gate anything.
  EXPECT_FALSE(ParseThreshold("nan").ok());
  EXPECT_FALSE(ParseThreshold("NaN%").ok());
  EXPECT_FALSE(ParseThreshold("inf").ok());
  EXPECT_FALSE(ParseThreshold("-inf").ok());
  // Trailing garbage after a valid prefix.
  EXPECT_FALSE(ParseThreshold("5%%").ok());
  EXPECT_FALSE(ParseThreshold("5x").ok());
  EXPECT_FALSE(ParseThreshold("0.05 ").ok());
  // strtod leniencies from_chars must not inherit: leading whitespace,
  // explicit '+', hex floats.
  EXPECT_FALSE(ParseThreshold(" 5").ok());
  EXPECT_FALSE(ParseThreshold("+5%").ok());
  EXPECT_FALSE(ParseThreshold("0x5").ok());
  // The boundary itself is fine; just past it is not.
  auto ten = ParseThreshold("10");
  ASSERT_TRUE(ten.ok());
  EXPECT_DOUBLE_EQ(*ten, 10.0);
  EXPECT_FALSE(ParseThreshold("10.001").ok());
  auto zero = ParseThreshold("0%");
  ASSERT_TRUE(zero.ok());
  EXPECT_DOUBLE_EQ(*zero, 0.0);
}

}  // namespace
}  // namespace viewmat::sim
