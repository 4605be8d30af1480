#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace viewmat::obs {
namespace {

TEST(MetricsRegistry, CountersArePointerStablePerNameAndLabels) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ops_total", {{"strategy", "deferred"}});
  Counter* b = registry.GetCounter("ops_total", {{"strategy", "deferred"}});
  Counter* c = registry.GetCounter("ops_total", {{"strategy", "immediate"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Increment();
  a->Increment(4);
  EXPECT_EQ(b->value(), 5u);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(registry.counter_count(), 2u);
}

TEST(MetricsRegistry, HistogramBucketsAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("ms", {}, {10.0, 100.0});
  h->Observe(10.0);   // first bucket (inclusive)
  h->Observe(10.5);   // second bucket
  h->Observe(1000.0); // +inf bucket
  ASSERT_EQ(h->counts().size(), 3u);
  EXPECT_EQ(h->counts()[0], 1u);
  EXPECT_EQ(h->counts()[1], 1u);
  EXPECT_EQ(h->counts()[2], 1u);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 1020.5);
  // Bounds apply on first registration only.
  Histogram* again = registry.GetHistogram("ms", {}, {1.0});
  EXPECT_EQ(again, h);
  EXPECT_EQ(again->bounds().size(), 2u);
}

TEST(MetricsRegistry, LabelOrderIsCanonicalized) {
  MetricsRegistry registry;
  // Permuted label order resolves to the SAME metric...
  Counter* a = registry.GetCounter("ops_total",
                                   {{"strategy", "deferred"}, {"model", "1"}});
  Counter* b = registry.GetCounter("ops_total",
                                   {{"model", "1"}, {"strategy", "deferred"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.counter_count(), 1u);
  a->Increment(3);
  // ...and snapshots render the labels in sorted order regardless of which
  // permutation registered first (byte-stable output).
  EXPECT_NE(registry.ToString().find("ops_total{model=1,strategy=deferred} 3"),
            std::string::npos)
      << registry.ToString();
  // Same canonicalization for histograms.
  Histogram* h = registry.GetHistogram("ms", {{"b", "2"}, {"a", "1"}}, {10.0});
  EXPECT_EQ(registry.GetHistogram("ms", {{"a", "1"}, {"b", "2"}}, {99.0}), h);
  EXPECT_EQ(registry.histogram_count(), 1u);
  EXPECT_NE(registry.ToString().find("ms{a=1,b=2}"), std::string::npos)
      << registry.ToString();
}

TEST(MetricsRegistry, ToStringIsSortedAndLabeled) {
  MetricsRegistry registry;
  registry.GetCounter("z_total")->Increment(2);
  registry.GetCounter("a_total", {{"k", "v"}})->Increment();
  const std::string text = registry.ToString();
  const size_t a_pos = text.find("a_total{k=v} 1");
  const size_t z_pos = text.find("z_total 2");
  ASSERT_NE(a_pos, std::string::npos) << text;
  ASSERT_NE(z_pos, std::string::npos) << text;
  EXPECT_LT(a_pos, z_pos);
}

TEST(MetricsRegistry, WriteJsonProducesParseableDocument) {
  MetricsRegistry registry;
  registry.GetCounter("ops_total", {{"strategy", "deferred"}})->Increment(7);
  registry.GetHistogram("ms", {{"strategy", "deferred"}}, {30.0, 300.0})
      ->Observe(42.0);

  common::JsonWriter w;
  registry.WriteJson(&w);
  auto parsed = common::ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << w.str();

  const auto* counters = parsed->Find("counters");
  ASSERT_TRUE(counters != nullptr && counters->is_array());
  ASSERT_EQ(counters->items.size(), 1u);
  EXPECT_EQ(counters->items[0].Find("name")->string_value, "ops_total");
  EXPECT_EQ(counters->items[0].Find("value")->number, 7);

  const auto* histograms = parsed->Find("histograms");
  ASSERT_TRUE(histograms != nullptr && histograms->is_array());
  ASSERT_EQ(histograms->items.size(), 1u);
  const auto& h = histograms->items[0];
  EXPECT_EQ(h.Find("count")->number, 1);
  EXPECT_EQ(h.Find("sum")->number, 42);
  EXPECT_EQ(h.Find("bounds")->items.size(), 2u);
  EXPECT_EQ(h.Find("counts")->items.size(), 3u);
}

}  // namespace
}  // namespace viewmat::obs
