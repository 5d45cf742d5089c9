#include "util/metrics_registry.h"

#include <gtest/gtest.h>

namespace odbgc {
namespace {

TEST(MetricsRegistryTest, RegisterIsIdempotentAndStable) {
  MetricsRegistry registry;
  MetricCounter* a = registry.Register("device.page_reads");
  MetricCounter* b = registry.Register("device.page_reads");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);

  // Pointers stay valid as more counters are registered (node-based map).
  registry.Register("aaa");
  registry.Register("zzz");
  a->Add(MetricPhase::kApplication, 3);
  EXPECT_EQ(registry.Find("device.page_reads")->total(), 3u);
}

TEST(MetricsRegistryTest, FindUnknownReturnsNull) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Find("nope"), nullptr);
}

TEST(MetricsRegistryTest, CountChargesCurrentPhase) {
  MetricsRegistry registry;
  MetricCounter* c = registry.Register("io");
  registry.Count(c);
  registry.set_phase(MetricPhase::kCollector);
  registry.Count(c, 5);
  registry.set_phase(MetricPhase::kApplication);
  registry.Count(c);

  EXPECT_EQ(c->value(MetricPhase::kApplication), 2u);
  EXPECT_EQ(c->value(MetricPhase::kCollector), 5u);
  EXPECT_EQ(c->total(), 7u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.Register("zeta")->Add(MetricPhase::kApplication, 1);
  registry.Register("alpha")->Add(MetricPhase::kCollector, 2);
  registry.Register("mid")->Add(MetricPhase::kApplication, 3);

  const std::vector<MetricSample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "alpha");
  EXPECT_EQ(snapshot[0].collector, 2u);
  EXPECT_EQ(snapshot[1].name, "mid");
  EXPECT_EQ(snapshot[2].name, "zeta");
  EXPECT_EQ(snapshot[2].total(), 1u);
}

TEST(MetricsRegistryTest, ResetCountersKeepsHandles) {
  MetricsRegistry registry;
  MetricCounter* c = registry.Register("io");
  c->Add(MetricPhase::kApplication, 9);
  registry.ResetCounters();
  EXPECT_EQ(c->total(), 0u);
  EXPECT_EQ(registry.size(), 1u);
  c->Add(MetricPhase::kCollector, 1);
  EXPECT_EQ(registry.Find("io")->total(), 1u);
}

TEST(MergeMetricSamplesTest, SumsByNameAcrossParts) {
  const std::vector<std::vector<MetricSample>> parts = {
      {{"buffer.hits", 10, 2}, {"disk.reads", 5, 1}},
      {{"disk.reads", 3, 4}, {"ssd.erases", 0, 7}},
  };
  const auto merged = MergeMetricSamples(parts);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "buffer.hits");
  EXPECT_EQ(merged[0].application, 10u);
  EXPECT_EQ(merged[1].name, "disk.reads");
  EXPECT_EQ(merged[1].application, 8u);
  EXPECT_EQ(merged[1].collector, 5u);
  EXPECT_EQ(merged[2].name, "ssd.erases");
  EXPECT_EQ(merged[2].collector, 7u);
}

TEST(MergeMetricSamplesTest, OrderOfPartsIsIrrelevant) {
  // The concurrent simulator merges shard registries in whatever order
  // workers finish; determinism of the aggregate depends on this.
  const std::vector<MetricSample> a = {{"x", 1, 2}, {"y", 3, 0}};
  const std::vector<MetricSample> b = {{"y", 10, 1}, {"z", 0, 5}};
  const std::vector<MetricSample> c = {{"x", 7, 7}};
  const auto forward = MergeMetricSamples({a, b, c});
  const auto backward = MergeMetricSamples({c, b, a});
  ASSERT_EQ(forward.size(), backward.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i].name, backward[i].name);
    EXPECT_EQ(forward[i].application, backward[i].application);
    EXPECT_EQ(forward[i].collector, backward[i].collector);
  }
}

TEST(MergeMetricSamplesTest, EmptyAndSingleton) {
  EXPECT_TRUE(MergeMetricSamples({}).empty());
  const auto one = MergeMetricSamples({{{"only", 4, 2}}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].name, "only");
  EXPECT_EQ(one[0].total(), 6u);
}

}  // namespace
}  // namespace odbgc
