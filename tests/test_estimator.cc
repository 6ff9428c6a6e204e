#include "estimator/estimator.h"

#include <gtest/gtest.h>

#include "workload/testbed.h"

namespace vdg {
namespace {

TEST(WelfordTest, MeanAndStddev) {
  WelfordAccumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138089935, 1e-6);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(WelfordTest, EdgeCases) {
  WelfordAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.stddev(), 0.0);
  acc.Add(3.0);
  EXPECT_EQ(acc.mean(), 3.0);
  EXPECT_EQ(acc.stddev(), 0.0);  // single sample
  EXPECT_EQ(acc.min(), 3.0);
  EXPECT_EQ(acc.max(), 3.0);
}

TEST(EstimatorTest, FallbackResolutionOrder) {
  CostEstimator est;
  est.set_default_runtime(99.0);
  // Nothing recorded: default.
  EXPECT_EQ(est.EstimateRuntime("tr", "east"), 99.0);
  // Cross-site history: used for unseen sites.
  est.RecordRuntime("tr", "west", 10.0);
  est.RecordRuntime("tr", "west", 20.0);
  EXPECT_EQ(est.EstimateRuntime("tr", "east"), 15.0);
  // Site-local history wins.
  est.RecordRuntime("tr", "east", 50.0);
  EXPECT_EQ(est.EstimateRuntime("tr", "east"), 50.0);
  EXPECT_EQ(est.EstimateRuntime("tr", "west"), 15.0);
}

TEST(EstimatorTest, ObservationCounts) {
  CostEstimator est;
  est.RecordRuntime("tr", "east", 1.0);
  est.RecordRuntime("tr", "east", 2.0);
  est.RecordRuntime("tr", "west", 3.0);
  EXPECT_EQ(est.ObservationCount("tr", "east"), 2u);
  EXPECT_EQ(est.ObservationCount("tr", "west"), 1u);
  EXPECT_EQ(est.ObservationCount("tr"), 3u);
  EXPECT_EQ(est.ObservationCount("other"), 0u);
}

TEST(EstimatorTest, OutputSizeEstimation) {
  CostEstimator est;
  EXPECT_EQ(est.EstimateOutputSize("tr"), 0);
  est.RecordOutputSize("tr", 100);
  est.RecordOutputSize("tr", 300);
  EXPECT_EQ(est.EstimateOutputSize("tr"), 200);
}

TEST(EstimatorTest, UpperBoundTracksVariance) {
  CostEstimator est;
  est.set_default_runtime(42.0);
  // No history: default, regardless of z.
  EXPECT_EQ(est.EstimateRuntimeUpperBound("tr", "east", 2.0), 42.0);
  // Noisy history at east: bound grows with z.
  for (double x : {80.0, 100.0, 120.0}) est.RecordRuntime("tr", "east", x);
  double mean = est.EstimateRuntime("tr", "east");
  EXPECT_DOUBLE_EQ(mean, 100.0);
  EXPECT_DOUBLE_EQ(est.EstimateRuntimeUpperBound("tr", "east", 0.0), mean);
  double bound = est.EstimateRuntimeUpperBound("tr", "east", 2.0);
  EXPECT_NEAR(bound, 100.0 + 2.0 * 20.0, 1e-9);
  // Unseen site falls back to cross-site stats.
  EXPECT_NEAR(est.EstimateRuntimeUpperBound("tr", "west", 1.0), 120.0,
              1e-9);
  // A perfectly stable transformation has a tight bound.
  CostEstimator stable;
  stable.RecordRuntime("s", "east", 50.0);
  stable.RecordRuntime("s", "east", 50.0);
  EXPECT_DOUBLE_EQ(stable.EstimateRuntimeUpperBound("s", "east", 3.0),
                   50.0);
}

TEST(EstimatorTest, TransferEstimateDelegatesToTopology) {
  CostEstimator est;
  GridTopology t = workload::SmallTestbed();
  EXPECT_NEAR(est.EstimateTransfer(t, "east", "west", 12'500'000), 1.02,
              1e-9);
}

TEST(EstimatorTest, LearnFromCatalog) {
  VirtualDataCatalog catalog("est.org");
  ASSERT_TRUE(catalog.Open().ok());
  ASSERT_TRUE(catalog.ImportVdl(R"(
TR work( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/work";
}
DS src : Dataset size="100";
DV d1->work( out=@{output:"mid"}, in=@{input:"src"} );
)")
                  .ok());
  ASSERT_TRUE(catalog.SetDatasetSize("mid", 5000).ok());
  Invocation good;
  good.derivation = "d1";
  good.context.site = "east";
  good.duration_s = 30;
  ASSERT_TRUE(catalog.RecordInvocation(good).ok());
  Invocation failed;
  failed.derivation = "d1";
  failed.context.site = "east";
  failed.duration_s = 500;
  failed.succeeded = false;  // must be ignored
  ASSERT_TRUE(catalog.RecordInvocation(failed).ok());

  CostEstimator est;
  InProcessCatalogClient client(&catalog);
  ASSERT_TRUE(est.LearnFromCatalog(client).ok());
  EXPECT_EQ(est.EstimateRuntime("work", "east"), 30.0);
  EXPECT_EQ(est.ObservationCount("work"), 1u);
  EXPECT_EQ(est.EstimateOutputSize("work"), 5000);
}

}  // namespace
}  // namespace vdg
