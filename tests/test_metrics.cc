// LatencyHistogram bucket math: exact small values, bounded relative
// error above the linear range, quantiles, and merge semantics.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/metrics.h"

namespace vdg {
namespace {

TEST(LatencyHistogram, ExactBelowLinearMax) {
  // Values below 64 get one bucket each: bucket upper bound == value.
  for (uint64_t v = 0; v < 64; ++v) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(index), v) << v;
  }
  // Bucket indexes are monotone in the value.
  size_t prev = 0;
  for (uint64_t v = 1; v < (uint64_t{1} << 20); v = v * 3 / 2 + 1) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(index, prev) << v;
    prev = index;
  }
}

TEST(LatencyHistogram, BoundedRelativeErrorAboveLinearMax) {
  // Above 64, the bucket upper bound overshoots by at most 1/32.
  for (uint64_t v : {64u, 65u, 100u, 1000u, 123456u, 7654321u}) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    const uint64_t upper = LatencyHistogram::BucketUpperBound(index);
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v), static_cast<double>(v) / 32.0)
        << v;
  }
  const uint64_t huge = uint64_t{1} << 55;
  const size_t index = LatencyHistogram::BucketIndex(huge + 3);
  EXPECT_LT(index, LatencyHistogram::bucket_count());
  EXPECT_GE(LatencyHistogram::BucketUpperBound(index), huge + 3);
}

TEST(LatencyHistogram, QuantilesCountsAndMoments) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 0u);

  // 1..100: quantiles are exact here (all values below... no — above
  // 64 quantized, but within 1/32).
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 50u);
  // Upper-bound quantization never understates, and is clamped to max.
  EXPECT_GE(h.ValueAtQuantile(0.95), 95u);
  EXPECT_LE(h.ValueAtQuantile(0.95), 98u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 100u);
  EXPECT_EQ(h.ValueAtQuantile(2.0), 100u);  // clamped q

  // Quantiles are monotone in q.
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const uint64_t v = h.ValueAtQuantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
}

TEST(LatencyHistogram, RecordNAndMerge) {
  LatencyHistogram a;
  a.RecordN(10, 90);
  a.RecordN(1000000, 10);

  LatencyHistogram b;
  b.RecordN(20, 100);

  LatencyHistogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), 200u);
  EXPECT_EQ(merged.min(), 10u);
  EXPECT_EQ(merged.max(), 1000000u);
  // p50 of {90x10, 100x20, 10x1e6} is 20.
  EXPECT_EQ(merged.ValueAtQuantile(0.5), 20u);
  // The tail only appears past the 95th percentile.
  EXPECT_LE(merged.ValueAtQuantile(0.94), 20u);
  EXPECT_GE(merged.ValueAtQuantile(0.96), 1000000u * 31 / 32);
  const double expected_mean =
      (90.0 * 10 + 100.0 * 20 + 10.0 * 1000000) / 200.0;
  EXPECT_DOUBLE_EQ(merged.mean(), expected_mean);

  // Merging an empty histogram is a no-op.
  merged.Merge(LatencyHistogram());
  EXPECT_EQ(merged.count(), 200u);
}

}  // namespace
}  // namespace vdg
