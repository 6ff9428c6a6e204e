// Unit tests for the benchmark's own arithmetic: the tail-percentile
// rule, seeded input determinism, and span self time.
#include <gtest/gtest.h>

#include <numeric>

#include "corpus.h"
#include "stats.h"
#include "trace.h"

namespace vdcbench {
namespace {

size_t SamplesBeyond(const std::vector<double>& sorted, double value) {
  return static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
}

TEST(TailRule, LeavesAtLeastTenSamplesBeyond) {
  for (size_t n = 21; n <= 3000; ++n) {
    std::vector<double> sorted(n);
    std::iota(sorted.begin(), sorted.end(), 1.0);
    const double q = TailQuantile(n);
    const double tail = QuantileSorted(sorted, q);
    const size_t beyond = SamplesBeyond(sorted, tail);
    ASSERT_GE(beyond, kTailMargin) << "n=" << n;
    if (q < 0.99) {
      // Not capped: the highest such percentile leaves exactly ten.
      ASSERT_EQ(beyond, kTailMargin) << "n=" << n;
    }
  }
}

TEST(TailRule, CapsAtP99AndFallsBackToMedian) {
  EXPECT_DOUBLE_EQ(TailQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(100000), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(500), 0.98);
  EXPECT_DOUBLE_EQ(TailQuantile(20), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(0), 0.5);
  EXPECT_EQ(TailLabel(0.99), "p99");
  EXPECT_EQ(TailLabel(0.98), "p98");
  EXPECT_EQ(TailLabel(0.985), "p98.5");
}

TEST(TailRule, SummaryUsesTheRule) {
  std::vector<double> samples(200);
  std::iota(samples.begin(), samples.end(), 1.0);
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 200u);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.95);
  EXPECT_DOUBLE_EQ(s.tail, 190.0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2, 4}), 2.5);
}

TEST(Schedule, SameSeedSameArrivals) {
  const std::vector<double> a = PoissonArrivals(42, 1000, 2.0);
  const std::vector<double> b = PoissonArrivals(42, 1000, 2.0);
  const std::vector<double> c = PoissonArrivals(43, 1000, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // 2000 expected arrivals; five standard deviations is ~224.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 224.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2.0);
}

TEST(Schedule, SameSeedSameCorpusAndKeys) {
  CorpusSpec spec;
  spec.base_datasets = 500;
  spec.derivations = 50;
  spec.chains = 4;
  spec.chain_depth = 3;
  const Corpus a = MakeCorpus(spec, 7);
  const Corpus b = MakeCorpus(spec, 7);
  const Corpus c = MakeCorpus(spec, 8);
  EXPECT_EQ(a.base_names, b.base_names);
  EXPECT_EQ(a.derivation_inputs, b.derivation_inputs);
  EXPECT_NE(a.derivation_inputs, c.derivation_inputs);
  size_t ops = 0;
  for (const auto& batch : a.batches) ops += batch.size();
  // One transformation, the datasets, the derivations, and per chain a
  // root dataset plus its derivations.
  EXPECT_EQ(ops, 1 + 500 + 50 + 4 * (1 + 3));

  const Zipf zipf(128, 1.0);
  std::mt19937_64 r1(SubSeed(9, 1)), r2(SubSeed(9, 1));
  size_t rank0 = 0;
  for (int i = 0; i < 1000; ++i) {
    const size_t x = zipf.Sample(r1);
    ASSERT_EQ(x, zipf.Sample(r2));
    ASSERT_LT(x, 128u);
    if (x == 0) ++rank0;
  }
  // Rank 0 carries 1/H(128) ~ 18% of the mass.
  EXPECT_GT(rank0, 120u);
  EXPECT_LT(rank0, 250u);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Parent [0,100]; children overlap each other ([10,30] and [20,50]
  // cover 40) and one sticks out of the parent ([90,120] covers 10).
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120), MakeSpan(5, 2, 12, 18)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  // Overlap and overhang make the tree's self times exceed the root.
  const NestingCheck check = CheckNesting(spans, self);
  EXPECT_EQ(check.roots, 1u);
  EXPECT_GT(check.max_excess, 0.0);
}

TEST(SelfTime, WellNestedTreeAddsUpToTheRoot) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 40, 90),
      MakeSpan(4, 3, 50, 60), MakeSpan(9, 0, 200, 210)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100);
  const NestingCheck check = CheckNesting(spans, self);
  EXPECT_EQ(check.roots, 2u);
  EXPECT_DOUBLE_EQ(check.max_excess, 0.0);
}

TEST(SelfTime, ScopedSpansNestOnTheirThread) {
  Tracer::SetEnabled(true);
  {
    ScopedSpan outer(Layer::kOp, kKindWalk);
    { ScopedSpan inner(Layer::kCache, kKindRevalidate); }
    { ScopedSpan inner(Layer::kCache, kKindRevalidate); }
  }
  Tracer::SetEnabled(false);
  { ScopedSpan ignored(Layer::kOp, kKindWalk); }
  const std::vector<Span> spans = Tracer::Drain();
  ASSERT_EQ(spans.size(), 3u);
  const Span& outer = spans.back();  // recorded last: it closes last
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(spans[0].parent, outer.id);
  EXPECT_EQ(spans[1].parent, outer.id);
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0] + self[1] + self[2], outer.duration_ns());
  EXPECT_DOUBLE_EQ(CheckNesting(spans, self).max_excess, 0.0);
}

}  // namespace
}  // namespace vdcbench
