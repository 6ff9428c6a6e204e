#ifndef VDCBENCH_STATS_H_
#define VDCBENCH_STATS_H_

// Sample statistics and result formatting for the benchmark.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vdcbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr size_t kTailMargin = 10;

/// The highest quantile, capped at 0.99, that leaves at least
/// kTailMargin samples beyond it under the nearest-rank rule: with n
/// samples that is (n - kTailMargin) / n. Falls back to the median
/// when n is too small to support anything above it.
double TailQuantile(size_t n);

/// Nearest-rank quantile of ascending `sorted` (the value at rank
/// ceil(q * n)); 0 when empty.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Median, tail (at TailQuantile) and totals of one sample set.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_q = 0;  // the quantile `tail` was taken at
  double sum = 0;
  double max = 0;
};

Summary Summarize(std::vector<double> samples);

/// "p99", "p98.5", ...: the label of a tail quantile.
std::string TailLabel(double q);

/// Median of a small set of values (e.g. one metric over repetitions).
double Median(std::vector<double> values);

/// Shortest decimal text that reads back as exactly `value`.
std::string FormatNumber(double value);

/// Minimal ordered JSON object writer (string keys, scalar or nested
/// values); enough for the result line and the context stamp.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, int value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value);
  JsonObject& Add(const std::string& key, const JsonObject& value);

  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& text);

}  // namespace vdcbench

#endif  // VDCBENCH_STATS_H_
