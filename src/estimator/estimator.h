#ifndef VDG_ESTIMATOR_ESTIMATOR_H_
#define VDG_ESTIMATOR_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <string>

#include "catalog/client.h"
#include "common/status.h"
#include "grid/topology.h"

namespace vdg {

/// Streaming mean/variance accumulator (Welford's algorithm).
class WelfordAccumulator {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample standard deviation; 0 with fewer than two samples.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Cost estimation (Section 5.3): predicts derivation runtimes and
/// transfer times from the statistics recorded with past invocations —
/// "resource requirements recorded with provenance information can be
/// used to guide subsequent planning decisions" (Section 2).
///
/// Runtime prediction resolution order:
///   1. per-(transformation, site) history,
///   2. per-transformation history across sites,
///   3. the configured default.
class CostEstimator {
 public:
  CostEstimator() = default;

  /// Runtime assumed for transformations never seen before.
  void set_default_runtime(double seconds) { default_runtime_ = seconds; }
  double default_runtime() const { return default_runtime_; }

  /// Records one observed execution.
  void RecordRuntime(std::string_view transformation, std::string_view site,
                     double seconds);
  /// Records one observed output volume of a transformation.
  void RecordOutputSize(std::string_view transformation, int64_t bytes);

  /// Ingests every successful invocation already recorded in the
  /// catalog behind `client` (duration + site, resolved through the
  /// derivation). A failed read stops the pass with its status.
  Status LearnFromCatalog(CatalogClient& client);

  /// Predicted runtime of `transformation` at `site`.
  double EstimateRuntime(std::string_view transformation,
                         std::string_view site) const;

  /// Conservative runtime: mean + `z` standard deviations over the
  /// best available history (z = 0 reduces to EstimateRuntime; z ~= 2
  /// gives a ~97.7th-percentile bound under normal noise). Interactive
  /// feasibility questions ("can I have it within an hour?") should
  /// use this rather than the mean — a deadline met on average is
  /// missed half the time.
  double EstimateRuntimeUpperBound(std::string_view transformation,
                                   std::string_view site, double z) const;
  /// Predicted output bytes (default 0 when unobserved).
  int64_t EstimateOutputSize(std::string_view transformation) const;

  /// Predicted seconds to move `bytes` between sites.
  double EstimateTransfer(const GridTopology& topology,
                          std::string_view from, std::string_view to,
                          int64_t bytes) const;

  /// Number of runtime observations for (transformation, site);
  /// site="" aggregates across sites.
  uint64_t ObservationCount(std::string_view transformation,
                            std::string_view site = "") const;

  size_t transformation_count() const { return by_transformation_.size(); }

 private:
  static std::string Key(std::string_view tr, std::string_view site) {
    return std::string(tr) + "@" + std::string(site);
  }

  std::map<std::string, WelfordAccumulator, std::less<>> by_tr_site_;
  std::map<std::string, WelfordAccumulator, std::less<>> by_transformation_;
  std::map<std::string, WelfordAccumulator, std::less<>> output_sizes_;
  double default_runtime_ = 60.0;
};

}  // namespace vdg

#endif  // VDG_ESTIMATOR_ESTIMATOR_H_
