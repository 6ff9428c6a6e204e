#include "estimator/estimator.h"

#include <cmath>

namespace vdg {

void WelfordAccumulator::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double WelfordAccumulator::stddev() const {
  if (count_ < 2) return 0;
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

void CostEstimator::RecordRuntime(std::string_view transformation,
                                  std::string_view site, double seconds) {
  by_tr_site_[Key(transformation, site)].Add(seconds);
  by_transformation_[std::string(transformation)].Add(seconds);
}

void CostEstimator::RecordOutputSize(std::string_view transformation,
                                     int64_t bytes) {
  output_sizes_[std::string(transformation)].Add(
      static_cast<double>(bytes));
}

Status CostEstimator::LearnFromCatalog(CatalogClient& client) {
  VDG_ASSIGN_OR_RETURN(NameList derivations, client.AllNames("derivation"));
  for (std::string_view dv_name : derivations) {
    VDG_ASSIGN_OR_RETURN(Derivation dv, client.GetDerivation(dv_name));
    std::string tr = dv.QualifiedTransformation();
    VDG_ASSIGN_OR_RETURN(std::vector<Invocation> invocations,
                         client.InvocationsOf(dv_name));
    for (const Invocation& iv : invocations) {
      if (!iv.succeeded) continue;
      RecordRuntime(tr, iv.context.site, iv.duration_s);
    }
    for (const std::string& output : dv.OutputDatasets()) {
      Result<Dataset> ds = client.GetDataset(output);
      if (!ds.ok() && !ds.status().IsNotFound()) return ds.status();
      if (ds.ok() && ds->size_bytes > 0) {
        RecordOutputSize(tr, ds->size_bytes);
      }
    }
  }
  return Status::OK();
}

double CostEstimator::EstimateRuntime(std::string_view transformation,
                                      std::string_view site) const {
  auto local = by_tr_site_.find(Key(transformation, site));
  if (local != by_tr_site_.end() && local->second.count() > 0) {
    return local->second.mean();
  }
  auto global = by_transformation_.find(transformation);
  if (global != by_transformation_.end() && global->second.count() > 0) {
    return global->second.mean();
  }
  return default_runtime_;
}

double CostEstimator::EstimateRuntimeUpperBound(
    std::string_view transformation, std::string_view site,
    double z) const {
  auto local = by_tr_site_.find(Key(transformation, site));
  if (local != by_tr_site_.end() && local->second.count() > 0) {
    return local->second.mean() + z * local->second.stddev();
  }
  auto global = by_transformation_.find(transformation);
  if (global != by_transformation_.end() && global->second.count() > 0) {
    return global->second.mean() + z * global->second.stddev();
  }
  return default_runtime_;
}

int64_t CostEstimator::EstimateOutputSize(
    std::string_view transformation) const {
  auto it = output_sizes_.find(transformation);
  if (it == output_sizes_.end() || it->second.count() == 0) return 0;
  return static_cast<int64_t>(it->second.mean());
}

double CostEstimator::EstimateTransfer(const GridTopology& topology,
                                       std::string_view from,
                                       std::string_view to,
                                       int64_t bytes) const {
  return topology.TransferSeconds(from, to, bytes);
}

uint64_t CostEstimator::ObservationCount(std::string_view transformation,
                                         std::string_view site) const {
  if (site.empty()) {
    auto it = by_transformation_.find(transformation);
    return it == by_transformation_.end() ? 0 : it->second.count();
  }
  auto it = by_tr_site_.find(Key(transformation, site));
  return it == by_tr_site_.end() ? 0 : it->second.count();
}

}  // namespace vdg
