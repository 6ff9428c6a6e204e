#ifndef VDG_PLANNER_PLANNER_H_
#define VDG_PLANNER_PLANNER_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/client.h"
#include "estimator/estimator.h"
#include "grid/rls.h"
#include "grid/topology.h"
#include "planner/expansion.h"
#include "planner/plan.h"

namespace vdg {

/// How the planner picks an execution site for each derivation.
enum class SiteSelectionPolicy {
  kMinCost,    // minimize staging + runtime + queue penalty
  kDataLocal,  // run where the largest input volume already sits
  kRoundRobin, // spread nodes across sites blindly
  kFixed,      // everything at options.fixed_site
};

struct PlannerOptions {
  /// Site where the requester wants the data.
  std::string target_site;
  SiteSelectionPolicy site_policy = SiteSelectionPolicy::kMinCost;
  std::string fixed_site;  // for kFixed
  /// Permit satisfying the request by copying an existing replica
  /// instead of re-deriving (the virtual-data economics decision).
  bool allow_fetch = true;
  /// Skip derivations whose outputs are already materialized
  /// somewhere (the "has this been computed before?" reuse).
  bool reuse_materialized = true;
  /// Optional live queue-depth probe for cost-aware site selection.
  std::function<int(std::string_view site)> queue_depth;
  /// Optional site admission filter (return false to exclude a site —
  /// e.g. it is offline or embargoed). Applies to all policies except
  /// kFixed, which is an explicit user override.
  std::function<bool(std::string_view site)> site_filter;
  /// Estimated seconds of delay per queued job ahead of us.
  double queue_penalty_s = 1.0;
  /// Fallback size for datasets with no recorded size anywhere.
  int64_t default_dataset_bytes = 1 << 20;
};

/// Grid request planning (Section 5.2): maps "materialize dataset D at
/// site S" onto an execution plan over the simulated grid — deciding
/// rerun-vs-fetch, expanding compound transformations, resolving the
/// recursive derivation DAG, choosing sites, and costing the result
/// with the estimator. It reads the catalog through one CatalogClient.
class RequestPlanner {
 public:
  /// Borrows `client`. `rls` may be null; dataset locations then come
  /// from catalog replica records instead of the grid's replica
  /// location service.
  RequestPlanner(CatalogClient& client, const GridTopology& topology,
                 const ReplicaLocationService* rls,
                 const CostEstimator& estimator)
      : client_(client),
        topology_(topology),
        rls_(rls),
        estimator_(estimator) {}

  /// Plans materialization of `dataset` at options.target_site.
  Result<ExecutionPlan> Plan(std::string_view dataset,
                             const PlannerOptions& options) const;

  /// Just the rerun-vs-fetch decision with both cost estimates
  /// (exposed for the ABL-VIRT ablation).
  struct ModeDecision {
    MaterializationMode mode = MaterializationMode::kRerun;
    double fetch_cost_s = 0;   // infinity-like large when impossible
    double rerun_cost_s = 0;
    /// The plan rerun_cost_s was read from, when one could be built;
    /// Plan returns it rather than building it again.
    std::optional<ExecutionPlan> rerun_plan;
  };
  Result<ModeDecision> DecideMode(std::string_view dataset,
                                  const PlannerOptions& options) const;

  /// The user-facing estimation query of Section 5.3: "interactive
  /// users may query the estimator directly to assess whether or not a
  /// particular desired virtual data product is feasible — whether it
  /// can be computed in the time that the user is willing to wait".
  struct FeasibilityReport {
    bool feasible = false;
    double deadline_s = 0;
    double est_seconds = 0;  // best achievable (plan makespan or fetch)
    MaterializationMode mode = MaterializationMode::kRerun;
    size_t derivations_needed = 0;
  };
  Result<FeasibilityReport> AssessFeasibility(
      std::string_view dataset, const PlannerOptions& options,
      double deadline_s) const;

  /// All known physical locations of a dataset: the catalog's valid
  /// replicas when it recorded any copy, the RLS (when available) for
  /// datasets it never recorded. A failed catalog read yields none.
  std::vector<PhysicalLocation> LocationsOf(std::string_view dataset) const;
  bool IsMaterializedAnywhere(std::string_view dataset) const {
    return !LocationsOf(dataset).empty();
  }

  /// Best-effort size of a dataset: declared size, then replica size,
  /// then the estimator's per-transformation output estimate, then
  /// the configured default.
  int64_t DatasetBytes(std::string_view dataset,
                       const PlannerOptions& options) const;

 private:
  Result<ExecutionPlan> BuildRerunPlan(std::string_view dataset,
                                       const PlannerOptions& options) const;
  Status ResolveChain(std::string_view dataset,
                      const PlannerOptions& options,
                      std::map<std::string, size_t>* producer_of,
                      std::set<std::string>* visited_derivations,
                      std::set<std::string>* resolving,
                      std::vector<PlanNode>* nodes) const;
  Status AssignSitesAndCosts(const PlannerOptions& options,
                             ExecutionPlan* plan) const;
  /// Admissible execution sites for `node`, ranked best-first under the
  /// selection policy; never empty (falls back to the target site).
  std::vector<std::string> RankSites(const PlanNode& node, size_t node_index,
                                     const PlannerOptions& options,
                                     const ExecutionPlan& plan) const;
  double NodeCostAt(const PlanNode& node, std::string_view site,
                    const PlannerOptions& options,
                    const ExecutionPlan& plan) const;

  CatalogClient& client_;
  const GridTopology& topology_;
  const ReplicaLocationService* rls_;
  const CostEstimator& estimator_;
};

}  // namespace vdg

#endif  // VDG_PLANNER_PLANNER_H_
