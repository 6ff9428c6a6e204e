#include "planner/planner.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/strings.h"

namespace vdg {

namespace {
constexpr double kImpossible = std::numeric_limits<double>::infinity();
}  // namespace

std::vector<PhysicalLocation> RequestPlanner::LocationsOf(
    std::string_view dataset) const {
  // The catalog governs *validity*: when it has replica records for
  // this dataset, only the valid ones count, even if stale physical
  // copies still sit in the RLS (post-invalidation bytes are present
  // but must not be reused). The RLS is the fallback for files the
  // catalog never recorded (e.g. scratch temporaries).
  Result<std::vector<Replica>> recorded = client_.ReplicasOf(dataset);
  if (!recorded.ok()) return {};
  if (!recorded->empty()) {
    std::vector<PhysicalLocation> out;
    for (const Replica& replica : *recorded) {
      if (!replica.valid) continue;
      PhysicalLocation loc;
      loc.site = replica.site;
      loc.storage_element = replica.storage_element;
      loc.size_bytes = replica.size_bytes;
      out.push_back(std::move(loc));
    }
    return out;
  }
  if (rls_ != nullptr) return rls_->Lookup(dataset);
  return {};
}

int64_t RequestPlanner::DatasetBytes(std::string_view dataset,
                                     const PlannerOptions& options) const {
  Result<Dataset> ds = client_.GetDataset(dataset);
  if (ds.ok() && ds->size_bytes > 0) return ds->size_bytes;
  for (const PhysicalLocation& loc : LocationsOf(dataset)) {
    if (loc.size_bytes > 0) return loc.size_bytes;
  }
  if (ds.ok() && !ds->producer.empty()) {
    Result<Derivation> dv = client_.GetDerivation(ds->producer);
    if (dv.ok()) {
      int64_t est = estimator_.EstimateOutputSize(
          StripNamespace(dv->QualifiedTransformation()));
      if (est > 0) return est;
    }
  }
  return options.default_dataset_bytes;
}

Status RequestPlanner::ResolveChain(
    std::string_view dataset, const PlannerOptions& options,
    std::map<std::string, size_t>* producer_of,
    std::set<std::string>* visited_derivations,
    std::set<std::string>* resolving, std::vector<PlanNode>* nodes) const {
  VDG_ASSIGN_OR_RETURN(std::string producer, client_.ProducerOf(dataset));
  if (visited_derivations->count(producer) != 0) return Status::OK();
  if (resolving->count(producer) != 0) {
    return Status::FailedPrecondition("derivation cycle through " + producer);
  }
  resolving->insert(producer);
  visited_derivations->insert(producer);

  VDG_ASSIGN_OR_RETURN(Derivation dv, client_.GetDerivation(producer));
  VDG_ASSIGN_OR_RETURN(std::vector<Derivation> subs,
                       ExpandDerivation(client_, dv));

  for (Derivation& sub : subs) {
    std::vector<std::string> outputs = sub.OutputDatasets();

    // Reuse: a sub-derivation whose outputs all exist already does not
    // need to run — unless it produces the dataset we were asked to
    // re-derive (the caller decided rerun-vs-fetch above us).
    bool produces_request =
        std::find(outputs.begin(), outputs.end(), std::string(dataset)) !=
        outputs.end();
    if (options.reuse_materialized && !produces_request && !outputs.empty()) {
      bool all_done = true;
      for (const std::string& out : outputs) {
        if (producer_of->count(out) != 0 || !IsMaterializedAnywhere(out)) {
          all_done = false;
          break;
        }
      }
      if (all_done) continue;
    }

    // Resolve external virtual inputs first (producers precede
    // consumers in `nodes`).
    for (const std::string& input : sub.InputDatasets()) {
      if (producer_of->count(input) != 0) continue;  // planned already
      // A materialized input is a staging leaf — except under
      // reuse_materialized=false, where everything derivable is
      // re-derived and only underivable (raw) data is staged.
      bool materialized = IsMaterializedAnywhere(input);
      bool derivable = client_.ProducerOf(input).ok();
      if (materialized && (options.reuse_materialized || !derivable)) {
        continue;
      }
      VDG_RETURN_IF_ERROR(ResolveChain(input, options, producer_of,
                                       visited_derivations, resolving,
                                       nodes));
      if (producer_of->count(input) == 0) {
        // The chain was resolved but nothing claims to produce the
        // input (e.g. its producer was skipped as materialized) —
        // re-check materialization, else the plan is unsatisfiable.
        if (!IsMaterializedAnywhere(input)) {
          return Status::FailedPrecondition(
              "input " + input + " of " + sub.name() +
              " cannot be materialized");
        }
      }
    }

    PlanNode node;
    node.transformation = StripNamespace(sub.QualifiedTransformation());
    node.inputs = sub.InputDatasets();
    node.outputs = outputs;
    node.derivation = std::move(sub);
    size_t index = nodes->size();
    for (const std::string& out : node.outputs) {
      producer_of->emplace(out, index);
    }
    nodes->push_back(std::move(node));
  }
  resolving->erase(producer);
  return Status::OK();
}

double RequestPlanner::NodeCostAt(const PlanNode& node, std::string_view site,
                                  const PlannerOptions& options,
                                  const ExecutionPlan& plan) const {
  double cost = estimator_.EstimateRuntime(node.transformation, site);
  for (const std::string& input : node.inputs) {
    int64_t bytes = DatasetBytes(input, options);
    // Input comes from its producing node's site when planned here,
    // else from its best existing location.
    double best = kImpossible;
    for (size_t dep : node.deps) {
      const PlanNode& producer = plan.nodes[dep];
      if (std::find(producer.outputs.begin(), producer.outputs.end(),
                    input) != producer.outputs.end()) {
        best = topology_.TransferSeconds(producer.site, site, bytes);
        break;
      }
    }
    if (best == kImpossible) {
      for (const PhysicalLocation& loc : LocationsOf(input)) {
        best = std::min(best, topology_.TransferSeconds(loc.site, site,
                                                        bytes));
      }
    }
    if (best != kImpossible) cost += best;
  }
  if (options.queue_depth) {
    cost += options.queue_penalty_s *
            static_cast<double>(options.queue_depth(site));
  }
  return cost;
}

namespace {

// Condor-style matchmaking: a transformation may constrain where it
// can run through `req.*` annotations —
//   req.site            comma-separated allow-list of sites
//   req.min_cpu_factor  minimum host speed factor at the site
// (the paper: a transformation's required configuration "would then
// form part of the description of the transformation, and a scheduler
// could take [it] into account when selecting resources", §4.3).
void FilterSitesByRequirements(const Transformation& tr,
                               const GridTopology& topology,
                               std::vector<std::string>* sites) {
  if (auto allowed = tr.annotations().GetString("req.site")) {
    std::vector<std::string> allow_list = StrSplitTrimmed(*allowed, ',');
    std::vector<std::string> kept;
    for (const std::string& site : *sites) {
      if (std::find(allow_list.begin(), allow_list.end(), site) !=
          allow_list.end()) {
        kept.push_back(site);
      }
    }
    *sites = std::move(kept);
  }
  if (auto min_factor = tr.annotations().GetDouble("req.min_cpu_factor")) {
    std::vector<std::string> kept;
    for (const std::string& site : *sites) {
      Result<SiteConfig> config = topology.GetSite(site);
      if (!config.ok()) continue;
      double best = 0;
      for (const HostConfig& host : config->hosts) {
        best = std::max(best, host.cpu_factor);
      }
      if (best >= *min_factor) kept.push_back(site);
    }
    *sites = std::move(kept);
  }
}

}  // namespace

std::vector<std::string> RequestPlanner::RankSites(
    const PlanNode& node, size_t node_index, const PlannerOptions& options,
    const ExecutionPlan& plan) const {
  std::vector<std::string> sites = topology_.SiteNames();
  // Matchmaking: honour the transformation's resource requirements and
  // the caller's admission filter (except under kFixed, an explicit
  // user override).
  if (options.site_policy != SiteSelectionPolicy::kFixed) {
    if (options.site_filter) {
      std::vector<std::string> admitted;
      for (const std::string& site : sites) {
        if (options.site_filter(site)) admitted.push_back(site);
      }
      sites = std::move(admitted);
    }
    Result<Transformation> tr =
        client_.GetTransformation(node.transformation);
    if (tr.ok()) FilterSitesByRequirements(*tr, topology_, &sites);
    if (sites.empty()) sites = topology_.SiteNames();  // unsatisfiable
  }
  if (sites.empty()) return {options.target_site};

  switch (options.site_policy) {
    case SiteSelectionPolicy::kFixed:
      // Explicit override: no alternates, failover is not meaningful.
      return {options.fixed_site.empty() ? options.target_site
                                         : options.fixed_site};
    case SiteSelectionPolicy::kRoundRobin: {
      // Rotate so the blindly assigned site leads and the rest follow
      // in ring order.
      std::rotate(sites.begin(),
                  sites.begin() +
                      static_cast<ptrdiff_t>(node_index % sites.size()),
                  sites.end());
      return sites;
    }
    case SiteSelectionPolicy::kDataLocal: {
      // Rank by input bytes already resident, most first.
      std::map<std::string, int64_t> bytes_at;
      for (const std::string& input : node.inputs) {
        int64_t bytes = DatasetBytes(input, options);
        bool from_dep = false;
        for (size_t dep : node.deps) {
          const PlanNode& producer = plan.nodes[dep];
          if (std::find(producer.outputs.begin(), producer.outputs.end(),
                        input) != producer.outputs.end()) {
            bytes_at[producer.site] += bytes;
            from_dep = true;
            break;
          }
        }
        if (!from_dep) {
          for (const PhysicalLocation& loc : LocationsOf(input)) {
            bytes_at[loc.site] += bytes;
            break;  // count the first location only
          }
        }
      }
      std::string best = options.target_site;
      int64_t best_bytes = -1;
      for (const auto& [site, bytes] : bytes_at) {
        // Requirements-filtered sites only.
        if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
          continue;
        }
        if (bytes > best_bytes) {
          best = site;
          best_bytes = bytes;
        }
      }
      std::vector<std::string> ranked{best};
      std::stable_sort(sites.begin(), sites.end(),
                       [&bytes_at](const std::string& a,
                                   const std::string& b) {
                         auto at = [&bytes_at](const std::string& s) {
                           auto it = bytes_at.find(s);
                           return it == bytes_at.end() ? int64_t{0}
                                                       : it->second;
                         };
                         return at(a) > at(b);
                       });
      for (const std::string& site : sites) {
        if (site != best) ranked.push_back(site);
      }
      return ranked;
    }
    case SiteSelectionPolicy::kMinCost:
      break;
  }

  // kMinCost: cheapest first; stable sort keeps the topology order as
  // the deterministic tie-break (front() matches the historical pick).
  std::vector<std::pair<double, std::string>> costed;
  costed.reserve(sites.size());
  for (const std::string& site : sites) {
    costed.emplace_back(NodeCostAt(node, site, options, plan), site);
  }
  std::stable_sort(costed.begin(), costed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::string> ranked;
  ranked.reserve(costed.size());
  for (auto& [cost, site] : costed) ranked.push_back(std::move(site));
  return ranked;
}

Status RequestPlanner::AssignSitesAndCosts(const PlannerOptions& options,
                                           ExecutionPlan* plan) const {
  // Dependency edges from the producer_of relation embodied in node
  // order: input produced by an earlier node -> dep edge.
  std::map<std::string, size_t> produced_by;
  for (size_t i = 0; i < plan->nodes.size(); ++i) {
    PlanNode& node = plan->nodes[i];
    std::set<size_t> deps;
    for (const std::string& input : node.inputs) {
      auto it = produced_by.find(input);
      if (it != produced_by.end()) deps.insert(it->second);
    }
    node.deps.assign(deps.begin(), deps.end());
    for (const std::string& output : node.outputs) {
      produced_by.emplace(output, i);
    }
  }

  std::vector<double> finish(plan->nodes.size(), 0);
  for (size_t i = 0; i < plan->nodes.size(); ++i) {
    PlanNode& node = plan->nodes[i];
    node.candidate_sites = RankSites(node, i, options, *plan);
    node.site = node.candidate_sites.front();
    node.est_runtime_s =
        estimator_.EstimateRuntime(node.transformation, node.site);

    // Staging entries + shipping-pattern classification.
    size_t local_inputs = 0;
    size_t remote_inputs = 0;
    double ready = 0;
    for (size_t dep : node.deps) {
      ready = std::max(ready, finish[dep]);
    }
    double staging_time = 0;
    for (const std::string& input : node.inputs) {
      int64_t bytes = DatasetBytes(input, options);
      std::string from_site;
      auto it = produced_by.find(input);
      if (it != produced_by.end() && it->second < i) {
        from_site = plan->nodes[it->second].site;
      } else {
        double best = kImpossible;
        for (const PhysicalLocation& loc : LocationsOf(input)) {
          double cost = topology_.TransferSeconds(loc.site, node.site, bytes);
          if (cost < best) {
            best = cost;
            from_site = loc.site;
          }
        }
        if (from_site.empty()) {
          return Status::FailedPrecondition("input " + input + " of " +
                                            node.derivation.name() +
                                            " has no source location");
        }
      }
      if (from_site == node.site) {
        ++local_inputs;
        continue;
      }
      ++remote_inputs;
      TransferPlan stage;
      stage.dataset = input;
      stage.from_site = from_site;
      stage.to_site = node.site;
      stage.bytes = bytes;
      stage.est_seconds =
          topology_.TransferSeconds(from_site, node.site, bytes);
      staging_time = std::max(staging_time, stage.est_seconds);  // parallel
      plan->est_transfer_s += stage.est_seconds;
      node.staging.push_back(std::move(stage));
    }
    if (node.inputs.empty() || remote_inputs == 0) {
      node.pattern = node.inputs.empty() ? ShippingPattern::kCollocated
                                         : ShippingPattern::kProcedureToData;
    } else if (local_inputs == 0 && node.site == options.target_site) {
      node.pattern = ShippingPattern::kDataToProcedure;
    } else if (local_inputs == 0) {
      node.pattern = ShippingPattern::kShipBoth;
    } else {
      node.pattern = ShippingPattern::kShipBoth;
    }

    plan->est_compute_s += node.est_runtime_s;
    finish[i] = ready + staging_time + node.est_runtime_s;
  }

  for (double f : finish) {
    plan->est_makespan_s = std::max(plan->est_makespan_s, f);
  }

  // Final hop: move the requested dataset to the target site when its
  // producing node runs elsewhere.
  auto it = produced_by.find(plan->target_dataset);
  if (it != produced_by.end()) {
    const PlanNode& producer = plan->nodes[it->second];
    if (producer.site != plan->target_site) {
      TransferPlan fetch;
      fetch.dataset = plan->target_dataset;
      fetch.from_site = producer.site;
      fetch.to_site = plan->target_site;
      fetch.bytes = DatasetBytes(plan->target_dataset, options);
      fetch.est_seconds = topology_.TransferSeconds(
          producer.site, plan->target_site, fetch.bytes);
      plan->est_transfer_s += fetch.est_seconds;
      plan->est_makespan_s += fetch.est_seconds;
      plan->fetches.push_back(std::move(fetch));
    }
  }
  return Status::OK();
}

Result<ExecutionPlan> RequestPlanner::BuildRerunPlan(
    std::string_view dataset, const PlannerOptions& options) const {
  ExecutionPlan plan;
  plan.target_dataset = std::string(dataset);
  plan.target_site = options.target_site;
  plan.mode = MaterializationMode::kRerun;

  std::map<std::string, size_t> producer_of;
  std::set<std::string> visited;
  std::set<std::string> resolving;
  VDG_RETURN_IF_ERROR(ResolveChain(dataset, options, &producer_of, &visited,
                                   &resolving, &plan.nodes));
  if (plan.nodes.empty()) {
    return Status::FailedPrecondition(
        "rerun plan for " + std::string(dataset) + " resolved no work");
  }
  VDG_RETURN_IF_ERROR(AssignSitesAndCosts(options, &plan));
  return plan;
}

Result<RequestPlanner::ModeDecision> RequestPlanner::DecideMode(
    std::string_view dataset, const PlannerOptions& options) const {
  VDG_ASSIGN_OR_RETURN(bool exists, client_.HasDataset(dataset));
  if (!exists) {
    return Status::NotFound("dataset not found: " + std::string(dataset));
  }
  if (!topology_.HasSite(options.target_site)) {
    return Status::NotFound("target site not found: " + options.target_site);
  }
  ModeDecision decision;

  std::vector<PhysicalLocation> locations = LocationsOf(dataset);
  for (const PhysicalLocation& loc : locations) {
    if (loc.site == options.target_site) {
      decision.mode = MaterializationMode::kAlreadyLocal;
      return decision;
    }
  }

  decision.fetch_cost_s = kImpossible;
  int64_t bytes = DatasetBytes(dataset, options);
  for (const PhysicalLocation& loc : locations) {
    decision.fetch_cost_s =
        std::min(decision.fetch_cost_s,
                 topology_.TransferSeconds(loc.site, options.target_site,
                                           bytes));
  }

  decision.rerun_cost_s = kImpossible;
  if (client_.ProducerOf(dataset).ok()) {
    Result<ExecutionPlan> rerun = BuildRerunPlan(dataset, options);
    if (rerun.ok()) {
      decision.rerun_cost_s = rerun->est_makespan_s;
      decision.rerun_plan = *std::move(rerun);
    }
  }

  if (decision.fetch_cost_s == kImpossible &&
      decision.rerun_cost_s == kImpossible) {
    return Status::FailedPrecondition(
        "dataset " + std::string(dataset) +
        " has no replica and no executable derivation chain");
  }
  if (!options.allow_fetch && decision.rerun_cost_s != kImpossible) {
    decision.mode = MaterializationMode::kRerun;
  } else if (decision.fetch_cost_s <= decision.rerun_cost_s) {
    decision.mode = MaterializationMode::kFetch;
  } else {
    decision.mode = MaterializationMode::kRerun;
  }
  return decision;
}

Result<RequestPlanner::FeasibilityReport> RequestPlanner::AssessFeasibility(
    std::string_view dataset, const PlannerOptions& options,
    double deadline_s) const {
  VDG_ASSIGN_OR_RETURN(ExecutionPlan plan, Plan(dataset, options));
  FeasibilityReport report;
  report.deadline_s = deadline_s;
  report.mode = plan.mode;
  report.est_seconds = plan.est_makespan_s;
  report.derivations_needed = plan.nodes.size();
  report.feasible = plan.est_makespan_s <= deadline_s;
  return report;
}

Result<ExecutionPlan> RequestPlanner::Plan(
    std::string_view dataset, const PlannerOptions& options) const {
  VDG_ASSIGN_OR_RETURN(ModeDecision decision, DecideMode(dataset, options));

  ExecutionPlan plan;
  plan.target_dataset = std::string(dataset);
  plan.target_site = options.target_site;
  plan.mode = decision.mode;

  switch (decision.mode) {
    case MaterializationMode::kAlreadyLocal:
      return plan;
    case MaterializationMode::kFetch: {
      int64_t bytes = DatasetBytes(dataset, options);
      std::string from;
      double best = kImpossible;
      for (const PhysicalLocation& loc : LocationsOf(dataset)) {
        double cost =
            topology_.TransferSeconds(loc.site, options.target_site, bytes);
        if (cost < best) {
          best = cost;
          from = loc.site;
        }
      }
      TransferPlan fetch;
      fetch.dataset = plan.target_dataset;
      fetch.from_site = from;
      fetch.to_site = plan.target_site;
      fetch.bytes = bytes;
      fetch.est_seconds = best;
      plan.est_transfer_s = best;
      plan.est_makespan_s = best;
      plan.fetches.push_back(std::move(fetch));
      return plan;
    }
    case MaterializationMode::kRerun:
      // kRerun is chosen only when the rerun plan could be built.
      return *std::move(decision.rerun_plan);
  }
  return Status::Internal("unreachable materialization mode");
}

}  // namespace vdg
