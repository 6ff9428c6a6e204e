#include "provenance/provenance.h"

#include <algorithm>
#include <deque>
#include <map>

#include "common/uri.h"
#include "federation/registry.h"

namespace vdg {

size_t CountLineageNodes(const LineageNode& node) {
  size_t total = 1;
  for (const LineageNode& input : node.inputs) {
    total += CountLineageNodes(input);
  }
  return total;
}

int LineageDepth(const LineageNode& node) {
  int deepest = 0;
  for (const LineageNode& input : node.inputs) {
    deepest = std::max(deepest, 1 + LineageDepth(input));
  }
  return deepest;
}

namespace {

void RenderLineageInto(const LineageNode& node, int indent,
                       std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += node.dataset;
  if (node.derivation.empty()) {
    *out += "  [raw input]\n";
  } else {
    *out += "  <- " + node.derivation + " (" + node.transformation;
    if (!node.invocations.empty()) {
      const Invocation& last = node.invocations.back();
      *out += ", last run at " + last.context.site + "/" +
              last.context.host + " t=" + std::to_string(last.start_time);
    } else {
      *out += ", never executed: virtual";
    }
    *out += ")\n";
  }
  for (const LineageNode& input : node.inputs) {
    RenderLineageInto(input, indent + 1, out);
  }
}

}  // namespace

std::string RenderLineage(const LineageNode& node) {
  std::string out;
  RenderLineageInto(node, 0, &out);
  return out;
}

namespace {

Status DatasetNotFound(std::string_view dataset) {
  return Status::NotFound("dataset not found: " + std::string(dataset));
}

/// The provenance steps of `dataset` and of every dataset upstream of
/// it, `dataset` first, then breadth first; each dataset once.
Result<std::vector<ProvenanceStep>> Upstream(CatalogClient& client,
                                             std::string_view dataset) {
  std::vector<ProvenanceStep> steps;
  std::set<std::string, std::less<>> seen{std::string(dataset)};
  std::deque<std::string> frontier{std::string(dataset)};
  for (; !frontier.empty(); frontier.pop_front()) {
    VDG_ASSIGN_OR_RETURN(ProvenanceStep step,
                         client.GetProvenanceStep(frontier.front()));
    if (steps.empty() && !step.exists) return DatasetNotFound(dataset);
    if (step.derivation) {
      for (const std::string& input : step.derivation->InputDatasets()) {
        if (seen.insert(input).second) frontier.push_back(input);
      }
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

/// Every dataset downstream of `dataset` (excluding itself), mapped to
/// the derivation that produces it.
Result<std::map<std::string, std::string>> Downstream(
    CatalogClient& client, std::string_view dataset) {
  VDG_ASSIGN_OR_RETURN(bool exists, client.HasDataset(dataset));
  if (!exists) return DatasetNotFound(dataset);
  std::map<std::string, std::string> produced_by;
  std::deque<std::string> frontier{std::string(dataset)};
  for (; !frontier.empty(); frontier.pop_front()) {
    DerivationQuery readers;
    readers.reads_dataset = frontier.front();
    VDG_ASSIGN_OR_RETURN(NameList names, client.FindDerivations(readers));
    if (names.empty()) continue;
    std::vector<ObjectKey> keys;
    for (std::string_view name : names) {
      keys.push_back({"derivation", std::string(name)});
    }
    VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> records,
                         client.BatchGet(keys));
    for (const ObjectRecord& record : records) {
      if (!record.derivation) continue;
      for (const std::string& output : record.derivation->OutputDatasets()) {
        if (output != dataset &&
            produced_by.emplace(output, record.name).second) {
          frontier.push_back(output);
        }
      }
    }
  }
  return produced_by;
}

}  // namespace

Status ProvenanceTracker::BuildLineage(CatalogClient* from,
                                       std::string_view ref, int depth,
                                       int max_depth,
                                       std::set<std::string>* on_path,
                                       LineageNode* out) const {
  // `ref` resolves relative to the catalog holding the derivation that
  // names it: a bare name means "this server", a hyperlink hops.
  ResolvedRef link{from, std::string(ref)};
  if (registry_ != nullptr) {
    VDG_ASSIGN_OR_RETURN(link, registry_->Resolve(from, ref));
    if (link.remote) ++last_hops_;
  }
  CatalogClient& client = *link.client;
  // One compound call per link: existence, producer, derivation and
  // invocations arrive together.
  VDG_ASSIGN_OR_RETURN(ProvenanceStep step,
                       client.GetProvenanceStep(link.local_name));
  if (!step.exists) {
    return DatasetNotFound(link.local_name + " at " + client.authority());
  }
  // Across servers every node names its server.
  auto node_name = [&](std::string_view local) {
    return registry_ == nullptr ? std::string(local)
                                : MakeVdpRef(client.authority(), local);
  };
  const std::string dataset = node_name(link.local_name);
  if (on_path->count(dataset) != 0) {
    return Status::FailedPrecondition("provenance cycle detected through " +
                                      dataset);
  }
  out->dataset = dataset;

  if (step.producer.empty()) return Status::OK();  // raw input: leaf node

  out->derivation = node_name(step.producer);
  if (!step.derivation) {
    return Status::NotFound("derivation not found: " + step.producer +
                            " at " + client.authority());
  }
  out->transformation = step.derivation->QualifiedTransformation();
  out->invocations = std::move(step.invocations);

  if (max_depth != 0 && depth >= max_depth) return Status::OK();

  on_path->insert(dataset);
  for (const std::string& input : step.derivation->InputDatasets()) {
    LineageNode child;
    VDG_RETURN_IF_ERROR(
        BuildLineage(&client, input, depth + 1, max_depth, on_path, &child));
    out->inputs.push_back(std::move(child));
  }
  on_path->erase(dataset);
  return Status::OK();
}

Result<LineageNode> ProvenanceTracker::Lineage(std::string_view dataset,
                                               int max_depth) const {
  last_hops_ = 0;
  LineageNode root;
  std::set<std::string> on_path;
  VDG_RETURN_IF_ERROR(
      BuildLineage(&client_, dataset, 0, max_depth, &on_path, &root));
  return root;
}

Result<std::set<std::string>> ProvenanceTracker::Ancestors(
    std::string_view dataset) const {
  VDG_ASSIGN_OR_RETURN(std::vector<ProvenanceStep> steps,
                       Upstream(client_, dataset));
  std::set<std::string> ancestors;
  for (size_t i = 1; i < steps.size(); ++i) {
    ancestors.insert(std::move(steps[i].dataset));
  }
  return ancestors;
}

Result<std::set<std::string>> ProvenanceTracker::Descendants(
    std::string_view dataset) const {
  VDG_ASSIGN_OR_RETURN(auto downstream, Downstream(client_, dataset));
  std::set<std::string> descendants;
  for (const auto& [name, producer] : downstream) descendants.insert(name);
  return descendants;
}

Result<std::set<std::string>> ProvenanceTracker::RawSources(
    std::string_view dataset) const {
  VDG_ASSIGN_OR_RETURN(std::vector<ProvenanceStep> steps,
                       Upstream(client_, dataset));
  std::set<std::string> raw;
  for (ProvenanceStep& step : steps) {
    if (step.producer.empty()) raw.insert(std::move(step.dataset));
  }
  return raw;
}

Result<std::vector<Invocation>> ProvenanceTracker::AuditTrail(
    std::string_view dataset) const {
  VDG_ASSIGN_OR_RETURN(std::vector<ProvenanceStep> steps,
                       Upstream(client_, dataset));
  std::vector<Invocation> trail;
  std::set<std::string> seen_derivations;
  for (ProvenanceStep& step : steps) {
    if (step.producer.empty()) continue;
    if (!seen_derivations.insert(step.producer).second) continue;
    for (Invocation& iv : step.invocations) trail.push_back(std::move(iv));
  }
  std::sort(trail.begin(), trail.end(),
            [](const Invocation& a, const Invocation& b) {
              if (a.start_time != b.start_time) {
                return a.start_time < b.start_time;
              }
              return a.id < b.id;
            });
  return trail;
}

Result<InvalidationReport> ProvenanceTracker::PlanInvalidation(
    std::string_view dataset) const {
  VDG_ASSIGN_OR_RETURN(auto downstream, Downstream(client_, dataset));
  InvalidationReport report;
  report.source_dataset = std::string(dataset);
  std::set<std::string> derivations;
  for (const auto& [name, producer] : downstream) {
    report.affected_datasets.push_back(name);
    derivations.insert(producer);
    VDG_ASSIGN_OR_RETURN(std::vector<Replica> replicas,
                         client_.ReplicasOf(name));
    for (const Replica& replica : replicas) {
      if (replica.valid) report.invalidated_replicas.push_back(replica.id);
    }
  }
  report.derivations_to_rerun.assign(derivations.begin(), derivations.end());
  return report;
}

Result<InvalidationReport> ProvenanceTracker::Invalidate(
    std::string_view dataset) const {
  if (client_.read_only()) {
    return Status::PermissionDenied("catalog client for '" +
                                    client_.authority() + "' is read-only");
  }
  VDG_ASSIGN_OR_RETURN(InvalidationReport report, PlanInvalidation(dataset));
  if (report.invalidated_replicas.empty()) return report;
  std::vector<CatalogMutation> invalidations;
  for (const std::string& replica_id : report.invalidated_replicas) {
    invalidations.push_back(CatalogMutation::InvalidateReplica(replica_id));
  }
  VDG_ASSIGN_OR_RETURN(BatchResult result, client_.ApplyBatch(invalidations));
  VDG_RETURN_IF_ERROR(result.first_error);
  return report;
}

Result<bool> ProvenanceTracker::FullyMaterialized(
    std::string_view dataset) const {
  VDG_ASSIGN_OR_RETURN(std::vector<ProvenanceStep> steps,
                       Upstream(client_, dataset));
  std::vector<ObjectKey> keys;
  for (ProvenanceStep& step : steps) {
    keys.push_back({"dataset", std::move(step.dataset)});
  }
  VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> records,
                       client_.BatchGet(keys));
  return std::all_of(records.begin(), records.end(),
                     [](const ObjectRecord& r) { return r.materialized; });
}

}  // namespace vdg
