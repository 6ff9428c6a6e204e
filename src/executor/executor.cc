#include "executor/executor.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "planner/planner.h"

namespace vdg {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;

/// The dataset's valid replicas; none when the read fails.
std::vector<Replica> ValidReplicasOf(CatalogClient& client,
                                     std::string_view dataset) {
  Result<std::vector<Replica>> replicas = client.ReplicasOf(dataset);
  if (!replicas.ok()) return {};
  std::erase_if(*replicas, [](const Replica& r) { return !r.valid; });
  return *std::move(replicas);
}
}  // namespace

double WorkflowEngine::NominalRuntime(const NodeState& node) const {
  double base = options_.default_runtime_s;
  double per_mb = 0;
  if (const std::optional<Transformation>& tr = node.transformation) {
    if (auto v = tr->annotations().GetDouble("sim.runtime_s")) base = *v;
    if (auto v = tr->annotations().GetDouble("sim.runtime_s_per_mb")) {
      per_mb = *v;
    }
  }
  return base + per_mb * (static_cast<double>(node.input_bytes) / kMiB);
}

int64_t WorkflowEngine::InputBytes(const PlanNode& node) const {
  int64_t total = 0;
  for (const std::string& input : node.inputs) {
    Result<Dataset> ds = client_.GetDataset(input);
    if (ds.ok() && ds->size_bytes > 0) {
      total += ds->size_bytes;
    } else {
      for (const PhysicalLocation& loc : grid_->rls().Lookup(input)) {
        total += loc.size_bytes;
        break;
      }
    }
  }
  return total;
}

int64_t WorkflowEngine::StagedBytes(const std::string& dataset) const {
  Result<Dataset> ds = client_.GetDataset(dataset);
  if (ds.ok() && ds->size_bytes > 0) return ds->size_bytes;
  for (const PhysicalLocation& loc : grid_->rls().Lookup(dataset)) {
    if (loc.size_bytes > 0) return loc.size_bytes;
  }
  for (const Replica& replica : ValidReplicasOf(client_, dataset)) {
    if (replica.size_bytes > 0) return replica.size_bytes;
  }
  return options_.default_output_bytes;
}

int64_t WorkflowEngine::OutputBytes(const NodeState& node,
                                    const Result<Dataset>& declared) const {
  // A declared dataset size wins.
  if (declared.ok() && declared->size_bytes > 0) return declared->size_bytes;
  const int64_t input_bytes = node.input_bytes;
  if (const std::optional<Transformation>& tr = node.transformation) {
    if (auto v = tr->annotations().GetDouble("sim.output_mb")) {
      return static_cast<int64_t>(*v * kMiB);
    }
    if (auto v = tr->annotations().GetDouble("sim.output_ratio")) {
      if (input_bytes > 0) {
        return static_cast<int64_t>(*v *
                                    static_cast<double>(input_bytes));
      }
    }
  }
  if (input_bytes > 0) return input_bytes;
  return options_.default_output_bytes;
}

WorkflowEngine::WorkflowState* WorkflowEngine::FindWorkflow(uint64_t id) {
  auto it = workflows_.find(id);
  return it == workflows_.end() ? nullptr : it->second.get();
}

double WorkflowEngine::BackoffDelay(int attempt) const {
  const FaultPolicy& faults = options_.faults;
  double delay = faults.backoff_base_s;
  for (int i = 1; i < attempt; ++i) delay *= faults.backoff_multiplier;
  return std::min(delay, faults.backoff_max_s);
}

bool WorkflowEngine::IsSiteUsable(std::string_view site) const {
  if (grid_->IsSiteOffline(site)) return false;
  auto it = site_health_.find(site);
  return it == site_health_.end() ||
         it->second.blacklisted_until <= grid_->now();
}

void WorkflowEngine::NoteSiteFailure(const std::string& site,
                                     WorkflowState* wf) {
  const FaultPolicy& faults = options_.faults;
  if (faults.blacklist_threshold <= 0) return;
  SiteHealth& health = site_health_[site];
  if (++health.consecutive_failures >= faults.blacklist_threshold) {
    health.blacklisted_until = grid_->now() + faults.blacklist_cooldown_s;
    health.consecutive_failures = 0;
    ++wf->result.recovery.sites_blacklisted;
    VDG_LOG(Info) << "site " << site << " blacklisted until "
                  << health.blacklisted_until;
  }
}

void WorkflowEngine::NoteSiteSuccess(const std::string& site) {
  auto it = site_health_.find(site);
  if (it != site_health_.end()) it->second.consecutive_failures = 0;
}

Result<uint64_t> WorkflowEngine::Submit(const ExecutionPlan& plan,
                                        CompletionCallback on_done) {
  auto wf = std::make_unique<WorkflowState>();
  wf->id = next_workflow_id_++;
  wf->plan = plan;
  wf->start_time = grid_->now();
  wf->on_done = std::move(on_done);
  wf->result.workflow_id = wf->id;
  wf->result.start_time = wf->start_time;
  wf->result.nodes_total = plan.nodes.size();

  wf->nodes.reserve(plan.nodes.size());
  for (const PlanNode& node : plan.nodes) {
    NodeState state;
    state.plan = node;
    state.pending_deps = node.deps.size();
    state.current_site = node.site;
    state.execution.derivation = node.derivation.name();
    state.execution.site = node.site;
    wf->nodes.push_back(std::move(state));
  }
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    for (size_t dep : plan.nodes[i].deps) {
      if (dep >= wf->nodes.size()) {
        return Status::InvalidArgument("plan node " + std::to_string(i) +
                                       " has out-of-range dependency");
      }
      wf->nodes[dep].dependents.push_back(i);
    }
  }
  wf->remaining = wf->nodes.size();
  wf->fetches.reserve(plan.fetches.size());
  for (const TransferPlan& fetch : plan.fetches) {
    FetchState fs;
    fs.plan = fetch;
    wf->fetches.push_back(std::move(fs));
  }

  WorkflowState* raw = wf.get();
  // An already-local plan (no nodes, no fetches) completes synchronously
  // inside RunFetches, which erases the state — capture the id first.
  const uint64_t id = raw->id;
  workflows_.emplace(id, std::move(wf));

  if (raw->nodes.empty()) {
    // Pure-fetch or already-local plan.
    RunFetches(raw);
  } else {
    for (size_t i = 0; i < raw->nodes.size(); ++i) {
      if (raw->nodes[i].pending_deps == 0) StartNode(raw, i);
    }
  }
  return id;
}

void WorkflowEngine::StartNode(WorkflowState* wf, size_t index) {
  NodeState& node = wf->nodes[index];
  node.execution.attempts = 0;
  BeginAttempt(wf, index);
}

void WorkflowEngine::BeginAttempt(WorkflowState* wf, size_t index) {
  NodeState& node = wf->nodes[index];
  ++node.execution.attempts;
  node.execution.site = node.current_site;
  BeginStaging(wf, index);
}

void WorkflowEngine::BeginStaging(WorkflowState* wf, size_t index) {
  NodeState& node = wf->nodes[index];
  const FaultPolicy& faults = options_.faults;
  const std::string& dest = node.current_site;

  // Staging needs are recomputed live on every attempt — a retry after
  // a crash or failover must not trust the plan-time picture of where
  // data lives.
  std::vector<TransferPlan> transfers;
  std::vector<std::string> to_rederive;
  const ReplicaLocationService& rls = grid_->rls();
  for (const std::string& input : node.plan.inputs) {
    if (rls.ExistsAt(input, dest)) continue;  // already local
    Result<PhysicalLocation> best = rls.BestSource(input, dest,
                                                   grid_->topology());
    if (best.ok()) {
      if (best->site == dest) continue;
      TransferPlan stage;
      stage.dataset = input;
      stage.from_site = best->site;
      stage.to_site = dest;
      stage.bytes = best->size_bytes > 0 ? best->size_bytes
                                         : StagedBytes(input);
      transfers.push_back(std::move(stage));
      continue;
    }
    // No physically resident copy anywhere. The catalog may still
    // carry valid replica records — either data lost to a crash, or a
    // catalog-only registration that was never backed by bytes.
    std::vector<Replica> claimed = ValidReplicasOf(client_, input);
    bool derivable = client_.ProducerOf(input).ok();
    // The recoveries queued earlier in this same pass count against
    // the ceiling too; RederiveInput only bumps node.rederivations
    // once each launches.
    bool can_rederive = faults.rederive_lost_inputs && derivable &&
                        node.rederivations +
                                static_cast<int>(to_rederive.size()) <
                            faults.max_rederivations_per_node;
    if (can_rederive) {
      to_rederive.push_back(input);
      continue;
    }
    if (!claimed.empty()) {
      // Trust the catalog record (the seed behaviour): stage from the
      // cheapest claimed site.
      const Replica* chosen = nullptr;
      double best_cost = 0;
      for (const Replica& replica : claimed) {
        double cost = grid_->topology().TransferSeconds(
            replica.site, dest, replica.size_bytes);
        if (chosen == nullptr || cost < best_cost) {
          chosen = &replica;
          best_cost = cost;
        }
      }
      if (chosen->site == dest) continue;
      TransferPlan stage;
      stage.dataset = input;
      stage.from_site = chosen->site;
      stage.to_site = dest;
      stage.bytes = chosen->size_bytes > 0 ? chosen->size_bytes
                                           : StagedBytes(input);
      transfers.push_back(std::move(stage));
      continue;
    }
    VDG_LOG(Warning) << "input " << input << " of "
                     << node.plan.derivation.name()
                     << " has no source and cannot be re-derived";
    HandleNodeFailure(wf, index, "missing input");
    return;
  }

  if (!to_rederive.empty()) {
    // Launch recovery sub-workflows; staging resumes (recomputed from
    // scratch) once the last one completes.
    node.pending_recoveries = to_rederive.size();
    for (const std::string& input : to_rederive) {
      RederiveInput(wf, index, input);
    }
    return;
  }

  node.pending_transfers = transfers.size();
  if (node.pending_transfers == 0) {
    LaunchJob(wf, index);
    return;
  }
  const uint64_t wf_id = wf->id;
  const uint64_t gen = node.generation;
  for (const TransferPlan& stage : transfers) {
    wf->result.transfers++;
    wf->result.bytes_staged += stage.bytes;
    ++wf->result.recovery.transfer_attempts;
    Result<uint64_t> submitted = grid_->SubmitTransfer(
        stage.from_site, stage.to_site, stage.bytes,
        [this, wf_id, index, gen](const TransferResult& result) {
          WorkflowState* state = FindWorkflow(wf_id);
          if (state == nullptr) return;
          NodeState& n = state->nodes[index];
          if (n.generation != gen || n.done || n.failed) return;
          if (!result.succeeded) {
            ++state->result.recovery.transfer_failures;
            HandleNodeFailure(state, index, "staging transfer failed");
            return;
          }
          if (--n.pending_transfers == 0) LaunchJob(state, index);
        });
    if (!submitted.ok()) {
      // Endpoint offline/crashed at submit time: a transient fault,
      // not a dead node — back off and retry like any other failure.
      ++wf->result.recovery.submit_rejections;
      VDG_LOG(Info) << "staging transfer rejected: "
                    << submitted.status().ToString();
      HandleNodeFailure(wf, index, "staging submit rejected");
      return;  // generation bump stales the transfers already in flight
    }
  }
}

void WorkflowEngine::LaunchJob(WorkflowState* wf, size_t index) {
  NodeState& node = wf->nodes[index];
  // Read once per attempt; FinishNode sizes the outputs from the same.
  Result<Transformation> tr =
      client_.GetTransformation(node.plan.transformation);
  node.transformation.reset();
  if (tr.ok()) node.transformation = *std::move(tr);
  node.input_bytes = InputBytes(node.plan);
  double runtime = NominalRuntime(node);
  const uint64_t wf_id = wf->id;
  const uint64_t gen = node.generation;
  ++wf->result.recovery.job_attempts;
  Result<uint64_t> submitted = grid_->SubmitJob(
      node.current_site, runtime,
      [this, wf_id, index, gen](const JobResult& job) {
        WorkflowState* state = FindWorkflow(wf_id);
        if (state == nullptr) return;
        NodeState& n = state->nodes[index];
        // A stale generation is a completion from an abandoned attempt
        // (timeout or failover already moved on): drop it.
        if (n.generation != gen || n.done || n.failed) return;
        FinishNode(state, index, job);
      });
  if (!submitted.ok()) {
    ++wf->result.recovery.submit_rejections;
    VDG_LOG(Info) << "job submission rejected: "
                  << submitted.status().ToString();
    HandleNodeFailure(wf, index, "job submit rejected");
    return;
  }
  if (options_.faults.node_timeout_s > 0) {
    grid_->events().ScheduleAfter(
        options_.faults.node_timeout_s, [this, wf_id, index, gen]() {
          WorkflowState* state = FindWorkflow(wf_id);
          if (state == nullptr) return;
          NodeState& n = state->nodes[index];
          if (n.generation != gen || n.done || n.failed) return;
          ++state->result.recovery.node_timeouts;
          NoteSiteFailure(n.current_site, state);
          HandleNodeFailure(state, index, "node timeout");
        });
  }
}

void WorkflowEngine::FinishNode(WorkflowState* wf, size_t index,
                                const JobResult& job) {
  NodeState& node = wf->nodes[index];
  if (!job.succeeded) {
    ++wf->result.recovery.job_failures;
    NoteSiteFailure(node.current_site, wf);
    HandleNodeFailure(wf, index, "job failed");
    return;
  }

  NoteSiteSuccess(node.current_site);
  node.done = true;
  node.execution.succeeded = true;
  node.execution.start_time = job.start_time;
  node.execution.end_time = job.end_time;
  node.execution.host = job.host;
  node.execution.site = job.site;
  ++wf->result.nodes_succeeded;
  --wf->remaining;

  // Materialize outputs at the execution site; the write-back records
  // the same sizes.
  std::vector<JobOutput> outputs;
  for (const std::string& output : node.plan.outputs) {
    Result<Dataset> declared = client_.GetDataset(output);
    JobOutput& out = outputs.emplace_back();
    out.bytes = OutputBytes(node, declared);
    out.unsized = declared.ok() && declared->size_bytes == 0;
    Status placed = grid_->PlaceFile(node.current_site, output, out.bytes);
    if (!placed.ok() && !placed.IsAlreadyExists()) {
      VDG_LOG(Warning) << "output placement failed: " << placed.ToString();
    }
  }
  if (options_.record_provenance) RecordProvenance(node, job, outputs);

  for (size_t dependent : node.dependents) {
    NodeState& next = wf->nodes[dependent];
    if (next.failed || next.done) continue;
    if (--next.pending_deps == 0) StartNode(wf, dependent);
  }
  MaybeFinishWorkflow(wf);
}

void WorkflowEngine::HandleNodeFailure(WorkflowState* wf, size_t index,
                                       const char* reason) {
  NodeState& node = wf->nodes[index];
  if (node.done || node.failed) return;
  // Abandon the current attempt: whatever is still in flight for it
  // (late job completion, sibling transfers, the timeout) goes stale.
  ++node.generation;

  if (node.execution.attempts > options_.max_retries) {
    VDG_LOG(Warning) << "node " << node.plan.derivation.name()
                     << " failed permanently after "
                     << node.execution.attempts
                     << " attempts (last: " << reason << ")";
    FailNodePermanently(wf, index);
    return;
  }

  // Failover: when the current site is offline or benched, move to the
  // best usable alternate before retrying.
  if (options_.faults.enable_failover && !IsSiteUsable(node.current_site)) {
    std::vector<std::string> fallback;
    const std::vector<std::string>* candidates = &node.plan.candidate_sites;
    if (candidates->empty()) {
      fallback.push_back(node.plan.site);
      candidates = &fallback;
    }
    for (const std::string& candidate : *candidates) {
      if (candidate == node.current_site || !IsSiteUsable(candidate)) {
        continue;
      }
      VDG_LOG(Info) << "node " << node.plan.derivation.name()
                    << " failing over " << node.current_site << " -> "
                    << candidate;
      node.current_site = candidate;
      ++wf->result.recovery.failovers;
      break;
    }
  }
  ScheduleRetry(wf, index);
}

void WorkflowEngine::ScheduleRetry(WorkflowState* wf, size_t index) {
  NodeState& node = wf->nodes[index];
  double delay = BackoffDelay(node.execution.attempts);
  ++wf->result.recovery.backoff_waits;
  wf->result.recovery.total_backoff_s += delay;
  const uint64_t wf_id = wf->id;
  const uint64_t gen = node.generation;
  grid_->events().ScheduleAfter(delay, [this, wf_id, index, gen]() {
    WorkflowState* state = FindWorkflow(wf_id);
    if (state == nullptr) return;
    NodeState& n = state->nodes[index];
    if (n.generation != gen || n.done || n.failed) return;
    BeginAttempt(state, index);
  });
}

void WorkflowEngine::FailNodePermanently(WorkflowState* wf, size_t index) {
  NodeState& node = wf->nodes[index];
  node.failed = true;
  node.execution.succeeded = false;
  if (node.execution.end_time == 0) node.execution.end_time = grid_->now();
  ++wf->result.nodes_failed;
  SkipUnreachable(wf, index);
}

void WorkflowEngine::RederiveInput(WorkflowState* wf, size_t index,
                                   const std::string& input) {
  NodeState& node = wf->nodes[index];
  ++node.rederivations;
  ++wf->result.recovery.rederivations;

  // The catalog's replica records for this input are fiction now —
  // invalidate them so the recovery planner re-runs the derivation
  // instead of "fetching" from a site that lost the bytes.
  for (const Replica& replica : ValidReplicasOf(client_, input)) {
    if (!grid_->rls().ExistsAt(input, replica.site)) {
      ++wf->result.recovery.replicas_lost_detected;
      Status invalidated = client_.InvalidateReplica(replica.id);
      if (!invalidated.ok()) {
        VDG_LOG(Warning) << "cannot invalidate lost replica "
                         << replica.id << ": " << invalidated.ToString();
      }
    }
  }

  const uint64_t wf_id = wf->id;
  const uint64_t gen = node.generation;
  auto finish_recovery = [this, wf_id, index, gen](bool succeeded) {
    WorkflowState* state = FindWorkflow(wf_id);
    if (state == nullptr) return;
    NodeState& n = state->nodes[index];
    if (!succeeded) n.recovery_failed = true;
    if (--n.pending_recoveries > 0) return;
    if (n.generation != gen || n.done || n.failed) return;
    bool failed = n.recovery_failed;
    n.recovery_failed = false;
    if (failed) {
      HandleNodeFailure(state, index, "re-derivation failed");
    } else {
      BeginStaging(state, index);
    }
  };

  RequestPlanner planner(client_, grid_->topology(), &grid_->rls(),
                         recovery_estimator_);
  PlannerOptions popt;
  popt.target_site = node.current_site;
  popt.site_filter = [this](std::string_view site) {
    return IsSiteUsable(site);
  };
  Result<ExecutionPlan> plan = planner.Plan(input, popt);
  if (!plan.ok()) {
    VDG_LOG(Warning) << "cannot plan re-derivation of " << input << ": "
                     << plan.status().ToString();
    finish_recovery(false);
    return;
  }

  VDG_LOG(Info) << "re-deriving lost input " << input << " at "
                << node.current_site;
  Result<uint64_t> recovery_id = Submit(
      *plan,
      [this, wf_id, input, finish_recovery](const WorkflowResult& result) {
        if (result.succeeded) {
          // Record the recovery in provenance: the dataset was rebuilt
          // from its derivation after its replicas were lost.
          client_.Annotate("dataset", input, "recovery.rederived", true);
          client_.Annotate("dataset", input, "recovery.by_workflow",
                           static_cast<int64_t>(result.workflow_id));
          WorkflowState* parent = FindWorkflow(wf_id);
          if (parent != nullptr) {
            ++parent->result.recovery.datasets_regenerated;
          }
        }
        finish_recovery(result.succeeded);
      });
  if (!recovery_id.ok()) {
    VDG_LOG(Warning) << "cannot submit re-derivation of " << input << ": "
                     << recovery_id.status().ToString();
    finish_recovery(false);
  }
}

void WorkflowEngine::SkipUnreachable(WorkflowState* wf, size_t index) {
  wf->any_failure = true;
  --wf->remaining;
  // Everything downstream of a dead node can never run.
  std::vector<size_t> frontier{index};
  while (!frontier.empty()) {
    size_t current = frontier.back();
    frontier.pop_back();
    for (size_t dependent : wf->nodes[current].dependents) {
      NodeState& next = wf->nodes[dependent];
      if (next.failed || next.done) continue;
      next.failed = true;
      ++wf->result.nodes_skipped;
      --wf->remaining;
      frontier.push_back(dependent);
    }
  }
  MaybeFinishWorkflow(wf);
}

void WorkflowEngine::MaybeFinishWorkflow(WorkflowState* wf) {
  if (wf->remaining > 0) return;
  if (wf->any_failure) {
    CompleteWorkflow(wf);
    return;
  }
  RunFetches(wf);
}

void WorkflowEngine::RunFetches(WorkflowState* wf) {
  if (wf->fetches.empty()) {
    CompleteWorkflow(wf);
    return;
  }
  const uint64_t wf_id = wf->id;
  const size_t fetch_count = wf->fetches.size();
  wf->pending_fetches = fetch_count;
  for (size_t i = 0; i < fetch_count; ++i) {
    // A fetch can finish synchronously (dataset already at the
    // destination, or a rejected submit past the retry budget). If the
    // last one completes the workflow, the state is erased out from
    // under this loop — re-resolve it by id every iteration.
    WorkflowState* state = FindWorkflow(wf_id);
    if (state == nullptr) return;
    RunFetch(state, i);
  }
}

void WorkflowEngine::RunFetch(WorkflowState* wf, size_t fetch_index) {
  FetchState& fetch = wf->fetches[fetch_index];
  ++fetch.attempts;
  const std::string& dataset = fetch.plan.dataset;
  const std::string& to_site = fetch.plan.to_site;

  // Re-resolve the source each attempt: the planned source may have
  // crashed, and a retry should pull from whoever still has the bytes.
  std::string from_site = fetch.plan.from_site;
  int64_t bytes = fetch.plan.bytes;
  Result<PhysicalLocation> best =
      grid_->rls().BestSource(dataset, to_site, grid_->topology());
  if (best.ok()) {
    if (best->site == to_site) {
      // Already at the destination — nothing to move.
      FinishFetch(wf, fetch_index, true);
      return;
    }
    from_site = best->site;
    if (best->size_bytes > 0) bytes = best->size_bytes;
  }

  wf->result.transfers++;
  wf->result.bytes_staged += bytes;
  ++wf->result.recovery.transfer_attempts;
  const uint64_t wf_id = wf->id;
  Result<uint64_t> submitted = grid_->SubmitTransfer(
      from_site, to_site, bytes,
      [this, wf_id, fetch_index, dataset, to_site,
       bytes](const TransferResult& result) {
        WorkflowState* state = FindWorkflow(wf_id);
        if (state == nullptr) return;
        FetchState& f = state->fetches[fetch_index];
        if (f.done) return;
        if (!result.succeeded) {
          ++state->result.recovery.transfer_failures;
          if (f.attempts > options_.max_retries) {
            FinishFetch(state, fetch_index, false);
            return;
          }
          double delay = BackoffDelay(f.attempts);
          ++state->result.recovery.backoff_waits;
          state->result.recovery.total_backoff_s += delay;
          grid_->events().ScheduleAfter(delay, [this, wf_id,
                                                fetch_index]() {
            WorkflowState* s = FindWorkflow(wf_id);
            if (s == nullptr || s->fetches[fetch_index].done) return;
            RunFetch(s, fetch_index);
          });
          return;
        }
        Status placed = grid_->PlaceFile(to_site, dataset, bytes);
        if (!placed.ok() && !placed.IsAlreadyExists()) {
          VDG_LOG(Warning) << "fetch placement failed: "
                           << placed.ToString();
        }
        FinishFetch(state, fetch_index, true);
      });
  if (!submitted.ok()) {
    ++wf->result.recovery.submit_rejections;
    if (fetch.attempts > options_.max_retries) {
      FinishFetch(wf, fetch_index, false);
      return;
    }
    double delay = BackoffDelay(fetch.attempts);
    ++wf->result.recovery.backoff_waits;
    wf->result.recovery.total_backoff_s += delay;
    grid_->events().ScheduleAfter(delay, [this, wf_id, fetch_index]() {
      WorkflowState* s = FindWorkflow(wf_id);
      if (s == nullptr || s->fetches[fetch_index].done) return;
      RunFetch(s, fetch_index);
    });
  }
}

void WorkflowEngine::FinishFetch(WorkflowState* wf, size_t fetch_index,
                                 bool succeeded) {
  FetchState& fetch = wf->fetches[fetch_index];
  if (fetch.done) return;
  fetch.done = true;
  if (!succeeded) wf->any_failure = true;
  if (--wf->pending_fetches == 0) CompleteWorkflow(wf);
}

void WorkflowEngine::CompleteWorkflow(WorkflowState* wf) {
  wf->result.succeeded = !wf->any_failure;
  wf->result.end_time = grid_->now();
  wf->result.makespan_s = wf->result.end_time - wf->start_time;

  std::vector<NodeExecution> executions;
  executions.reserve(wf->nodes.size());
  for (const NodeState& node : wf->nodes) {
    executions.push_back(node.execution);
  }
  finished_executions_.emplace(wf->id, std::move(executions));
  finished_plans_.emplace(wf->id,
                          std::make_pair(wf->plan, wf->result.succeeded));

  WorkflowResult result = wf->result;
  CompletionCallback on_done = std::move(wf->on_done);
  workflows_.erase(wf->id);
  if (on_done) on_done(result);
}

void WorkflowEngine::RecordProvenance(const NodeState& node,
                                      const JobResult& job,
                                      const std::vector<JobOutput>& outputs) {
  const PlanNode& plan = node.plan;
  // All reads up front, then the whole write-back ships as ONE batch:
  // over an RPC transport that is one round trip instead of one per
  // replica/size/invocation/annotation, and the catalog commits it
  // under a single version bump and journal flush.
  std::vector<CatalogMutation> batch;

  // Synthesized sub-derivations (compound expansion) may not exist in
  // the catalog yet; define them so invocations have an anchor.
  if (client_.GetDerivation(plan.derivation.name()).status().IsNotFound()) {
    batch.push_back(CatalogMutation::DefineDerivation(plan.derivation));
  }

  Invocation iv;
  iv.derivation = plan.derivation.name();
  iv.context.site = job.site;
  iv.context.host = job.host;
  iv.start_time = job.start_time;
  iv.duration_s = job.end_time - job.start_time;
  iv.cpu_seconds = job.cpu_seconds;
  iv.exit_code = 0;
  iv.succeeded = true;

  // Consumed replicas: the first valid catalog replica of each input.
  for (const std::string& input : plan.inputs) {
    std::vector<Replica> replicas = ValidReplicasOf(client_, input);
    if (!replicas.empty()) iv.consumed_replicas.push_back(replicas[0].id);
  }

  std::vector<size_t> replica_ops;
  for (size_t i = 0; i < plan.outputs.size(); ++i) {
    const std::string& output = plan.outputs[i];
    const JobOutput& out = outputs[i];
    Replica replica;
    replica.dataset = output;
    replica.site = job.site;
    replica.storage_element = "se0";
    replica.physical_path = "/" + job.site + "/" + output;
    replica.size_bytes = out.bytes;
    replica.created_at = job.end_time;
    replica_ops.push_back(batch.size());
    batch.push_back(CatalogMutation::AddReplica(std::move(replica)));
    if (out.unsized) {
      batch.push_back(CatalogMutation::SetDatasetSize(output, out.bytes));
    }
  }
  // The invocation's produced_replicas are the ids the AddReplica ops
  // above will be assigned when the batch runs.
  batch.push_back(
      CatalogMutation::RecordInvocation(std::move(iv), replica_ops));
  const int attempts = node.execution.attempts;
  if (attempts > 1) {
    // Recovery leaves its mark: an invocation that only succeeded
    // after retries records how hard it was.
    batch.push_back(CatalogMutation::AnnotateAssigned(
        "invocation", batch.size() - 1, "recovery.attempts",
        static_cast<int64_t>(attempts)));
  }

  BatchOptions options;
  options.stop_on_error = true;  // a half-written step is worse than none
  Result<BatchResult> applied = client_.ApplyBatch(batch, options);
  if (!applied.ok()) {
    VDG_LOG(Warning) << "provenance write-back failed: "
                     << applied.status().ToString();
  } else if (!applied->first_error.ok()) {
    VDG_LOG(Warning) << "provenance write-back incomplete ("
                     << applied->applied << "/" << batch.size()
                     << " ops): " << applied->first_error.ToString();
  }
}

Result<WorkflowResult> WorkflowEngine::Execute(const ExecutionPlan& plan) {
  WorkflowResult captured;
  bool finished = false;
  VDG_ASSIGN_OR_RETURN(uint64_t id,
                       Submit(plan, [&](const WorkflowResult& result) {
                         captured = result;
                         finished = true;
                       }));
  (void)id;
  grid_->RunUntilIdle();
  if (!finished) {
    return Status::Internal("workflow did not complete after event drain");
  }
  return captured;
}

Result<std::vector<NodeExecution>> WorkflowEngine::ExecutionsOf(
    uint64_t workflow_id) const {
  auto it = finished_executions_.find(workflow_id);
  if (it == finished_executions_.end()) {
    return Status::NotFound("no finished workflow with id " +
                            std::to_string(workflow_id));
  }
  return it->second;
}

Result<ExecutionPlan> WorkflowEngine::RescueOf(uint64_t workflow_id) const {
  auto plan_it = finished_plans_.find(workflow_id);
  auto exec_it = finished_executions_.find(workflow_id);
  if (plan_it == finished_plans_.end() ||
      exec_it == finished_executions_.end()) {
    return Status::NotFound("no finished workflow with id " +
                            std::to_string(workflow_id));
  }
  const ExecutionPlan& original = plan_it->second.first;
  const bool succeeded = plan_it->second.second;
  const std::vector<NodeExecution>& executions = exec_it->second;

  ExecutionPlan rescue;
  rescue.target_dataset = original.target_dataset;
  rescue.target_site = original.target_site;
  rescue.mode = original.mode;
  if (succeeded) return rescue;  // nothing to rescue

  // Keep only the nodes that did not complete; dependencies on
  // succeeded nodes are dropped (their outputs are materialized and
  // stage like any other input), dependencies between surviving nodes
  // are remapped to rescue indices.
  std::map<size_t, size_t> remap;
  for (size_t i = 0; i < original.nodes.size(); ++i) {
    if (i < executions.size() && executions[i].succeeded) continue;
    remap.emplace(i, remap.size());
  }
  for (const auto& [old_index, new_index] : remap) {
    (void)new_index;
    PlanNode node = original.nodes[old_index];
    node.staging.clear();  // recomputed live at run time
    std::vector<size_t> deps;
    for (size_t dep : node.deps) {
      auto it = remap.find(dep);
      if (it != remap.end()) deps.push_back(it->second);
    }
    node.deps = std::move(deps);
    rescue.est_compute_s += node.est_runtime_s;
    rescue.nodes.push_back(std::move(node));
  }
  rescue.fetches = original.fetches;
  return rescue;
}

}  // namespace vdg
