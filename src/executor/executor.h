#ifndef VDG_EXECUTOR_EXECUTOR_H_
#define VDG_EXECUTOR_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/client.h"
#include "estimator/estimator.h"
#include "grid/simulator.h"
#include "planner/plan.h"

namespace vdg {

/// Execution record of one plan node.
struct NodeExecution {
  std::string derivation;
  std::string site;
  std::string host;
  SimTime start_time = 0;
  SimTime end_time = 0;
  int attempts = 0;
  bool succeeded = false;
};

/// Aggregate fault/recovery accounting for one workflow run. Every
/// counter is deterministic under a fixed grid seed, so two identical
/// runs produce bit-identical stats (asserted by the recovery tests).
struct RecoveryStats {
  uint64_t job_attempts = 0;        // jobs actually submitted
  uint64_t job_failures = 0;        // job completions with succeeded=false
  uint64_t transfer_attempts = 0;   // staging/fetch transfers submitted
  uint64_t transfer_failures = 0;   // transfer completions that failed
  uint64_t submit_rejections = 0;   // Unavailable at submit time (outage)
  uint64_t backoff_waits = 0;       // scheduled retry delays
  double total_backoff_s = 0;       // simulated seconds spent backing off
  uint64_t node_timeouts = 0;       // attempts abandoned past the deadline
  uint64_t failovers = 0;           // node moved to an alternate site
  uint64_t sites_blacklisted = 0;   // cooldowns imposed on flaky sites
  uint64_t replicas_lost_detected = 0;  // catalog replicas with no bytes
  uint64_t rederivations = 0;       // recovery sub-workflows launched
  uint64_t datasets_regenerated = 0;    // lost inputs rebuilt successfully
};

/// Outcome of one workflow run.
struct WorkflowResult {
  uint64_t workflow_id = 0;
  bool succeeded = false;
  SimTime start_time = 0;
  SimTime end_time = 0;
  double makespan_s = 0;
  size_t nodes_total = 0;
  size_t nodes_succeeded = 0;
  size_t nodes_failed = 0;   // nodes that exhausted retries
  size_t nodes_skipped = 0;  // unreachable after an upstream failure
  uint64_t transfers = 0;
  int64_t bytes_staged = 0;
  RecoveryStats recovery;
};

/// How the engine reacts to faults: retry pacing, abandonment
/// deadlines, site health tracking, and virtual-data re-derivation of
/// lost inputs. All durations are simulated seconds.
struct FaultPolicy {
  /// First retry delay; attempt n waits base * multiplier^(n-1),
  /// capped at backoff_max_s.
  double backoff_base_s = 5.0;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 300.0;
  /// Abandon a running attempt after this long (0 = never). The late
  /// completion, if any, is ignored; the retry path takes over.
  double node_timeout_s = 0;
  /// Consecutive failures at one site before it is benched
  /// (0 = never blacklist).
  int blacklist_threshold = 3;
  /// How long a blacklisted site sits out.
  double blacklist_cooldown_s = 600.0;
  /// Retry on an alternate candidate site when the current one is
  /// offline or blacklisted (candidate_sites from the planner).
  bool enable_failover = true;
  /// When an input's catalog replicas have no physically resident
  /// bytes, invalidate them and re-derive the input from its recorded
  /// derivation (the virtual-data promise). Off by default: the seed
  /// behaviour trusts catalog replica records as-is.
  bool rederive_lost_inputs = false;
  /// Ceiling on recovery sub-workflows per node per attempt chain.
  int max_rederivations_per_node = 2;
};

struct ExecutorOptions {
  /// Extra attempts after the first failure of a node's job.
  int max_retries = 2;
  /// Record invocations + output replicas + sizes into the catalog.
  bool record_provenance = true;
  /// Default nominal runtime when a transformation carries no
  /// `sim.runtime_s` annotation.
  double default_runtime_s = 10.0;
  /// Default output size when nothing specifies one.
  int64_t default_output_bytes = 1 << 20;
  /// Fault handling knobs.
  FaultPolicy faults;
};

/// DAGMan-style workflow execution (Section 5.4): dispatches plan
/// nodes to the simulated grid when their predecessors complete,
/// stages inputs, retries failures, and writes the resulting
/// invocation/replica records back into the catalog — turning virtual
/// data into real data plus provenance.
///
/// The engine reads and writes the catalog through one CatalogClient:
/// the scheduling reads (sizes, replicas, runtime annotations), the
/// recovery re-planning, and the provenance write-back, which ships as
/// one ApplyBatch per executed node. The same engine therefore runs
/// in process (InProcessCatalogClient) or against a remote catalog
/// (Resilient -> Wire -> CatalogServer), where each read is a round
/// trip.
///
/// Fault tolerance: every failure — a job that dies, a transfer that
/// drops, a submit rejected by an offline site, an attempt that blows
/// its deadline — funnels into one recovery path that backs off
/// exponentially in simulated time, fails over onto alternate
/// candidate sites, benches sites that fail repeatedly, and (when
/// enabled) re-derives inputs whose replicas were lost, recording the
/// recovery in provenance. A workflow fails a node only after
/// max_retries + 1 attempts.
///
/// Runtime model: each transformation's simulated behaviour is
/// self-described through annotations on the transformation object:
///   sim.runtime_s        — base nominal runtime (seconds)
///   sim.runtime_s_per_mb — added per MiB of input
///   sim.output_mb        — size of each produced output (MiB)
///   sim.output_ratio     — alternative: output = ratio x input bytes
class WorkflowEngine {
 public:
  using CompletionCallback = std::function<void(const WorkflowResult&)>;

  /// Borrows `grid` and `client`. A read-only client still schedules
  /// and runs work; its provenance write-backs fail with warnings.
  WorkflowEngine(GridSimulator* grid, CatalogClient& client,
                 ExecutorOptions options = {})
      : grid_(grid), client_(client), options_(options) {}

  /// Enqueues a workflow; `on_done` fires in simulated time when it
  /// finishes. Multiple workflows may be in flight concurrently.
  Result<uint64_t> Submit(const ExecutionPlan& plan,
                          CompletionCallback on_done);

  /// Submit + drive the event loop until everything (including other
  /// outstanding work) drains; returns this workflow's result.
  Result<WorkflowResult> Execute(const ExecutionPlan& plan);

  /// Per-node execution records of a finished workflow.
  Result<std::vector<NodeExecution>> ExecutionsOf(uint64_t workflow_id) const;

  /// Rescue plan for a finished workflow (the DAGMan rescue-DAG
  /// analog): the sub-plan containing only the nodes that failed or
  /// were skipped, with dependency edges remapped and staging left to
  /// be recomputed at run time. Submitting it resumes the workflow
  /// where it died. Succeeded nodes are not re-run — their outputs are
  /// already materialized and the rescue nodes stage from them.
  Result<ExecutionPlan> RescueOf(uint64_t workflow_id) const;

  /// True when `site` is currently accepting work from this engine:
  /// online and not sitting out a blacklist cooldown.
  bool IsSiteUsable(std::string_view site) const;

  uint64_t workflows_submitted() const { return next_workflow_id_ - 1; }

 private:
  struct NodeState {
    PlanNode plan;
    size_t pending_deps = 0;
    size_t pending_transfers = 0;
    std::vector<size_t> dependents;
    NodeExecution execution;
    bool done = false;
    bool failed = false;
    /// Site of the current attempt (failover moves it off plan.site).
    std::string current_site;
    /// Invalidates stale async callbacks: bumped whenever the node
    /// abandons an attempt, so a late job completion, transfer, or
    /// timeout from the abandoned attempt is ignored.
    uint64_t generation = 0;
    int rederivations = 0;          // recovery sub-workflows launched
    size_t pending_recoveries = 0;  // recovery sub-workflows in flight
    bool recovery_failed = false;
    /// Read when the current attempt launches and kept for its finish:
    /// the transformation (empty when the read failed) and the summed
    /// input size.
    std::optional<Transformation> transformation;
    int64_t input_bytes = 0;
  };
  struct FetchState {
    TransferPlan plan;
    int attempts = 0;
    bool done = false;
  };
  struct WorkflowState {
    uint64_t id = 0;
    ExecutionPlan plan;
    std::vector<NodeState> nodes;
    std::vector<FetchState> fetches;
    size_t remaining = 0;  // nodes not yet finished (or skipped)
    size_t pending_fetches = 0;
    bool any_failure = false;
    SimTime start_time = 0;
    WorkflowResult result;
    CompletionCallback on_done;
  };
  /// Consecutive-failure tracking per site (shared by all workflows).
  struct SiteHealth {
    int consecutive_failures = 0;
    SimTime blacklisted_until = -1;
  };

  void StartNode(WorkflowState* wf, size_t index);
  void BeginAttempt(WorkflowState* wf, size_t index);
  void BeginStaging(WorkflowState* wf, size_t index);
  void LaunchJob(WorkflowState* wf, size_t index);
  void FinishNode(WorkflowState* wf, size_t index, const JobResult& job);
  /// The single retry funnel: backoff + failover, or permanent failure
  /// once the attempt budget is spent.
  void HandleNodeFailure(WorkflowState* wf, size_t index,
                         const char* reason);
  void FailNodePermanently(WorkflowState* wf, size_t index);
  void RederiveInput(WorkflowState* wf, size_t index,
                     const std::string& input);
  void SkipUnreachable(WorkflowState* wf, size_t index);
  void MaybeFinishWorkflow(WorkflowState* wf);
  void RunFetches(WorkflowState* wf);
  void RunFetch(WorkflowState* wf, size_t fetch_index);
  void FinishFetch(WorkflowState* wf, size_t fetch_index, bool succeeded);
  void CompleteWorkflow(WorkflowState* wf);

  WorkflowState* FindWorkflow(uint64_t id);
  double BackoffDelay(int attempt) const;
  void ScheduleRetry(WorkflowState* wf, size_t index);
  void NoteSiteFailure(const std::string& site, WorkflowState* wf);
  void NoteSiteSuccess(const std::string& site);

  /// From the transformation and input size read at launch.
  double NominalRuntime(const NodeState& node) const;
  /// One output of a finished job: its size, and whether its dataset
  /// is defined without a recorded size.
  struct JobOutput {
    int64_t bytes = 0;
    bool unsized = false;
  };
  int64_t OutputBytes(const NodeState& node,
                      const Result<Dataset>& declared) const;
  int64_t InputBytes(const PlanNode& node) const;
  int64_t StagedBytes(const std::string& dataset) const;
  /// Ships the node's invocation, output replicas and sizes as one
  /// batch; `outputs` is aligned with the node's plan outputs.
  void RecordProvenance(const NodeState& node, const JobResult& job,
                        const std::vector<JobOutput>& outputs);

  GridSimulator* grid_;
  CatalogClient& client_;
  ExecutorOptions options_;
  /// Estimator backing recovery re-planning (re-derivation of lost
  /// inputs builds a fresh RequestPlanner around it).
  CostEstimator recovery_estimator_;
  uint64_t next_workflow_id_ = 1;
  std::map<uint64_t, std::unique_ptr<WorkflowState>> workflows_;
  std::map<uint64_t, std::vector<NodeExecution>> finished_executions_;
  /// Plan + final success of each finished workflow, kept for RescueOf.
  std::map<uint64_t, std::pair<ExecutionPlan, bool>> finished_plans_;
  std::map<std::string, SiteHealth, std::less<>> site_health_;
};

}  // namespace vdg

#endif  // VDG_EXECUTOR_EXECUTOR_H_
