// End-to-end integration tests: the full virtual-data cycle of
// Figure 5 — compose, plan, estimate, derive, discover — run against
// the simulated grid, plus persistence and invalidation flows.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "catalog/catalog.h"
#include "catalog/wire.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "federation/faulty_transport.h"
#include "federation/resilient_client.h"
#include "federation/server.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
#include "workload/hep.h"
#include "workload/sdss.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : catalog_("griphyn.org"),
        client_(&catalog_),
        grid_(workload::GriphynTestbed(), 11),
        planner_(client_, grid_.topology(), &grid_.rls(), estimator_),
        engine_(&grid_, client_) {
    EXPECT_TRUE(catalog_.Open().ok());
  }

  VirtualDataCatalog catalog_;
  InProcessCatalogClient client_;
  GridSimulator grid_;
  CostEstimator estimator_;
  RequestPlanner planner_;
  WorkflowEngine engine_;
};

TEST_F(IntegrationTest, SdssCampaignEndToEnd) {
  workload::SdssOptions options;
  options.num_stripes = 3;
  options.fields_per_stripe = 6;
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(&catalog_, options);
  ASSERT_TRUE(workload.ok());
  ASSERT_TRUE(
      workload::StageSdssInputs(*workload, options, &grid_, &catalog_).ok());

  PlannerOptions popt;
  popt.target_site = "uchicago";
  size_t executed_nodes = 0;
  for (const std::string& clusters : workload->cluster_catalogs) {
    Result<ExecutionPlan> plan = planner_.Plan(clusters, popt);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->nodes.size(), 7u);  // 6 searches + 1 merge
    Result<WorkflowResult> result = engine_.Execute(*plan);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->succeeded);
    executed_nodes += result->nodes_succeeded;
  }
  EXPECT_EQ(executed_nodes, 21u);
  for (const std::string& clusters : workload->cluster_catalogs) {
    EXPECT_TRUE(catalog_.IsMaterialized(clusters));
  }

  // Discovery over what the campaign produced.
  DatasetQuery astronomy;
  astronomy.name_prefix = "sdss.stripe";
  astronomy.require_materialized = true;
  // 18 fields + 18 bcgs + 3 cluster catalogs, all materialized.
  EXPECT_EQ(catalog_.FindDatasets(astronomy).size(), 39u);

  // Provenance: each cluster catalog traces to exactly its stripe.
  ProvenanceTracker tracker(client_);
  Result<std::set<std::string>> ancestors =
      tracker.Ancestors(workload->cluster_catalogs[0]);
  ASSERT_TRUE(ancestors.ok());
  EXPECT_EQ(ancestors->size(), 12u);  // 6 fields + 6 bcg lists
  EXPECT_TRUE(*tracker.FullyMaterialized(workload->cluster_catalogs[0]));

  // The estimator learned real runtimes from the invocations.
  ASSERT_TRUE(estimator_.LearnFromCatalog(client_).ok());
  EXPECT_GT(estimator_.ObservationCount("sdss-maxBcg"), 0u);
  EXPECT_NEAR(estimator_.EstimateRuntime("sdss-maxBcg", "uchicago"), 100.0,
              15.0);
}

TEST_F(IntegrationTest, CalibrationErrorInvalidatesAndReruns) {
  workload::SdssOptions options;
  options.num_stripes = 1;
  options.fields_per_stripe = 4;
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(&catalog_, options);
  ASSERT_TRUE(workload.ok());
  ASSERT_TRUE(
      workload::StageSdssInputs(*workload, options, &grid_, &catalog_).ok());

  PlannerOptions popt;
  popt.target_site = "fermilab";
  const std::string& clusters = workload->cluster_catalogs[0];
  Result<ExecutionPlan> plan = planner_.Plan(clusters, popt);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine_.Execute(*plan)->succeeded);
  ASSERT_TRUE(catalog_.IsMaterialized(clusters));

  // "I've detected a calibration error in an instrument and want to
  // know which derived data to recompute."
  ProvenanceTracker tracker(client_);
  const std::string& bad_field = workload->field_datasets[2];
  Result<InvalidationReport> report = tracker.Invalidate(bad_field);
  ASSERT_TRUE(report.ok());
  // Downstream: that field's bcg list and the stripe's cluster catalog.
  EXPECT_EQ(report->affected_datasets.size(), 2u);
  EXPECT_FALSE(catalog_.IsMaterialized(clusters));

  // Re-plan: only the invalidated parts are recomputed.
  Result<ExecutionPlan> repair = planner_.Plan(clusters, popt);
  ASSERT_TRUE(repair.ok()) << repair.status();
  EXPECT_EQ(repair->mode, MaterializationMode::kRerun);
  EXPECT_EQ(repair->nodes.size(), 2u);  // bad search + merge
  Result<WorkflowResult> result = engine_.Execute(*repair);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
  EXPECT_TRUE(catalog_.IsMaterialized(clusters));
}

/// The ids of every invalidated replica in `catalog`.
std::set<std::string> InvalidReplicaIds(const VirtualDataCatalog& catalog) {
  std::set<std::string> ids;
  for (std::string_view name : catalog.AllDatasetNames()) {
    for (const Replica& replica : catalog.ReplicasOf(name, false)) {
      if (!replica.valid) ids.insert(replica.id);
    }
  }
  return ids;
}

/// An audit trail as the bytes of its wire response.
std::string TrailBytes(const std::vector<Invocation>& trail) {
  return wire::EncodeResponseFrame(
      0, wire::Reply(wire::MsgKind::kInvocationsOf,
                     wire::InvocationsResp{trail}));
}

// The provenance tracker gives the same answers through the full
// client ladder as in process: lineage, audit trail and invalidation
// plan byte for byte, and an invalidation cascade run over the wire
// invalidates the replicas the in-process plan names.
TEST_F(IntegrationTest, ProvenanceOverTheWireMatchesInProcess) {
  // The HEP pipeline runs each batch through a compound derivation, so
  // its ntuples' invocations are those of the expansion children.
  workload::HepOptions options;
  options.num_batches = 2;
  Result<workload::HepWorkload> workload =
      workload::GenerateHep(&catalog_, options);
  ASSERT_TRUE(workload.ok());
  for (const std::string& config : workload->config_datasets) {
    ASSERT_TRUE(grid_.PlaceFile("fermilab", config, 64 * 1024, true).ok());
    Replica r;
    r.dataset = config;
    r.site = "fermilab";
    r.size_bytes = 64 * 1024;
    ASSERT_TRUE(catalog_.AddReplica(r).ok());
  }
  PlannerOptions popt;
  popt.target_site = "fermilab";
  for (const std::string& ntuple : workload->ntuples) {
    Result<ExecutionPlan> plan = planner_.Plan(ntuple, popt);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_TRUE(engine_.Execute(*plan)->succeeded);
  }
  const std::string& ntuple = workload->ntuples[0];

  CatalogServer server(std::make_shared<InProcessCatalogClient>(&catalog_));
  ResilientEndpoint endpoint;
  endpoint.name = "griphyn";
  endpoint.connect = [&]() -> Result<std::shared_ptr<CatalogClient>> {
    VDG_ASSIGN_OR_RETURN(std::shared_ptr<WireCatalogClient> wire,
                         WireCatalogClient::Connect(&server));
    return std::shared_ptr<CatalogClient>(std::move(wire));
  };
  ResilientCatalogClient remote_client({endpoint});
  InProcessCatalogClient local_client(&catalog_);
  ProvenanceTracker remote(remote_client);
  ProvenanceTracker local(local_client);

  Result<LineageNode> remote_lineage = remote.Lineage(ntuple);
  Result<LineageNode> local_lineage = local.Lineage(ntuple);
  ASSERT_TRUE(remote_lineage.ok()) << remote_lineage.status();
  ASSERT_TRUE(local_lineage.ok()) << local_lineage.status();
  EXPECT_EQ(RenderLineage(*remote_lineage), RenderLineage(*local_lineage));
  EXPECT_EQ(RenderLineage(*local_lineage).find("never executed"),
            std::string::npos);

  Result<std::vector<Invocation>> remote_trail = remote.AuditTrail(ntuple);
  Result<std::vector<Invocation>> local_trail = local.AuditTrail(ntuple);
  ASSERT_TRUE(remote_trail.ok()) << remote_trail.status();
  ASSERT_TRUE(local_trail.ok()) << local_trail.status();
  EXPECT_EQ(local_trail->size(), 4u);  // the batch's four stages
  EXPECT_EQ(TrailBytes(*remote_trail), TrailBytes(*local_trail));

  const std::string& bad_config = workload->config_datasets[0];
  Result<InvalidationReport> remote_plan =
      remote.PlanInvalidation(bad_config);
  Result<InvalidationReport> local_plan = local.PlanInvalidation(bad_config);
  ASSERT_TRUE(remote_plan.ok()) << remote_plan.status();
  ASSERT_TRUE(local_plan.ok()) << local_plan.status();
  EXPECT_EQ(remote_plan->source_dataset, local_plan->source_dataset);
  EXPECT_EQ(remote_plan->affected_datasets, local_plan->affected_datasets);
  EXPECT_EQ(remote_plan->derivations_to_rerun,
            local_plan->derivations_to_rerun);
  EXPECT_EQ(remote_plan->invalidated_replicas,
            local_plan->invalidated_replicas);
  ASSERT_FALSE(local_plan->invalidated_replicas.empty());

  ASSERT_TRUE(InvalidReplicaIds(catalog_).empty());
  Result<InvalidationReport> done = remote.Invalidate(bad_config);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_EQ(InvalidReplicaIds(catalog_),
            std::set<std::string>(local_plan->invalidated_replicas.begin(),
                                  local_plan->invalidated_replicas.end()));
  EXPECT_FALSE(catalog_.IsMaterialized(ntuple));
  EXPECT_TRUE(catalog_.IsMaterialized(workload->ntuples[1]));
}

// ------------------ the process flow over the wire --------------------

constexpr const char* kFlowSite = "fermilab";

/// Fills `catalog` and `grid` with one of the two pipelines the paper's
/// process flow runs (HEP: compound derivations; SDSS: a field fan-in)
/// and returns the datasets to materialize at kFlowSite.
std::vector<std::string> StagePipeline(bool hep, VirtualDataCatalog* catalog,
                                       GridSimulator* grid) {
  if (hep) {
    workload::HepOptions options;
    options.num_batches = 2;
    Result<workload::HepWorkload> workload =
        workload::GenerateHep(catalog, options);
    EXPECT_TRUE(workload.ok()) << workload.status();
    if (!workload.ok()) return {};
    for (const std::string& config : workload->config_datasets) {
      EXPECT_TRUE(grid->PlaceFile(kFlowSite, config, 64 * 1024, true).ok());
      Replica r;
      r.dataset = config;
      r.site = kFlowSite;
      r.size_bytes = 64 * 1024;
      EXPECT_TRUE(catalog->AddReplica(r).ok());
    }
    return workload->ntuples;
  }
  workload::SdssOptions options;
  options.num_stripes = 2;
  options.fields_per_stripe = 4;
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(catalog, options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  if (!workload.ok()) return {};
  EXPECT_TRUE(
      workload::StageSdssInputs(*workload, options, grid, catalog).ok());
  return workload->cluster_catalogs;
}

/// What one run of a pipeline left behind.
struct FlowOutcome {
  std::vector<std::string> plans;   // ExecutionPlan::ToString per target
  std::vector<std::string> state;   // CurrentStateRecords()
  std::map<std::string, double> learned;  // runtime estimate at kFlowSite
  uint64_t invocations = 0;
  uint64_t faults = 0;              // transport faults that fired
};

/// Plans, executes and learns one pipeline on a fresh catalog. The
/// planner, the engine and the estimator share one client: the catalog
/// itself, or (with `wire` set) Resilient -> Wire -> CatalogServer in
/// front of it, each connection dialed through a FaultyChannel with
/// the `wire` profile.
void RunFlow(bool hep, const std::optional<FaultProfile>& wire,
             FlowOutcome* out) {
  VirtualDataCatalog catalog("griphyn.org");
  ASSERT_TRUE(catalog.Open().ok());
  GridSimulator grid(workload::GriphynTestbed(), 11);
  const std::vector<std::string> targets =
      StagePipeline(hep, &catalog, &grid);
  ASSERT_FALSE(targets.empty());

  InProcessCatalogClient local(&catalog);
  CatalogClient* client = &local;
  std::unique_ptr<CatalogServer> server;
  std::shared_ptr<FaultInjector> injector;
  std::unique_ptr<ResilientCatalogClient> remote;
  if (wire.has_value()) {
    server = std::make_unique<CatalogServer>(
        std::make_shared<InProcessCatalogClient>(&catalog));
    injector = std::make_shared<FaultInjector>(*wire, 23);
    ResilientEndpoint endpoint;
    endpoint.name = "griphyn";
    endpoint.connect = [&server,
                        injector]() -> Result<std::shared_ptr<CatalogClient>> {
      VDG_ASSIGN_OR_RETURN(std::shared_ptr<WireCatalogClient> connection,
                           ConnectFaulty(server.get(), injector));
      return std::shared_ptr<CatalogClient>(std::move(connection));
    };
    remote = std::make_unique<ResilientCatalogClient>(
        std::vector<ResilientEndpoint>{endpoint});
    client = remote.get();
  }

  CostEstimator estimator;
  RequestPlanner planner(*client, grid.topology(), &grid.rls(), estimator);
  WorkflowEngine engine(&grid, *client);
  PlannerOptions popt;
  popt.target_site = kFlowSite;
  for (const std::string& target : targets) {
    Result<ExecutionPlan> plan = planner.Plan(target, popt);
    ASSERT_TRUE(plan.ok()) << target << ": " << plan.status();
    out->plans.push_back(plan->ToString());
    Result<WorkflowResult> result = engine.Execute(*plan);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->succeeded) << target;
  }
  ASSERT_TRUE(estimator.LearnFromCatalog(*client).ok());
  for (std::string_view tr : catalog.AllTransformationNames()) {
    out->learned[std::string(tr)] = estimator.EstimateRuntime(tr, kFlowSite);
  }
  out->state = catalog.CurrentStateRecords();
  out->invocations = catalog.Stats().invocations;
  if (injector != nullptr) out->faults = injector->stats().total();
}

// The whole process flow (plan -> execute -> record -> learn) gives the
// same plans, the same catalog byte for byte and the same learned
// estimates over Resilient -> Wire -> CatalogServer as in process.
TEST(ProcessFlowOverTheWire, PipelinesMatchInProcess) {
  for (bool hep : {true, false}) {
    SCOPED_TRACE(hep ? "HEP" : "SDSS");
    FlowOutcome local;
    FlowOutcome wired;
    RunFlow(hep, std::nullopt, &local);
    RunFlow(hep, FaultProfile{}, &wired);
    EXPECT_GT(local.invocations, 0u);
    EXPECT_EQ(wired.plans, local.plans);
    // Binary journal records: compared whole, reported briefly.
    EXPECT_TRUE(wired.state == local.state) << "catalog states differ";
    EXPECT_EQ(wired.learned, local.learned);
  }
}

// Over a lossy transport every call still lands once: reads retry,
// and each write-back batch carries the resilient client's token, so a
// resend after a lost reply is answered from the server's dedup window
// instead of recording the invocation again.
TEST(ProcessFlowOverTheWire, FaultyWireRecordsEachInvocationOnce) {
  FaultProfile lossy;
  lossy.reset_rate = 0.02;
  lossy.truncate_rate = 0.01;
  lossy.recv_reset_rate = 0.02;
  for (bool hep : {true, false}) {
    SCOPED_TRACE(hep ? "HEP" : "SDSS");
    FlowOutcome local;
    FlowOutcome faulty;
    RunFlow(hep, std::nullopt, &local);
    RunFlow(hep, lossy, &faulty);
    EXPECT_GT(faulty.faults, 0u);
    EXPECT_EQ(faulty.invocations, local.invocations);
    EXPECT_TRUE(faulty.state == local.state) << "catalog states differ";
    EXPECT_EQ(faulty.plans, local.plans);
  }
}

TEST_F(IntegrationTest, DedupAvoidsRecomputation) {
  ASSERT_TRUE(catalog_.ImportVdl(R"(
TR crunch( output out, input in, none level="2" ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/crunch";
}
DS input.data : Dataset size="1000";
DV job1->crunch( out=@{output:"result.data"}, in=@{input:"input.data"},
                 level="5" );
)")
                  .ok());
  ASSERT_TRUE(grid_.PlaceFile("uchicago", "input.data", 1000, true).ok());
  Replica r;
  r.dataset = "input.data";
  r.site = "uchicago";
  r.size_bytes = 1000;
  ASSERT_TRUE(catalog_.AddReplica(r).ok());

  PlannerOptions popt;
  popt.target_site = "uchicago";
  Result<ExecutionPlan> plan = planner_.Plan("result.data", popt);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine_.Execute(*plan)->succeeded);

  // A scientist elsewhere writes the same request under another name.
  Derivation dup("job2", "crunch");
  ASSERT_TRUE(dup.AddArg(ActualArg::DatasetRef("out", "result.data",
                                               ArgDirection::kOut))
                  .ok());
  ASSERT_TRUE(dup.AddArg(ActualArg::DatasetRef("in", "input.data",
                                               ArgDirection::kIn))
                  .ok());
  ASSERT_TRUE(dup.AddArg(ActualArg::String("level", "5")).ok());
  // "If the program has already been run and the results stored,
  //  I'll save weeks of computation."
  EXPECT_TRUE(catalog_.HasBeenComputed(dup));
  Result<std::string> original = catalog_.FindEquivalentDerivation(dup);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, "job1");
  // And the planner agrees nothing needs to run.
  Result<ExecutionPlan> replan = planner_.Plan("result.data", popt);
  ASSERT_TRUE(replan.ok());
  EXPECT_EQ(replan->mode, MaterializationMode::kAlreadyLocal);
}

TEST_F(IntegrationTest, HepPipelinePersistsAcrossRestart) {
  std::string path = ::testing::TempDir() + "/vdg_hep_journal.log";
  std::remove(path.c_str());
  uint64_t invocations = 0;
  {
    VirtualDataCatalog catalog("cms.org",
                               std::make_unique<FileJournal>(path));
    ASSERT_TRUE(catalog.Open().ok());
    workload::HepOptions options;
    options.num_batches = 2;
    Result<workload::HepWorkload> workload =
        workload::GenerateHep(&catalog, options);
    ASSERT_TRUE(workload.ok());

    GridSimulator grid(workload::SmallTestbed(), 5);
    for (const std::string& config : workload->config_datasets) {
      ASSERT_TRUE(grid.PlaceFile("east", config, 64 * 1024, true).ok());
      Replica r;
      r.dataset = config;
      r.site = "east";
      r.size_bytes = 64 * 1024;
      ASSERT_TRUE(catalog.AddReplica(r).ok());
    }
    CostEstimator estimator;
    InProcessCatalogClient client(&catalog);
    RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
    WorkflowEngine engine(&grid, client);
    PlannerOptions popt;
    popt.target_site = "east";
    for (const std::string& ntuple : workload->ntuples) {
      Result<ExecutionPlan> plan = planner.Plan(ntuple, popt);
      ASSERT_TRUE(plan.ok()) << plan.status();
      ASSERT_TRUE(engine.Execute(*plan)->succeeded);
    }
    invocations = catalog.Stats().invocations;
    EXPECT_EQ(invocations, 8u);  // 4 stages x 2 batches
    ASSERT_TRUE(catalog.SyncJournal().ok());
  }
  // Reopen: the full provenance record survives the restart.
  VirtualDataCatalog reopened("cms.org",
                              std::make_unique<FileJournal>(path));
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.Stats().invocations, invocations);
  EXPECT_TRUE(reopened.IsMaterialized("cms.batch0.ntuple"));
  InProcessCatalogClient catalog_client(&reopened);
  ProvenanceTracker tracker(catalog_client);
  Result<std::vector<Invocation>> trail =
      tracker.AuditTrail("cms.batch1.ntuple");
  ASSERT_TRUE(trail.ok());
  EXPECT_EQ(trail->size(), 4u);  // the batch's four stages
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, EstimatorImprovesWithHistory) {
  ASSERT_TRUE(catalog_.ImportVdl(R"(
TR slowstep( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/slow";
}
DS seed.data : Dataset size="1000";
DV mk1->slowstep( out=@{output:"out1"}, in=@{input:"seed.data"} );
DV mk2->slowstep( out=@{output:"out2"}, in=@{input:"seed.data"} );
)")
                  .ok());
  ASSERT_TRUE(catalog_
                  .Annotate("transformation", "slowstep", "sim.runtime_s",
                            120.0)
                  .ok());
  ASSERT_TRUE(grid_.PlaceFile("caltech", "seed.data", 1000, true).ok());
  Replica r;
  r.dataset = "seed.data";
  r.site = "caltech";
  r.size_bytes = 1000;
  ASSERT_TRUE(catalog_.AddReplica(r).ok());

  PlannerOptions popt;
  popt.target_site = "caltech";
  // Before any history, the planner uses the default estimate.
  Result<ExecutionPlan> first = planner_.Plan("out1", popt);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->nodes[0].est_runtime_s, estimator_.default_runtime());
  ASSERT_TRUE(engine_.Execute(*first)->succeeded);

  // After learning, the estimate tracks the observed 120s/1.1 factor.
  ASSERT_TRUE(estimator_.LearnFromCatalog(client_).ok());
  Result<ExecutionPlan> second = planner_.Plan("out2", popt);
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second->nodes[0].est_runtime_s, 120.0 / 1.1, 1.0);
}

}  // namespace
}  // namespace vdg
