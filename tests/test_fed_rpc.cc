// Service-boundary tests: the CatalogClient interface, the simulated
// RPC transport (latency / loss / outage coupling), request batching,
// and the version-invalidated remote object cache. The through-line:
// everything that works in-process works identically over RPC at zero
// fault rates, and the batching/cache layers only change how many
// round trips it costs.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/client.h"
#include "executor/executor.h"
#include "federation/fed_provenance.h"
#include "federation/index.h"
#include "federation/registry.h"
#include "federation/remote_cache.h"
#include "federation/rpc_client.h"
#include "planner/planner.h"
#include "workload/canonical.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

constexpr const char* kStepTr = R"(
TR step( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/step";
}
)";

/// A catalog holding a linear derivation chain d0 -> d1 -> ... -> dN
/// (d0 raw), the Figure 3 shape.
std::unique_ptr<VirtualDataCatalog> ChainCatalog(int links) {
  auto catalog = std::make_unique<VirtualDataCatalog>("chain.org");
  EXPECT_TRUE(catalog->Open().ok());
  EXPECT_TRUE(catalog->ImportVdl(kStepTr).ok());
  EXPECT_TRUE(catalog->ImportVdl("DS d0 : Dataset size=\"1024\";").ok());
  for (int i = 0; i < links; ++i) {
    std::string vdl = "DV l" + std::to_string(i + 1) +
                      "->step( out=@{output:\"d" + std::to_string(i + 1) +
                      "\"}, in=@{input:\"d" + std::to_string(i) + "\"} );";
    EXPECT_TRUE(catalog->ImportVdl(vdl).ok());
  }
  return catalog;
}

class FedRpcTest : public ::testing::Test {
 protected:
  FedRpcTest() : grid_(workload::SmallTestbed(), 7) {
    catalog_ = ChainCatalog(8);
  }

  std::shared_ptr<CatalogClient> InProcess() {
    return std::make_shared<InProcessCatalogClient>(catalog_.get());
  }

  std::shared_ptr<SimulatedRpcCatalogClient> Rpc(RpcConfig config = {}) {
    return std::make_shared<SimulatedRpcCatalogClient>(InProcess(), &grid_,
                                                       config);
  }

  std::unique_ptr<VirtualDataCatalog> catalog_;
  GridSimulator grid_;
};

// ------------------------- In-process adapter ------------------------

TEST_F(FedRpcTest, InProcessClientMatchesDirectCatalogAccess) {
  InProcessCatalogClient client(catalog_.get());
  EXPECT_EQ(client.authority(), "chain.org");
  EXPECT_FALSE(client.read_only());
  EXPECT_EQ(client.local_catalog(), catalog_.get());

  EXPECT_EQ(*client.Version(), catalog_->version());
  EXPECT_EQ(client.GetDataset("d3")->name, "d3");
  EXPECT_EQ(client.GetTransformation("step")->name(), "step");
  EXPECT_EQ(client.GetDerivation("l2")->name(), "l2");
  EXPECT_TRUE(*client.HasDataset("d0"));
  EXPECT_FALSE(*client.HasDataset("ghost"));
  EXPECT_EQ(*client.ProducerOf("d4"), "l4");
  EXPECT_TRUE(client.ProducerOf("d0").status().IsNotFound());
  EXPECT_EQ(client.AllNames("dataset")->size(),
            catalog_->AllDatasetNames().size());
  EXPECT_TRUE(client.AllNames("widget").status().IsInvalidArgument());
}

TEST_F(FedRpcTest, BatchGetIsPositionallyAlignedWithPerEntryStatus) {
  InProcessCatalogClient client(catalog_.get());
  Result<std::vector<ObjectRecord>> records = client.BatchGet(
      {{"dataset", "d1"}, {"dataset", "ghost"}, {"derivation", "l3"}});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_TRUE((*records)[0].status.ok());
  ASSERT_TRUE((*records)[0].dataset.has_value());
  EXPECT_EQ((*records)[0].dataset->name, "d1");
  EXPECT_TRUE((*records)[1].status.IsNotFound());
  ASSERT_TRUE((*records)[2].derivation.has_value());
  EXPECT_EQ((*records)[2].derivation->name(), "l3");
}

TEST_F(FedRpcTest, ProvenanceStepCompoundMatchesPointCalls) {
  InProcessCatalogClient client(catalog_.get());
  Result<ProvenanceStep> derived = client.GetProvenanceStep("d5");
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE(derived->exists);
  EXPECT_EQ(derived->producer, "l5");
  ASSERT_TRUE(derived->derivation.has_value());
  EXPECT_EQ(derived->derivation->name(), "l5");

  Result<ProvenanceStep> raw = client.GetProvenanceStep("d0");
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->exists);
  EXPECT_TRUE(raw->producer.empty());
  EXPECT_FALSE(raw->derivation.has_value());

  Result<ProvenanceStep> ghost = client.GetProvenanceStep("ghost");
  ASSERT_TRUE(ghost.ok());
  EXPECT_FALSE(ghost->exists);
}

TEST_F(FedRpcTest, ReadOnlyHandleRejectsEveryMutation) {
  const VirtualDataCatalog* frozen = catalog_.get();
  InProcessCatalogClient ro(frozen);
  EXPECT_TRUE(ro.read_only());
  EXPECT_EQ(ro.local_catalog(), nullptr);

  Dataset ds;
  ds.name = "new";
  EXPECT_TRUE(ro.DefineDataset(ds).IsPermissionDenied());
  EXPECT_TRUE(ro.Annotate("dataset", "d0", "k", 1).IsPermissionDenied());
  Replica r;
  r.dataset = "d0";
  r.site = "east";
  EXPECT_TRUE(ro.AddReplica(r).status().IsPermissionDenied());
  EXPECT_TRUE(ro.SetDatasetSize("d0", 1).IsPermissionDenied());
  EXPECT_TRUE(ro.InvalidateReplica("r1").IsPermissionDenied());
  // Reads still work, and nothing above reached the catalog.
  EXPECT_TRUE(*ro.HasDataset("d0"));
  EXPECT_FALSE(catalog_->HasDataset("new"));
  EXPECT_FALSE(
      catalog_->GetDataset("d0")->annotations.Has("k"));
}

// -------------------------- RPC transport ----------------------------

TEST_F(FedRpcTest, ZeroFaultRpcGivesIdenticalResultsAndAdvancesTime) {
  auto rpc = Rpc();
  InProcessCatalogClient direct(catalog_.get());
  SimTime before = grid_.now();

  EXPECT_EQ(*rpc->Version(), *direct.Version());
  EXPECT_EQ(rpc->GetDataset("d2")->name, "d2");
  EXPECT_EQ(*rpc->ProducerOf("d7"), *direct.ProducerOf("d7"));
  EXPECT_EQ(rpc->FindDatasets({})->size(), direct.FindDatasets({})->size());
  // Four calls, four round trips, each paying the configured latency.
  EXPECT_EQ(rpc->stats().round_trips, 4u);
  EXPECT_EQ(rpc->stats().failures, 0u);
  EXPECT_DOUBLE_EQ(grid_.now() - before, 4 * rpc->config().latency_s);
}

TEST_F(FedRpcTest, LossyTransportRetriesUntilSuccess) {
  RpcConfig config;
  config.loss_rate = 0.4;
  config.max_attempts = 16;
  auto rpc = Rpc(config);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rpc->HasDataset("d0").ok());
  }
  EXPECT_EQ(rpc->stats().failures, 0u);
  EXPECT_GT(rpc->stats().lost_calls, 0u);
  EXPECT_EQ(rpc->stats().retries, rpc->stats().lost_calls);
  EXPECT_EQ(rpc->stats().round_trips, 50u);
}

TEST_F(FedRpcTest, OutageRejectsThenBackoffOutlivesTheOutage) {
  RpcConfig config;
  config.site = "east";
  config.max_attempts = 6;
  auto rpc = Rpc(config);
  ASSERT_TRUE(rpc->HasDataset("d0").ok());  // site up: one clean trip

  // A 3-simulated-second crash window starting now: the first attempt
  // finds the site down, and the retry backoff (run through the event
  // queue) carries the clock past the scheduled restore.
  ASSERT_TRUE(grid_.ScheduleOutage("east", 0.0, 3.0, true).ok());
  Result<bool> has = rpc->HasDataset("d4");
  ASSERT_TRUE(has.ok()) << has.status();
  EXPECT_TRUE(*has);
  EXPECT_GT(rpc->stats().outage_rejections, 0u);
  EXPECT_GT(rpc->stats().retries, 0u);
  EXPECT_EQ(rpc->stats().failures, 0u);
  EXPECT_FALSE(grid_.IsSiteCrashed("east"));
}

TEST_F(FedRpcTest, OutageLongerThanRetryBudgetSurfacesUnavailable) {
  RpcConfig config;
  config.site = "east";
  config.max_attempts = 2;
  config.backoff_base_s = 0.1;
  auto rpc = Rpc(config);
  // Crash with no scheduled restore: every attempt is rejected.
  ASSERT_TRUE(grid_.CrashSite("east").ok());
  Status lost = rpc->HasDataset("d0").status();
  EXPECT_TRUE(lost.IsUnavailable());
  EXPECT_EQ(rpc->stats().failures, 1u);
  EXPECT_EQ(rpc->stats().outage_rejections, 2u);
}

TEST_F(FedRpcTest, LostMutationFailsFastAndRetryUnsafe) {
  RpcConfig config;
  config.loss_rate = 1.0;  // every attempt is lost in transit
  config.max_attempts = 8;
  auto rpc = Rpc(config);

  // A lost mutation is ambiguous (the server may have applied it and
  // only the response vanished), so it must NOT be blindly re-sent:
  // one attempt, then a retry-unsafe Unavailable.
  Status st = rpc->SetDatasetSize("d1", 4096);
  EXPECT_TRUE(st.IsUnavailable()) << st;
  EXPECT_FALSE(st.retry_safe());
  EXPECT_EQ(rpc->stats().lost_calls, 1u);
  EXPECT_EQ(rpc->stats().retries, 0u);
  EXPECT_EQ(rpc->stats().mutation_fail_fast, 1u);

  // Reads under the same loss keep auto-retrying (and here exhaust the
  // budget with a retry-SAFE Unavailable).
  Status read = rpc->HasDataset("d1").status();
  EXPECT_TRUE(read.IsUnavailable());
  EXPECT_TRUE(read.retry_safe());
  EXPECT_EQ(rpc->stats().retries, 7u);
}

TEST_F(FedRpcTest, ReadOnlyRpcRejectsMutationsBeforeTheTransport) {
  RpcConfig config;
  config.loss_rate = 1.0;  // any attempt that reached the wire is lost
  const VirtualDataCatalog* frozen = catalog_.get();
  SimulatedRpcCatalogClient rpc(
      std::make_shared<InProcessCatalogClient>(frozen), &grid_, config);
  const double clock = grid_.now();

  // The write could never apply, so it must not come back as the
  // ambiguous "may have been applied" of a lost mutation.
  Status st = rpc.SetDatasetSize("d1", 4096);
  EXPECT_TRUE(st.IsPermissionDenied()) << st;
  Replica rep;
  rep.dataset = "d1";
  rep.site = "east";
  Result<BatchResult> batch =
      rpc.ApplyBatch({CatalogMutation::AddReplica(rep)});
  EXPECT_TRUE(batch.status().IsPermissionDenied()) << batch.status();

  EXPECT_EQ(grid_.now(), clock);
  EXPECT_EQ(rpc.stats().lost_calls, 0u);
  EXPECT_EQ(rpc.stats().round_trips, 0u);
}

TEST_F(FedRpcTest, MutationRetriesThroughOutagesButNotLoss) {
  RpcConfig config;
  config.site = "east";
  config.max_attempts = 6;
  auto rpc = Rpc(config);

  // An outage rejection happens before the server accepts the request,
  // so even a mutation is safe to re-send: the backoff outlives the
  // 3-second crash window and the write lands exactly once.
  ASSERT_TRUE(grid_.ScheduleOutage("east", 0.0, 3.0, true).ok());
  Status st = rpc->SetDatasetSize("d1", 2048);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(catalog_->GetDataset("d1")->size_bytes, 2048);
  EXPECT_GT(rpc->stats().outage_rejections, 0u);
  EXPECT_GT(rpc->stats().retries, 0u);
  EXPECT_EQ(rpc->stats().mutation_fail_fast, 0u);
}

TEST_F(FedRpcTest, TokenedBatchRetriesLikeARead) {
  RpcConfig config;
  config.loss_rate = 0.5;
  config.max_attempts = 32;
  config.seed = 11;
  auto rpc = Rpc(config);

  Replica rep;
  rep.dataset = "d1";
  rep.site = "east";
  rep.size_bytes = 1024;
  std::vector<CatalogMutation> batch;
  batch.push_back(CatalogMutation::AddReplica(rep));

  // Untokened: ambiguous on first loss. With loss_rate 0.5 and this
  // seed the first draws eventually lose; keep issuing until one is
  // actually lost to observe the fail-fast.
  Status lost = Status::OK();
  for (int i = 0; i < 64 && lost.ok(); ++i) {
    lost = rpc->ApplyBatch(batch).status();
  }
  ASSERT_FALSE(lost.ok());
  EXPECT_FALSE(lost.retry_safe());

  // Tokened: the server-side dedup window makes the batch idempotent,
  // so the transport may retry it through losses like any read.
  uint64_t fail_fast_before = rpc->stats().mutation_fail_fast;
  BatchOptions opts;
  opts.idempotency_token = "sim-tok-1";
  Result<BatchResult> tokened = rpc->ApplyBatch(batch, opts);
  ASSERT_TRUE(tokened.ok()) << tokened.status();
  EXPECT_EQ(rpc->stats().mutation_fail_fast, fail_fast_before);
}

TEST_F(FedRpcTest, NaiveModeDecomposesCompoundCalls) {
  RpcConfig batched_config;
  auto batched = Rpc(batched_config);
  RpcConfig naive_config;
  naive_config.enable_batching = false;
  auto naive = Rpc(naive_config);

  std::vector<ObjectKey> keys;
  for (int i = 0; i <= 8; ++i) {
    keys.push_back({"dataset", "d" + std::to_string(i)});
  }
  ASSERT_TRUE(batched->BatchGet(keys).ok());
  ASSERT_TRUE(naive->BatchGet(keys).ok());
  EXPECT_EQ(batched->stats().round_trips, 1u);
  EXPECT_EQ(batched->stats().batched_lookups, keys.size());
  EXPECT_EQ(naive->stats().round_trips, keys.size());

  batched->reset_stats();
  naive->reset_stats();
  // One derived hop: 1 compound trip vs 4 point trips.
  ASSERT_TRUE(batched->GetProvenanceStep("d5").ok());
  ASSERT_TRUE(naive->GetProvenanceStep("d5").ok());
  EXPECT_EQ(batched->stats().round_trips, 1u);
  EXPECT_EQ(naive->stats().round_trips, 4u);
  // Both modes agree on the answer.
  EXPECT_EQ(batched->GetProvenanceStep("d5")->producer,
            naive->GetProvenanceStep("d5")->producer);
}

TEST_F(FedRpcTest, LineageOverRpcMatchesInProcessAndCountsTrips) {
  CatalogRegistry registry;
  auto rpc = Rpc();
  ASSERT_TRUE(registry.RegisterClient(rpc).ok());
  FederatedProvenance prov(registry);
  Result<LineageNode> over_rpc =
      prov.Lineage(nullptr, "vdp://chain.org/d8");
  ASSERT_TRUE(over_rpc.ok()) << over_rpc.status();
  EXPECT_EQ(LineageDepth(*over_rpc), 8);
  // One compound trip per chain link (9 datasets).
  EXPECT_EQ(rpc->stats().round_trips, 9u);

  CatalogRegistry local;
  ASSERT_TRUE(local.Register(catalog_.get()).ok());
  FederatedProvenance local_prov(local);
  Result<LineageNode> in_process =
      local_prov.Lineage(catalog_.get(), "d8");
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(LineageDepth(*in_process), LineageDepth(*over_rpc));
  EXPECT_EQ(in_process->dataset, over_rpc->dataset);
}

TEST_F(FedRpcTest, FederatedIndexOverRpcMatchesInProcess) {
  FederatedIndex over_rpc("rpc-idx");
  auto rpc = Rpc();
  ASSERT_TRUE(over_rpc.AddSource(rpc).ok());
  ASSERT_TRUE(over_rpc.Refresh().ok());

  FederatedIndex in_process("local-idx");
  ASSERT_TRUE(in_process.AddSource(catalog_.get()).ok());
  ASSERT_TRUE(in_process.Refresh().ok());

  EXPECT_EQ(over_rpc.size(), in_process.size());
  EXPECT_EQ(over_rpc.LookupName("dataset", "d3").size(), 1u);

  // Delta refresh over the wire: version poll + changelog + one batch.
  ASSERT_TRUE(catalog_->ImportVdl("DS extra : Dataset size=\"5\";").ok());
  rpc->reset_stats();
  ASSERT_TRUE(over_rpc.Refresh().ok());
  EXPECT_EQ(over_rpc.LookupName("dataset", "extra").size(), 1u);
  EXPECT_LE(rpc->stats().round_trips, 3u);
}

// --------------------------- Remote cache ----------------------------

TEST_F(FedRpcTest, CacheServesRepeatedReadsFromOneRoundTrip) {
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(cache.GetDataset("d1")->name, "d1");
  }
  EXPECT_EQ(rpc->stats().round_trips, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 4u);

  // Negative answers are cached too.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cache.GetDataset("ghost").status().IsNotFound());
  }
  EXPECT_EQ(rpc->stats().round_trips, 2u);

  // Provenance steps: one compound trip, then local.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache.GetProvenanceStep("d6").ok());
  }
  EXPECT_EQ(rpc->stats().round_trips, 3u);
}

TEST_F(FedRpcTest, RevalidateEvictsExactlyWhatChanged) {
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);
  ASSERT_TRUE(cache.Revalidate().ok());  // sync point
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  ASSERT_TRUE(cache.GetDataset("d2").ok());
  rpc->reset_stats();

  // Server-side mutation the cache hasn't seen: reads stay stale (and
  // local) by design until an explicit revalidation.
  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "touched", true).ok());
  EXPECT_FALSE(cache.GetDataset("d1")->annotations.Has("touched"));
  EXPECT_EQ(rpc->stats().round_trips, 0u);

  // One ChangesSince trip; only d1 is evicted.
  ASSERT_TRUE(cache.Revalidate().ok());
  EXPECT_EQ(rpc->stats().round_trips, 1u);
  EXPECT_TRUE(cache.GetDataset("d1")->annotations.Has("touched"));
  EXPECT_EQ(rpc->stats().round_trips, 2u);  // d1 refetched...
  ASSERT_TRUE(cache.GetDataset("d2").ok());
  EXPECT_EQ(rpc->stats().round_trips, 2u);  // ...d2 still cached
  EXPECT_EQ(cache.synced_version(), catalog_->version());
}

TEST_F(FedRpcTest, ChangelogOverflowFlushesTheWholeCache) {
  catalog_->set_changelog_capacity(4);
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);
  ASSERT_TRUE(cache.Revalidate().ok());
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        catalog_->Annotate("dataset", "d2", "k" + std::to_string(i), i)
            .ok());
  }
  uint64_t flushes_before = cache.stats().flushes;
  ASSERT_TRUE(cache.Revalidate().ok());
  EXPECT_EQ(cache.stats().flushes, flushes_before + 1);
  EXPECT_EQ(cache.synced_version(), catalog_->version());
  // d1 was flushed even though only d2 changed — the window no longer
  // proves d1 unchanged.
  rpc->reset_stats();
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  EXPECT_EQ(rpc->stats().round_trips, 1u);
}

TEST_F(FedRpcTest, CacheWritesThroughAndReadsItsOwnWrites) {
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);
  ASSERT_TRUE(cache.GetDataset("d3").ok());
  ASSERT_TRUE(cache.Annotate("dataset", "d3", "mine", true).ok());
  // The write reached the server...
  EXPECT_TRUE(catalog_->GetDataset("d3")->annotations.Has("mine"));
  // ...and the very next read through the cache sees it, no
  // revalidation required.
  EXPECT_TRUE(cache.GetDataset("d3")->annotations.Has("mine"));
}

TEST_F(FedRpcTest, QueryCacheHitsShareOneImmutableList) {
  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "tier", "gold").ok());
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);

  DatasetQuery q;
  q.predicates = {{"tier", PredicateOp::kEq, "gold"}};
  Result<NameList> first = cache.FindDatasets(q);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(*first, std::vector<std::string>{"d1"});

  // Every subsequent hit aliases the SAME immutable list — one shared
  // rep, not a fresh vector<string> copy per lookup (the PR-9
  // regression: the old cache copied the whole result set per hit).
  for (int i = 0; i < 4; ++i) {
    Result<NameList> hit = cache.FindDatasets(q);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit->identity(), first->identity())
        << "hit " << i << " allocated an independent list";
  }
  EXPECT_EQ(cache.stats().query_hits, 4u);

  // The shared list survives eviction of the cache entry: holders keep
  // their pinned rep alive independently of the cache's lifetime.
  ASSERT_TRUE(cache.Annotate("dataset", "d2", "tier", "gold").ok());
  EXPECT_EQ(*first, std::vector<std::string>{"d1"});
  Result<NameList> refreshed = cache.FindDatasets(q);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_NE(refreshed->identity(), first->identity());
  EXPECT_EQ(refreshed->size(), 2u);
}

TEST_F(FedRpcTest, QueryCacheNormalizesPredicateOrder) {
  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "tier", "gold").ok());
  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "owner", "alice").ok());
  ASSERT_TRUE(catalog_->Annotate("dataset", "d2", "tier", "gold").ok());
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);

  DatasetQuery q1;
  q1.predicates = {{"tier", PredicateOp::kEq, "gold"},
                   {"owner", PredicateOp::kEq, "alice"}};
  DatasetQuery q2;  // the same conjunction, reordered
  q2.predicates = {{"owner", PredicateOp::kEq, "alice"},
                   {"tier", PredicateOp::kEq, "gold"}};

  Result<NameList> first = cache.FindDatasets(q1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, std::vector<std::string>{"d1"});
  EXPECT_EQ(cache.stats().query_misses, 1u);

  // Reordered predicates normalize to the SAME cache entry: answered
  // locally, zero round trips.
  rpc->reset_stats();
  Result<NameList> second = cache.FindDatasets(q2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(cache.stats().query_hits, 1u);
  EXPECT_EQ(cache.stats().query_misses, 1u);
  EXPECT_EQ(rpc->stats().round_trips, 0u);

  // Changing an operand is a genuinely different query.
  DatasetQuery q3 = q1;
  q3.predicates[1].operand = "bob";
  ASSERT_TRUE(cache.FindDatasets(q3).ok());
  EXPECT_EQ(cache.stats().query_misses, 2u);
}

TEST_F(FedRpcTest, QueryCacheInvalidatesPerKind) {
  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "tier", "gold").ok());
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);

  DatasetQuery dq;
  dq.predicates = {{"tier", PredicateOp::kEq, "gold"}};
  TransformationQuery tq;
  tq.name_prefix = "step";
  ASSERT_TRUE(cache.FindDatasets(dq).ok());
  ASSERT_TRUE(cache.FindTransformations(tq).ok());
  EXPECT_EQ(cache.stats().query_misses, 2u);

  // A dataset mutation through the client drops only dataset queries;
  // the transformation result set stays warm.
  ASSERT_TRUE(cache.Annotate("dataset", "d2", "tier", "gold").ok());
  rpc->reset_stats();
  ASSERT_TRUE(cache.FindTransformations(tq).ok());
  EXPECT_EQ(cache.stats().query_hits, 1u);
  EXPECT_EQ(rpc->stats().round_trips, 0u);

  Result<NameList> refetched = cache.FindDatasets(dq);
  ASSERT_TRUE(refetched.ok());
  EXPECT_EQ(cache.stats().query_misses, 3u);  // went upstream again
  // Read-your-writes: the refetched set includes the new member.
  EXPECT_EQ(refetched->size(), 2u);
}

TEST_F(FedRpcTest, CacheCapacityEvictsLeastRecentlyUsed) {
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc, 2);
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  ASSERT_TRUE(cache.GetDataset("d2").ok());
  ASSERT_TRUE(cache.GetDataset("d3").ok());  // evicts d1
  EXPECT_GT(cache.stats().evictions, 0u);
  rpc->reset_stats();
  ASSERT_TRUE(cache.GetDataset("d1").ok());  // miss again
  EXPECT_EQ(rpc->stats().round_trips, 1u);
}

TEST_F(FedRpcTest, ChangesSincePiggybacksObservedChangesIntoTheCache) {
  // Regression: ChangesSince used to pass straight through without
  // applying the returned window to the cache, so a federation caller
  // that had just *observed* an object's change could still read the
  // stale cached copy.
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);
  ASSERT_TRUE(cache.Revalidate().ok());
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  uint64_t synced = cache.synced_version();

  // Server-side change the cache hasn't seen.
  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "touched", true).ok());

  // The caller pays for the change window anyway; the cache must
  // piggyback those invalidations (read-your-observations).
  Result<std::vector<CatalogChange>> changes = cache.ChangesSince(synced);
  ASSERT_TRUE(changes.ok());
  ASSERT_FALSE(changes->empty());
  EXPECT_TRUE(cache.GetDataset("d1")->annotations.Has("touched"));
  // The window started at our sync point, so the sync point advanced:
  // the next Revalidate has nothing left to fetch.
  EXPECT_EQ(cache.synced_version(), catalog_->version());
}

TEST_F(FedRpcTest, ChangesSinceNeverSkipsTheSyncGapForward) {
  // A window that starts *past* our sync point must not advance
  // synced_version_: the unobserved gap could hide invalidations.
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc);
  ASSERT_TRUE(cache.Revalidate().ok());
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  uint64_t synced = cache.synced_version();

  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "touched", true).ok());
  uint64_t after_d1 = catalog_->version();
  ASSERT_TRUE(catalog_->Annotate("dataset", "d2", "touched", true).ok());

  // Ask for changes after the d1 edit only: the returned window does
  // not cover [synced, after_d1], so the sync point must hold.
  Result<std::vector<CatalogChange>> changes = cache.ChangesSince(after_d1);
  ASSERT_TRUE(changes.ok());
  EXPECT_EQ(cache.synced_version(), synced);

  // Revalidate still walks from the old sync point and evicts the
  // stale d1 — the gap was not silently skipped.
  ASSERT_TRUE(cache.Revalidate().ok());
  EXPECT_TRUE(cache.GetDataset("d1")->annotations.Has("touched"));
  EXPECT_EQ(cache.synced_version(), catalog_->version());
}

TEST_F(FedRpcTest, StepCacheEvictsPerEntryNotWholesale) {
  // Regression: the provenance-step cache used clear-on-overflow —
  // one insert past capacity dumped every cached step. It must
  // displace only the least recently used entry, like the object
  // cache.
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc, 3);
  ASSERT_TRUE(cache.GetProvenanceStep("d1").ok());
  ASSERT_TRUE(cache.GetProvenanceStep("d2").ok());
  ASSERT_TRUE(cache.GetProvenanceStep("d3").ok());
  // Touch d1 so d2 becomes least recently used.
  ASSERT_TRUE(cache.GetProvenanceStep("d1").ok());
  rpc->reset_stats();
  ASSERT_TRUE(cache.GetProvenanceStep("d4").ok());  // displaces ONLY d2
  EXPECT_EQ(rpc->stats().round_trips, 1u);
  ASSERT_TRUE(cache.GetProvenanceStep("d1").ok());
  ASSERT_TRUE(cache.GetProvenanceStep("d3").ok());
  ASSERT_TRUE(cache.GetProvenanceStep("d4").ok());
  EXPECT_EQ(rpc->stats().round_trips, 1u);  // all three still cached
  ASSERT_TRUE(cache.GetProvenanceStep("d2").ok());  // the displaced one
  EXPECT_EQ(rpc->stats().round_trips, 2u);
}

TEST_F(FedRpcTest, QueryCacheEvictsPerEntryNotWholesale) {
  // Regression: same clear-on-overflow bug in the Find* result-set
  // cache.
  auto rpc = Rpc();
  CachingCatalogClient cache(rpc, 2);
  DatasetQuery q1;
  q1.name_prefix = "d1";
  DatasetQuery q2;
  q2.name_prefix = "d2";
  DatasetQuery q3;
  q3.name_prefix = "d3";
  ASSERT_TRUE(cache.FindDatasets(q1).ok());
  ASSERT_TRUE(cache.FindDatasets(q2).ok());
  // Touch q1 so q2 becomes least recently used.
  ASSERT_TRUE(cache.FindDatasets(q1).ok());
  ASSERT_TRUE(cache.FindDatasets(q3).ok());  // displaces ONLY q2
  rpc->reset_stats();
  ASSERT_TRUE(cache.FindDatasets(q1).ok());
  ASSERT_TRUE(cache.FindDatasets(q3).ok());
  EXPECT_EQ(rpc->stats().round_trips, 0u);  // both still cached
  ASSERT_TRUE(cache.FindDatasets(q2).ok());  // the displaced one
  EXPECT_EQ(rpc->stats().round_trips, 1u);
}

/// Every CacheStats counter, comparable as one value.
auto StatsTuple(const CacheStats& s) {
  return std::make_tuple(s.hits, s.misses, s.revalidations, s.evictions,
                         s.flushes, s.query_hits, s.query_misses,
                         s.degraded_hits, s.stale_rejections);
}

/// The fixed read set a cache is warmed with and probed by: objects
/// (including a negative entry), provenance steps, and Find* result
/// sets. Returns, per read, whether the cache answered it locally.
std::vector<bool> ReadProbeSet(CachingCatalogClient& cache) {
  std::vector<bool> hits;
  auto read = [&](auto&& call) {
    const CacheStats before = cache.stats();
    call();
    const CacheStats after = cache.stats();
    hits.push_back(after.hits + after.query_hits >
                   before.hits + before.query_hits);
  };
  for (int i = 0; i <= 9; ++i) {
    const std::string d = "d" + std::to_string(i);
    read([&] { (void)cache.GetDataset(d); });
    read([&] { (void)cache.GetProvenanceStep(d); });
    read([&] { (void)cache.GetDerivation("l" + std::to_string(i)); });
  }
  read([&] { (void)cache.GetTransformation("step"); });
  read([&] { (void)cache.GetTransformation("step2"); });
  DatasetQuery datasets;
  datasets.name_prefix = "d";
  read([&] { (void)cache.FindDatasets(datasets); });
  read([&] { (void)cache.FindTransformations(TransformationQuery{}); });
  read([&] { (void)cache.FindDerivations(DerivationQuery{}); });
  return hits;
}

TEST_F(FedRpcTest, CacheEvictsTheSameForSingleAndBatchedMutations) {
  Transformation step2("step2", Transformation::Kind::kSimple);
  FormalArg out;
  out.name = "out";
  out.direction = ArgDirection::kOut;
  ASSERT_TRUE(step2.AddArg(out).ok());
  step2.set_executable("/bin/step2");
  Derivation l9("l9", "step");
  ASSERT_TRUE(
      l9.AddArg(ActualArg::DatasetRef("out", "d9", ArgDirection::kOut)).ok());
  ASSERT_TRUE(
      l9.AddArg(ActualArg::DatasetRef("in", "d8", ArgDirection::kIn)).ok());
  Dataset fresh;
  fresh.name = "d-new";
  Replica replica;
  replica.dataset = "d2";
  replica.site = "site0";
  Invocation invocation;
  invocation.derivation = "l3";

  struct Case {
    const char* label;
    std::function<Status(CatalogClient&)> single;
    CatalogMutation batched;
  };
  const std::vector<Case> cases = {
      {"DefineDataset",
       [&](CatalogClient& c) { return c.DefineDataset(fresh); },
       CatalogMutation::DefineDataset(fresh)},
      {"DefineTransformation",
       [&](CatalogClient& c) { return c.DefineTransformation(step2); },
       CatalogMutation::DefineTransformation(step2)},
      {"DefineDerivation",
       [&](CatalogClient& c) { return c.DefineDerivation(l9); },
       CatalogMutation::DefineDerivation(l9)},
      {"AnnotateDataset",
       [](CatalogClient& c) { return c.Annotate("dataset", "d4", "k", "v"); },
       CatalogMutation::Annotate("dataset", "d4", "k", "v")},
      {"AnnotateTransformation",
       [](CatalogClient& c) {
         return c.Annotate("transformation", "step", "k", "v");
       },
       CatalogMutation::Annotate("transformation", "step", "k", "v")},
      {"AnnotateDerivation",
       [](CatalogClient& c) {
         return c.Annotate("derivation", "l5", "k", "v");
       },
       CatalogMutation::Annotate("derivation", "l5", "k", "v")},
      {"AnnotateReplica",
       [](CatalogClient& c) { return c.Annotate("replica", "rp-1", "k", "v"); },
       CatalogMutation::Annotate("replica", "rp-1", "k", "v")},
      {"AddReplica",
       [&](CatalogClient& c) { return c.AddReplica(replica).status(); },
       CatalogMutation::AddReplica(replica)},
      {"RecordInvocation",
       [&](CatalogClient& c) {
         return c.RecordInvocation(invocation).status();
       },
       CatalogMutation::RecordInvocation(invocation)},
      {"SetDatasetSize",
       [](CatalogClient& c) { return c.SetDatasetSize("d6", 4096); },
       CatalogMutation::SetDatasetSize("d6", 4096)},
      {"InvalidateReplica",
       [](CatalogClient& c) { return c.InvalidateReplica("rp-1"); },
       CatalogMutation::InvalidateReplica("rp-1")},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    // Two identical catalogs, each behind its own warmed cache.
    std::vector<std::unique_ptr<VirtualDataCatalog>> catalogs;
    std::vector<std::unique_ptr<CachingCatalogClient>> caches;
    for (int k = 0; k < 2; ++k) {
      catalogs.push_back(ChainCatalog(8));
      Replica seeded = replica;
      seeded.dataset = "d1";
      ASSERT_EQ(catalogs.back()->AddReplica(seeded).value_or(""), "rp-1");
      caches.push_back(std::make_unique<CachingCatalogClient>(
          std::make_shared<InProcessCatalogClient>(catalogs.back().get())));
      ReadProbeSet(*caches.back());
    }
    ASSERT_EQ(StatsTuple(caches[0]->stats()), StatsTuple(caches[1]->stats()));

    ASSERT_TRUE(c.single(*caches[0]).ok());
    Result<BatchResult> batch = caches[1]->ApplyBatch({c.batched});
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_TRUE(batch->first_error.ok()) << batch->first_error;
    EXPECT_EQ(StatsTuple(caches[0]->stats()), StatsTuple(caches[1]->stats()));

    EXPECT_EQ(ReadProbeSet(*caches[0]), ReadProbeSet(*caches[1]));
    EXPECT_EQ(StatsTuple(caches[0]->stats()), StatsTuple(caches[1]->stats()));
  }
}

// -------------------- Executor writes over the boundary --------------

TEST_F(FedRpcTest, ExecutorProvenanceWritesGoThroughTheClient) {
  VirtualDataCatalog catalog("exec.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::CanonicalGraphOptions options;
  options.num_derivations = 12;
  options.num_raw_inputs = 3;
  options.seed = 5;
  Result<workload::CanonicalGraph> graph =
      workload::GenerateCanonicalGraph(&catalog, options);
  ASSERT_TRUE(graph.ok());
  GridSimulator grid(workload::SmallTestbed(), 5);
  for (size_t i = 0; i < graph->raw_inputs.size(); ++i) {
    const std::string site = i % 2 == 0 ? "east" : "west";
    ASSERT_TRUE(
        grid.PlaceFile(site, graph->raw_inputs[i], 1 << 20, true).ok());
    Replica r;
    r.dataset = graph->raw_inputs[i];
    r.site = site;
    r.size_bytes = 1 << 20;
    ASSERT_TRUE(catalog.AddReplica(r).ok());
  }
  CostEstimator estimator;
  RequestPlanner planner(catalog, grid.topology(), &grid.rls(), estimator);
  PlannerOptions popts;
  popts.target_site = "east";
  Result<ExecutionPlan> plan = planner.Plan(graph->sinks.front(), popts);
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Writes flow through a caching client (no RunUntil re-entrancy:
  // the cache is transport-free). The run must succeed and leave the
  // same provenance a direct-catalog run would.
  auto writer = std::make_shared<CachingCatalogClient>(
      std::make_shared<InProcessCatalogClient>(&catalog, false));
  WorkflowEngine engine(&grid, &catalog);
  engine.set_catalog_writer(writer);
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_TRUE(catalog.IsMaterialized(graph->sinks.front()));
  EXPECT_FALSE(catalog.InvocationsOf(plan->nodes.back().derivation.name())
                   .empty());
}

TEST_F(FedRpcTest, ReadOnlyWriterFailsProvenanceButNotScheduling) {
  // A read-only writer cannot record anything; the engine must surface
  // failed provenance writes as warnings, not crash. (The run itself
  // still completes — scheduling reads bypass the writer.)
  auto ro_writer = std::make_shared<InProcessCatalogClient>(
      static_cast<const VirtualDataCatalog*>(catalog_.get()));
  EXPECT_TRUE(ro_writer->read_only());
  EXPECT_TRUE(ro_writer->RecordInvocation(Invocation{})
                  .status()
                  .IsPermissionDenied());
}

}  // namespace
}  // namespace vdg
