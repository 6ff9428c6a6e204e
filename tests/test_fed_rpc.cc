// Service-boundary tests: the CatalogClient interface, the wire
// transport (WireCatalogClient -> CatalogServer, with loss and site
// outages injected under ResilientCatalogClient), request batching,
// and the version-invalidated remote object cache. The through-line:
// everything that works in-process works identically over the wire at
// zero fault rates, and the batching/cache layers only change how many
// round trips it costs.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog/client.h"
#include "executor/executor.h"
#include "federation/faulty_transport.h"
#include "federation/index.h"
#include "federation/registry.h"
#include "federation/remote_cache.h"
#include "federation/resilient_client.h"
#include "federation/server.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
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
  FedRpcTest()
      : catalog_(ChainCatalog(8)),
        server_(std::make_shared<InProcessCatalogClient>(catalog_.get())) {}

  /// A wire client on server_, its counters reset after the handshake
  /// so `stats().round_trips` counts only the test's own calls.
  std::shared_ptr<WireCatalogClient> Wire() {
    Result<std::shared_ptr<WireCatalogClient>> client =
        WireCatalogClient::Connect(&server_);
    if (!client.ok()) {
      ADD_FAILURE() << client.status();
      return nullptr;
    }
    (*client)->reset_stats();
    return *client;
  }

  /// A resilient client with one endpoint on server_. While
  /// `refusals_left_` is positive the endpoint refuses each dial — a
  /// site outage; otherwise it dials through a FaultyChannel driven by
  /// `injector`. `live_` is the last connection dialed.
  std::unique_ptr<ResilientCatalogClient> Resilient(
      std::shared_ptr<FaultInjector> injector, ResilientOptions options) {
    ResilientEndpoint endpoint;
    endpoint.name = "east";
    endpoint.connect = [this, injector]()
        -> Result<std::shared_ptr<CatalogClient>> {
      if (refusals_left_ > 0) {
        --refusals_left_;
        return Status::Unavailable("site east is down");
      }
      Result<std::shared_ptr<WireCatalogClient>> dialed =
          ConnectFaulty(&server_, injector);
      if (!dialed.ok()) return dialed.status();
      live_ = *dialed;
      return std::static_pointer_cast<CatalogClient>(live_);
    };
    options.backoff_base = std::chrono::milliseconds(1);
    // One endpoint has nowhere to fail over to: keep its breaker closed
    // for a whole call's attempts.
    options.breaker_threshold = options.max_attempts;
    std::vector<ResilientEndpoint> endpoints;
    endpoints.push_back(std::move(endpoint));
    return std::make_unique<ResilientCatalogClient>(std::move(endpoints),
                                                    options);
  }

  std::unique_ptr<VirtualDataCatalog> catalog_;
  CatalogServer server_;
  int refusals_left_ = 0;
  std::shared_ptr<WireCatalogClient> live_;
};

// ------------------------- In-process adapter ------------------------

TEST_F(FedRpcTest, InProcessClientMatchesDirectCatalogAccess) {
  InProcessCatalogClient client(catalog_.get());
  EXPECT_EQ(client.authority(), "chain.org");
  EXPECT_FALSE(client.read_only());

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

// -------------------------- Wire transport ---------------------------

TEST_F(FedRpcTest, LossyTransportRetriesUntilSuccess) {
  FaultProfile profile;
  profile.reset_rate = 0.4;  // request frames lost before delivery
  auto injector = std::make_shared<FaultInjector>(profile, 7);
  ResilientOptions options;
  options.max_attempts = 16;
  auto client = Resilient(injector, options);
  // The constructor's eager dial may already have lost a frame.
  const uint64_t lost_before = injector->stats().resets.load();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->HasDataset("d0").ok());
  }
  // Every lost frame (a call's or a re-dial's handshake) cost exactly
  // one retry, and no call ran out of attempts.
  const uint64_t lost = injector->stats().resets.load() - lost_before;
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(client->stats().retries, lost);
  EXPECT_EQ(client->stats().exhausted_calls, 0u);
}

TEST_F(FedRpcTest, OutageRejectsThenBackoffOutlivesTheOutage) {
  ResilientOptions options;
  options.max_attempts = 6;
  auto client =
      Resilient(std::make_shared<FaultInjector>(FaultProfile{}, 7), options);
  ASSERT_TRUE(client->HasDataset("d0").ok());  // site up: one clean trip

  // The site goes down: the live connection drops and the next three
  // dials are refused. The call retries with backoff through the dead
  // connection and the refusals, and the fourth dial gets through.
  refusals_left_ = 3;
  live_->Disconnect();
  Result<bool> has = client->HasDataset("d4");
  ASSERT_TRUE(has.ok()) << has.status();
  EXPECT_TRUE(*has);
  EXPECT_EQ(refusals_left_, 0);
  EXPECT_EQ(client->stats().retries, 4u);
  EXPECT_EQ(client->stats().exhausted_calls, 0u);
}

TEST_F(FedRpcTest, LineageOverRpcMatchesInProcessAndCountsTrips) {
  CatalogRegistry registry;
  auto wire = Wire();
  ASSERT_TRUE(registry.RegisterClient(wire).ok());
  ProvenanceTracker prov(*wire, &registry);
  Result<LineageNode> over_wire = prov.Lineage("vdp://chain.org/d8");
  ASSERT_TRUE(over_wire.ok()) << over_wire.status();
  EXPECT_EQ(LineageDepth(*over_wire), 8);
  // One compound trip per chain link (9 datasets).
  EXPECT_EQ(wire->stats().round_trips, 9u);

  CatalogRegistry local;
  ASSERT_TRUE(local.Register(catalog_.get()).ok());
  InProcessCatalogClient home(catalog_.get());
  ProvenanceTracker local_prov(home, &local);
  Result<LineageNode> in_process = local_prov.Lineage("d8");
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(LineageDepth(*in_process), LineageDepth(*over_wire));
  EXPECT_EQ(in_process->dataset, over_wire->dataset);
}

TEST_F(FedRpcTest, FederatedIndexOverRpcMatchesInProcess) {
  FederatedIndex over_wire("wire-idx");
  auto wire = Wire();
  ASSERT_TRUE(over_wire.AddSource(wire).ok());
  ASSERT_TRUE(over_wire.Refresh().ok());

  FederatedIndex in_process("local-idx");
  ASSERT_TRUE(in_process.AddSource(catalog_.get()).ok());
  ASSERT_TRUE(in_process.Refresh().ok());

  EXPECT_EQ(over_wire.size(), in_process.size());
  EXPECT_EQ(over_wire.LookupName("dataset", "d3").size(), 1u);

  // Delta refresh over the wire: version poll + changelog + one batch.
  ASSERT_TRUE(catalog_->ImportVdl("DS extra : Dataset size=\"5\";").ok());
  wire->reset_stats();
  ASSERT_TRUE(over_wire.Refresh().ok());
  EXPECT_EQ(over_wire.LookupName("dataset", "extra").size(), 1u);
  EXPECT_LE(wire->stats().round_trips, 3u);
}

// --------------------------- Remote cache ----------------------------

TEST_F(FedRpcTest, CacheServesRepeatedReadsFromOneRoundTrip) {
  auto wire = Wire();
  CachingCatalogClient cache(wire);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(cache.GetDataset("d1")->name, "d1");
  }
  EXPECT_EQ(wire->stats().round_trips, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 4u);

  // Negative answers are cached too.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cache.GetDataset("ghost").status().IsNotFound());
  }
  EXPECT_EQ(wire->stats().round_trips, 2u);

  // Provenance steps: one compound trip, then local.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache.GetProvenanceStep("d6").ok());
  }
  EXPECT_EQ(wire->stats().round_trips, 3u);
}

TEST_F(FedRpcTest, RevalidateEvictsExactlyWhatChanged) {
  auto wire = Wire();
  CachingCatalogClient cache(wire);
  ASSERT_TRUE(cache.Revalidate().ok());  // sync point
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  ASSERT_TRUE(cache.GetDataset("d2").ok());
  wire->reset_stats();

  // Server-side mutation the cache hasn't seen: reads stay stale (and
  // local) by design until an explicit revalidation.
  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "touched", true).ok());
  EXPECT_FALSE(cache.GetDataset("d1")->annotations.Has("touched"));
  EXPECT_EQ(wire->stats().round_trips, 0u);

  // One ChangesSince trip; only d1 is evicted.
  ASSERT_TRUE(cache.Revalidate().ok());
  EXPECT_EQ(wire->stats().round_trips, 1u);
  EXPECT_TRUE(cache.GetDataset("d1")->annotations.Has("touched"));
  EXPECT_EQ(wire->stats().round_trips, 2u);  // d1 refetched...
  ASSERT_TRUE(cache.GetDataset("d2").ok());
  EXPECT_EQ(wire->stats().round_trips, 2u);  // ...d2 still cached
  EXPECT_EQ(cache.synced_version(), catalog_->version());
}

TEST_F(FedRpcTest, ChangelogOverflowFlushesTheWholeCache) {
  catalog_->set_changelog_capacity(4);
  auto wire = Wire();
  CachingCatalogClient cache(wire);
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
  wire->reset_stats();
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  EXPECT_EQ(wire->stats().round_trips, 1u);
}

TEST_F(FedRpcTest, CacheWritesThroughAndReadsItsOwnWrites) {
  auto wire = Wire();
  CachingCatalogClient cache(wire);
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
  auto wire = Wire();
  CachingCatalogClient cache(wire);

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
  auto wire = Wire();
  CachingCatalogClient cache(wire);

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
  wire->reset_stats();
  Result<NameList> second = cache.FindDatasets(q2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(cache.stats().query_hits, 1u);
  EXPECT_EQ(cache.stats().query_misses, 1u);
  EXPECT_EQ(wire->stats().round_trips, 0u);

  // Changing an operand is a genuinely different query.
  DatasetQuery q3 = q1;
  q3.predicates[1].operand = "bob";
  ASSERT_TRUE(cache.FindDatasets(q3).ok());
  EXPECT_EQ(cache.stats().query_misses, 2u);
}

TEST_F(FedRpcTest, QueryCacheInvalidatesPerKind) {
  ASSERT_TRUE(catalog_->Annotate("dataset", "d1", "tier", "gold").ok());
  auto wire = Wire();
  CachingCatalogClient cache(wire);

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
  wire->reset_stats();
  ASSERT_TRUE(cache.FindTransformations(tq).ok());
  EXPECT_EQ(cache.stats().query_hits, 1u);
  EXPECT_EQ(wire->stats().round_trips, 0u);

  Result<NameList> refetched = cache.FindDatasets(dq);
  ASSERT_TRUE(refetched.ok());
  EXPECT_EQ(cache.stats().query_misses, 3u);  // went upstream again
  // Read-your-writes: the refetched set includes the new member.
  EXPECT_EQ(refetched->size(), 2u);
}

TEST_F(FedRpcTest, CacheCapacityEvictsLeastRecentlyUsed) {
  auto wire = Wire();
  CachingCatalogClient cache(wire, 2);
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  ASSERT_TRUE(cache.GetDataset("d2").ok());
  ASSERT_TRUE(cache.GetDataset("d3").ok());  // evicts d1
  EXPECT_GT(cache.stats().evictions, 0u);
  wire->reset_stats();
  ASSERT_TRUE(cache.GetDataset("d1").ok());  // miss again
  EXPECT_EQ(wire->stats().round_trips, 1u);
}

TEST_F(FedRpcTest, ChangesSincePiggybacksObservedChangesIntoTheCache) {
  // Regression: ChangesSince used to pass straight through without
  // applying the returned window to the cache, so a federation caller
  // that had just *observed* an object's change could still read the
  // stale cached copy.
  auto wire = Wire();
  CachingCatalogClient cache(wire);
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
  auto wire = Wire();
  CachingCatalogClient cache(wire);
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
  auto wire = Wire();
  CachingCatalogClient cache(wire, 3);
  ASSERT_TRUE(cache.GetProvenanceStep("d1").ok());
  ASSERT_TRUE(cache.GetProvenanceStep("d2").ok());
  ASSERT_TRUE(cache.GetProvenanceStep("d3").ok());
  // Touch d1 so d2 becomes least recently used.
  ASSERT_TRUE(cache.GetProvenanceStep("d1").ok());
  wire->reset_stats();
  ASSERT_TRUE(cache.GetProvenanceStep("d4").ok());  // displaces ONLY d2
  EXPECT_EQ(wire->stats().round_trips, 1u);
  ASSERT_TRUE(cache.GetProvenanceStep("d1").ok());
  ASSERT_TRUE(cache.GetProvenanceStep("d3").ok());
  ASSERT_TRUE(cache.GetProvenanceStep("d4").ok());
  EXPECT_EQ(wire->stats().round_trips, 1u);  // all three still cached
  ASSERT_TRUE(cache.GetProvenanceStep("d2").ok());  // the displaced one
  EXPECT_EQ(wire->stats().round_trips, 2u);
}

TEST_F(FedRpcTest, QueryCacheEvictsPerEntryNotWholesale) {
  // Regression: same clear-on-overflow bug in the Find* result-set
  // cache.
  auto wire = Wire();
  CachingCatalogClient cache(wire, 2);
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
  wire->reset_stats();
  ASSERT_TRUE(cache.FindDatasets(q1).ok());
  ASSERT_TRUE(cache.FindDatasets(q3).ok());
  EXPECT_EQ(wire->stats().round_trips, 0u);  // both still cached
  ASSERT_TRUE(cache.FindDatasets(q2).ok());  // the displaced one
  EXPECT_EQ(wire->stats().round_trips, 1u);
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
  InProcessCatalogClient planner_client(&catalog);
  RequestPlanner planner(planner_client, grid.topology(), &grid.rls(),
                         estimator);
  PlannerOptions popts;
  popts.target_site = "east";
  Result<ExecutionPlan> plan = planner.Plan(graph->sinks.front(), popts);
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Reads and writes flow through a caching client (the wire version
  // is CatalogServerRuntime.ExecutorWriteBackOverTheWireMatchesInProcess).
  // The run must succeed and leave the same provenance a direct-catalog
  // run would.
  CachingCatalogClient cached(
      std::make_shared<InProcessCatalogClient>(&catalog, false));
  WorkflowEngine engine(&grid, cached);
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_TRUE(catalog.IsMaterialized(graph->sinks.front()));
  EXPECT_FALSE(catalog.InvocationsOf(plan->nodes.back().derivation.name())
                   .empty());
}

TEST_F(FedRpcTest, ReadOnlyWriterFailsProvenanceButNotScheduling) {
  // A read-only client cannot record anything; the engine must surface
  // failed provenance writes as warnings, not crash. (The run itself
  // still completes — scheduling only reads.)
  auto ro_writer = std::make_shared<InProcessCatalogClient>(
      static_cast<const VirtualDataCatalog*>(catalog_.get()));
  EXPECT_TRUE(ro_writer->read_only());
  EXPECT_TRUE(ro_writer->RecordInvocation(Invocation{})
                  .status()
                  .IsPermissionDenied());
}

}  // namespace
}  // namespace vdg
