// Chaos tests for the fault-hardened wire federation path: a seeded
// FaultyChannel perturbs the byte stream under WireCatalogClient while
// ResilientCatalogClient turns resets, corruption, refusals, and
// drains into — at worst — latency. The through-line: under injected
// faults the *observable catalog state* ends bit-identical to a
// fault-free run (no lost work, no double-applied batches), and when
// every replica is down the cache degrades within an explicit
// staleness bound instead of lying forever.
//
// Every test seeds its injector from VDG_FAULT_SEED (default 42), so a
// CI multi-seed failure reproduces locally by exporting the seed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/client.h"
#include "federation/faulty_transport.h"
#include "federation/registry.h"
#include "federation/remote_cache.h"
#include "federation/resilient_client.h"
#include "federation/server.h"

namespace vdg {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("VDG_FAULT_SEED");
  return env ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 42u;
}

constexpr const char* kStepTr = R"(
TR step( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/step";
}
)";

/// d0 -> d1 -> ... -> dN linear chain (d0 raw), the Figure 3 shape.
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

/// A two-replica wire deployment over ONE backend catalog: two
/// CatalogServers sharing the batch-dedup window (the storage-level
/// model), plus a ResilientCatalogClient dialing both through the
/// same seeded fault injector.
struct Replicated {
  std::unique_ptr<VirtualDataCatalog> catalog;
  std::shared_ptr<BatchDedupRegistry> dedup;
  std::unique_ptr<CatalogServer> a;
  std::unique_ptr<CatalogServer> b;
  std::shared_ptr<FaultInjector> injector;
  std::unique_ptr<ResilientCatalogClient> client;
};

Replicated MakeReplicated(const FaultProfile& profile, uint64_t seed,
                          ResilientOptions ropts = {}) {
  Replicated r;
  r.catalog = ChainCatalog(8);
  r.dedup = std::make_shared<BatchDedupRegistry>();
  ServerOptions sopts;
  sopts.batch_dedup = r.dedup;
  auto backend =
      std::make_shared<InProcessCatalogClient>(r.catalog.get(), false);
  r.a = std::make_unique<CatalogServer>(backend, sopts);
  r.b = std::make_unique<CatalogServer>(backend, sopts);
  r.injector = std::make_shared<FaultInjector>(profile, seed);
  std::vector<ResilientEndpoint> endpoints;
  for (CatalogServer* server : {r.a.get(), r.b.get()}) {
    ResilientEndpoint ep;
    ep.name = server == r.a.get() ? "replica-a" : "replica-b";
    ep.connect = [server, injector = r.injector]()
        -> Result<std::shared_ptr<CatalogClient>> {
      // Keep the wire deadline well under the retry budget: a
      // poisoned stream (corrupted length prefix) hangs until the
      // deadline, and the resilient layer needs budget left to
      // reconnect and retry.
      WireClientOptions copts;
      copts.default_deadline = std::chrono::milliseconds(250);
      auto c = ConnectFaulty(server, injector, copts);
      if (!c.ok()) return c.status();
      return std::static_pointer_cast<CatalogClient>(*c);
    };
    endpoints.push_back(std::move(ep));
  }
  ropts.seed = seed;
  r.client =
      std::make_unique<ResilientCatalogClient>(std::move(endpoints), ropts);
  return r;
}

/// The FIG3 lineage walk: d8 back to the raw input, one
/// GetProvenanceStep per hop. Returns the hop count (8 for the chain).
int ChainWalk(CatalogClient& client) {
  std::string cursor = "d8";
  int hops = 0;
  while (true) {
    Result<ProvenanceStep> step = client.GetProvenanceStep(cursor);
    EXPECT_TRUE(step.ok()) << step.status();
    if (!step.ok() || step->producer.empty()) break;
    EXPECT_TRUE(step->derivation.has_value());
    if (!step->derivation.has_value()) break;
    std::vector<std::string> inputs = step->derivation->InputDatasets();
    EXPECT_FALSE(inputs.empty());
    if (inputs.empty()) break;
    cursor = inputs.front();
    if (++hops >= 32) break;
  }
  return hops;
}

/// The executor's provenance write-back shape, shipped as one tokened
/// batch: a replica, an invocation consuming it, an annotation on the
/// assigned invocation id.
Result<BatchResult> WriteBack(CatalogClient& client, const std::string& site) {
  Replica rep;
  rep.dataset = "d1";
  rep.site = site;
  rep.size_bytes = 1024;
  Invocation inv;
  inv.derivation = "l1";
  inv.context.site = site;
  std::vector<CatalogMutation> batch;
  batch.push_back(CatalogMutation::AddReplica(rep));
  batch.push_back(CatalogMutation::RecordInvocation(inv, {0}));
  batch.push_back(
      CatalogMutation::AnnotateAssigned("invocation", 1, "note", "fig3"));
  return client.ApplyBatch(batch);
}

// ------------------------- fault determinism -------------------------

TEST(WireFaults, SameSeedReplaysTheIdenticalFaultSchedule) {
  FaultProfile profile;
  profile.reset_rate = 0.1;
  profile.corrupt_rate = 0.1;
  profile.short_write_rate = 0.2;

  auto run = [&](uint64_t seed) {
    Replicated r = MakeReplicated(profile, seed);
    ChainWalk(*r.client);
    const FaultStats& s = r.injector->stats();
    return std::vector<uint64_t>{s.resets.load(), s.corruptions.load(),
                                 s.short_writes.load(),
                                 s.connects_refused.load()};
  };
  const uint64_t seed = FaultSeed();
  EXPECT_EQ(run(seed), run(seed));
}

// --------------------- short writes (regression) ---------------------

// Regression for the frame writer treating a short write as success:
// with EVERY Send accepting only a prefix, each frame takes several
// Send calls, and one dropped tail would hang or corrupt the stream.
TEST(WireFaults, ShortWritesAreLoopedUntilTheFrameFlushes) {
  auto catalog = ChainCatalog(4);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get(), false));
  FaultProfile profile;
  profile.short_write_rate = 1.0;
  auto injector = std::make_shared<FaultInjector>(profile, FaultSeed());
  auto client = ConnectFaulty(&server, injector);
  ASSERT_TRUE(client.ok()) << client.status();

  for (int i = 0; i < 25; ++i) {
    Result<Dataset> ds = (*client)->GetDataset("d" + std::to_string(i % 4));
    ASSERT_TRUE(ds.ok()) << ds.status();
  }
  Dataset ds;
  ds.name = "short-write-ds";
  ds.size_bytes = 512;
  ASSERT_TRUE((*client)->DefineDataset(ds).ok());
  EXPECT_TRUE(catalog->HasDataset("short-write-ds"));
  // The fault actually fired — many times, since every frame needs
  // multiple Send calls to flush.
  EXPECT_GT(injector->stats().short_writes.load(), 25u);
  EXPECT_EQ(server.stats().protocol_errors.load(), 0u);
}

// ----------------------- retry-safety discipline ---------------------

TEST(WireFaults, LostResponseSurfacesRetryUnsafeToTheBareClient) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  auto server = std::make_unique<CatalogServer>(
      std::make_shared<InProcessCatalogClient>(catalog.get(), false), opts);
  server->set_handler_delay(std::chrono::microseconds(150'000));
  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(10'000);
  auto client = WireCatalogClient::Connect(server.get(), copts);
  ASSERT_TRUE(client.ok());
  (*client)->reset_stats();  // drop the handshake's counters

  // Kill the connection under the client while a slow mutation is in
  // flight: the send completed, so the client cannot know whether it
  // executed — the failure must be marked retry-unsafe.
  std::atomic<bool> got_status{false};
  Status in_flight;
  std::thread caller([&] {
    in_flight = (*client)->SetDatasetSize("d1", 9999);
    got_status = true;
  });
  for (int i = 0; i < 500; ++i) {
    if ((*client)->stats().bytes_sent > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server->Shutdown();
  caller.join();
  ASSERT_TRUE(got_status.load());
  ASSERT_FALSE(in_flight.ok());
  EXPECT_TRUE(in_flight.IsUnavailable()) << in_flight;
  EXPECT_FALSE(in_flight.retry_safe()) << in_flight;

  // A call issued AFTER the break never went out at all, so it stays
  // retry-safe: only the ambiguous in-flight failure carries the mark.
  Result<uint64_t> after = (*client)->Version();
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsUnavailable());
  EXPECT_TRUE(after.status().retry_safe()) << after.status();
}

TEST(WireFaults, ResilientClientFailsMutationsFastWhenOutcomeIsUnknown) {
  // The connection breaks while a mutation is in flight: the request
  // reached the server, the reply never arrives. The resilient client
  // must NOT blindly re-send it — it surfaces the retry-unsafe
  // Unavailable after the first ambiguous attempt.
  ResilientOptions ropts;
  ropts.max_attempts = 6;
  ropts.backoff_base = std::chrono::milliseconds(1);
  Replicated r = MakeReplicated(FaultProfile{}, FaultSeed(), ropts);
  ASSERT_TRUE(r.client->HasDataset("d1").ok());  // warm the connection

  r.a->set_handler_delay(std::chrono::microseconds(150'000));
  r.b->set_handler_delay(std::chrono::microseconds(150'000));
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    r.a->Shutdown();
    r.b->Shutdown();
  });
  Status st = r.client->SetDatasetSize("d1", 2048);
  killer.join();
  EXPECT_TRUE(st.IsUnavailable()) << st;
  EXPECT_FALSE(st.retry_safe());
  EXPECT_EQ(r.client->stats().mutation_fail_fast, 1u);
  EXPECT_EQ(r.client->stats().retries, 0u);  // never re-sent
}

// -------------------- reconnect / failover / breaker -----------------

TEST(WireFaults, ReadsSurviveResetsAndCorruptionAcrossReplicas) {
  FaultProfile profile;
  profile.reset_rate = 0.05;
  profile.corrupt_rate = 0.05;
  profile.recv_corrupt_rate = 0.02;
  ResilientOptions ropts;
  ropts.backoff_base = std::chrono::milliseconds(1);
  ropts.max_attempts = 12;
  ropts.retry_budget = std::chrono::milliseconds(10'000);
  Replicated r = MakeReplicated(profile, FaultSeed(), ropts);

  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(ChainWalk(*r.client), 8);
  }
  // The schedule actually injected faults, and the client absorbed
  // every one of them.
  EXPECT_GT(r.injector->stats().total(), 0u);
  EXPECT_GT(r.client->stats().retries + r.client->stats().reconnects, 0u);
}

TEST(WireFaults, AffinityRoutesAroundADeadEndpointAfterOneFailover) {
  auto catalog = ChainCatalog(4);
  auto backend =
      std::make_shared<InProcessCatalogClient>(catalog.get(), false);
  CatalogServer healthy(backend);
  CatalogServer doomed(backend);

  FaultProfile refuse_all;
  refuse_all.refuse_connect_rate = 1.0;
  auto dead_injector =
      std::make_shared<FaultInjector>(refuse_all, FaultSeed());
  auto live_injector =
      std::make_shared<FaultInjector>(FaultProfile{}, FaultSeed());

  ResilientEndpoint dead;
  dead.name = "dead";
  dead.connect = [&doomed, dead_injector]()
      -> Result<std::shared_ptr<CatalogClient>> {
    auto c = ConnectFaulty(&doomed, dead_injector);
    if (!c.ok()) return c.status();
    return std::static_pointer_cast<CatalogClient>(*c);
  };
  ResilientEndpoint live;
  live.name = "live";
  live.connect = [&healthy, live_injector]()
      -> Result<std::shared_ptr<CatalogClient>> {
    auto c = ConnectFaulty(&healthy, live_injector);
    if (!c.ok()) return c.status();
    return std::static_pointer_cast<CatalogClient>(*c);
  };

  ResilientOptions ropts;
  ropts.backoff_base = std::chrono::milliseconds(1);
  std::vector<ResilientEndpoint> eps;
  eps.push_back(std::move(dead));  // listed FIRST: the natural start
  eps.push_back(std::move(live));
  ResilientCatalogClient client(std::move(eps), ropts);

  // Every read succeeds; the first call pays one failover off the dead
  // endpoint and connection affinity pins the rest to the live one.
  for (int i = 0; i < 20; ++i) {
    Result<bool> has = client.HasDataset("d1");
    ASSERT_TRUE(has.ok()) << has.status();
    EXPECT_TRUE(*has);
  }
  EXPECT_GE(client.stats().failovers, 1u);
  uint64_t refusals = dead_injector->stats().connects_refused.load();
  EXPECT_GT(refusals, 0u);
  // Affinity means the dead endpoint stops being dialed entirely.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.HasDataset("d1").ok());
  }
  EXPECT_EQ(dead_injector->stats().connects_refused.load(), refusals);
}

TEST(WireFaults, CircuitBreakerOpensAndShortCircuitsAfterRepeatedFailures) {
  auto catalog = ChainCatalog(2);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get(), false));
  FaultProfile refuse_all;
  refuse_all.refuse_connect_rate = 1.0;
  auto injector = std::make_shared<FaultInjector>(refuse_all, FaultSeed());

  ResilientEndpoint ep;
  ep.name = "only-and-dead";
  ep.connect = [&server, injector]()
      -> Result<std::shared_ptr<CatalogClient>> {
    auto c = ConnectFaulty(&server, injector);
    if (!c.ok()) return c.status();
    return std::static_pointer_cast<CatalogClient>(*c);
  };
  ResilientOptions ropts;
  ropts.max_attempts = 6;
  ropts.backoff_base = std::chrono::milliseconds(1);
  ropts.breaker_threshold = 3;
  ropts.breaker_cooldown = std::chrono::minutes(10);  // never half-opens here
  std::vector<ResilientEndpoint> eps;
  eps.push_back(std::move(ep));
  ResilientCatalogClient client(std::move(eps), ropts);

  // One call burns its attempts against the dead endpoint: after
  // `breaker_threshold` consecutive dial failures the breaker opens
  // and the remaining attempts short-circuit instead of re-dialing.
  Result<bool> has = client.HasDataset("d1");
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(has.status().IsUnavailable());
  EXPECT_EQ(client.breaker_state(0), BreakerState::kOpen);
  EXPECT_GE(client.stats().breaker_opens, 1u);

  // With the breaker open, further calls never dial at all.
  uint64_t refusals = injector->stats().connects_refused.load();
  EXPECT_FALSE(client.HasDataset("d1").ok());
  EXPECT_EQ(injector->stats().connects_refused.load(), refusals);
  EXPECT_GE(client.stats().breaker_short_circuits, 1u);
}

TEST(WireFaults, HalfOpenProbeClosesTheBreakerOnceTheEndpointRecovers) {
  auto catalog = ChainCatalog(2);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get(), false));
  std::atomic<bool> endpoint_up{false};

  ResilientEndpoint ep;
  ep.name = "recovering";
  ep.connect = [&]() -> Result<std::shared_ptr<CatalogClient>> {
    if (!endpoint_up.load()) {
      return Status::Unavailable("endpoint down for maintenance");
    }
    auto c = WireCatalogClient::Connect(&server);
    if (!c.ok()) return c.status();
    return std::static_pointer_cast<CatalogClient>(*c);
  };
  ResilientOptions ropts;
  ropts.max_attempts = 3;
  ropts.backoff_base = std::chrono::milliseconds(1);
  ropts.breaker_threshold = 2;
  ropts.breaker_cooldown = std::chrono::milliseconds(30);
  std::vector<ResilientEndpoint> eps;
  eps.push_back(std::move(ep));
  ResilientCatalogClient client(std::move(eps), ropts);

  EXPECT_FALSE(client.HasDataset("d1").ok());  // opens the breaker
  EXPECT_EQ(client.breaker_state(0), BreakerState::kOpen);

  // The endpoint comes back; once the cooldown elapses the next call
  // is allowed through as a half-open probe, succeeds, and closes the
  // breaker for good.
  endpoint_up = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Result<bool> has = client.HasDataset("d1");
  ASSERT_TRUE(has.ok()) << has.status();
  EXPECT_TRUE(*has);
  EXPECT_EQ(client.breaker_state(0), BreakerState::kClosed);
}

// ------------------ site outages (refused dials) ---------------------

/// A resilient client over `server` whose one endpoint refuses its
/// first `refusals` dials, as a site that is down does, and counts
/// every dial in `*dials` — the constructor's eager dial is the first.
/// The breaker stays closed for a whole call's attempts, so every
/// attempt dials.
std::unique_ptr<ResilientCatalogClient> OutageClient(CatalogServer* server,
                                                     int refusals, int* dials,
                                                     int max_attempts) {
  ResilientEndpoint ep;
  ep.name = "east";
  ep.connect = [server, refusals,
                dials]() -> Result<std::shared_ptr<CatalogClient>> {
    if ((*dials)++ < refusals) return Status::Unavailable("site east is down");
    auto c = WireCatalogClient::Connect(server);
    if (!c.ok()) return c.status();
    return std::static_pointer_cast<CatalogClient>(*c);
  };
  ResilientOptions ropts;
  ropts.max_attempts = max_attempts;
  ropts.backoff_base = std::chrono::milliseconds(1);
  ropts.breaker_threshold = max_attempts;
  ropts.seed = FaultSeed();
  std::vector<ResilientEndpoint> eps;
  eps.push_back(std::move(ep));
  return std::make_unique<ResilientCatalogClient>(std::move(eps), ropts);
}

TEST(WireFaults, MutationRetriesThroughConnectRefusalsAndLandsOnce) {
  auto catalog = ChainCatalog(2);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get(), false));
  int dials = 0;
  auto client = OutageClient(&server, /*refusals=*/3, &dials,
                             /*max_attempts=*/6);
  const uint64_t version = catalog->version();

  // A refused dial never reached the server, so even a mutation is
  // safe to re-send: the call retries through the outage and the write
  // lands exactly once.
  Status st = client->SetDatasetSize("d1", 2048);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(catalog->GetDataset("d1")->size_bytes, 2048);
  EXPECT_EQ(catalog->version(), version + 1);
  EXPECT_EQ(dials, 4);
  EXPECT_GT(client->stats().retries, 0u);
  EXPECT_EQ(client->stats().mutation_fail_fast, 0u);
}

TEST(WireFaults, RegistryRefusesAClientWhoseDialFailedUntilItConnects) {
  auto catalog = ChainCatalog(2);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get(), false));
  int dials = 0;
  // The eager dial is refused, so the client does not know its
  // authority yet: registering it under "" would make every vdp://
  // lookup for chain.org miss.
  std::shared_ptr<ResilientCatalogClient> client =
      OutageClient(&server, /*refusals=*/1, &dials, /*max_attempts=*/3);
  ASSERT_EQ(dials, 1);
  EXPECT_TRUE(client->authority().empty());
  CatalogRegistry registry;
  Status refused = registry.RegisterClient(client);
  EXPECT_TRUE(refused.IsUnavailable()) << refused;
  EXPECT_FALSE(registry.Has(""));

  // One successful call dials the endpoint and learns the authority.
  Result<bool> has = client->HasDataset("d1");
  ASSERT_TRUE(has.ok()) << has.status();
  EXPECT_EQ(client->authority(), "chain.org");
  ASSERT_TRUE(registry.RegisterClient(client).ok());
  Result<CatalogClient*> found = registry.Find("chain.org");
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(*found, client.get());
}

TEST(WireFaults, EndpointDownPastTheBudgetIsRetrySafeUnavailable) {
  auto catalog = ChainCatalog(2);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get(), false));
  int dials = 0;
  constexpr int kAttempts = 4;
  auto client = OutageClient(&server, std::numeric_limits<int>::max(),
                             &dials, kAttempts);
  dials = 0;  // count only the call's own dials

  // Every dial is refused: the call spends its attempts, one dial
  // each, and nothing ever reached the server — so the Unavailable it
  // surfaces stays retry-safe.
  Result<bool> has = client->HasDataset("d1");
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(has.status().IsUnavailable()) << has.status();
  EXPECT_TRUE(has.status().retry_safe()) << has.status();
  EXPECT_EQ(client->stats().exhausted_calls, 1u);
  EXPECT_EQ(dials, kAttempts);
}

// ------------------------ idempotent ApplyBatch ----------------------

TEST(WireFaults, TokenedBatchDedupsAcrossRetriesAndReplicas) {
  Replicated r = MakeReplicated(FaultProfile{}, FaultSeed());

  // Issue the same tokened batch against BOTH replicas directly — the
  // failover-retry shape with the ambiguity made explicit.
  auto ca = WireCatalogClient::Connect(r.a.get());
  auto cb = WireCatalogClient::Connect(r.b.get());
  ASSERT_TRUE(ca.ok() && cb.ok());

  Replica rep;
  rep.dataset = "d2";
  rep.site = "east";
  rep.size_bytes = 2048;
  std::vector<CatalogMutation> batch;
  batch.push_back(CatalogMutation::AddReplica(rep));
  BatchOptions opts;
  opts.idempotency_token = "tok-failover-1";

  Result<BatchResult> first = (*ca)->ApplyBatch(batch, opts);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<BatchResult> second = (*cb)->ApplyBatch(batch, opts);
  ASSERT_TRUE(second.ok()) << second.status();

  // The retry was answered from the shared window: identical assigned
  // ids, one replica record in the catalog, one dedup hit counted.
  EXPECT_EQ(first->assigned_ids, second->assigned_ids);
  EXPECT_EQ(r.catalog->ReplicasOf("d2").size(), 1u);
  EXPECT_EQ(r.dedup->hits(), 1u);
  EXPECT_EQ(r.b->stats().batch_dedup_hits.load(), 1u);
}

// --------------------------- acceptance ------------------------------

// The ISSUE's acceptance bar: under seeded resets + corruption over
// two replica endpoints, the FIG3 chain walk and the executor
// write-back complete with zero client-visible hard failures, and the
// catalog ends content-identical to a fault-free run — same version,
// same replicas, same invocations (no lost and no double-applied
// work).
TEST(WireFaults, FaultedRunEndsBitIdenticalToFaultFreeRun) {
  auto run = [&](const FaultProfile& profile) {
    ResilientOptions ropts;
    ropts.backoff_base = std::chrono::milliseconds(1);
    ropts.max_attempts = 12;
    ropts.retry_budget = std::chrono::milliseconds(10'000);
    Replicated r = MakeReplicated(profile, FaultSeed(), ropts);
    EXPECT_EQ(ChainWalk(*r.client), 8);
    Result<BatchResult> wb = WriteBack(*r.client, "east");
    EXPECT_TRUE(wb.ok()) << wb.status();
    EXPECT_EQ(ChainWalk(*r.client), 8);
    struct Snapshot {
      uint64_t version;
      size_t replicas;
      std::vector<Invocation> invocations;
      uint64_t faults;
    };
    return Snapshot{r.catalog->version(), r.catalog->ReplicasOf("d1").size(),
                    r.catalog->InvocationsOf("l1"),
                    r.injector->stats().total()};
  };

  auto clean = run(FaultProfile{});
  FaultProfile faulty;
  faulty.reset_rate = 0.05;
  faulty.corrupt_rate = 0.05;
  faulty.short_write_rate = 0.1;
  auto chaos = run(faulty);

  EXPECT_EQ(clean.faults, 0u);
  EXPECT_GT(chaos.faults, 0u);
  EXPECT_EQ(chaos.version, clean.version);
  EXPECT_EQ(chaos.replicas, clean.replicas);
  ASSERT_EQ(chaos.invocations.size(), clean.invocations.size());
  for (size_t i = 0; i < clean.invocations.size(); ++i) {
    EXPECT_EQ(chaos.invocations[i].derivation, clean.invocations[i].derivation);
    EXPECT_EQ(chaos.invocations[i].context.site,
              clean.invocations[i].context.site);
    EXPECT_EQ(chaos.invocations[i].produced_replicas.size(),
              clean.invocations[i].produced_replicas.size());
    EXPECT_EQ(chaos.invocations[i].annotations.GetString("note"),
              clean.invocations[i].annotations.GetString("note"));
  }
}

// ----------------------- graceful degradation ------------------------

TEST(WireFaults, AllEndpointsDownServesCachedReadsWithinTheStalenessBound) {
  auto catalog = ChainCatalog(4);
  auto server = std::make_unique<CatalogServer>(
      std::make_shared<InProcessCatalogClient>(catalog.get(), false));

  ResilientEndpoint ep;
  ep.name = "only";
  CatalogServer* raw = server.get();
  ep.connect = [raw]() -> Result<std::shared_ptr<CatalogClient>> {
    auto c = WireCatalogClient::Connect(raw);
    if (!c.ok()) return c.status();
    return std::static_pointer_cast<CatalogClient>(*c);
  };
  ResilientOptions ropts;
  ropts.max_attempts = 2;
  ropts.retry_budget = std::chrono::milliseconds(40);
  ropts.backoff_base = std::chrono::milliseconds(1);
  std::vector<ResilientEndpoint> eps;
  eps.push_back(std::move(ep));
  auto resilient =
      std::make_shared<ResilientCatalogClient>(std::move(eps), ropts);

  DegradedReadOptions degraded;
  degraded.enabled = true;
  degraded.staleness_bound = std::chrono::milliseconds(250);
  CachingCatalogClient cache(resilient, 4096, degraded);

  // Warm the cache while the endpoint is healthy.
  ASSERT_TRUE(cache.GetDataset("d1").ok());
  ASSERT_TRUE(cache.GetDataset("d2").ok());
  EXPECT_FALSE(cache.upstream_down());

  // Take the only endpoint down for good.
  server->Shutdown();

  // A pass-through probe discovers the outage and starts the clock.
  EXPECT_TRUE(cache.Version().status().IsUnavailable());
  EXPECT_TRUE(cache.upstream_down());

  // Within the bound: cached reads keep serving, counted as degraded.
  Result<Dataset> d1 = cache.GetDataset("d1");
  ASSERT_TRUE(d1.ok()) << d1.status();
  EXPECT_EQ(d1->name, "d1");
  EXPECT_GE(cache.stats().degraded_hits, 1u);

  // Past the bound: the same cached read is refused, not served stale.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Result<Dataset> expired = cache.GetDataset("d2");
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsUnavailable()) << expired.status();
  EXPECT_GE(cache.stats().stale_rejections, 1u);

  // A miss never serves from a dead upstream either.
  EXPECT_FALSE(cache.GetDataset("d3").ok());
}

}  // namespace
}  // namespace vdg
