// FED-RPC — the cost of federation when every cross-catalog access
// pays a wire round trip, and what the batching + caching layers buy
// back. Reprises the Figure 3 provenance-chain walk and the Figure 4
// index refresh over WireCatalogClient -> CatalogServer in three
// modes:
//   naive   — every point lookup is its own round trip (NaiveClient)
//   batched — compound GetProvenanceStep / BatchGet, one trip each
//   cached  — batched + the version-invalidated remote object cache
// plus a fault sweep on ResilientCatalogClient -> FaultyChannel ->
// WireCatalogClient (lost request and response frames, and site
// outages as dials the endpoint refuses) showing the retry path
// absorbs transport faults without hard failures.
//
// The `round_trips` counter on each benchmark is the wire client's
// completed request/response pairs (handshake excluded) per walk /
// refresh / write-back. tools/run_bench.sh gates on naive/batched+cache
// >= 5x; CI pins the deterministic counts with check_bench_floor.py.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "catalog/wire.h"
#include "federation/faulty_transport.h"
#include "federation/index.h"
#include "federation/registry.h"
#include "federation/remote_cache.h"
#include "federation/resilient_client.h"
#include "federation/server.h"
#include "provenance/provenance.h"

namespace vdg {
namespace {

constexpr int kChainDepth = 24;  // FIG3 chain: d0 (raw) .. d24
constexpr int kChurn = 20;       // FIG4 distinct objects per refresh

/// A single-authority catalog holding a linear derivation chain — the
/// Figure 3 shape with every link behind one (remote) server.
VirtualDataCatalog* ChainCatalog() {
  static std::unique_ptr<VirtualDataCatalog>* cached =
      new std::unique_ptr<VirtualDataCatalog>();
  if (!*cached) *cached = bench::BuildChainCatalog("chain.org", kChainDepth);
  return cached->get();
}

/// The four point lookups a provenance hop is made of, each through
/// `client` (one round trip apiece).
Result<ProvenanceStep> PointwiseStep(CatalogClient& client,
                                     std::string_view dataset) {
  ProvenanceStep step;
  step.dataset = std::string(dataset);
  VDG_ASSIGN_OR_RETURN(step.exists, client.HasDataset(dataset));
  if (!step.exists) return step;
  Result<std::string> producer = client.ProducerOf(dataset);
  if (!producer.ok()) {
    if (producer.status().IsNotFound()) return step;  // raw input
    return producer.status();
  }
  step.producer = *producer;
  Result<Derivation> derivation = client.GetDerivation(step.producer);
  if (derivation.ok()) {
    step.derivation = *std::move(derivation);
    VDG_ASSIGN_OR_RETURN(step.invocations,
                         client.InvocationsOf(step.producer));
  } else if (!derivation.status().IsNotFound()) {
    return derivation.status();
  }
  return step;
}

/// The naive-RPC baseline: splits each compound read into its point
/// calls on `inner`, one round trip apiece — BatchGet into one
/// single-key BatchGet per key, GetProvenanceStep into the four lookups
/// of PointwiseStep. Every other request passes through unchanged.
class NaiveClient : public RequestClient {
 public:
  explicit NaiveClient(std::shared_ptr<CatalogClient> inner)
      : inner_(std::move(inner)) {}

  const std::string& authority() const override { return inner_->authority(); }
  bool read_only() const override { return inner_->read_only(); }

  Result<wire::Response> Call(const wire::Request& request) override {
    using wire::MsgKind;
    if (const auto* keys = wire::BodyIf<MsgKind::kBatchGet>(request)) {
      std::vector<ObjectRecord> records;
      records.reserve(keys->keys.size());
      for (const ObjectKey& key : keys->keys) {
        VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> one,
                             inner_->BatchGet({key}));
        records.push_back(std::move(one.front()));
      }
      return wire::Reply(request.kind, wire::RecordsResp{std::move(records)});
    }
    if (const auto* step = wire::BodyIf<MsgKind::kGetProvenanceStep>(request)) {
      VDG_ASSIGN_OR_RETURN(ProvenanceStep answer,
                           PointwiseStep(*inner_, step->name));
      return wire::Reply(request.kind, wire::StepResp{std::move(answer)});
    }
    return inner_->Call(request);
  }

 private:
  std::shared_ptr<CatalogClient> inner_;
};

/// One CatalogServer in front of `catalog` and a wire client dialed to
/// it, its counters reset after the handshake so `trips()` counts only
/// the workload's round trips.
struct WireWorld {
  CatalogServer server;
  std::shared_ptr<WireCatalogClient> wire;

  explicit WireWorld(VirtualDataCatalog* catalog)
      : server(std::make_shared<InProcessCatalogClient>(catalog)) {
    Result<std::shared_ptr<WireCatalogClient>> connected =
        WireCatalogClient::Connect(&server);
    if (!connected.ok()) std::abort();
    wire = *std::move(connected);
    wire->reset_stats();
  }

  uint64_t trips() const { return wire->stats().round_trips; }

  /// The handle a workload calls: the wire client itself when batching,
  /// a NaiveClient over it otherwise.
  std::shared_ptr<CatalogClient> Endpoint(bool batching) const {
    if (batching) return wire;
    return std::make_shared<NaiveClient>(wire);
  }
};

void WalkChain(const CatalogRegistry& registry) {
  Result<CatalogClient*> home = registry.Find("chain.org");
  if (!home.ok()) std::abort();
  ProvenanceTracker prov(**home, &registry);
  Result<LineageNode> lineage =
      prov.Lineage("vdp://chain.org/d" + std::to_string(kChainDepth));
  if (!lineage.ok()) std::abort();
  benchmark::DoNotOptimize(lineage);
}

// FIG3 naive: each of the chain's links costs four point round trips
// (exists / producer / derivation / invocations). Batched: one
// compound GetProvenanceStep trip per link.
void RunChainWalk(benchmark::State& state, bool batching) {
  WireWorld world(ChainCatalog());
  CatalogRegistry registry;
  if (!registry.RegisterClient(world.Endpoint(batching)).ok()) std::abort();
  for (auto _ : state) {
    WalkChain(registry);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["round_trips"] = static_cast<double>(world.trips()) /
                                  static_cast<double>(state.iterations());
}

void BM_Fig3ChainWalk_NaiveRpc(benchmark::State& state) {
  RunChainWalk(state, /*batching=*/false);
}
BENCHMARK(BM_Fig3ChainWalk_NaiveRpc);

void BM_Fig3ChainWalk_BatchedRpc(benchmark::State& state) {
  RunChainWalk(state, /*batching=*/true);
}
BENCHMARK(BM_Fig3ChainWalk_BatchedRpc);

// FIG3 batched + cache: the first walk fills the step cache; repeat
// walks are round-trip-free until the server's version moves.
void BM_Fig3ChainWalk_CachedRpc(benchmark::State& state) {
  WireWorld world(ChainCatalog());
  auto cache = std::make_shared<CachingCatalogClient>(world.wire);
  CatalogRegistry registry;
  if (!registry.RegisterClient(cache).ok()) std::abort();
  for (auto _ : state) {
    WalkChain(registry);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["round_trips"] = static_cast<double>(world.trips()) /
                                  static_cast<double>(state.iterations());
  state.counters["cache_hits"] = static_cast<double>(cache->stats().hits);
}
BENCHMARK(BM_Fig3ChainWalk_CachedRpc);

// FIG4 refresh at churn K over one remote source. Naive: version poll
// + changelog + K point gets. Batched: version poll + changelog + ONE
// BatchGet, independent of K.
void RunRefresh(benchmark::State& state, bool batching) {
  VirtualDataCatalog* catalog = ChainCatalog();
  WireWorld world(catalog);
  FederatedIndex index("fig4-rpc");
  if (!index.AddSource(world.Endpoint(batching)).ok()) std::abort();
  if (!index.Refresh().ok()) std::abort();

  uint64_t refresh_trips = 0;
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Touch K distinct datasets so the delta carries K upserts.
    for (int i = 0; i < kChurn; ++i) {
      Status touched =
          catalog->Annotate("dataset", "d" + std::to_string(i % kChainDepth),
                            "round", round);
      if (!touched.ok()) std::abort();
    }
    ++round;
    uint64_t before = world.trips();
    state.ResumeTiming();
    if (!index.Refresh().ok()) std::abort();
    refresh_trips += world.trips() - before;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["round_trips"] = static_cast<double>(refresh_trips) /
                                  static_cast<double>(state.iterations());
  state.counters["churn"] = kChurn;
}

void BM_Fig4Refresh_NaiveRpc(benchmark::State& state) {
  RunRefresh(state, /*batching=*/false);
}
BENCHMARK(BM_Fig4Refresh_NaiveRpc);

void BM_Fig4Refresh_BatchedRpc(benchmark::State& state) {
  RunRefresh(state, /*batching=*/true);
}
BENCHMARK(BM_Fig4Refresh_BatchedRpc);

// Fault sweep: 10% of request frames reset before delivery and 5% of
// response chunks reset in flight (lost calls), plus a site outage
// every 4th walk — the live connection drops and the endpoint refuses
// the next kOutageDials dials. Every walk must still complete —
// reconnects, retries and backoff absorb the faults — with zero hard
// failures.
void BM_FaultSweep(benchmark::State& state) {
  constexpr int kOutageDials = 3;
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(ChainCatalog()));
  FaultProfile profile;
  profile.reset_rate = 0.10;
  profile.recv_reset_rate = 0.05;
  auto injector = std::make_shared<FaultInjector>(profile, 17);

  // The bench drives one caller thread, so the dial state needs no lock.
  int refusals_left = 0;
  uint64_t outage_rejections = 0;
  std::shared_ptr<WireCatalogClient> live;
  ResilientEndpoint endpoint;
  endpoint.name = "east";
  endpoint.connect = [&]() -> Result<std::shared_ptr<CatalogClient>> {
    if (refusals_left > 0) {
      --refusals_left;
      ++outage_rejections;
      return Status::Unavailable("site east is down");
    }
    Result<std::shared_ptr<WireCatalogClient>> dialed =
        ConnectFaulty(&server, injector);
    if (!dialed.ok()) return dialed.status();
    live = *dialed;
    return std::static_pointer_cast<CatalogClient>(live);
  };
  ResilientOptions options;
  options.max_attempts = 10;
  options.backoff_base = std::chrono::milliseconds(1);
  // One endpoint has nowhere to fail over to: keep its breaker closed
  // for a whole call's attempts.
  options.breaker_threshold = options.max_attempts;
  std::vector<ResilientEndpoint> endpoints;
  endpoints.push_back(std::move(endpoint));
  auto resilient =
      std::make_shared<ResilientCatalogClient>(std::move(endpoints), options);
  // The registry keys a client by its authority. The constructor's
  // eager dial can lose its handshake to a fault, so make one call to
  // be sure the authority is learned.
  if (!resilient->Version().ok()) std::abort();
  CatalogRegistry registry;
  if (!registry.RegisterClient(resilient).ok()) std::abort();

  int walk = 0;
  for (auto _ : state) {
    if (walk++ % 4 == 0) {
      refusals_left = kOutageDials;
      if (live != nullptr) live->Disconnect();
    }
    WalkChain(registry);
  }
  const ResilientStats stats = resilient->stats();
  const uint64_t failures = stats.exhausted_calls + stats.mutation_fail_fast;
  if (failures != 0) std::abort();
  const FaultStats& faults = injector->stats();
  state.SetItemsProcessed(state.iterations());
  state.counters["retries"] = static_cast<double>(stats.retries);
  state.counters["lost_calls"] = static_cast<double>(
      faults.resets.load() + faults.recv_resets.load());
  state.counters["outage_rejections"] =
      static_cast<double>(outage_rejections);
  state.counters["failures"] = static_cast<double>(failures);
}
BENCHMARK(BM_FaultSweep);

// Executor provenance write-back over the wire: the batch an executor
// ships after running a derivation — replicas for each output, the
// dataset size updates, the invocation consuming those replica ids,
// and a retry-count annotation on the invocation. Naive issues the
// typed calls one by one (plus a version poll, as a batch reports the
// version it committed at); batched ships the whole thing in ONE trip.
void RunWriteBack(benchmark::State& state, bool batching) {
  // Fresh chain catalog per run: write-back mutates it, and sharing
  // the cached ChainCatalog would leak state into the walk benches.
  std::unique_ptr<VirtualDataCatalog> catalog =
      bench::BuildChainCatalog("writeback.org", kChainDepth);
  WireWorld world(catalog.get());
  WireCatalogClient& client = *world.wire;

  constexpr int kOutputs = 3;
  uint64_t trips = 0;
  int run = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Replica> replicas;
    for (int o = 0; o < kOutputs; ++o) {
      std::string ds = "d" + std::to_string(1 + (run * kOutputs + o) %
                                                    kChainDepth);
      Replica replica;
      replica.dataset = ds;
      replica.site = "east";
      replica.storage_element = "se0";
      replica.physical_path = "/scratch/" + ds;
      replica.size_bytes = 1 << 20;
      replicas.push_back(std::move(replica));
    }
    Invocation iv;
    iv.derivation = "l" + std::to_string(1 + run % kChainDepth);
    iv.context.site = "east";
    iv.context.host = "n0";
    iv.start_time = static_cast<double>(run);
    iv.duration_s = 5;
    const AttributeValue attempts = static_cast<int64_t>(2);
    uint64_t before = world.trips();
    state.ResumeTiming();
    if (batching) {
      std::vector<CatalogMutation> batch;
      std::vector<size_t> replica_ops;
      for (const Replica& replica : replicas) {
        replica_ops.push_back(batch.size());
        batch.push_back(CatalogMutation::AddReplica(replica));
        batch.push_back(
            CatalogMutation::SetDatasetSize(replica.dataset, 1 << 20));
      }
      batch.push_back(CatalogMutation::RecordInvocation(iv, replica_ops));
      batch.push_back(CatalogMutation::AnnotateAssigned(
          "invocation", batch.size() - 1, "recovery.attempts", attempts));
      BatchOptions options;
      options.stop_on_error = true;
      Result<BatchResult> applied = client.ApplyBatch(batch, options);
      if (!applied.ok() || !applied->first_error.ok()) std::abort();
    } else {
      for (const Replica& replica : replicas) {
        Result<std::string> id = client.AddReplica(replica);
        if (!id.ok()) std::abort();
        iv.produced_replicas.push_back(*id);
        if (!client.SetDatasetSize(replica.dataset, 1 << 20).ok()) {
          std::abort();
        }
      }
      Result<std::string> id = client.RecordInvocation(iv);
      if (!id.ok()) std::abort();
      if (!client.Annotate("invocation", *id, "recovery.attempts", attempts)
               .ok() ||
          !client.Version().ok()) {
        std::abort();
      }
    }
    trips += world.trips() - before;
    ++run;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["round_trips"] =
      static_cast<double>(trips) / static_cast<double>(state.iterations());
  state.counters["batch_ops"] = 2 * kOutputs + 2;
}

void BM_ExecutorWriteBack_NaiveRpc(benchmark::State& state) {
  RunWriteBack(state, /*batching=*/false);
}
BENCHMARK(BM_ExecutorWriteBack_NaiveRpc);

void BM_ExecutorWriteBack_BatchedRpc(benchmark::State& state) {
  RunWriteBack(state, /*batching=*/true);
}
BENCHMARK(BM_ExecutorWriteBack_BatchedRpc);

}  // namespace
}  // namespace vdg
