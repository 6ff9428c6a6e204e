// WIRE-SERVER — the real service runtime's cost profile: binary codec
// encode/decode throughput (frames/sec for representative request and
// response shapes) and full client->server round-trip latency over the
// in-memory pipe transport, sweeping the worker pool 1 -> 8, plus the
// round trip of calls spaced far enough apart that both sides park. A single
// synchronous client measures per-call latency, so the worker sweep
// shows the pool adds no overhead as it grows (throughput scaling
// needs concurrent clients and cores; this host gates the floor, not
// the curve).
//
// tools/run_bench.sh merges these into BENCH_federation.json and gates
// the codec + round-trip rates via tools/check_bench_floor.py.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "catalog/client.h"
#include "catalog/wire.h"
#include "federation/server.h"

namespace vdg {
namespace {

constexpr int kChainDepth = 24;

VirtualDataCatalog* ChainCatalog() {
  static std::unique_ptr<VirtualDataCatalog>* cached =
      new std::unique_ptr<VirtualDataCatalog>();
  if (!*cached) *cached = bench::BuildChainCatalog("wire.org", kChainDepth);
  return cached->get();
}

/// A realistic mid-size dataset (annotations + replicas) so the codec
/// benches measure real payloads, not empty structs.
Dataset SampleDataset() {
  Result<Dataset> fetched = ChainCatalog()->GetDataset("d4");
  if (!fetched.ok()) std::abort();
  Dataset dataset = std::move(*fetched);
  for (int i = 0; i < 4; ++i) {
    dataset.annotations.Set("tag" + std::to_string(i),
                            AttributeValue("value-" + std::to_string(i)));
  }
  return dataset;
}

// Codec: encode one GetDataset request frame and decode it back — the
// hot path every wire call pays twice (client encode, server decode).
void BM_WireEncodeDecodeRequest(benchmark::State& state) {
  wire::Request request;
  request.kind = wire::MsgKind::kGetDataset;
  request.body = wire::NameReq{"d" + std::to_string(kChainDepth)};
  uint64_t id = 0;
  for (auto _ : state) {
    std::string frame = wire::EncodeRequestFrame(++id, request);
    Result<size_t> size = wire::FrameSize(frame);
    if (!size.ok() || *size != frame.size()) std::abort();
    Result<wire::Frame> envelope = wire::DecodeFrame(frame);
    if (!envelope.ok()) std::abort();
    Result<wire::Request> decoded =
        wire::DecodeRequest(envelope->kind, envelope->payload);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeDecodeRequest);

// Codec: encode + decode a dataset-carrying response — the dominant
// payload shape on the read path (attributes, replicas, type).
void BM_WireEncodeDecodeResponse(benchmark::State& state) {
  wire::Response response;
  response.kind = wire::MsgKind::kGetDataset;
  response.body = wire::DatasetResp{SampleDataset()};
  uint64_t id = 0;
  size_t frame_bytes = 0;
  for (auto _ : state) {
    std::string frame = wire::EncodeResponseFrame(++id, response);
    frame_bytes = frame.size();
    Result<wire::Frame> envelope = wire::DecodeFrame(frame);
    if (!envelope.ok()) std::abort();
    Result<wire::Response> decoded =
        wire::DecodeResponse(envelope->kind, envelope->payload);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
}
BENCHMARK(BM_WireEncodeDecodeResponse);

// Full round trip: GetDataset through WireCatalogClient -> pipe ->
// worker -> backend and back, per worker-pool size, calls back to back.
// items/sec here is calls/sec of the calling thread's CPU time. That
// time includes the caller's awake wait for the reply (it yields, but
// stays runnable), though not a park; real_time is the wall-clock
// round trip.
void BM_WireServerRoundTrip(benchmark::State& state) {
  ServerOptions options;
  options.workers = static_cast<size_t>(state.range(0));
  CatalogServer server(std::make_shared<InProcessCatalogClient>(ChainCatalog()),
                       options);
  Result<std::shared_ptr<WireCatalogClient>> client =
      WireCatalogClient::Connect(&server);
  if (!client.ok()) std::abort();
  const std::string name = "d" + std::to_string(kChainDepth / 2);
  for (auto _ : state) {
    Result<Dataset> dataset = (*client)->GetDataset(name);
    if (!dataset.ok()) std::abort();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["workers"] = static_cast<double>(options.workers);
  state.counters["bytes_per_call"] =
      static_cast<double>((*client)->stats().bytes_sent +
                          (*client)->stats().bytes_received) /
      static_cast<double>(state.iterations() + 1);  // +1: handshake
}
BENCHMARK(BM_WireServerRoundTrip)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The same round trip when the peer has parked: the caller sleeps
// ~200 us between calls, longer than CatalogServer::kHandoffWait, as an
// open-loop sender such as vdcbench discovery does. Each request then
// wakes a parked worker and its caller parks for the reply, so this is
// the two-wake-up path the back-to-back case above skips. Only the call
// is timed (manual time); the sleep is not.
void BM_WireServerSpacedRoundTrip(benchmark::State& state) {
  ServerOptions options;
  options.workers = 1;
  CatalogServer server(std::make_shared<InProcessCatalogClient>(ChainCatalog()),
                       options);
  Result<std::shared_ptr<WireCatalogClient>> client =
      WireCatalogClient::Connect(&server);
  if (!client.ok()) std::abort();
  const std::string name = "d" + std::to_string(kChainDepth / 2);
  using Clock = std::chrono::steady_clock;
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const Clock::time_point start = Clock::now();
    Result<Dataset> dataset = (*client)->GetDataset(name);
    const Clock::time_point end = Clock::now();
    if (!dataset.ok()) std::abort();
    benchmark::DoNotOptimize(dataset);
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireServerSpacedRoundTrip)->UseManualTime();

// The compound write path: one ApplyBatch frame carrying a replica,
// an invocation consuming it, and a cross-referencing annotation —
// the executor write-back shape, end to end over the wire.
void BM_WireServerApplyBatch(benchmark::State& state) {
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(ChainCatalog()));
  Result<std::shared_ptr<WireCatalogClient>> client =
      WireCatalogClient::Connect(&server);
  if (!client.ok()) std::abort();
  int serial = 0;
  for (auto _ : state) {
    Replica replica;
    replica.dataset = "d1";
    replica.site = "wire.org";
    replica.storage_element = "se0";
    replica.physical_path = "/store/d1." + std::to_string(serial++);
    std::vector<CatalogMutation> mutations;
    mutations.push_back(CatalogMutation::AddReplica(replica));
    mutations.push_back(CatalogMutation::Annotate(
        "dataset", "d1", "bench_pass", AttributeValue(int64_t{serial})));
    Result<BatchResult> result = (*client)->ApplyBatch(mutations);
    if (!result.ok() || !result->applied) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireServerApplyBatch);

}  // namespace
}  // namespace vdg
