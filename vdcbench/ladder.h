#ifndef VDCBENCH_LADDER_H_
#define VDCBENCH_LADDER_H_

// The catalog request ladder, built from the public constructors:
//
//   [CachingCatalogClient] -> ResilientCatalogClient -> WireCatalogClient
//     -> CatalogServer -> ShardedCatalogClient -> InProcessCatalogClient
//     -> VirtualDataCatalog
//
// A TracingClient sits at each construction seam the layers expose (the
// Caching upstream, the Resilient endpoint factory, the server backend,
// the Sharded shard list), so spans time the calls into each layer from
// outside the program. With tracing off a TracingClient only forwards.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/client.h"
#include "catalog/journal.h"
#include "catalog/sharding.h"
#include "catalog/wire.h"
#include "federation/remote_cache.h"
#include "federation/resilient_client.h"
#include "federation/server.h"
#include "trace.h"

namespace vdcbench {

/// Keeps every `every`-th wire call seen during a traced run as a
/// request/response pair, so the codec cost of the observed traffic can
/// be replayed after the run.
class CodecSampler {
 public:
  explicit CodecSampler(uint32_t every) : every_(every == 0 ? 1 : every) {}

  /// True when the caller should record the current call.
  bool Due();
  void Add(vdg::wire::Request request, vdg::wire::Response response);

  /// Encodes and decodes each sample's request and response frames;
  /// returns the per-call codec time in microseconds, one per sample.
  std::vector<double> ReplayMicros() const;

 private:
  static constexpr size_t kMaxSamples = 4096;
  uint32_t every_;
  std::atomic<uint64_t> calls_{0};
  mutable std::mutex mu_;
  std::vector<std::pair<vdg::wire::Request, vdg::wire::Response>> samples_;
};

/// Records a span around every call into `inner`, then forwards it.
class TracingClient : public vdg::CatalogClient {
 public:
  TracingClient(std::shared_ptr<vdg::CatalogClient> inner, Layer layer,
                uint8_t shard = 0, CodecSampler* sampler = nullptr)
      : inner_(std::move(inner)),
        layer_(layer),
        shard_(shard),
        sampler_(sampler) {}

  const std::string& authority() const override { return inner_->authority(); }
  bool read_only() const override { return inner_->read_only(); }
  vdg::ShardTopology shard_topology() const override {
    return inner_->shard_topology();
  }

  vdg::Result<std::vector<uint64_t>> ShardVersions() override;
  vdg::Result<std::vector<vdg::CatalogChange>> ShardChangesSince(
      uint32_t shard, uint64_t since_version) override;
  vdg::Result<uint64_t> Version() override;
  vdg::Result<std::vector<vdg::CatalogChange>> ChangesSince(
      uint64_t since_version) override;
  vdg::Result<vdg::Dataset> GetDataset(std::string_view name) override;
  vdg::Result<vdg::Transformation> GetTransformation(
      std::string_view name) override;
  vdg::Result<vdg::Derivation> GetDerivation(std::string_view name) override;
  vdg::Result<bool> HasDataset(std::string_view name) override;
  vdg::Result<bool> IsMaterialized(std::string_view dataset) override;
  vdg::Result<std::string> ProducerOf(std::string_view dataset) override;
  vdg::Result<std::vector<vdg::Invocation>> InvocationsOf(
      std::string_view derivation) override;
  vdg::Result<vdg::NameList> FindDatasets(
      const vdg::DatasetQuery& query) override;
  vdg::Result<vdg::NameList> FindTransformations(
      const vdg::TransformationQuery& query) override;
  vdg::Result<vdg::NameList> FindDerivations(
      const vdg::DerivationQuery& query) override;
  vdg::Result<vdg::NameList> AllNames(std::string_view kind) override;
  vdg::Result<bool> TypeConforms(const vdg::DatasetType& type,
                                 const vdg::DatasetType& against) override;
  vdg::Result<std::vector<vdg::ObjectRecord>> BatchGet(
      const std::vector<vdg::ObjectKey>& keys) override;
  vdg::Result<vdg::ProvenanceStep> GetProvenanceStep(
      std::string_view dataset) override;

  vdg::Status DefineDataset(vdg::Dataset dataset) override;
  vdg::Status DefineTransformation(
      vdg::Transformation transformation) override;
  vdg::Status DefineDerivation(vdg::Derivation derivation) override;
  vdg::Status Annotate(std::string_view kind, std::string_view name,
                       std::string_view key,
                       vdg::AttributeValue value) override;
  vdg::Result<std::string> AddReplica(vdg::Replica replica) override;
  vdg::Result<std::string> RecordInvocation(
      vdg::Invocation invocation) override;
  vdg::Status SetDatasetSize(std::string_view name,
                             int64_t size_bytes) override;
  vdg::Status InvalidateReplica(std::string_view id) override;
  vdg::Result<vdg::BatchResult> ApplyBatch(
      const std::vector<vdg::CatalogMutation>& mutations,
      const vdg::BatchOptions& options = {}) override;

 private:
  std::shared_ptr<vdg::CatalogClient> inner_;
  Layer layer_;
  uint8_t shard_;
  CodecSampler* sampler_;
};

/// Counts what the catalog hands its journal, then forwards it.
class CountingJournal : public vdg::CatalogJournal {
 public:
  explicit CountingJournal(std::unique_ptr<vdg::CatalogJournal> inner)
      : inner_(std::move(inner)) {}

  vdg::Status Append(const std::string& record) override;
  vdg::Status Flush() override;
  vdg::Result<std::vector<std::string>> ReadAll() override;  // result-api-ok: journal records
  vdg::Status Sync() override { return inner_->Sync(); }
  vdg::Status Rewrite(const std::vector<std::string>& records) override {
    return inner_->Rewrite(records);
  }
  bool persistent() const override { return inner_->persistent(); }

  uint64_t appends() const { return appends_.load(); }
  uint64_t flushes() const { return flushes_.load(); }

 private:
  std::unique_ptr<vdg::CatalogJournal> inner_;
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> flushes_{0};
};

/// The server side of the ladder: shard catalogs, the sharded router in
/// front of them, and the CatalogServer. Members are declared so that
/// the server stops before anything it calls is destroyed.
struct Service {
  std::vector<std::unique_ptr<vdg::VirtualDataCatalog>> catalogs;
  std::vector<CountingJournal*> journals;  // owned by catalogs; may be empty
  std::vector<std::shared_ptr<vdg::CatalogClient>> shard_clients;
  std::shared_ptr<vdg::ShardedCatalogClient> sharded;
  std::shared_ptr<vdg::CatalogClient> backend;
  std::unique_ptr<vdg::CatalogServer> server;

  /// Wraps each catalog in an InProcess client and a shard TracingClient
  /// and builds the sharded router over them (no server yet).
  void Route(const std::string& id_tag);
  /// Starts the server over the traced sharded backend.
  void Serve(size_t workers);
};

/// Creates `count` empty in-memory shard catalogs in partition mode.
vdg::Status OpenMemoryShards(Service* service, uint32_t count);

/// Opens `count` shard catalogs from `<dir>/shard-<k>.snap` plus the
/// FileJournal tail at `<dir>/shard-<k>.journal`. `open_seconds`
/// receives the summed OpenFromSnapshot time.
vdg::Status OpenSnapshotShards(Service* service, uint32_t count,
                               const std::string& dir, double* open_seconds,
                               std::string* fallback_reason);

/// Every WireCatalogClient an endpoint factory dialed, for their stats.
class WireRegistry {
 public:
  void Add(std::shared_ptr<vdg::WireCatalogClient> client);
  vdg::WireClientStats Total() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<vdg::WireCatalogClient>> clients_;
};

/// One client's side of the ladder over its own connection.
struct ClientStack {
  std::shared_ptr<WireRegistry> wires;
  std::shared_ptr<vdg::ResilientCatalogClient> resilient;
  std::shared_ptr<vdg::CachingCatalogClient> cache;  // lineage only
  std::shared_ptr<vdg::CatalogClient> entry;  // what the workload calls
};

/// Connects a client stack to `server`. With `cache_capacity > 0` the
/// entry is a CachingCatalogClient over the resilient client.
ClientStack ConnectStack(vdg::CatalogServer* server, uint64_t seed,
                         size_t cache_capacity, CodecSampler* sampler);

}  // namespace vdcbench

#endif  // VDCBENCH_LADDER_H_
