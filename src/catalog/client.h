#ifndef VDG_CATALOG_CLIENT_H_
#define VDG_CATALOG_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"

namespace vdg {

/// Names one catalog object for batched lookup: `kind` is "dataset",
/// "transformation", or "derivation".
struct ObjectKey {
  std::string kind;
  std::string name;
};

/// One batched-lookup result. Exactly one of the optionals is engaged
/// when `status` is OK; a NotFound status is a real answer (the object
/// is gone), not a transport failure.
struct ObjectRecord {
  std::string kind;
  std::string name;
  Status status = Status::OK();
  std::optional<Dataset> dataset;
  std::optional<Transformation> transformation;
  std::optional<Derivation> derivation;
  /// Datasets only: whether it had a valid replica at snapshot time.
  bool materialized = false;
};

/// Everything one hop of a provenance walk needs, fetched as a single
/// server-side compound call: the paper's lineage chains make one
/// round trip per link instead of four (exists / producer / derivation
/// / invocations).
struct ProvenanceStep {
  std::string dataset;
  bool exists = false;
  std::string producer;  // "" for raw inputs
  std::optional<Derivation> derivation;
  std::vector<Invocation> invocations;
};

/// Shard layout of the logical catalog behind a client. A non-sharded
/// client is one implicit shard with fingerprint 0. The fingerprint is
/// a stable hash over the shard authorities and count: any resharding
/// (count change, backend swap) changes it, which is what lets caches
/// and federated indexes detect that per-shard anchors and cached
/// query results belong to a dead topology.
struct ShardTopology {
  uint32_t shard_count = 1;
  uint64_t fingerprint = 0;
};

namespace wire {
enum class MsgKind : uint8_t;
struct Request;
struct Response;
}  // namespace wire

/// The service boundary in front of a Virtual Data Catalog (Section 4:
/// every VDC is a *server* reached through vdp:// hyperlinks). All
/// cross-catalog consumers — the registry, federated indexes,
/// provenance walks, promotion, the executor's provenance writes —
/// speak this interface instead of dereferencing VirtualDataCatalog
/// directly, so the same code runs over an in-process adapter
/// (zero-cost, today's behavior) or a simulated/real RPC transport
/// where round trips can be counted, batched, cached, and made to
/// fail.
///
/// Two faces of one vocabulary: the typed methods below, and Call(),
/// which takes the same call as a wire::Request (one MsgKind per typed
/// method, catalog/wire.h) and answers with a wire::Response. The
/// default Call() maps the request onto the typed methods; a
/// RequestClient (below) goes the other way, so a rung that only
/// forwards — a transport, a retry layer — implements Call() alone.
///
/// Conventions:
///  - Every read returns Result<> even where the catalog API returns a
///    plain value: a remote call can always fail in transport.
///  - Mutations on a read-only handle fail with PermissionDenied
///    before touching the catalog or the transport.
///  - Batched calls (BatchGet, GetProvenanceStep) are semantically
///    equivalent to the matching sequence of point calls; transports
///    may coalesce each into one round trip.
///
/// Lock ordering: clients may hold internal locks (e.g. a cache
/// mutex) while calling into the catalog, and FederatedIndex holds its
/// own lock while calling clients — the global order is
/// index -> client -> catalog, and the catalog lock stays a leaf.
class CatalogClient {
 public:
  virtual ~CatalogClient() = default;

  /// The vdp:// authority this client reaches. Configuration, not a
  /// remote call — never costs a round trip.
  virtual const std::string& authority() const = 0;

  /// True when this handle rejects every mutation.
  virtual bool read_only() const = 0;

  /// The local catalog when this client is a zero-cost in-process
  /// adapter, nullptr for any remote transport. Escape hatch for
  /// callers that provably share an address space (tests, the CLI);
  /// federation code must not use it.
  virtual VirtualDataCatalog* local_catalog() const { return nullptr; }

  /// The request-shaped entry point. Every non-OK answer is the
  /// Result's status (a returned Response always carries an OK
  /// status). The default dispatches `request.kind` to the matching
  /// typed method and answers kHandshake from authority()/read_only();
  /// a body that does not match its kind is InvalidArgument.
  virtual Result<wire::Response> Call(const wire::Request& request);

  // ------------------------------------------------------------------
  // Reads
  // ------------------------------------------------------------------

  /// The catalog's monotonic edit version (staleness poll). For a
  /// sharded client this is the *composite* version — the sum of the
  /// per-shard versions — which is still monotone under mutation but
  /// is not addressable in any single shard's changelog; delta
  /// consumers use ShardVersions/ShardChangesSince instead.
  virtual Result<uint64_t> Version() = 0;
  /// The catalog changelog since `since_version` (see
  /// VirtualDataCatalog::ChangesSince for the window contract).
  virtual Result<std::vector<CatalogChange>> ChangesSince(
      uint64_t since_version) = 0;

  /// Shard layout behind this client. Defaults to one shard with
  /// fingerprint 0; layering clients (caching, resilient) forward it.
  /// Configuration, not a remote call.
  virtual ShardTopology shard_topology() const { return ShardTopology{}; }

  /// Per-shard versions, indexed by shard. Sums to Version(). The
  /// default adapts any single-shard client.
  virtual Result<std::vector<uint64_t>> ShardVersions();

  /// One shard's changelog since that shard's `since_version` (same
  /// window contract as ChangesSince). Delta consumers anchor to the
  /// version of the last change seen *per shard*; the composite
  /// version is only a staleness poll.
  virtual Result<std::vector<CatalogChange>> ShardChangesSince(
      uint32_t shard, uint64_t since_version);

  virtual Result<Dataset> GetDataset(std::string_view name) = 0;
  virtual Result<Transformation> GetTransformation(std::string_view name) = 0;
  virtual Result<Derivation> GetDerivation(std::string_view name) = 0;
  virtual Result<bool> HasDataset(std::string_view name) = 0;
  virtual Result<bool> IsMaterialized(std::string_view dataset) = 0;
  virtual Result<std::string> ProducerOf(std::string_view dataset) = 0;
  virtual Result<std::vector<Invocation>> InvocationsOf(
      std::string_view derivation) = 0;

  /// Discovery results are NameLists: immutable shared lists whose
  /// views stay valid for the list's lifetime regardless of transport
  /// (in-process lists pin the answering snapshot; wire transports pin
  /// the decoded response arena; caches share one list across hits).
  /// See DESIGN.md §15.
  virtual Result<NameList> FindDatasets(const DatasetQuery& query) = 0;
  virtual Result<NameList> FindTransformations(
      const TransformationQuery& query) = 0;
  virtual Result<NameList> FindDerivations(const DerivationQuery& query) = 0;
  /// All object names of `kind` ("dataset"|"transformation"|
  /// "derivation").
  virtual Result<NameList> AllNames(std::string_view kind) = 0;

  /// Type conformance judged by the owning catalog's type universe.
  virtual Result<bool> TypeConforms(const DatasetType& type,
                                    const DatasetType& against) = 0;

  // ------------------------------------------------------------------
  // Batched reads — one round trip regardless of count
  // ------------------------------------------------------------------

  /// Snapshots of many objects in one call; the result is positionally
  /// aligned with `keys` and per-entry NotFound is reported in the
  /// record, not as a call failure.
  virtual Result<std::vector<ObjectRecord>> BatchGet(
      const std::vector<ObjectKey>& keys) = 0;

  /// One provenance hop (exists + producer + derivation + invocations)
  /// as a single compound call. A missing dataset is reported via
  /// `exists = false`, not an error.
  virtual Result<ProvenanceStep> GetProvenanceStep(
      std::string_view dataset) = 0;

  // ------------------------------------------------------------------
  // Mutations (PermissionDenied on read-only handles)
  // ------------------------------------------------------------------

  virtual Status DefineDataset(Dataset dataset) = 0;
  virtual Status DefineTransformation(Transformation transformation) = 0;
  virtual Status DefineDerivation(Derivation derivation) = 0;
  virtual Status Annotate(std::string_view kind, std::string_view name,
                          std::string_view key, AttributeValue value) = 0;
  virtual Result<std::string> AddReplica(Replica replica) = 0;
  virtual Result<std::string> RecordInvocation(Invocation invocation) = 0;
  virtual Status SetDatasetSize(std::string_view name,
                                int64_t size_bytes) = 0;
  virtual Status InvalidateReplica(std::string_view id) = 0;

  /// Applies a group of mutations. Semantically equivalent to issuing
  /// the ops one by one (with cross-op id references resolved — see
  /// CatalogMutation); transports may coalesce the whole batch into
  /// one round trip and the catalog commits it under one lock
  /// acquisition, one version bump, and one journal flush. The base
  /// implementation decomposes into the single-op virtuals above — the
  /// naive N-round-trip baseline — so every transport supports
  /// batching even before it optimizes for it.
  virtual Result<BatchResult> ApplyBatch(
      const std::vector<CatalogMutation>& mutations,
      const BatchOptions& options = {});
};

/// A CatalogClient whose typed methods all funnel into Call(): each
/// builds its wire::Request, calls Call(), and unwraps the response
/// body. Subclasses implement only Call(), so a forwarding rung
/// (WireCatalogClient, ResilientCatalogClient,
/// SimulatedRpcCatalogClient) is one method: intercept, then pass the
/// request on with `inner->Call(request)`. Mutations on a read-only
/// handle (wire::IsMutation) fail with PermissionDenied here, before
/// Call() is reached.
class RequestClient : public CatalogClient {
 public:
  Result<wire::Response> Call(const wire::Request& request) override = 0;

  Result<uint64_t> Version() final;
  Result<std::vector<CatalogChange>> ChangesSince(
      uint64_t since_version) final;
  Result<Dataset> GetDataset(std::string_view name) final;
  Result<Transformation> GetTransformation(std::string_view name) final;
  Result<Derivation> GetDerivation(std::string_view name) final;
  Result<bool> HasDataset(std::string_view name) final;
  Result<bool> IsMaterialized(std::string_view dataset) final;
  Result<std::string> ProducerOf(std::string_view dataset) final;
  Result<std::vector<Invocation>> InvocationsOf(
      std::string_view derivation) final;
  Result<NameList> FindDatasets(const DatasetQuery& query) final;
  Result<NameList> FindTransformations(
      const TransformationQuery& query) final;
  Result<NameList> FindDerivations(const DerivationQuery& query) final;
  Result<NameList> AllNames(std::string_view kind) final;
  Result<bool> TypeConforms(const DatasetType& type,
                            const DatasetType& against) final;
  Result<std::vector<ObjectRecord>> BatchGet(
      const std::vector<ObjectKey>& keys) final;
  Result<ProvenanceStep> GetProvenanceStep(std::string_view dataset) final;

  Status DefineDataset(Dataset dataset) final;
  Status DefineTransformation(Transformation transformation) final;
  Status DefineDerivation(Derivation derivation) final;
  Status Annotate(std::string_view kind, std::string_view name,
                  std::string_view key, AttributeValue value) final;
  Result<std::string> AddReplica(Replica replica) final;
  Result<std::string> RecordInvocation(Invocation invocation) final;
  Status SetDatasetSize(std::string_view name, int64_t size_bytes) final;
  Status InvalidateReplica(std::string_view id) final;
  /// Ships the whole group as one kApplyBatch request.
  Result<BatchResult> ApplyBatch(const std::vector<CatalogMutation>& mutations,
                                 const BatchOptions& options = {}) final;

 private:
  /// Builds a `kind` request carrying `body` and passes it to Call(),
  /// behind the read-only gate.
  template <typename Body>
  Result<wire::Response> Send(wire::MsgKind kind, Body body);
};

/// The zero-cost adapter: forwards every call straight into an
/// in-process VirtualDataCatalog, preserving the pre-boundary behavior
/// bit-for-bit. Thread-safe to exactly the extent the catalog is (the
/// adapter itself keeps no mutable state).
class InProcessCatalogClient : public CatalogClient {
 public:
  /// Read-write (or explicitly read-only) handle on a local catalog.
  explicit InProcessCatalogClient(VirtualDataCatalog* catalog,
                                  bool read_only = false);
  /// A const catalog yields a read-only handle: every mutation is
  /// rejected before the underlying object is ever touched, so the
  /// internal const_cast can never be observed.
  explicit InProcessCatalogClient(const VirtualDataCatalog* catalog);

  const std::string& authority() const override { return authority_; }
  bool read_only() const override { return read_only_; }
  VirtualDataCatalog* local_catalog() const override {
    return read_only_ ? nullptr : catalog_;
  }

  Result<uint64_t> Version() override;
  Result<std::vector<CatalogChange>> ChangesSince(
      uint64_t since_version) override;
  Result<Dataset> GetDataset(std::string_view name) override;
  Result<Transformation> GetTransformation(std::string_view name) override;
  Result<Derivation> GetDerivation(std::string_view name) override;
  Result<bool> HasDataset(std::string_view name) override;
  Result<bool> IsMaterialized(std::string_view dataset) override;
  Result<std::string> ProducerOf(std::string_view dataset) override;
  Result<std::vector<Invocation>> InvocationsOf(
      std::string_view derivation) override;
  Result<NameList> FindDatasets(const DatasetQuery& query) override;
  Result<NameList> FindTransformations(
      const TransformationQuery& query) override;
  Result<NameList> FindDerivations(const DerivationQuery& query) override;
  Result<NameList> AllNames(std::string_view kind) override;
  Result<bool> TypeConforms(const DatasetType& type,
                            const DatasetType& against) override;
  Result<std::vector<ObjectRecord>> BatchGet(
      const std::vector<ObjectKey>& keys) override;
  Result<ProvenanceStep> GetProvenanceStep(std::string_view dataset) override;

  Status DefineDataset(Dataset dataset) override;
  Status DefineTransformation(Transformation transformation) override;
  Status DefineDerivation(Derivation derivation) override;
  Status Annotate(std::string_view kind, std::string_view name,
                  std::string_view key, AttributeValue value) override;
  Result<std::string> AddReplica(Replica replica) override;
  Result<std::string> RecordInvocation(Invocation invocation) override;
  Status SetDatasetSize(std::string_view name, int64_t size_bytes) override;
  Status InvalidateReplica(std::string_view id) override;
  /// Forwards to VirtualDataCatalog::ApplyBatch: one lock, one version
  /// bump, one journal flush for the whole group.
  Result<BatchResult> ApplyBatch(const std::vector<CatalogMutation>& mutations,
                                 const BatchOptions& options = {}) override;

  /// Snapshots one catalog object into an ObjectRecord (shared with
  /// remote transports, which execute the same logic server-side).
  static ObjectRecord SnapshotObject(const VirtualDataCatalog& catalog,
                                     std::string_view kind,
                                     std::string_view name);

 private:
  Status CheckWritable() const;

  VirtualDataCatalog* catalog_;
  std::string authority_;
  bool read_only_;
};

}  // namespace vdg

#endif  // VDG_CATALOG_CLIENT_H_
