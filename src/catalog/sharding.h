#ifndef VDG_CATALOG_SHARDING_H_
#define VDG_CATALOG_SHARDING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/client.h"

namespace vdg {

/// Stable hash routing of object names onto shards: FNV-1a over the
/// name, mod the shard count. Deterministic across processes and
/// sessions, so every client of the same topology agrees on placement
/// without coordination.
class ShardRouter {
 public:
  explicit ShardRouter(uint32_t shard_count)
      : shard_count_(shard_count == 0 ? 1 : shard_count) {}

  uint32_t shard_count() const { return shard_count_; }
  uint32_t ShardOf(std::string_view name) const;

 private:
  uint32_t shard_count_;
};

/// Stable fingerprint of one shard set: a hash over the ordered shard
/// authorities and the count. Any resharding — count change, backend
/// swap, reorder — changes it.
uint64_t ShardSetFingerprint(
    const std::vector<std::shared_ptr<CatalogClient>>& shards);

struct ShardedClientOptions {
  /// Scatter predicate queries with one thread per shard instead of
  /// sequentially. Requires the shard clients to be thread-safe
  /// (in-process and wire clients are; SimulatedRpc is not).
  bool parallel_fanout = false;

  /// Disambiguating tag baked into client-assigned replica/invocation
  /// ids ("rp-<tag>s<shard>-<seq>"). Two writers sharing a shard set
  /// must use distinct tags (or supply their own ids) — the sequence
  /// counters live in this client instance.
  std::string id_tag;
};

/// A CatalogClient that partitions one logical catalog across N shard
/// backends by stable hash of object name (Section 4 scaled out: the
/// collaboration catalog stops being one server).
///
/// Placement:
///  - datasets and derivations live on ShardOf(name); replicas live
///    with their dataset, invocations with their derivation;
///  - transformations and the type universe are broadcast-replicated
///    to every shard (they are tiny, read-everywhere, and derivation
///    validation needs them locally);
///  - point calls route to the owning shard; predicate queries
///    (FindDatasets/FindDerivations/AllNames) scatter to every shard
///    and gather the per-shard sorted NameLists through one
///    ArenaBuilder k-way merge, so the global result is byte-identical
///    (order-normalized) to one unsharded catalog and the PR 9
///    zero-copy contract is preserved end to end (one arena per
///    gathered response, no per-name copies beyond it).
///
/// Versions: Version() is the *composite* version — the sum of the
/// per-shard versions — monotone but not addressable in any single
/// changelog. ChangesSince(composite) answers only the trivial cases
/// (empty delta / future version) and otherwise returns
/// FailedPrecondition, steering delta consumers to the per-shard
/// ShardVersions()/ShardChangesSince() API that CachingCatalogClient
/// and FederatedIndex use.
///
/// Partial failure policy: a scatter leg that fails fails the whole
/// call (one shard down => Unavailable, never a silently truncated
/// result). ApplyBatch splits into per-shard sub-batches with derived
/// idempotency tokens ("<token>/s<k>"); a transport failure mid-split
/// may leave earlier shards committed — the error propagates and the
/// token makes the retry safe. stop_on_error is scoped per shard
/// sub-batch (shards commit independently).
///
/// Shard catalogs must run in partition mode
/// (VirtualDataCatalog::set_partition_mode): this client owns
/// cross-shard referential checks (input existence, type conformance,
/// single-producer conflicts) and pre-creates missing derivation
/// outputs on their hash-owned home shards. One divergence from the
/// unsharded catalog is documented rather than papered over: a
/// pre-existing producerless dataset adopted by a derivation homed on
/// another shard keeps an empty producer field; ProducerOf and
/// GetProvenanceStep compensate with a writes-index scatter.
///
/// Thread-safety: as safe as the shard clients underneath; the
/// topology is an immutable snapshot behind a mutex (Reshard swaps
/// it), and id counters are atomic.
class ShardedCatalogClient : public CatalogClient {
 public:
  ShardedCatalogClient(std::vector<std::shared_ptr<CatalogClient>> shards,
                       ShardedClientOptions options = {});

  const std::string& authority() const override { return authority_; }
  bool read_only() const override;

  ShardTopology shard_topology() const override;
  Result<std::vector<uint64_t>> ShardVersions() override;
  Result<std::vector<CatalogChange>> ShardChangesSince(
      uint32_t shard, uint64_t since_version) override;

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
  Result<BatchResult> ApplyBatch(const std::vector<CatalogMutation>& mutations,
                                 const BatchOptions& options = {}) override;

  /// Which shard owns `name` under the current topology.
  uint32_t ShardOf(std::string_view name) const;
  uint32_t shard_count() const;

  /// Swaps the shard set (no data migration — a testing/bring-up hook
  /// for topology-fingerprint coherence, not live resharding). The new
  /// topology gets a new fingerprint, so caches keyed on it can never
  /// serve results across the swap.
  Status Reshard(std::vector<std::shared_ptr<CatalogClient>> shards);

  /// Test hook: invoked with the shard index after each per-shard
  /// sub-batch of ApplyBatch commits, i.e. at the exact moments a
  /// concurrent reader can observe a cross-shard batch half-applied.
  void set_post_subbatch_hook(std::function<void(uint32_t)> hook) {
    post_subbatch_hook_ = std::move(hook);
  }

 private:
  struct Topology {
    std::vector<std::shared_ptr<CatalogClient>> shards;
    ShardRouter router{1};
    uint64_t fingerprint = 0;
  };

  /// What the derivation pre-pass decided: outputs to pre-create on
  /// their home shards, or an early terminal status.
  struct DerivationPlan {
    std::vector<std::pair<uint32_t, Dataset>> ensure_outputs;
  };

  std::shared_ptr<const Topology> topology() const;
  std::string MakeReplicaId(uint32_t shard);
  std::string MakeInvocationId(uint32_t shard);
  /// Parses the shard index out of a client-assigned replica or
  /// invocation id; false for foreign/caller-supplied ids.
  bool ShardFromAssignedId(const Topology& topo, std::string_view id,
                           uint32_t* shard) const;

  /// Cross-shard referential checks + output placement for one
  /// derivation (see class comment). Mirrors the unsharded catalog's
  /// error vocabulary (AlreadyExists / NotFound / TypeError).
  /// Datasets and transformations defined by EARLIER ops of an
  /// in-flight batch: not yet visible on any shard, but a derivation
  /// later in the batch must plan against them, as it would against
  /// the unsharded catalog.
  struct PendingDefinitions {
    std::map<std::string, Dataset> datasets;
    std::map<std::string, Transformation> transformations;
  };
  /// `pending` (optional) holds the batch's earlier definitions.
  Status PlanDerivation(const Topology& topo, const Derivation& derivation,
                        DerivationPlan* plan,
                        const PendingDefinitions* pending = nullptr);

  /// Scatters `fn` over every shard, sequentially or one thread per
  /// shard; results are positional, first error (by shard index) wins.
  Result<std::vector<NameList>> ScatterLists(
      const Topology& topo,
      const std::function<Result<NameList>(CatalogClient&)>& fn);

  /// Try-all fallback for replica/invocation ops whose id does not
  /// name a shard: first OK wins; all-NotFound is NotFound; any other
  /// error (a shard down) propagates — never a silent miss.
  Status AnyShard(const Topology& topo,
                  const std::function<Status(CatalogClient&)>& fn);

  std::string authority_;
  ShardedClientOptions options_;
  mutable std::mutex topology_mu_;
  std::shared_ptr<const Topology> topology_;
  std::atomic<uint64_t> replica_seq_{0};
  std::atomic<uint64_t> invocation_seq_{0};
  std::function<void(uint32_t)> post_subbatch_hook_;
};

/// Merges per-shard lexicographically sorted NameLists into one global
/// lexicographic NameList through a single ArenaBuilder (k-way merge;
/// one arena allocation, no per-name intermediate copies). `limit`
/// caps the merged size (0 = unlimited). Exposed for tests.
NameList MergeSortedNameLists(const std::vector<NameList>& lists,
                              size_t limit);

}  // namespace vdg

#endif  // VDG_CATALOG_SHARDING_H_
