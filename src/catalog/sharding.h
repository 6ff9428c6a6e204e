#ifndef VDG_CATALOG_SHARDING_H_
#define VDG_CATALOG_SHARDING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/client.h"

namespace vdg {

namespace wire {
struct ApplyBatchReq;
}  // namespace wire

struct ShardedClientOptions {
  /// Disambiguating tag baked into client-assigned replica/invocation
  /// ids ("rp-<tag>s<shard>-<seq>"). Two writers sharing a shard set
  /// must use distinct tags (or supply their own ids) — the sequence
  /// counters live in this client instance.
  std::string id_tag;
};

/// A CatalogClient that partitions one logical catalog across N shard
/// backends by stable hash of object name (Section 4 scaled out: the
/// collaboration catalog stops being one server). It is a
/// RequestClient: every typed call becomes one wire::Request, and
/// Call() switches on its kind.
///
/// Placement:
///  - datasets and derivations live on ShardOf(name); replicas live
///    with their dataset, invocations with their derivation;
///  - transformations and the type universe are broadcast-replicated
///    to every shard (they are tiny, read-everywhere, and derivation
///    validation needs them locally);
///  - point calls forward the request unchanged to the owning shard;
///    predicate queries (FindDatasets/FindDerivations/AllNames) send
///    the same request to every shard and gather the per-shard sorted
///    NameLists through one ArenaBuilder k-way merge, so the global
///    result is byte-identical (order-normalized) to one unsharded
///    catalog and the zero-copy result contract (DESIGN.md §15) is
///    preserved end to end (one arena per gathered response, no
///    per-name copies beyond it).
///
/// Mutations: one placement rule (Place) sends each mutation to its
/// owning shard, to every shard (transformations), or to the shard a
/// client-assigned replica/invocation id names — a caller-supplied id
/// names none, so that op goes to every shard and the one holding the
/// object answers. One merge rule (MergeBroadcast) folds the shards'
/// answers to a broadcast. Single mutations and the ApplyBatch split
/// share both.
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
/// A client built over an empty shard list, or one holding a null
/// shard, answers every call with InvalidArgument until a Reshard to a
/// valid set.
///
/// Thread-safety: as safe as the shard clients underneath; the
/// topology is an immutable snapshot behind a mutex (Reshard swaps
/// it), and id counters are atomic.
class ShardedCatalogClient : public RequestClient {
 public:
  ShardedCatalogClient(std::vector<std::shared_ptr<CatalogClient>> shards,
                       ShardedClientOptions options = {});

  const std::string& authority() const override { return authority_; }
  bool read_only() const override;

  ShardTopology shard_topology() const override;
  Result<std::vector<uint64_t>> ShardVersions() override;
  Result<std::vector<CatalogChange>> ShardChangesSince(
      uint32_t shard, uint64_t since_version) override;

  Result<wire::Response> Call(const wire::Request& request) override;

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
    uint64_t fingerprint = 0;
    /// Non-OK when the shard list was unusable (empty, or holding a
    /// null client); `shards` is then empty.
    Status usable = Status::OK();
  };

  /// Where one mutation goes: one shard, every shard (all must hold
  /// the object), or every shard of which one holds the target (an id
  /// that names no shard).
  struct Placement {
    enum class Fanout : char { kOne, kEvery, kAny };
    Fanout fanout = Fanout::kOne;
    uint32_t shard = 0;  // kOne only
  };

  /// A topology over `shards`; unusable when the list is empty or
  /// holds a null client.
  static std::shared_ptr<const Topology> MakeTopology(
      std::vector<std::shared_ptr<CatalogClient>> shards);
  std::shared_ptr<const Topology> topology() const;
  /// Fills an empty replica (kAddReplica) or invocation id with one
  /// naming `shard`: "rp-<tag>s<shard>-<seq>" / "iv-<tag>s<shard>-<seq>".
  void AssignId(wire::MsgKind kind, uint32_t shard, std::string* id);

  /// The placement rule. `name` is what the mutation is keyed by: the
  /// defined object's name, the replica's dataset, the invocation's
  /// derivation, or the replica/invocation id; `object_kind` is an
  /// Annotate's target kind.
  Placement Place(const Topology& topo, wire::MsgKind kind,
                  std::string_view name,
                  std::string_view object_kind = {}) const;
  /// The broadcast merge rule: folds every shard's answer to one
  /// kEvery/kAny mutation into the mutation's status.
  static Status MergeBroadcast(Placement::Fanout fanout,
                               const std::vector<Status>& answers);
  /// Sends one single mutation where `placement` says.
  Result<wire::Response> Mutate(const Topology& topo,
                                const wire::Request& request,
                                Placement placement);

  /// Splits a batch into per-shard sub-batches and merges the results.
  Result<BatchResult> SplitBatch(const Topology& topo,
                                 const wire::ApplyBatchReq& batch);

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
