#ifndef VDG_FEDERATION_REMOTE_CACHE_H_
#define VDG_FEDERATION_REMOTE_CACHE_H_

#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/client.h"

namespace vdg {

/// A bounded string-keyed map with least-recently-used displacement:
/// the shared cache discipline for every per-entry cache inside
/// CachingCatalogClient (object records, provenance steps, query
/// result sets). Inserting past capacity displaces exactly as many
/// cold entries as needed — never the whole map — and reports how many
/// were displaced so callers can count evictions truthfully.
/// Not thread-safe; callers hold their own lock.
template <typename V>
class LruCacheMap {
 public:
  explicit LruCacheMap(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Value for `key`, touched to most-recently-used; nullptr on miss.
  /// The pointer is invalidated by the next mutating call.
  const V* Get(std::string_view key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return &it->second.value;
  }

  /// Inserts (or replaces) `key`, displacing LRU entries while over
  /// capacity. Returns how many entries were displaced (replacement of
  /// an existing key counts zero).
  size_t Put(std::string key, V value) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return 0;
    }
    size_t displaced = 0;
    while (map_.size() >= capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++displaced;
    }
    lru_.push_front(key);
    map_.emplace(std::move(key), Entry{std::move(value), lru_.begin()});
    return displaced;
  }

  /// Removes `key`; true if it was present.
  bool Erase(std::string_view key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    lru_.erase(it->second.lru_pos);
    map_.erase(it);
    return true;
  }

  /// Removes every key in [lo, hi); returns how many were removed.
  size_t EraseRange(const std::string& lo, const std::string& hi) {
    auto begin = map_.lower_bound(lo);
    auto end = map_.lower_bound(hi);
    size_t n = 0;
    for (auto it = begin; it != end;) {
      lru_.erase(it->second.lru_pos);
      it = map_.erase(it);
      ++n;
    }
    return n;
  }

  /// Removes every entry matching `pred(key, value)`; returns count.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t n = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->first, it->second.value)) {
        lru_.erase(it->second.lru_pos);
        it = map_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

  /// Removes everything; returns how many entries were dropped.
  size_t Clear() {
    size_t n = map_.size();
    map_.clear();
    lru_.clear();
    return n;
  }

  size_t size() const { return map_.size(); }

 private:
  struct Entry {
    V value;
    std::list<std::string>::iterator lru_pos;
  };

  size_t capacity_;
  std::map<std::string, Entry, std::less<>> map_;
  std::list<std::string> lru_;  // front = most recent
};

/// Cache effectiveness counters.
struct CacheStats {
  uint64_t hits = 0;           // lookups answered locally
  uint64_t misses = 0;         // lookups that went upstream
  uint64_t revalidations = 0;  // Revalidate() calls that reached upstream
  uint64_t evictions = 0;      // entries dropped by invalidation or LRU
  uint64_t flushes = 0;        // whole-cache drops (changelog overflow)
  uint64_t query_hits = 0;     // Find* result sets answered locally
  uint64_t query_misses = 0;   // Find* calls that went upstream
  uint64_t degraded_hits = 0;  // hits served while upstream was down
  uint64_t stale_rejections = 0;  // hits refused past the staleness bound
};

/// Degraded-read policy for when the upstream is unreachable. Off by
/// default: a plain cache keeps serving hits forever regardless of
/// upstream health (the explicit-revalidation contract). With
/// degradation ENABLED the cache becomes staleness-BOUNDED instead:
/// once an upstream call fails with a transport error, cached reads
/// keep serving — counted as degraded_hits — only until
/// `staleness_bound` has elapsed since the outage began; after that
/// hits are refused with Unavailable (stale_rejections) until any
/// upstream call succeeds again. This is the "grace window" a
/// federated tier gets to ride out a catalog restart without either
/// erroring immediately or serving unboundedly old answers.
struct DegradedReadOptions {
  bool enabled = false;
  std::chrono::milliseconds staleness_bound{5000};
};

/// Read-through object cache in front of a (typically remote)
/// CatalogClient. Point lookups (Get*/Has*/IsMaterialized) and
/// provenance steps are served from local snapshots after the first
/// fetch; negative answers (NotFound) are cached too, so repeated
/// probes for a missing object cost one round trip total.
///
/// Coherence contract: the cache is *explicitly* revalidated. Between
/// Revalidate() calls reads may be stale by design (the paper's
/// federated indexes accept the same staleness). Revalidate() makes
/// ONE ChangesSince(synced_version) round trip against the server's
/// changelog and evicts exactly the objects that changed; when the
/// bounded changelog no longer reaches back (FailedPrecondition) the
/// whole cache is flushed and the version re-synced. Mutations issued
/// THROUGH this client write through and invalidate immediately, so a
/// caller always reads its own writes.
///
/// Find* result sets are cached whole under a *normalized* query key:
/// the predicate conjunction is order-insensitive, so two queries that
/// differ only in predicate order share one cache entry. The key also
/// carries the upstream's shard-set fingerprint, so after a reshard a
/// cached result from the old topology can never answer a new query
/// (it simply never matches again and ages out). Because the
/// per-object changelog cannot tell which result sets a change
/// perturbs, invalidation is per query *kind*: any dataset change (or
/// type change — the conformance closure moves) drops every cached
/// dataset query, and likewise for transformations and derivations.
/// Version/ProducerOf/InvocationsOf/AllNames/TypeConforms pass
/// straight through; ChangesSince passes through too, but applies the
/// window it returns as invalidations (see below).
///
/// Thread-safe behind one mutex, held across upstream fills (the
/// client -> catalog lock order; the catalog lock stays a leaf). Note
/// that a SimulatedRpcCatalogClient upstream is single-threaded
/// regardless — see its header.
class CachingCatalogClient : public CatalogClient {
 public:
  explicit CachingCatalogClient(std::shared_ptr<CatalogClient> upstream,
                                size_t capacity = 4096,
                                DegradedReadOptions degraded = {});

  /// True while the last upstream contact failed with a transport
  /// error (degraded mode's outage flag; always false when disabled).
  bool upstream_down() const {
    std::lock_guard<std::mutex> lock(mu_);
    return upstream_down_;
  }

  const std::string& authority() const override { return authority_; }
  bool read_only() const override { return upstream_->read_only(); }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Brings the cache current against the upstream changelog, evicting
  /// precisely the changed objects. Against an unsharded upstream this
  /// is ONE ChangesSince round trip; against a sharded upstream (a
  /// composite version is a sum, addressable in no single changelog)
  /// it walks ShardChangesSince per shard from per-shard anchors. A
  /// changelog window miss — or a topology-fingerprint change
  /// (reshard), after which nothing cached can be attributed — flushes
  /// everything and re-syncs the anchors.
  Status Revalidate();

  /// The server version this cache last synchronized against (the sum
  /// of the per-shard anchors when the upstream is sharded).
  uint64_t synced_version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return synced_version_;
  }

  ShardTopology shard_topology() const override;
  Result<std::vector<uint64_t>> ShardVersions() override;
  Result<std::vector<CatalogChange>> ShardChangesSince(
      uint32_t shard, uint64_t since_version) override;

  Result<uint64_t> Version() override;
  /// Forwards upstream, then piggybacks the observed change window
  /// into the cache: every returned change newer than our sync point
  /// is applied as an invalidation, and when the window covers the gap
  /// (since_version <= synced_version_) the sync point advances — so a
  /// caller that walks the changelog also freshens the cache for free.
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
  Result<NameList> FindDatasets(
      const DatasetQuery& query) override;
  Result<NameList> FindTransformations(
      const TransformationQuery& query) override;
  Result<NameList> FindDerivations(
      const DerivationQuery& query) override;
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
  /// Forwards the whole batch upstream in one call, then runs ONE
  /// locked invalidation pass applying each applied op's eviction
  /// rule (EvictAfterLocked) — instead of locking and evicting once
  /// per mutation.
  Result<BatchResult> ApplyBatch(const std::vector<CatalogMutation>& mutations,
                                 const BatchOptions& options = {}) override;

 private:
  /// "kind\x1fname" cache key.
  static std::string Key(std::string_view kind, std::string_view name);

  /// Normalized Find* cache keys: a kind tag, every scalar query field,
  /// and the predicate conjunction rendered to sorted tokens — a
  /// conjunction is order-insensitive, so reordered predicates hash to
  /// the same entry.
  static std::string QueryKey(const DatasetQuery& query);
  static std::string QueryKey(const TransformationQuery& query);
  static std::string QueryKey(const DerivationQuery& query);
  /// Appends the upstream shard-set fingerprint to a Find* query key:
  /// a reshard changes the fingerprint, so a result set cached under
  /// the old topology can never satisfy a post-reshard query. Appended,
  /// not prefixed — FlushQueriesLocked's range erase keys on the
  /// leading kind tag.
  std::string TopologyKey(std::string key) const;

  /// Cached record for (kind, name), filling from upstream on a miss.
  /// mu_ must be held.
  Result<ObjectRecord> GetOrFillLocked(std::string_view kind,
                                       std::string_view name);
  void InsertLocked(ObjectRecord record);
  void EvictLocked(std::string_view kind, std::string_view name);
  void FlushLocked();
  /// Applies the invalidation for one changelog entry, a change to the
  /// `kind` object `name`. mu_ must be held.
  void ApplyChangeLocked(std::string_view kind, std::string_view name);
  /// The eviction rule for a mutation of `kind` that applied upstream,
  /// shared by the single-op methods and ApplyBatch: the invalidation
  /// of the changelog entries the mutation writes, applied at once so
  /// the writer reads its own writes. `name` keys it: the defined or
  /// annotated object, the replica's dataset, the invocation id, the
  /// replica id. `object_kind` is an Annotate's target kind; `outputs`
  /// a derivation's output datasets. mu_ must be held.
  void EvictAfterLocked(wire::MsgKind kind, std::string_view name,
                        std::string_view object_kind = {},
                        const std::vector<std::string>& outputs = {});

  /// Serves a Find* query from `queries_`, filling from `fetch` on a
  /// miss. mu_ must be held (and stays held across the fill, like
  /// every other upstream path here).
  template <typename Fetch>
  Result<NameList> CachedFindLocked(std::string key, Fetch&& fetch);
  /// Drops every cached query of one kind tag ('D'/'T'/'V').
  void FlushQueriesLocked(char kind_tag);

  /// Updates the outage flag from an upstream call's outcome: success
  /// clears it, a transport error (Unavailable / DeadlineExceeded)
  /// starts the staleness clock. mu_ must be held.
  void NoteUpstreamLocked(const Status& status);
  /// Degraded-mode gate for serving a cache hit. OK when degradation
  /// is off, upstream is believed up, or the outage is younger than
  /// the staleness bound; Unavailable otherwise. mu_ must be held.
  Status DegradedGateLocked();

  std::shared_ptr<CatalogClient> upstream_;
  std::string authority_;
  mutable std::mutex mu_;
  LruCacheMap<ObjectRecord> objects_;
  /// Provenance steps by dataset name. Conservatively flushed whenever
  /// a derivation or invocation changes anywhere: a step aggregates
  /// objects the per-object changelog cannot pin to one dataset.
  LruCacheMap<ProvenanceStep> steps_;
  /// Whole Find* result sets by normalized query key (see QueryKey).
  /// Flushed per kind on any change of that kind; entries past capacity
  /// displace the least-recently-used set, same policy as objects_.
  /// One immutable NameList per query: every hit hands back a
  /// shared_ptr copy of the SAME list (identical identity()), not a
  /// fresh vector<string> — repeated hits allocate nothing.
  LruCacheMap<NameList> queries_;
  uint64_t synced_version_ = 0;
  /// Per-shard changelog anchors against a sharded upstream, plus the
  /// topology they belong to. Empty until the first Revalidate against
  /// a sharded upstream; an unsharded upstream never populates them
  /// (synced_version_ alone is its anchor, exactly as before).
  std::vector<uint64_t> shard_synced_;
  ShardTopology synced_topology_;
  CacheStats stats_;
  DegradedReadOptions degraded_;
  bool upstream_down_ = false;
  std::chrono::steady_clock::time_point down_since_{};
};

}  // namespace vdg

#endif  // VDG_FEDERATION_REMOTE_CACHE_H_
