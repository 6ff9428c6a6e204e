#ifndef VDG_CATALOG_CATALOG_H_
#define VDG_CATALOG_CATALOG_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/batch.h"
#include "catalog/journal.h"
#include "catalog/query.h"
#include "catalog/snapshot.h"
#include "common/strings.h"
#include "schema/dataset.h"
#include "schema/derivation.h"
#include "schema/transformation.h"
#include "types/type_system.h"
#include "vdl/parser.h"

namespace vdg {

/// A Virtual Data Catalog (VDC, Section 4): the service that maintains
/// the five-object virtual data schema for one scope (a person, group,
/// or collaboration). The catalog is the single source of truth for
/// the planner, executor, provenance, and federation layers.
///
/// Storage: an in-memory object graph with secondary indexes; every
/// mutation streams through a CatalogJournal, so the same class serves
/// as the memory-only backend (NullJournal) and the persistent
/// log-file backend (FileJournal, recovered by replay in Open()).
///
/// Threading: snapshot-isolated readers with serialized writers.
/// The published CatalogSnapshot is the catalog's only index and holds
/// all five object classes. Writers take one `std::mutex`, edit the
/// unpublished next snapshot generation in place (copy-on-write:
/// anything shared with a published snapshot is path-copied once per
/// generation, see cow.h), append to the journal buffer, and on the way
/// out flush the journal and publish by swapping a shared_ptr slot
/// guarded by its own tiny mutex — a commit costs O(keys touched).
/// Every object read — Get*/Has*/Find*/Explain*/All*/navigation/
/// ChangesSince/Stats/Export*/CurrentStateRecords — pins one snapshot
/// with a single pointer copy under that slot mutex (held only for the
/// copy, never across a query) and runs entirely against it: reads
/// never take the writer mutex and never block on writers, journal
/// compaction, or each other. SaveSnapshotFile takes the writer mutex
/// only to pin its view together with the journal anchor that view
/// reflects, then serializes outside it. The journal backend is only
/// touched while holding the writer mutex, so backends need no
/// synchronization of their own.
///
/// Publication order (the snapshot protocol): edit the next generation
/// -> buffer journal records -> bump the version sequence and
/// changelog -> flush the journal (the group-commit point) -> swap
/// the snapshot pointer under its slot mutex -> store the atomic
/// version counter last. A version() poll therefore never reports a
/// version whose snapshot is not yet visible.
///
/// Interning: object names, attribute keys and values, and type names
/// are interned into 32-bit symbol ids; index posting lists are
/// compressed id-ordered block structures (PostingBlocks). Queries keep
/// their lexicographic result order by mapping surviving ids to the row
/// tables' name-order keys.
///
/// Lock ordering: the catalog acquires no other lock while holding
/// its own (it never calls into FederatedIndex or another catalog),
/// so catalog locks are always leaves — see FederatedIndex for the
/// index→client→catalog ordering rule. There are no lock-bypassing
/// accessors: the type universe is written via DefineType and read
/// via TypeConforms/HasType/TypesSnapshot.
class VirtualDataCatalog {
 public:
  /// `name` identifies this catalog in vdp:// URIs (the authority).
  explicit VirtualDataCatalog(
      std::string name,
      std::unique_ptr<CatalogJournal> journal = nullptr);

  VirtualDataCatalog(const VirtualDataCatalog&) = delete;
  VirtualDataCatalog& operator=(const VirtualDataCatalog&) = delete;

  /// Replays the journal into memory. Must be called once before use
  /// when a persistent journal is attached; a no-op otherwise.
  Status Open();

  const std::string& name() const { return name_; }

  /// Pins the current published snapshot: one shared_ptr copy under
  /// the snapshot slot mutex — held only for the copy, never while a
  /// query runs, and never contended by the catalog's writer lock.
  /// Every query on the returned view observes exactly one catalog
  /// version, regardless of concurrent writers.
  CatalogView View() const {
    std::lock_guard<std::mutex> slot(snapshot_mu_);
    return CatalogView(snapshot_);
  }

  /// Conformance check against the published type universe, safe to
  /// call while another thread runs DefineType.
  bool TypeConforms(const DatasetType& type, const DatasetType& against) const;

  /// True when `type_name` is defined in dimension `dim`.
  bool HasType(TypeDimension dim, std::string_view type_name) const;

  /// A point-in-time copy of the whole type universe, for enumeration
  /// and inspection. Communities define their own type names (Section
  /// 3.1); LoadTypePreset() installs the paper's Appendix-C hierarchy.
  /// The snapshot is detached: later DefineType calls do not appear in
  /// it, and mutating the copy never touches the catalog.
  TypeRegistry TypesSnapshot() const;

  // ------------------------------------------------------------------
  // Definition (the "composition" facet of Figure 5)
  // ------------------------------------------------------------------

  /// Defines a dataset-type name in one dimension's hierarchy,
  /// journaled so persistent catalogs recover their type universe.
  /// Prefer this over mutating types() directly when durability
  /// matters.
  Status DefineType(TypeDimension dim, std::string_view type_name,
                    std::string_view parent);
  /// Installs the Appendix-C preset hierarchy, journaled. Commits as
  /// one batch: one version bump, one journal flush.
  Status LoadTypePreset();

  /// Defines a dataset. Its type components must be registered.
  Status DefineDataset(Dataset dataset);
  /// Defines a transformation after structural validation.
  Status DefineTransformation(Transformation transformation);
  /// Defines a derivation, type-checking it against its transformation
  /// (local TRs only; vdp:// TRs are checked by the federation layer).
  /// Output datasets that are not yet defined are auto-defined as
  /// virtual datasets typed from the formal argument, with `producer`
  /// set to this derivation.
  Status DefineDerivation(Derivation derivation);
  /// Registers a physical replica; assigns and returns its id.
  Result<std::string> AddReplica(Replica replica);
  /// Records an invocation; assigns and returns its id.
  Result<std::string> RecordInvocation(Invocation invocation);

  /// Applies N mutations under ONE lock acquisition, ONE version bump,
  /// and ONE journal flush (group commit). Per-op outcomes land in the
  /// result; by default every op runs regardless of earlier failures
  /// (exactly what N single-op calls would do), `options.stop_on_error`
  /// aborts the remainder after the first failure. All changelog
  /// entries of the batch share the single bumped version, so
  /// ChangesSince delivers a batch atomically.
  BatchResult ApplyBatch(const std::vector<CatalogMutation>& mutations,
                         const BatchOptions& options = {});

  /// Imports every definition in a parsed VDL program, in order, as
  /// one batch (one version bump, one journal flush). Each definition
  /// is moved into its snapshot row; pass an rvalue to skip the copy.
  Status ImportProgram(VdlProgram program);
  /// Parses and imports VDL source text.
  Status ImportVdl(std::string_view source);

  // ------------------------------------------------------------------
  // Point lookups
  // ------------------------------------------------------------------

  Result<Dataset> GetDataset(std::string_view name) const;
  Result<Transformation> GetTransformation(std::string_view name) const;
  Result<Derivation> GetDerivation(std::string_view name) const;
  Result<Replica> GetReplica(std::string_view id) const;
  Result<Invocation> GetInvocation(std::string_view id) const;

  bool HasDataset(std::string_view name) const;
  bool HasTransformation(std::string_view name) const;
  bool HasDerivation(std::string_view name) const;

  // ------------------------------------------------------------------
  // Updates & removal
  // ------------------------------------------------------------------

  /// Annotates an object with user metadata (Section 2
  /// "Documentation"). `kind` is one of "dataset", "transformation",
  /// "derivation", "replica", "invocation".
  Status Annotate(std::string_view kind, std::string_view name,
                  std::string_view key, AttributeValue value);

  /// Updates a dataset's logical size (learned after materialization).
  Status SetDatasetSize(std::string_view name, int64_t size_bytes);

  /// Marks a replica invalid (e.g. after upstream invalidation).
  Status InvalidateReplica(std::string_view id);

  Status RemoveDataset(std::string_view name);
  Status RemoveTransformation(std::string_view name);
  Status RemoveDerivation(std::string_view name);
  Status RemoveReplica(std::string_view id);

  // ------------------------------------------------------------------
  // Navigation (provenance building blocks)
  // ------------------------------------------------------------------

  /// Replicas of a dataset in first-commit order (see InvocationsOf);
  /// `valid_only` filters invalidated copies.
  std::vector<Replica> ReplicasOf(std::string_view dataset,
                                  bool valid_only = true) const;
  /// True when the dataset has at least one valid replica (i.e. is
  /// materialized rather than virtual).
  bool IsMaterialized(std::string_view dataset) const;

  /// The derivation that produces `dataset` (NotFound for raw inputs).
  Result<std::string> ProducerOf(std::string_view dataset) const;
  /// Derivations that read `dataset`. Like every NameList returned
  /// below, the list pins the answering snapshot and views its symbol
  /// spine — zero name copies (DESIGN.md §15).
  NameList ConsumersOf(std::string_view dataset) const;
  /// Invocations recorded for `derivation`, in first-commit order: the
  /// order their ids were first interned, the same on every open path
  /// (live, journal replay, flat snapshot, compaction). An explicit id
  /// interned earlier, such as a removed replica's id added again,
  /// keeps its earlier place.
  std::vector<Invocation> InvocationsOf(std::string_view derivation) const;
  /// Derivations that invoke `transformation`.
  NameList DerivationsUsing(std::string_view transformation) const;

  // ------------------------------------------------------------------
  // Discovery
  // ------------------------------------------------------------------

  /// Discovery runs through a small predicate planner: each query's
  /// indexable conditions (attribute equalities, type conformance,
  /// materialization state, derivation edges) become posting lists,
  /// the most selective one drives enumeration, the rest are
  /// intersected, and only residual predicates are evaluated per
  /// candidate. Queries with no indexable condition fall back to a
  /// name-prefix range scan or a full scan. All of it runs against a
  /// pinned snapshot (see View()).
  NameList FindDatasets(const DatasetQuery& query) const;
  NameList FindTransformations(const TransformationQuery& query) const;
  NameList FindDerivations(const DerivationQuery& query) const;

  /// The access path FindDatasets/FindDerivations would choose for
  /// `query`, without running it. Lets tests pin selectivity ordering
  /// and operators inspect why a query is slow.
  QueryPlan ExplainFindDatasets(const DatasetQuery& query) const;
  QueryPlan ExplainFindDerivations(const DerivationQuery& query) const;

  /// The "has this computation been performed before?" query (Section
  /// 1). Returns the name of an existing derivation with the same
  /// content signature, if any.
  Result<std::string> FindEquivalentDerivation(
      const Derivation& derivation) const;
  /// True when an equivalent derivation exists AND all of its outputs
  /// are materialized — re-use beats re-computation.
  bool HasBeenComputed(const Derivation& derivation) const;

  /// All names and ids, in name order, for enumeration by indexes and
  /// tests.
  NameList AllDatasetNames() const;
  NameList AllTransformationNames() const;
  NameList AllDerivationNames() const;
  NameList AllReplicaIds() const;
  NameList AllInvocationIds() const;

  CatalogStats Stats() const;

  /// Monotonic edit counter; bumped by every successful mutation
  /// commit (a whole batch bumps it once). Federated indexes use it to
  /// detect staleness cheaply; the load is atomic so staleness polls
  /// never contend with the catalog lock. Stored after the snapshot
  /// pointer, so a version seen here is always queryable via View().
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Every change with version > `since_version`, oldest first,
  /// answered from the published snapshot's changelog window. Versions
  /// in the window are consecutive and a batch's entries all share one
  /// version, so the result is complete over its range and batches
  /// arrive whole. Fails with FailedPrecondition when the bounded
  /// changelog no longer reaches back to `since_version` (the caller
  /// must fall back to a full rescan) and InvalidArgument when
  /// `since_version` is from the future.
  Result<std::vector<CatalogChange>> ChangesSince(
      uint64_t since_version) const;

  /// Oldest version ChangesSince can answer from (the window floor).
  uint64_t changelog_floor() const;

  /// Caps the in-memory changelog length (default 4096 changes).
  /// Shrinking may immediately raise changelog_floor(). Trimming never
  /// splits a batch's entries: whole version groups are evicted.
  void set_changelog_capacity(size_t capacity);
  size_t changelog_capacity() const;

  /// Partition mode: this catalog holds one hash shard of a larger
  /// logical catalog (see ShardedCatalogClient). Two local rules
  /// relax, because the routing layer owns them instead:
  ///  - DefineDerivation accepts input datasets unknown locally (they
  ///    live on their own shards; the sharded client checks existence
  ///    before routing);
  ///  - DefineDerivation does NOT auto-define missing output datasets
  ///    (the sharded client pre-creates them on their hash-owned home
  ///    shards, so an auto-define here would misplace them).
  /// Producer backfill and single-producer conflicts still apply to
  /// outputs that are local. Not journaled: set it before Open() and
  /// before the catalog is shared across threads, exactly like
  /// set_changelog_capacity.
  void set_partition_mode(bool on) { partition_mode_ = on; }
  bool partition_mode() const { return partition_mode_; }

  Status SyncJournal();

  /// The minimal journal records that reproduce the catalog's current
  /// state (types, then datasets, transformations, derivations,
  /// replicas, invocations — a replay-safe order; replicas and
  /// invocations in first-commit order, so a reopened catalog keeps
  /// it).
  std::vector<std::string> CurrentStateRecords() const;  // result-api-ok: journal records

  /// Log compaction: atomically rewrites the journal to
  /// CurrentStateRecords(), discarding superseded history (annotate
  /// re-puts, removed objects, invalidation flips). The in-memory
  /// state is untouched; reopening from the compacted journal yields
  /// an observationally identical catalog.
  Status CompactJournal();

  /// Whole-catalog dump as VDL text (DS/TR/DV declarations; replicas,
  /// invocations, and annotations are not expressible in text VDL —
  /// use ExportProgram + ProgramToXml for a lossless document).
  std::string ExportVdl() const;

  /// Whole-catalog dump as schema objects (annotations included).
  VdlProgram ExportProgram() const;

  // ------------------------------------------------------------------
  // Flat-snapshot persistence (the mmap cold-start path)
  // ------------------------------------------------------------------

  /// How the last Open()/OpenFromSnapshot() call restored state.
  struct SnapshotLoadReport {
    bool attempted = false;  // a flat-snapshot load was tried
    bool used = false;       // state was installed from the snapshot
    /// Why the snapshot was rejected (empty when used or not attempted).
    std::string fallback_reason;
    uint64_t snapshot_version = 0;   // version_seq captured in the file
    size_t tail_records_replayed = 0;   // journal records after the anchor
    size_t total_records_replayed = 0;  // all records applied this open
  };

  /// Serializes the current catalog state (symbol table, type
  /// universe, all five object classes, every posting index, the
  /// materialized set) into one relocatable flat buffer with a
  /// checksummed header and writes it to `path` (atomically, via a
  /// temp file + rename). The file anchors to the durable journal
  /// (record count + chain CRC) so a later load knows which journal
  /// tail is newer than the image.
  Status SaveSnapshotFile(const std::string& path) const;

  /// Open() variant that first tries to mmap the flat snapshot at
  /// `path`: on success, state is installed directly from the image
  /// (posting payloads borrowed zero-copy from the mapping) and only
  /// the journal records past the snapshot's anchor are replayed. Any
  /// mismatch — missing file, bad magic/version/checksum, truncation,
  /// or a journal that no longer extends the anchored chain — falls
  /// back to a full journal replay and reports why. Returns an error
  /// only when the fallback replay itself fails.
  Status OpenFromSnapshot(const std::string& path);

  /// Diagnostics for the last open (cold-start observability).
  SnapshotLoadReport last_snapshot_load() const;

 private:
  using Id = SymbolTable::Id;

  // The *Locked tier holds the real mutations; the public methods are
  // thin shims that take mu_, delegate, and commit (flush the journal
  // buffer, publish the snapshot). Internal reentrancy — replay applies
  // records through the same code, DefineDerivation auto-defines
  // datasets, RemoveDataset cascades to replicas — stays inside one
  // lock acquisition because Locked methods only call Locked methods.
  /// Decodes one journal record whole, then applies it.
  Status ApplyRecord(std::string_view record);
  /// Applies records[begin..] in replay mode, advancing the journal
  /// anchor (record count, chain CRC) past each one. Stops at the first
  /// failure and names that record by index and tag.
  Status ReplayLocked(const std::vector<std::string>& records, size_t begin);
  Status Journal(const std::string& record);
  const DatasetType* LookupDatasetType(std::string_view name) const;

  Status DefineTypeLocked(TypeDimension dim, std::string_view type_name,
                          std::string_view parent);
  /// The one define path per kind. The object is adopted as the
  /// snapshot row on success (no copy); the single-op API, batch ops,
  /// journal replay and ImportProgram all land here.
  Status DefineDatasetLocked(std::shared_ptr<const Dataset> dataset);
  Status DefineTransformationLocked(
      std::shared_ptr<const Transformation> transformation);
  Status DefineDerivationLocked(std::shared_ptr<const Derivation> derivation);
  Result<std::string> AddReplicaLocked(Replica replica);
  Result<std::string> RecordInvocationLocked(Invocation invocation);
  Status AnnotateLocked(std::string_view kind, std::string_view name,
                        std::string_view key, AttributeValue value);
  Status SetDatasetSizeLocked(std::string_view name, int64_t size_bytes);
  Status InvalidateReplicaLocked(std::string_view id);
  Status ImportProgramLocked(VdlProgram program);
  Status RemoveDatasetLocked(std::string_view name);
  Status RemoveTransformationLocked(std::string_view name);
  Status RemoveDerivationLocked(std::string_view name);
  Status RemoveReplicaLocked(std::string_view id);

  /// Dispatches one batch op; `result` carries ids assigned by earlier
  /// ops for intra-batch references.
  Status ApplyMutationLocked(const CatalogMutation& mutation, size_t index,
                             BatchResult* result);

  /// Commit tail of every public mutation: flush the journal buffer
  /// (the group-commit point) and publish the snapshot. The op status
  /// wins over a flush error.
  Status CommitLocked(Status op_status);
  Result<std::string> CommitLocked(Result<std::string> op_result);

  /// Publishes the writer's next generation: copies `next_` (a few
  /// dozen pointers) into the snapshot slot and moves the writer to a
  /// new generation, freezing everything the snapshot can reach.
  void PublishSnapshotLocked();

  /// Assigns the next version (or the batch's single shared version)
  /// and appends the matching changelog entry.
  void BumpVersion(char op, std::string_view kind, std::string_view name);
  /// Evicts whole version groups from the changelog front until within
  /// capacity (never splits a batch).
  void TrimChangelogLocked();

  /// The writer's current row (the object, for an IdTable) for `name`
  /// in `table`, or null.
  template <typename Table>
  auto RowOf(const Table& table, std::string_view name) const {
    const Id id = symbols_.Find(name);
    return id == SymbolTable::kNoSymbol ? nullptr : table.Find(id);
  }
  /// The type universe, writable in the current generation.
  TypeRegistry& MutableTypes();

  /// Multiset posting edits on the next generation; removing the last
  /// occurrence leaves an empty (null) list.
  void PostingAdd(PostingSlot* slot, Id id);
  void PostingRemove(PostingSlot* slot, Id id);
  void PostingAdd(PostingMap* map, Id key, Id id) {
    PostingAdd(&map->Mutable(key, gen_), id);
  }
  void PostingRemove(PostingMap* map, Id key, Id id);

  void IndexDatasetAttributes(const Dataset& dataset, Id id, bool add);
  void IndexDatasetAttribute(std::string_view key, const AttributeValue& value,
                             Id id, bool add);
  void IndexDatasetType(const Dataset& dataset, Id id, bool add);
  void IndexDerivation(const Derivation& derivation, Id id, bool add);
  /// Sets `dataset`'s materialized bit from its own replica list: on
  /// when `known_valid` (a valid replica was just written) or when any
  /// of its replicas is valid.
  void RefreshMaterialized(Id dataset, bool known_valid);

  std::string name_;
  /// Writer lock over the next generation, the symbol table, the
  /// changelog, and the journal backend. Readers never take it.
  mutable std::mutex mu_;
  std::unique_ptr<CatalogJournal> journal_;
  bool replaying_ = false;
  bool partition_mode_ = false;
  bool opened_ = false;
  /// Durable-journal anchor for flat snapshots: how many records the
  /// in-memory state reflects and the running CRC of that record chain
  /// (guarded by mu_). Non-persistent journals are not counted.
  uint64_t journal_records_ = 0;
  uint32_t journal_chain_crc_ = 0;
  SnapshotLoadReport last_snapshot_load_;
  /// Published version, stored last in the commit protocol; atomic so
  /// version() can poll without locking.
  std::atomic<uint64_t> version_{0};
  /// Writer-side version sequence (guarded by mu_).
  uint64_t version_seq_ = 0;
  /// Batch mode: all BumpVersion calls share one version.
  bool in_batch_ = false;
  bool batch_bumped_ = false;

  /// Interns object names, attribute keys and values, and type names
  /// (guarded by mu_ for writes; readers use the snapshot's published
  /// View).
  SymbolTable symbols_;

  /// The unpublished next generation, edited in place (guarded by
  /// mu_): the rows of all five object classes, every posting index,
  /// the materialized set, the type universe, and the changelog window.
  /// It is the catalog's only copy of them; PublishSnapshotLocked hands
  /// it to readers.
  CatalogSnapshot next_;
  /// The generation `next_` is being built as (see cow.h).
  Generation gen_ = 1;
  /// The type universe `next_.types` points at, and the generation
  /// that may edit it in place.
  std::shared_ptr<TypeRegistry> types_;
  Generation types_gen_ = 0;

  /// Bound of the changelog window in `next_` (backing ChangesSince).
  size_t changelog_capacity_ = 4096;

  /// The published snapshot (see class comment for the protocol).
  /// Guarded by snapshot_mu_, a dedicated slot mutex held only long
  /// enough to copy or swap the pointer: libstdc++'s
  /// atomic<shared_ptr> hides its synchronization from
  /// ThreadSanitizer, and a plain mutex costs the same here.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const CatalogSnapshot> snapshot_;

  uint64_t next_replica_id_ = 1;
  uint64_t next_invocation_id_ = 1;
};

}  // namespace vdg

#endif  // VDG_CATALOG_CATALOG_H_
