#ifndef VDG_CATALOG_SNAPSHOT_H_
#define VDG_CATALOG_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/cow.h"
#include "catalog/posting.h"
#include "catalog/query.h"
#include "common/name_list.h"
#include "common/status.h"
#include "common/strings.h"
#include "schema/dataset.h"
#include "schema/derivation.h"
#include "schema/transformation.h"
#include "types/type_system.h"

namespace vdg {

/// One entry of a catalog's bounded changelog: which object changed at
/// which edit version. Federated indexes consume these to refresh
/// incrementally instead of rescanning whole catalogs. Replica
/// mutations are recorded as an upsert of their *dataset* (the
/// index-visible effect is the dataset's materialized bit flipping);
/// invocation and type changes are recorded under their own kinds so
/// consumers can skip them. All mutations of one ApplyBatch share a
/// single version, so a delta either contains a whole batch or none of
/// it.
struct CatalogChange {
  uint64_t version = 0;  // catalog version after the mutation
  char op = 'U';         // 'U' upsert, 'D' delete
  std::string kind;  // "dataset"|"transformation"|"derivation"|"invocation"|"type"
  std::string name;  // object name (or id) within the catalog
};

namespace snapshot_internal {

/// Tagged wire form of an attribute value, the value half of the
/// attribute-index key. Numbers collapse to one text form so int 5 and
/// double 5.0 index identically, matching AttributePredicate's
/// coercing comparison; the wire form (not the %.6g display form) is
/// used so doubles differing past the sixth significant digit get
/// distinct posting lists.
inline std::string TaggedAttrValue(const AttributeValue& value) {
  std::string out;
  if (value.AsNumber().has_value()) {
    out = "n:";
  } else if (value.is_bool()) {
    out = "b:";
  } else {
    out = "s:";
  }
  out += value.ToWireString();
  return out;
}

/// Packs one (dimension, interned type-name) pair into the flat
/// snapshot's type-index key.
inline uint64_t PackTypeKey(TypeDimension dim, SymbolTable::Id type_id) {
  return (static_cast<uint64_t>(dim) << 32) | static_cast<uint64_t>(type_id);
}

}  // namespace snapshot_internal

/// An internally consistent picture of one catalog version: the object
/// rows, every posting-list index, the materialized set, the type
/// universe, and the changelog window. It is also the catalog's only
/// index: the writer keeps one unpublished CatalogSnapshot, edits it in
/// place through the copy-on-write generation structures of cow.h
/// (anything shared with an earlier publication is path-copied once per
/// generation), and publishes by copying this struct — a few dozen
/// pointers — into the slot readers pin. Published snapshots are never
/// mutated.
///
/// Interning: object names, attribute keys, attribute values (in their
/// tagged wire form), and type names are interned into 32-bit symbol
/// ids (`symbols`); posting lists are compressed id-ordered block
/// structures (PostingBlocks), and index keys are ids.
struct CatalogSnapshot {
  using Id = SymbolTable::Id;
  /// Compressed block-format posting list in id-value order (multiset:
  /// one derivation naming the same dataset twice counts twice).
  /// Name-ordered output is reconstructed through the row tables'
  /// name-order keys (RowTable::KeyCursor).
  using PostingList = std::shared_ptr<const PostingBlocks>;

  uint64_t version = 0;
  SymbolTable::View symbols;
  std::shared_ptr<const TypeRegistry> types;

  RowTable<Dataset> datasets;
  RowTable<Transformation> transformations;
  RowTable<Derivation> derivations;

  /// Attribute key id -> tagged-value id -> datasets: the kEq index.
  CowArray<PostingMap> attr_index;
  /// Per dimension, ancestor type id -> datasets, for every ancestor
  /// (excluding the dimension base) of every non-empty component of the
  /// dataset's type: the type-conformance closure.
  std::array<PostingMap, kNumTypeDimensions> type_index;
  PostingMap consumers;          // dataset -> derivations reading it
  PostingMap producers;          // dataset -> derivations writing it
  PostingMap by_transformation;  // qualified TR -> derivations
  /// Bare transformation name -> derivation, only for derivations
  /// whose qualified name differs (DerivationQuery matches either).
  PostingMap by_bare_transformation;
  /// Dataset ids with >= 1 valid replica.
  PostingSlot materialized;

  ChangeWindow<CatalogChange> changelog;
};

/// A pinned read view over one CatalogSnapshot: every query below runs
/// entirely against the snapshot — no catalog lock, no interaction with
/// concurrent writers or journal compaction — and observes exactly one
/// version. Obtained from VirtualDataCatalog::View(); cheap to copy.
class CatalogView {
 public:
  explicit CatalogView(std::shared_ptr<const CatalogSnapshot> snap)
      : snap_(std::move(snap)) {}

  uint64_t version() const { return snap_->version; }
  const TypeRegistry& types() const { return *snap_->types; }
  const CatalogSnapshot& snapshot() const { return *snap_; }

  Result<Dataset> GetDataset(std::string_view name) const;
  Result<Transformation> GetTransformation(std::string_view name) const;
  Result<Derivation> GetDerivation(std::string_view name) const;
  bool HasDataset(std::string_view name) const;
  bool HasTransformation(std::string_view name) const;
  bool HasDerivation(std::string_view name) const;

  bool IsMaterialized(std::string_view dataset) const;
  Result<std::string> ProducerOf(std::string_view dataset) const;

  /// Name-list queries return pinned views: every NameList below holds
  /// this view's snapshot alive and its elements point straight into
  /// the frozen symbol spine — zero per-name copies from the row scan
  /// to the consumer, and the producer's symbol ids ride along for
  /// interned-space consumers. A list stays byte-stable across any
  /// concurrent catalog mutation, snapshot republication, or journal
  /// compaction (those build NEW snapshots; published ones are
  /// immutable).
  NameList ConsumersOf(std::string_view dataset) const;
  NameList DerivationsUsing(std::string_view transformation) const;

  NameList FindDatasets(const DatasetQuery& query) const;
  NameList FindTransformations(const TransformationQuery& query) const;
  NameList FindDerivations(const DerivationQuery& query) const;
  QueryPlan ExplainFindDatasets(const DatasetQuery& query) const;
  QueryPlan ExplainFindDerivations(const DerivationQuery& query) const;

  NameList AllDatasetNames() const;
  NameList AllTransformationNames() const;
  NameList AllDerivationNames() const;

  /// Every change with version > `since_version`, oldest first,
  /// answered from the snapshot's changelog window (anchored to the
  /// snapshot's version, so a reader interleaving ChangesSince with
  /// Find* calls on the same view gets one coherent story).
  Result<std::vector<CatalogChange>> ChangesSince(
      uint64_t since_version) const;
  uint64_t changelog_floor() const;

 private:
  /// One enumerable candidate source for the planner.
  struct Posting {
    AccessPath path;
    std::string driver;
    CatalogSnapshot::PostingList ids;
  };
  /// `with_drivers` controls whether the human-readable driver strings
  /// are materialized: Explain* wants them for the plan, but Find* skips
  /// them — they cost per-query heap allocations on the hot path.
  std::vector<Posting> DatasetPostings(const DatasetQuery& query,
                                       bool with_drivers) const;
  std::vector<Posting> DerivationPostings(const DerivationQuery& query,
                                          bool with_drivers) const;
  /// The materialized set (the shared empty list when there is none).
  const CatalogSnapshot::PostingList& MaterializedPosting() const;

  /// The row named `name` in `table`, or null.
  template <typename T>
  const typename RowTable<T>::Row* FindRow(const RowTable<T>& table,
                                           std::string_view name) const {
    const SymbolTable::Id id = snap_->symbols.FindId(name);
    return id == SymbolTable::kNoSymbol ? nullptr : table.Find(id);
  }

  std::shared_ptr<const CatalogSnapshot> snap_;
};

}  // namespace vdg

#endif  // VDG_CATALOG_SNAPSHOT_H_
