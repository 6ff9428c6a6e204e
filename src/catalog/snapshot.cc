#include "catalog/snapshot.h"

#include <algorithm>

#include "common/strings.h"

namespace vdg {

namespace {

using Id = CatalogSnapshot::Id;
using PostingList = CatalogSnapshot::PostingList;

/// Shared empty posting list for missing index keys.
const PostingList& EmptyPosting() {
  static const PostingList empty = std::make_shared<const PostingBlocks>();
  return empty;
}

/// The list at `id` in `map` (the shared empty list when absent).
const PostingList& LookupPosting(const PostingMap& map, Id id) {
  const PostingSlot* slot = map.Find(id);
  return slot == nullptr || slot->list == nullptr ? EmptyPosting()
                                                  : slot->list;
}

/// The kEq posting list for `key` = `value`.
const PostingList& AttrPosting(const CatalogSnapshot& snap,
                               std::string_view key,
                               const AttributeValue& value) {
  const Id key_id = snap.symbols.FindId(key);
  if (key_id == SymbolTable::kNoSymbol) return EmptyPosting();
  const PostingMap* values = snap.attr_index.Find(key_id);
  if (values == nullptr) return EmptyPosting();
  const Id value_id =
      snap.symbols.FindId(snapshot_internal::TaggedAttrValue(value));
  if (value_id == SymbolTable::kNoSymbol) return EmptyPosting();
  return LookupPosting(*values, value_id);
}

/// Accumulates (view, id) pairs during a row scan and freezes them into
/// a snapshot-pinned NameList — the zero-copy result-plane terminal:
/// the views point straight into the symbol spine the snapshot keeps
/// alive, so no name byte is copied between the scan and the consumer
/// (DESIGN.md §15).
class PinnedListBuilder {
 public:
  /// `expected` bounds the result size; storage starts at most a few
  /// hundred entries and doubles, so a huge bound on a small result
  /// costs nothing.
  explicit PinnedListBuilder(size_t expected)
      : views_(std::min<size_t>(expected, 256)), ids_(views_.size()) {}
  // Runs once per result row: sized writes instead of push_back, which
  // the compiler leaves out of line in the large query functions.
  void Add(std::string_view name, Id id) {
    if (size_ == views_.size()) Grow();
    views_[size_] = name;
    ids_[size_] = id;
    ++size_;
  }
  size_t size() const { return size_; }
  NameList Build(std::shared_ptr<const CatalogSnapshot> pin) && {
    views_.resize(size_);
    ids_.resize(size_);
    return NameList::FromViews(std::move(pin), std::move(views_),
                               std::move(ids_));
  }

 private:
  void Grow() {
    views_.resize(std::max<size_t>(16, 2 * views_.size()));
    ids_.resize(views_.size());
  }

  std::vector<std::string_view> views_;
  std::vector<NameList::Id> ids_;
  size_t size_ = 0;
};

template <typename T>
NameList RowNames(std::shared_ptr<const CatalogSnapshot> pin,
                  const RowTable<T>& rows) {
  PinnedListBuilder out(rows.size());
  rows.ScanFrom({}, [&out](const typename RowTable<T>::Row& row) {
    out.Add(row.name, row.id);
    return true;
  });
  return std::move(out).Build(std::move(pin));
}

/// The ids of an IdTable's objects, in name order like RowNames.
template <typename T>
NameList IdNames(std::shared_ptr<const CatalogSnapshot> pin,
                 const IdTable<T>& table) {
  std::vector<std::pair<std::string_view, Id>> names;
  names.reserve(table.size());
  table.ForEach([&](Id id, const T&) {
    names.emplace_back(pin->symbols.NameOf(id), id);
  });
  std::sort(names.begin(), names.end());
  PinnedListBuilder out(names.size());
  for (const auto& [name, id] : names) out.Add(name, id);
  return std::move(out).Build(std::move(pin));
}

/// Intersects selectivity-sorted posting lists: seed from the rarest,
/// then progressively AND in the rest, stopping the moment the running
/// set is empty. Returns distinct ids ascending by id value.
template <typename P>
std::vector<Id> IntersectSorted(const std::vector<P>& postings,
                                bool* short_circuited) {
  *short_circuited = false;
  std::vector<Id> candidates;
  if (postings.empty()) return candidates;
  if (postings[0].ids->empty()) {
    *short_circuited = postings.size() > 1;
    return candidates;
  }
  if (postings.size() == 1) {
    candidates.reserve(postings[0].ids->distinct());
    postings[0].ids->ForEach([&candidates](Id id) { candidates.push_back(id); });
    return candidates;
  }
  candidates = PostingBlocks::Intersect(*postings[0].ids, *postings[1].ids);
  for (size_t i = 2; i < postings.size(); ++i) {
    if (candidates.empty()) {
      *short_circuited = true;
      return candidates;
    }
    PostingBlocks::IntersectWith(&candidates, *postings[i].ids);
  }
  return candidates;
}

/// Candidate ids come either straight from one posting list or from an
/// intersection's id vector.
template <typename Fn>
void ForEachCandidate(const PostingBlocks& list, Fn&& fn) {
  list.ForEach(fn);
}
template <typename Fn>
void ForEachCandidate(const std::vector<Id>& ids, Fn&& fn) {
  for (Id id : ids) fn(id);
}

/// Delivers the rows of the candidate `ids` in name order, through the
/// table's name-order keys; `count_hint` is the candidate count. When
/// the key space is small relative to the candidate set, ordering goes
/// through a dense key bitmap (scatter then in-order scan) instead of a
/// comparison sort — the common shape for selective queries over
/// mid-sized catalogs; huge-catalog/tiny-result queries fall back to
/// the sort. Rows are delivered through `emit_row` so collectors can
/// feed a PinnedListBuilder directly without an intermediate row
/// vector.
template <typename T, typename Candidates, typename EmitRow>
void EmitRowsInNameOrder(const RowTable<T>& table, const Candidates& ids,
                         size_t count_hint, EmitRow&& emit_row) {
  typename RowTable<T>::KeyCursor key_of(table);
  const size_t words = (table.key_space() + 63) / 64;
  if (count_hint != 0 && words <= 16 * count_hint + 64) {
    thread_local std::vector<uint64_t> marks;
    if (marks.size() < words) marks.resize(words);
    uint64_t* bits = marks.data();
    std::fill_n(bits, words, uint64_t{0});
    ForEachCandidate(ids, [&key_of, bits](Id id) {
      const uint32_t key = key_of(id);
      if (key != RowTable<T>::kNoKey) {
        bits[key >> 6] |= uint64_t{1} << (key & 63);
      }
    });
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
        emit_row(key_of.At(static_cast<uint32_t>(
            (w << 6) + static_cast<uint32_t>(__builtin_ctzll(word)))));
      }
    }
    return;
  }
  std::vector<uint32_t> keys;
  keys.reserve(count_hint);
  ForEachCandidate(ids, [&key_of, &keys](Id id) {
    const uint32_t key = key_of(id);
    if (key != RowTable<T>::kNoKey) keys.push_back(key);
  });
  std::sort(keys.begin(), keys.end());
  for (uint32_t key : keys) emit_row(key_of.At(key));
}

/// Every occurrence of the ids in `list` (duplicates kept), resolved
/// to `table` rows in name order.
template <typename T>
NameList OccurrencesInNameOrder(std::shared_ptr<const CatalogSnapshot> pin,
                                const RowTable<T>& table,
                                const PostingBlocks& list) {
  std::vector<uint32_t> keys;
  keys.reserve(list.size());
  typename RowTable<T>::KeyCursor key_of(table);
  list.ForEachOccurrence([&](Id id) {
    const uint32_t key = key_of(id);
    if (key != RowTable<T>::kNoKey) keys.push_back(key);
  });
  std::sort(keys.begin(), keys.end());
  PinnedListBuilder out(keys.size());
  for (uint32_t key : keys) {
    const auto& row = key_of.At(key);
    out.Add(row.name, row.id);
  }
  return std::move(out).Build(std::move(pin));
}

}  // namespace

// ---------------------------------------------------------------------
// Point lookups
// ---------------------------------------------------------------------

Result<Dataset> CatalogView::GetDataset(std::string_view name) const {
  const auto* row = FindRow(snap_->datasets, name);
  if (row == nullptr) {
    return Status::NotFound("dataset not found: " + std::string(name));
  }
  return *row->object;
}

Result<Transformation> CatalogView::GetTransformation(
    std::string_view name) const {
  const auto* row = FindRow(snap_->transformations, name);
  if (row == nullptr) {
    return Status::NotFound("transformation not found: " + std::string(name));
  }
  return *row->object;
}

Result<Derivation> CatalogView::GetDerivation(std::string_view name) const {
  const auto* row = FindRow(snap_->derivations, name);
  if (row == nullptr) {
    return Status::NotFound("derivation not found: " + std::string(name));
  }
  return *row->object;
}

Result<Replica> CatalogView::GetReplica(std::string_view id) const {
  const Replica* replica = FindRow(snap_->replicas, id);
  if (replica == nullptr) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  return *replica;
}

Result<Invocation> CatalogView::GetInvocation(std::string_view id) const {
  const Invocation* invocation = FindRow(snap_->invocations, id);
  if (invocation == nullptr) {
    return Status::NotFound("invocation not found: " + std::string(id));
  }
  return *invocation;
}

bool CatalogView::HasDataset(std::string_view name) const {
  return FindRow(snap_->datasets, name) != nullptr;
}
bool CatalogView::HasTransformation(std::string_view name) const {
  return FindRow(snap_->transformations, name) != nullptr;
}
bool CatalogView::HasDerivation(std::string_view name) const {
  return FindRow(snap_->derivations, name) != nullptr;
}

// ---------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------

bool CatalogView::IsMaterialized(std::string_view dataset) const {
  Id id = snap_->symbols.FindId(dataset);
  if (id == SymbolTable::kNoSymbol) return false;
  return !snap_->materialized.empty() &&
         snap_->materialized.list->Contains(id);
}

Result<std::string> CatalogView::ProducerOf(std::string_view dataset) const {
  const auto* row = FindRow(snap_->datasets, dataset);
  if (row == nullptr) {
    return Status::NotFound("dataset not found: " + std::string(dataset));
  }
  if (row->object->producer.empty()) {
    return Status::NotFound("dataset " + std::string(dataset) +
                            " has no producing derivation (raw input)");
  }
  return row->object->producer;
}

std::vector<Replica> CatalogView::ReplicasOf(std::string_view dataset,
                                             bool valid_only) const {
  std::vector<Replica> out;
  const Id id = snap_->symbols.FindId(dataset);
  if (id == SymbolTable::kNoSymbol) return out;
  LookupPosting(snap_->replicas_of, id)->ForEach([&](Id replica) {
    const Replica* rp = snap_->replicas.Find(replica);
    if (rp != nullptr && (!valid_only || rp->valid)) out.push_back(*rp);
  });
  return out;
}

std::vector<Invocation> CatalogView::InvocationsOf(
    std::string_view derivation) const {
  std::vector<Invocation> out;
  const Id id = snap_->symbols.FindId(derivation);
  if (id == SymbolTable::kNoSymbol) return out;
  LookupPosting(snap_->invocations_of, id)->ForEach([&](Id invocation) {
    const Invocation* iv = snap_->invocations.Find(invocation);
    if (iv != nullptr) out.push_back(*iv);
  });
  return out;
}

NameList CatalogView::ConsumersOf(std::string_view dataset) const {
  Id id = snap_->symbols.FindId(dataset);
  if (id == SymbolTable::kNoSymbol) return NameList();
  // One entry per consuming argument (the historical multimap
  // behavior), in name order.
  return OccurrencesInNameOrder(snap_, snap_->derivations,
                                *LookupPosting(snap_->consumers, id));
}

NameList CatalogView::DerivationsUsing(std::string_view transformation) const {
  Id id = snap_->symbols.FindId(transformation);
  if (id == SymbolTable::kNoSymbol) return NameList();
  return OccurrencesInNameOrder(snap_, snap_->derivations,
                                *LookupPosting(snap_->by_transformation, id));
}

// ---------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------

Result<std::string> CatalogView::FindEquivalentDerivation(
    const Derivation& derivation) const {
  // SignatureText covers the transformation and every dataset binding
  // with its direction, so an equivalent derivation produces this one's
  // first output, consumes its first input and uses its transformation:
  // only the shortest of those lists needs the text recheck.
  const PostingBlocks* candidates = nullptr;
  auto narrow = [&](const PostingMap& map, std::string_view key) {
    const Id id = snap_->symbols.FindId(key);
    const PostingBlocks* list = id == SymbolTable::kNoSymbol
                                    ? EmptyPosting().get()
                                    : LookupPosting(map, id).get();
    if (candidates == nullptr || list->size() < candidates->size()) {
      candidates = list;
    }
  };
  const std::vector<std::string> outputs = derivation.OutputDatasets();
  const std::vector<std::string> inputs = derivation.InputDatasets();
  if (!outputs.empty()) narrow(snap_->producers, outputs.front());
  if (!inputs.empty()) narrow(snap_->consumers, inputs.front());
  narrow(snap_->by_transformation, derivation.QualifiedTransformation());
  const std::string want = derivation.SignatureText();
  std::string found;
  candidates->ForEach([&](Id id) {
    if (!found.empty()) return;
    const auto* dv = snap_->derivations.Find(id);
    if (dv != nullptr && dv->object->SignatureText() == want) {
      found = std::string(dv->name);
    }
  });
  if (found.empty()) {
    return Status::NotFound("no equivalent derivation recorded");
  }
  return found;
}

bool CatalogView::HasBeenComputed(const Derivation& derivation) const {
  Result<std::string> existing = FindEquivalentDerivation(derivation);
  if (!existing.ok()) return false;
  std::vector<std::string> outputs =
      FindRow(snap_->derivations, *existing)->object->OutputDatasets();
  if (outputs.empty()) return false;
  for (const std::string& output : outputs) {
    if (!IsMaterialized(output)) return false;
  }
  return true;
}

std::vector<CatalogView::Posting> CatalogView::DatasetPostings(
    const DatasetQuery& query, bool with_drivers) const {
  std::vector<Posting> postings;
  for (const AttributePredicate& predicate : query.predicates) {
    if (predicate.op != PredicateOp::kEq) continue;
    Posting p;
    p.path = AccessPath::kAttributeIndex;
    if (with_drivers) {
      p.driver = "attr " + predicate.key + "=" + predicate.operand.ToString();
    }
    p.ids = AttrPosting(*snap_, predicate.key, predicate.operand);
    postings.push_back(std::move(p));
  }
  if (query.type && !query.type->IsAny()) {
    for (int d = 0; d < kNumTypeDimensions; ++d) {
      auto dim = static_cast<TypeDimension>(d);
      const std::string& component = query.type->component(dim);
      const TypeHierarchy& h = snap_->types->dimension(dim);
      // An empty or base-typed component accepts anything — no list.
      if (component.empty() || component == h.base_name()) continue;
      Posting p;
      p.path = AccessPath::kTypeIndex;
      if (with_drivers) {
        p.driver =
            "type " + std::string(TypeDimensionName(dim)) + ":" + component;
      }
      Id type_id = snap_->symbols.FindId(component);
      p.ids = type_id == SymbolTable::kNoSymbol
                  ? EmptyPosting()
                  : LookupPosting(snap_->type_index[d], type_id);
      postings.push_back(std::move(p));
    }
  }
  return postings;
}

const PostingList& CatalogView::MaterializedPosting() const {
  return snap_->materialized.list == nullptr ? EmptyPosting()
                                             : snap_->materialized.list;
}

NameList CatalogView::FindDatasets(const DatasetQuery& query) const {
  const RowTable<Dataset>& ds_rows = snap_->datasets;
  using DatasetRow = RowTable<Dataset>::Row;
  // Hot-path special case: one indexed kEq predicate and nothing else
  // (the broad shard-scan shape). The answer is exactly one posting
  // list, so skip the plan machinery — no postings vector, no
  // shared_ptr copies, no selectivity sort — and stream the posting
  // straight into the pinned builder.
  if (query.predicates.size() == 1 &&
      query.predicates[0].op == PredicateOp::kEq &&
      (!query.type || query.type->IsAny()) && query.name_prefix.empty() &&
      !query.require_materialized && !query.only_virtual) {
    const AttributePredicate& predicate = query.predicates[0];
    const PostingBlocks& only =
        *AttrPosting(*snap_, predicate.key, predicate.operand);
    const size_t hint = only.distinct();
    PinnedListBuilder out(query.limit != 0 ? std::min(query.limit, hint)
                                           : hint);
    if (query.limit == 0) {
      EmitRowsInNameOrder(ds_rows, only, hint, [&](const DatasetRow& row) {
        out.Add(row.name, row.id);
      });
    } else {
      EmitRowsInNameOrder(ds_rows, only, hint, [&](const DatasetRow& row) {
        if (out.size() >= query.limit) return;
        out.Add(row.name, row.id);
      });
    }
    return std::move(out).Build(snap_);
  }

  // Indexed path: intersect the posting lists rarest-first, then remap
  // the survivors to name order.
  std::vector<Posting> postings = DatasetPostings(query, /*with_drivers=*/false);
  if (!postings.empty()) {
    // The attribute lists answer kEq predicates exactly and the type
    // lists are per-dimension conformance closures, so when every
    // predicate is an indexed kEq, the type is fully covered, and the
    // materialized set rides along as one more list, the intersection
    // IS the answer — no residual re-check per candidate.
    size_t eq_predicates = 0;
    for (const AttributePredicate& p : query.predicates) {
      if (p.op == PredicateOp::kEq) ++eq_predicates;
    }
    const bool exact = eq_predicates == query.predicates.size() &&
                       query.name_prefix.empty() && !query.only_virtual;
    if (query.require_materialized) {
      Posting p;
      p.path = AccessPath::kMaterializedSet;
      p.driver = "materialized-set";
      p.ids = MaterializedPosting();
      postings.push_back(std::move(p));
    }
    std::stable_sort(postings.begin(), postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.ids->size() < b.ids->size();
                     });
    size_t reserve_hint;
    std::vector<Id> candidates;
    if (postings.size() == 1) {
      // Single-list plan: the posting already holds the candidate set,
      // so stream it straight into the pinned builder — no
      // intermediate id or row vector.
      reserve_hint = postings[0].ids->distinct();
    } else {
      bool short_circuited = false;
      candidates = IntersectSorted(postings, &short_circuited);
      reserve_hint = candidates.size();
    }
    if (query.limit != 0) reserve_hint = std::min(query.limit, reserve_hint);
    PinnedListBuilder out(reserve_hint);
    const PostingBlocks& materialized = *MaterializedPosting();
    bool done = false;
    auto take_row = [&](const DatasetRow& row) {
      if (done) return;
      if (!exact) {
        const Dataset& ds = *row.object;
        if (!query.name_prefix.empty() &&
            !StartsWith(row.name, query.name_prefix)) {
          return;
        }
        if (query.type && !snap_->types->Conforms(ds.type, *query.type)) {
          return;
        }
        if (!MatchesAll(ds.annotations, query.predicates)) return;
        if (query.only_virtual && materialized.Contains(row.id)) return;
      }
      out.Add(row.name, row.id);
      if (query.limit != 0 && out.size() >= query.limit) done = true;
    };
    if (postings.size() == 1) {
      const PostingBlocks& only = *postings[0].ids;
      EmitRowsInNameOrder(ds_rows, only, only.distinct(), take_row);
    } else {
      EmitRowsInNameOrder(ds_rows, candidates, candidates.size(), take_row);
    }
    return std::move(out).Build(snap_);
  }

  // Residual filter for the non-indexed paths: checks every condition.
  auto matches = [this, &query](std::string_view name, const Dataset& ds) {
    if (!query.name_prefix.empty() && !StartsWith(name, query.name_prefix)) {
      return false;
    }
    if (query.type && !snap_->types->Conforms(ds.type, *query.type)) {
      return false;
    }
    if (!MatchesAll(ds.annotations, query.predicates)) return false;
    if (query.require_materialized && !IsMaterialized(name)) return false;
    if (query.only_virtual && IsMaterialized(name)) return false;
    return true;
  };

  // Materialized-set path: enumerate only datasets with valid replicas.
  if (query.require_materialized) {
    const PostingBlocks& mat = *MaterializedPosting();
    PinnedListBuilder out(mat.distinct());
    bool done = false;
    EmitRowsInNameOrder(ds_rows, mat, mat.distinct(),
                        [&](const DatasetRow& row) {
                          if (done || !matches(row.name, *row.object)) return;
                          out.Add(row.name, row.id);
                          done = query.limit != 0 && out.size() >= query.limit;
                        });
    return std::move(out).Build(snap_);
  }

  // Name-prefix path: bounded range scan over the name-sorted rows.
  PinnedListBuilder out(query.limit != 0 ? query.limit : ds_rows.size());
  ds_rows.ScanFrom(query.name_prefix, [&](const DatasetRow& row) {
    if (!query.name_prefix.empty() &&
        !StartsWith(row.name, query.name_prefix)) {
      return false;
    }
    if (!matches(row.name, *row.object)) return true;
    out.Add(row.name, row.id);
    return query.limit == 0 || out.size() < query.limit;
  });
  return std::move(out).Build(snap_);
}

QueryPlan CatalogView::ExplainFindDatasets(const DatasetQuery& query) const {
  QueryPlan plan;
  std::vector<Posting> postings = DatasetPostings(query, /*with_drivers=*/true);
  if (!postings.empty()) {
    plan.posting_lists = postings.size();
    size_t eq_predicates = 0;
    for (const AttributePredicate& p : query.predicates) {
      if (p.op == PredicateOp::kEq) ++eq_predicates;
    }
    plan.exact = eq_predicates == query.predicates.size() &&
                 query.name_prefix.empty() && !query.only_virtual;
    if (query.require_materialized) {
      Posting p;
      p.path = AccessPath::kMaterializedSet;
      p.driver = "materialized-set";
      p.ids = MaterializedPosting();
      postings.push_back(std::move(p));
    }
    std::stable_sort(postings.begin(), postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.ids->size() < b.ids->size();
                     });
    plan.path = postings[0].path;
    plan.driver = postings[0].driver;
    plan.estimated_candidates = postings[0].ids->size();
    plan.order.reserve(postings.size());
    for (const Posting& p : postings) {
      plan.order.push_back({p.path, p.driver, p.ids->size()});
    }
    bool short_circuited = false;
    plan.actual_candidates = IntersectSorted(postings, &short_circuited).size();
    plan.short_circuited = short_circuited;
    return plan;
  }
  if (query.require_materialized) {
    plan.path = AccessPath::kMaterializedSet;
    plan.driver = "materialized-set";
    plan.estimated_candidates = MaterializedPosting()->size();
    plan.actual_candidates = plan.estimated_candidates;
    return plan;
  }
  if (!query.name_prefix.empty()) {
    plan.path = AccessPath::kNamePrefixRange;
    plan.driver = "prefix " + query.name_prefix;
    plan.estimated_candidates = snap_->datasets.size();  // upper bound
    plan.actual_candidates = plan.estimated_candidates;
    return plan;
  }
  plan.path = AccessPath::kFullScan;
  plan.driver = "datasets";
  plan.estimated_candidates = snap_->datasets.size();
  plan.actual_candidates = plan.estimated_candidates;
  return plan;
}

NameList CatalogView::FindTransformations(
    const TransformationQuery& query) const {
  const RowTable<Transformation>& rows = snap_->transformations;
  const TypeRegistry& types = *snap_->types;
  // Prefix queries scan only the matching range of the sorted rows.
  PinnedListBuilder out(query.limit != 0 ? query.limit : rows.size());
  rows.ScanFrom(query.name_prefix, [&](const RowTable<Transformation>::Row&
                                           row) {
    std::string_view name = row.name;
    const Transformation& tr = *row.object;
    if (!query.name_prefix.empty() && !StartsWith(name, query.name_prefix)) {
      return false;
    }
    if (!MatchesAll(tr.annotations(), query.predicates)) return true;
    if (query.consumes) {
      bool accepts = false;
      for (const FormalArg& arg : tr.args()) {
        if (arg.is_string() || !DirectionReads(arg.direction)) continue;
        if (types.ConformsToAny(*query.consumes, arg.types)) {
          accepts = true;
          break;
        }
      }
      if (!accepts) return true;
    }
    if (query.produces) {
      bool yields = false;
      for (const FormalArg& arg : tr.args()) {
        if (arg.is_string() || !DirectionWrites(arg.direction)) continue;
        if (arg.types.empty()) {
          yields = query.produces->IsAny();
        } else {
          for (const DatasetType& t : arg.types) {
            if (types.Conforms(t, *query.produces)) {
              yields = true;
              break;
            }
          }
        }
        if (yields) break;
      }
      if (!yields) return true;
    }
    out.Add(name, row.id);
    return query.limit == 0 || out.size() < query.limit;
  });
  return std::move(out).Build(snap_);
}

std::vector<CatalogView::Posting> CatalogView::DerivationPostings(
    const DerivationQuery& query, bool with_drivers) const {
  std::vector<Posting> postings;
  if (!query.transformation.empty()) {
    Posting p;
    p.path = AccessPath::kTransformationIndex;
    if (with_drivers) p.driver = "transformation " + query.transformation;
    // A query name matches either the qualified or the bare form; the
    // union of both maps' posting lists is exactly that predicate.
    Id tr_id = snap_->symbols.FindId(query.transformation);
    if (tr_id == SymbolTable::kNoSymbol) {
      p.ids = EmptyPosting();
    } else {
      const PostingList& qualified =
          LookupPosting(snap_->by_transformation, tr_id);
      const PostingList& bare =
          LookupPosting(snap_->by_bare_transformation, tr_id);
      if (bare->empty()) {
        p.ids = qualified;
      } else if (qualified->empty()) {
        p.ids = bare;
      } else {
        p.ids = std::make_shared<const PostingBlocks>(
            PostingBlocks::Union(*qualified, *bare));
      }
    }
    postings.push_back(std::move(p));
  }
  if (!query.reads_dataset.empty()) {
    Posting p;
    p.path = AccessPath::kReadsIndex;
    if (with_drivers) p.driver = "reads " + query.reads_dataset;
    Id ds_id = snap_->symbols.FindId(query.reads_dataset);
    p.ids = ds_id == SymbolTable::kNoSymbol
                ? EmptyPosting()
                : LookupPosting(snap_->consumers, ds_id);
    postings.push_back(std::move(p));
  }
  if (!query.writes_dataset.empty()) {
    Posting p;
    p.path = AccessPath::kWritesIndex;
    if (with_drivers) p.driver = "writes " + query.writes_dataset;
    Id ds_id = snap_->symbols.FindId(query.writes_dataset);
    p.ids = ds_id == SymbolTable::kNoSymbol
                ? EmptyPosting()
                : LookupPosting(snap_->producers, ds_id);
    postings.push_back(std::move(p));
  }
  return postings;
}

NameList CatalogView::FindDerivations(const DerivationQuery& query) const {
  const RowTable<Derivation>& dv_rows = snap_->derivations;
  using DerivationRow = RowTable<Derivation>::Row;
  std::vector<Posting> postings = DerivationPostings(query, /*with_drivers=*/false);
  if (!postings.empty()) {
    // The posting lists answer the transformation/reads/writes
    // conditions exactly, so the residual covers only prefix and
    // annotation predicates — and vanishes when neither is present.
    const bool exact = query.name_prefix.empty() && query.predicates.empty();
    std::stable_sort(postings.begin(), postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.ids->size() < b.ids->size();
                     });
    size_t reserve_hint;
    std::vector<Id> candidates;
    if (postings.size() == 1) {
      reserve_hint = postings[0].ids->distinct();
    } else {
      bool short_circuited = false;
      candidates = IntersectSorted(postings, &short_circuited);
      reserve_hint = candidates.size();
    }
    if (query.limit != 0) reserve_hint = std::min(query.limit, reserve_hint);
    PinnedListBuilder out(reserve_hint);
    bool done = false;
    auto take_row = [&](const DerivationRow& row) {
      if (done) return;
      if (!exact) {
        if (!query.name_prefix.empty() &&
            !StartsWith(row.name, query.name_prefix)) {
          return;
        }
        if (!MatchesAll(row.object->annotations(), query.predicates)) {
          return;
        }
      }
      out.Add(row.name, row.id);
      if (query.limit != 0 && out.size() >= query.limit) done = true;
    };
    if (postings.size() == 1) {
      const PostingBlocks& only = *postings[0].ids;
      EmitRowsInNameOrder(dv_rows, only, only.distinct(), take_row);
    } else {
      EmitRowsInNameOrder(dv_rows, candidates, candidates.size(), take_row);
    }
    return std::move(out).Build(snap_);
  }

  PinnedListBuilder out(query.limit != 0 ? query.limit : dv_rows.size());
  dv_rows.ScanFrom(query.name_prefix, [&](const DerivationRow& row) {
    if (!query.name_prefix.empty() &&
        !StartsWith(row.name, query.name_prefix)) {
      return false;
    }
    if (!MatchesAll(row.object->annotations(), query.predicates)) return true;
    out.Add(row.name, row.id);
    return query.limit == 0 || out.size() < query.limit;
  });
  return std::move(out).Build(snap_);
}

QueryPlan CatalogView::ExplainFindDerivations(
    const DerivationQuery& query) const {
  QueryPlan plan;
  std::vector<Posting> postings = DerivationPostings(query, /*with_drivers=*/true);
  if (!postings.empty()) {
    plan.posting_lists = postings.size();
    plan.exact = query.name_prefix.empty() && query.predicates.empty();
    std::stable_sort(postings.begin(), postings.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.ids->size() < b.ids->size();
                     });
    plan.path = postings[0].path;
    plan.driver = postings[0].driver;
    plan.estimated_candidates = postings[0].ids->size();
    plan.order.reserve(postings.size());
    for (const Posting& p : postings) {
      plan.order.push_back({p.path, p.driver, p.ids->size()});
    }
    bool short_circuited = false;
    plan.actual_candidates = IntersectSorted(postings, &short_circuited).size();
    plan.short_circuited = short_circuited;
    return plan;
  }
  if (!query.name_prefix.empty()) {
    plan.path = AccessPath::kNamePrefixRange;
    plan.driver = "prefix " + query.name_prefix;
    plan.estimated_candidates = snap_->derivations.size();  // upper bound
    plan.actual_candidates = plan.estimated_candidates;
    return plan;
  }
  plan.path = AccessPath::kFullScan;
  plan.driver = "derivations";
  plan.estimated_candidates = snap_->derivations.size();
  plan.actual_candidates = plan.estimated_candidates;
  return plan;
}

// ---------------------------------------------------------------------
// Enumeration & changelog
// ---------------------------------------------------------------------

NameList CatalogView::AllDatasetNames() const {
  return RowNames(snap_, snap_->datasets);
}
NameList CatalogView::AllTransformationNames() const {
  return RowNames(snap_, snap_->transformations);
}
NameList CatalogView::AllDerivationNames() const {
  return RowNames(snap_, snap_->derivations);
}
NameList CatalogView::AllReplicaIds() const {
  return IdNames(snap_, snap_->replicas);
}
NameList CatalogView::AllInvocationIds() const {
  return IdNames(snap_, snap_->invocations);
}

CatalogStats CatalogView::Stats() const {
  CatalogStats stats;
  stats.datasets = snap_->datasets.size();
  stats.transformations = snap_->transformations.size();
  stats.derivations = snap_->derivations.size();
  stats.replicas = snap_->replicas.size();
  stats.invocations = snap_->invocations.size();
  return stats;
}

uint64_t CatalogView::changelog_floor() const {
  const auto& log = snap_->changelog;
  return log.empty() ? snap_->version : log.front().version - 1;
}

Result<std::vector<CatalogChange>> CatalogView::ChangesSince(
    uint64_t since_version) const {
  const uint64_t version = snap_->version;
  if (since_version > version) {
    return Status::InvalidArgument(
        "since_version " + std::to_string(since_version) +
        " is ahead of catalog version " + std::to_string(version));
  }
  if (since_version == version) return std::vector<CatalogChange>{};
  const auto& log = snap_->changelog;
  // Versions in the window are consecutive (batches share one version
  // and are trimmed as whole groups), so the delta is gap-free iff the
  // window reaches back to since_version + 1.
  if (log.empty() || log.front().version > since_version + 1) {
    return Status::FailedPrecondition(
        "changelog window starts at version " +
        std::to_string(changelog_floor()) + ", cannot answer since " +
        std::to_string(since_version));
  }
  // First entry with version > since_version.
  size_t lo = 0, hi = log.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (log.at(mid).version <= since_version) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::vector<CatalogChange> out;
  out.reserve(log.size() - lo);
  for (size_t i = lo; i < log.size(); ++i) out.push_back(log.at(i));
  return out;
}

}  // namespace vdg
