#ifndef VDG_CATALOG_COW_H_
#define VDG_CATALOG_COW_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/posting.h"

namespace vdg {

/// Copy-on-write generations: the catalog's published snapshot is its
/// only index, and the writer edits the next snapshot in place.
///
/// Every node of the structures below carries the Generation that
/// created it. The writer works on generation G: a node stamped G was
/// made since the last publication, is reachable only from the
/// writer's unpublished state, and is edited directly; a node stamped
/// below G is shared with published snapshots, so the first edit in G
/// path-copies it (and the path above it) and every later edit in G
/// hits the copy. Publishing hands the structure to readers and moves
/// the writer to G+1, freezing everything it can reach. A commit
/// therefore costs O(keys touched x node size), plus a plain-data copy
/// of each touched row table's chunk directory (a few bytes per 128
/// rows); nothing is rebuilt.
using Generation = uint64_t;

/// Persistent array over uint32 indexes: a radix trie of 32-way inner
/// nodes over leaves of 2^kLeafBits values, grown upward on demand.
/// Unset indexes read as absent (Find returns null) or as a
/// value-initialized V inside an allocated leaf.
template <typename V, unsigned kLeafBits = 5>
class CowArray {
 public:
  /// The value at `index`, or null when its leaf was never allocated.
  const V* Find(uint32_t index) const {
    const V* leaf = FindLeaf(index);
    return leaf == nullptr ? nullptr : leaf + (index & kLeafMask);
  }
  /// The first value of the leaf holding `index` (the leaf covers the
  /// 2^kLeafBits indexes sharing index >> kLeafBits), or null.
  const V* FindLeaf(uint32_t index) const {
    if (root_ == nullptr || !Covers(index)) return nullptr;
    const Node* node = root_.get();
    for (unsigned h = height_; h > 0; --h) {
      node = static_cast<const Inner*>(node)->kids[Digit(index, h)].get();
      if (node == nullptr) return nullptr;
    }
    return static_cast<const Leaf*>(node)->vals.data();
  }

  /// Writable value at `index` in generation `gen`, path-copying frozen
  /// nodes and allocating missing ones.
  V& Mutable(uint32_t index, Generation gen) {
    if (root_ == nullptr) root_ = Fresh<Leaf>(gen);
    while (!Covers(index)) {
      auto up = Fresh<Inner>(gen);
      up->kids[0] = std::move(root_);
      root_ = std::move(up);
      ++height_;
    }
    std::shared_ptr<Node>* slot = &root_;
    for (unsigned h = height_; h > 0; --h) {
      slot = &Own<Inner>(slot, gen)->kids[Digit(index, h)];
    }
    return Own<Leaf>(slot, gen)->vals[index & kLeafMask];
  }

  /// Calls fn(index, value) for every slot of every allocated leaf, in
  /// index order (unset slots included, value-initialized).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (root_ != nullptr) Walk(root_.get(), height_, 0, fn);
  }

 private:
  static constexpr unsigned kInnerBits = 5;
  static constexpr uint32_t kLeafMask = (1u << kLeafBits) - 1;
  static constexpr uint32_t kInnerMask = (1u << kInnerBits) - 1;

  struct Node {
    Generation gen = 0;
  };
  struct Inner : Node {
    std::array<std::shared_ptr<Node>, 1u << kInnerBits> kids;
  };
  struct Leaf : Node {
    std::array<V, 1u << kLeafBits> vals{};
  };

  bool Covers(uint32_t index) const {
    const unsigned bits = kLeafBits + height_ * kInnerBits;
    return bits >= 32 || (index >> bits) == 0;
  }
  static uint32_t Digit(uint32_t index, unsigned h) {
    const unsigned shift = kLeafBits + (h - 1) * kInnerBits;
    return shift >= 32 ? 0 : (index >> shift) & kInnerMask;
  }
  template <typename N>
  static std::shared_ptr<N> Fresh(Generation gen) {
    auto node = std::make_shared<N>();
    node->gen = gen;
    return node;
  }
  /// The node in `slot`, made writable in `gen`.
  template <typename N>
  static N* Own(std::shared_ptr<Node>* slot, Generation gen) {
    if (*slot == nullptr) {
      *slot = Fresh<N>(gen);
    } else if ((*slot)->gen != gen) {
      auto copy = std::make_shared<N>(static_cast<const N&>(**slot));
      copy->gen = gen;
      *slot = std::move(copy);
    }
    return static_cast<N*>(slot->get());
  }
  template <typename Fn>
  static void Walk(const Node* node, unsigned h, uint64_t base, Fn& fn) {
    if (h == 0) {
      const auto& vals = static_cast<const Leaf*>(node)->vals;
      for (uint32_t i = 0; i < vals.size(); ++i) {
        fn(static_cast<uint32_t>(base | i), vals[i]);
      }
      return;
    }
    const unsigned shift = kLeafBits + (h - 1) * kInnerBits;
    const auto& kids = static_cast<const Inner*>(node)->kids;
    for (uint64_t k = 0; k < kids.size(); ++k) {
      if (kids[k] != nullptr) {
        Walk(kids[k].get(), h - 1, base | (k << shift), fn);
      }
    }
  }

  std::shared_ptr<Node> root_;
  unsigned height_ = 0;  // inner levels above the leaves
};

/// One posting list as a generation slot. `gen` names the generation
/// that created or cloned `list` and may therefore edit it in place; a
/// batch of N ops on one key clones its list once, not N times. A null
/// list is the empty list.
struct PostingSlot {
  std::shared_ptr<const PostingBlocks> list;
  Generation gen = 0;

  bool empty() const { return list == nullptr || list->empty(); }
};

/// Posting lists keyed by symbol id.
using PostingMap = CowArray<PostingSlot>;

/// The slot's list, writable in `gen` (cloned or created first when
/// the current one is shared with a published snapshot).
inline PostingBlocks* MutablePosting(PostingSlot* slot, Generation gen) {
  if (slot->gen == gen && slot->list != nullptr) {
    // Made by the branch below in this generation, as a non-const
    // object that no published snapshot can reach yet.
    return const_cast<PostingBlocks*>(slot->list.get());
  }
  auto fresh = slot->list == nullptr
                   ? std::make_shared<PostingBlocks>()
                   : std::make_shared<PostingBlocks>(*slot->list);
  PostingBlocks* writable = fresh.get();
  slot->list = std::move(fresh);
  slot->gen = gen;
  return writable;
}

/// Objects of one class keyed by symbol id alone, for classes that
/// nothing lists or scans in name order on a hot path (replicas,
/// invocations): writing one object path-copies one trie path of
/// object pointers, with no chunk or directory to copy.
template <typename T>
class IdTable {
 public:
  size_t size() const { return size_; }

  /// The object with id `id`, or null.
  const T* Find(uint32_t id) const {
    const std::shared_ptr<const T>* slot = objects_.Find(id);
    return slot == nullptr ? nullptr : slot->get();
  }

  /// Calls fn(id, object) for every object, in id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    objects_.ForEach([&fn](uint32_t id, const std::shared_ptr<const T>& obj) {
      if (obj != nullptr) fn(id, *obj);
    });
  }

  // ---- writer side: generation `gen` only --------------------------

  /// Inserts `id`'s object or replaces it.
  void Put(uint32_t id, std::shared_ptr<const T> object, Generation gen) {
    std::shared_ptr<const T>& slot = objects_.Mutable(id, gen);
    if (slot == nullptr) ++size_;
    slot = std::move(object);
  }

  /// Removes `id`'s object; false when there is none.
  bool Erase(uint32_t id, Generation gen) {
    if (Find(id) == nullptr) return false;
    objects_.Mutable(id, gen) = nullptr;
    --size_;
    return true;
  }

 private:
  CowArray<std::shared_ptr<const T>> objects_;
  size_t size_ = 0;
};

/// Name-sorted rows of one object class, in copy-on-write chunks.
///
/// Rows live in chunks of up to kSlots, stored in name order. A row
/// keeps a stable tag for as long as it stays in its chunk, and the
/// chunk maps tags to ranks, so a per-id Loc (chunk number, tag) makes
/// point lookups O(1) after the symbol lookup while inserting into a
/// chunk rewrites no other row's Loc. A generation's Directory lists
/// the chunks in name order and maps each chunk number to its chunk
/// and position; it is plain data, so copying it when a chunk is
/// replaced costs a memcpy, while the chunks themselves are owned by a
/// CowArray keyed by chunk number (a path copy). Rewriting one row therefore copies one
/// chunk, one owner path and the directory; only an insert into a full
/// chunk, which shifts rows into a neighbour or splits (MakeRoom),
/// rewrites the Locs of the rows it moves.
///
/// Name order for query results never compares strings: KeyCursor maps
/// ids to keys (chunk position x kSlots + rank) that ascend with names
/// and stay below key_space(), so a bitmap over the key space sorts a
/// candidate set. Inserting a row renumbers nothing outside its chunk.
template <typename T>
class RowTable {
 public:
  using Id = uint32_t;
  static constexpr uint32_t kSlots = 128;
  static constexpr uint32_t kNoKey = 0xffffffffu;

  struct Row {
    std::string_view name;  // into symbol storage, pinned by the snapshot
    Id id = 0;
    std::shared_ptr<const T> object;
  };

 private:
  static constexpr uint32_t kNone = 0xffffffffu;
  static constexpr unsigned kLocBits = 10;

  struct Chunk {
    Generation gen = 0;
    uint32_t cno = 0;   // stable chunk number (survives clones)
    uint32_t live = 0;  // rows in use: rows[0, live)
    std::array<Row, kSlots> rows;        // name order
    std::array<uint8_t, kSlots> tag{};   // rows[r]'s stable tag
    std::array<uint8_t, kSlots> rank{};  // tag -> index into `rows`
    std::array<uint64_t, kSlots / 64> used{};  // tags in use

    std::string_view NameAt(uint32_t r) const { return rows[r].name; }
    /// Refreshes `rank` for rows [from, live).
    void Rerank(uint32_t from) {
      for (uint32_t r = from; r < live; ++r) {
        rank[tag[r]] = static_cast<uint8_t>(r);
      }
    }
    uint32_t TakeTag() {
      uint32_t w = 0;
      while (~used[w] == 0) ++w;
      const uint32_t t =
          w * 64 + static_cast<uint32_t>(__builtin_ctzll(~used[w]));
      used[w] |= uint64_t{1} << (t % 64);
      return t;
    }
    void FreeTag(uint32_t t) { used[t / 64] &= ~(uint64_t{1} << (t % 64)); }
  };
  /// Where a row lives: chunk number << 8 | tag (kNone when absent).
  struct Loc {
    uint32_t packed = kNone;
    bool absent() const { return packed == kNone; }
  };
  static Loc MakeLoc(uint32_t cno, uint32_t tag) {
    return Loc{cno << 8 | tag};
  }
  static uint32_t CnoOf(Loc loc) { return loc.packed >> 8; }
  static uint32_t TagOf(Loc loc) { return loc.packed & 0xff; }
  /// Where a chunk number currently lives.
  struct Place {
    const Chunk* chunk = nullptr;  // owned by `owners_`
    uint32_t base = 0;             // position x kSlots
  };
  /// One generation's chunk order: plain data, cloned whole when a
  /// chunk is replaced, added or removed.
  struct Directory {
    Generation gen = 0;
    std::vector<const Chunk*> chunks;  // name order
    std::vector<Place> by_cno;         // chunk == null for unused numbers
    std::vector<uint32_t> free_cnos;
  };

 public:
  size_t size() const { return size_; }

  const Row* Find(Id id) const {
    const Loc* loc = loc_.Find(id);
    if (loc == nullptr || loc->absent()) return nullptr;
    const Chunk& chunk = *dir_->by_cno[CnoOf(*loc)].chunk;
    return &chunk.rows[chunk.rank[TagOf(*loc)]];
  }

  /// Name-order keys for runs of ids, cheapest when the ids ascend:
  /// consecutive ids share a Loc leaf, which the cursor keeps between
  /// calls. A key is chunk position x kSlots + the row's rank; keys
  /// ascend with names and stay below key_space(). kNoKey when `id`
  /// has no row.
  /// The cursor also resolves keys back to rows (At), with the
  /// directory's arrays held in locals rather than re-read per call.
  class KeyCursor {
   public:
    explicit KeyCursor(const RowTable& table)
        : loc_(table.loc_),
          places_(table.dir_ ? table.dir_->by_cno.data() : nullptr),
          chunks_(table.dir_ ? table.dir_->chunks.data() : nullptr) {}
    [[gnu::always_inline]] uint32_t operator()(Id id) {
      if ((id >> kLocBits) != leaf_no_) {
        leaf_no_ = id >> kLocBits;
        leaf_ = loc_.FindLeaf(id);
      }
      if (leaf_ == nullptr) return kNoKey;
      const Loc loc = leaf_[id & ((1u << kLocBits) - 1)];
      if (loc.absent()) return kNoKey;
      const Place& place = places_[CnoOf(loc)];
      return place.base + place.chunk->rank[TagOf(loc)];
    }
    /// The row with name-order key `key`.
    const Row& At(uint32_t key) const {
      return chunks_[key / kSlots]->rows[key % kSlots];
    }

   private:
    const CowArray<Loc, kLocBits>& loc_;
    const Place* places_;
    const Chunk* const* chunks_;
    uint32_t leaf_no_ = kNone;
    const Loc* leaf_ = nullptr;
  };

  /// Exclusive upper bound of every key.
  size_t key_space() const {
    return dir_ == nullptr ? 0 : dir_->chunks.size() * kSlots;
  }

  /// Calls fn(row) in name order, starting at the first name >= `from`,
  /// until fn returns false.
  template <typename Fn>
  void ScanFrom(std::string_view from, Fn&& fn) const {
    if (dir_ == nullptr) return;
    const auto& chunks = dir_->chunks;
    // First chunk whose last name reaches `from`.
    size_t pos = static_cast<size_t>(
        std::partition_point(chunks.begin(), chunks.end(),
                             [from](const Chunk* c) {
                               return c->NameAt(c->live - 1) < from;
                             }) -
        chunks.begin());
    for (bool first = true; pos < chunks.size(); ++pos, first = false) {
      const Chunk& c = *chunks[pos];
      uint32_t i = 0;
      while (first && i < c.live && c.NameAt(i) < from) ++i;
      for (; i < c.live; ++i) {
        if (!fn(c.rows[i])) return;
      }
    }
  }

  // ---- writer side: generation `gen` only --------------------------

  /// Inserts `id`'s row or replaces its object.
  void Put(Id id, std::string_view name, std::shared_ptr<const T> object,
           Generation gen) {
    if (const Loc* loc = loc_.Find(id); loc != nullptr && !loc->absent()) {
      Chunk* chunk = MutableChunk(CnoOf(*loc), gen);
      chunk->rows[chunk->rank[TagOf(*loc)]].object = std::move(object);
      return;
    }
    Directory* dir = MutableDir(gen);
    if (dir->chunks.empty()) InsertChunk(0, gen);
    // The last chunk whose first name is <= `name` (or the first one).
    uint32_t pos = static_cast<uint32_t>(
        std::partition_point(dir->chunks.begin() + 1, dir->chunks.end(),
                             [name](const Chunk* c) {
                               return c->NameAt(0) <= name;
                             }) -
        dir->chunks.begin() - 1);
    if (dir->chunks[pos]->live == kSlots) {
      if (dir->chunks[pos]->NameAt(kSlots - 1) < name) {
        // Past the end of a full chunk: use the next chunk (or a new
        // one) rather than split, so ascending loads pack chunks full.
        ++pos;
        if (pos == dir->chunks.size() || dir->chunks[pos]->live == kSlots) {
          InsertChunk(pos, gen);
        }
      } else {
        pos = MakeRoom(pos, name, gen);
      }
    }
    Chunk* chunk = MutableChunk(dir->chunks[pos]->cno, gen);
    const uint32_t at = static_cast<uint32_t>(
        std::partition_point(chunk->rows.begin(),
                             chunk->rows.begin() + chunk->live,
                             [name](const Row& row) {
                               return row.name < name;
                             }) -
        chunk->rows.begin());
    std::move_backward(chunk->rows.begin() + at,
                       chunk->rows.begin() + chunk->live,
                       chunk->rows.begin() + chunk->live + 1);
    std::copy_backward(chunk->tag.begin() + at,
                       chunk->tag.begin() + chunk->live,
                       chunk->tag.begin() + chunk->live + 1);
    const uint32_t tag = chunk->TakeTag();
    chunk->rows[at] = Row{name, id, std::move(object)};
    chunk->tag[at] = static_cast<uint8_t>(tag);
    ++chunk->live;
    chunk->Rerank(at);
    loc_.Mutable(id, gen) = MakeLoc(chunk->cno, tag);
    ++size_;
  }

  /// Removes `id`'s row; false when there is none.
  bool Erase(Id id, Generation gen) {
    const Loc* loc = loc_.Find(id);
    if (loc == nullptr || loc->absent()) return false;
    const uint32_t tag = TagOf(*loc);
    Chunk* chunk = MutableChunk(CnoOf(*loc), gen);
    const uint32_t at = chunk->rank[tag];
    std::move(chunk->rows.begin() + at + 1, chunk->rows.begin() + chunk->live,
              chunk->rows.begin() + at);
    std::copy(chunk->tag.begin() + at + 1, chunk->tag.begin() + chunk->live,
              chunk->tag.begin() + at);
    --chunk->live;
    chunk->rows[chunk->live] = Row{};
    chunk->FreeTag(tag);
    chunk->Rerank(at);
    loc_.Mutable(id, gen) = Loc{};
    --size_;
    if (chunk->live == 0) RemoveChunk(chunk->cno, gen);
    return true;
  }

 private:
  Directory* MutableDir(Generation gen) {
    if (dir_ == nullptr) {
      dir_ = std::make_shared<Directory>();
    } else if (dir_->gen != gen) {
      dir_ = std::make_shared<Directory>(*dir_);
    }
    dir_->gen = gen;
    return dir_.get();
  }
  /// Chunk `cno`, writable in `gen` (cloned first when frozen).
  Chunk* MutableChunk(uint32_t cno, Generation gen) {
    Directory* dir = MutableDir(gen);
    std::shared_ptr<Chunk>& owner = owners_.Mutable(cno, gen);
    if (owner->gen != gen) {
      owner = std::make_shared<Chunk>(*owner);
      owner->gen = gen;
      Place& place = dir->by_cno[cno];
      place.chunk = owner.get();
      dir->chunks[place.base / kSlots] = owner.get();
    }
    return owner.get();
  }
  /// Installs a new empty chunk at position `pos`.
  Chunk* InsertChunk(uint32_t pos, Generation gen) {
    Directory* dir = MutableDir(gen);
    auto chunk = std::make_shared<Chunk>();
    chunk->gen = gen;
    if (dir->free_cnos.empty()) {
      chunk->cno = static_cast<uint32_t>(dir->by_cno.size());
      dir->by_cno.emplace_back();
    } else {
      chunk->cno = dir->free_cnos.back();
      dir->free_cnos.pop_back();
    }
    dir->by_cno[chunk->cno].chunk = chunk.get();
    dir->chunks.insert(dir->chunks.begin() + pos, chunk.get());
    owners_.Mutable(chunk->cno, gen) = chunk;
    Renumber(dir, pos);
    return chunk.get();
  }
  void RemoveChunk(uint32_t cno, Generation gen) {
    Directory* dir = MutableDir(gen);
    const uint32_t pos = dir->by_cno[cno].base / kSlots;
    dir->chunks.erase(dir->chunks.begin() + pos);
    dir->by_cno[cno] = Place{};
    dir->free_cnos.push_back(cno);
    owners_.Mutable(cno, gen) = nullptr;
    Renumber(dir, pos);
  }
  static void Renumber(Directory* dir, uint32_t from) {
    for (uint32_t p = from; p < dir->chunks.size(); ++p) {
      dir->by_cno[dir->chunks[p]->cno].base = p * kSlots;
    }
  }
  /// Frees a slot for `name`, which sorts inside the full chunk at
  /// `pos`, and returns the position of the chunk that takes it. Rows
  /// shift into the neighbour with more free slots (the tail to the
  /// right one, the head to the left one), half of its free slots'
  /// worth; only when both neighbours are full does the chunk split at
  /// its middle into a new right neighbour. Shifting first keeps
  /// chunks dense when names arrive out of name order (`cc1000` before
  /// `cc101`), which middle splits alone leave about half full.
  uint32_t MakeRoom(uint32_t pos, std::string_view name, Generation gen) {
    const std::vector<const Chunk*>& chunks = dir_->chunks;
    const uint32_t left = pos > 0 ? kSlots - chunks[pos - 1]->live : 0;
    uint32_t right =
        pos + 1 < chunks.size() ? kSlots - chunks[pos + 1]->live : 0;
    if (left > right) {
      ShiftHead(pos, (left + 1) / 2, gen);
      const Chunk& prev = *dir_->chunks[pos - 1];
      return name < prev.NameAt(prev.live - 1) ? pos - 1 : pos;
    }
    if (right == 0) {
      InsertChunk(pos + 1, gen);
      right = kSlots;
    }
    ShiftTail(pos, (right + 1) / 2, gen);
    return dir_->chunks[pos + 1]->NameAt(0) <= name ? pos + 1 : pos;
  }
  /// Moves the last `k` rows of the chunk at `pos` to the front of the
  /// chunk at pos + 1, which has room for them.
  void ShiftTail(uint32_t pos, uint32_t k, Generation gen) {
    Chunk* from = MutableChunk(dir_->chunks[pos]->cno, gen);
    Chunk* to = MutableChunk(dir_->chunks[pos + 1]->cno, gen);
    std::move_backward(to->rows.begin(), to->rows.begin() + to->live,
                       to->rows.begin() + to->live + k);
    std::copy_backward(to->tag.begin(), to->tag.begin() + to->live,
                       to->tag.begin() + to->live + k);
    from->live -= k;
    for (uint32_t r = 0; r < k; ++r) Adopt(from, from->live + r, to, r, gen);
    to->live += k;
    to->Rerank(0);
  }
  /// Moves the first `k` rows of the chunk at `pos` to the end of the
  /// chunk at pos - 1, which has room for them.
  void ShiftHead(uint32_t pos, uint32_t k, Generation gen) {
    Chunk* from = MutableChunk(dir_->chunks[pos]->cno, gen);
    Chunk* to = MutableChunk(dir_->chunks[pos - 1]->cno, gen);
    for (uint32_t r = 0; r < k; ++r) Adopt(from, r, to, to->live + r, gen);
    to->live += k;
    to->Rerank(to->live - k);
    std::move(from->rows.begin() + k, from->rows.begin() + from->live,
              from->rows.begin());
    std::copy(from->tag.begin() + k, from->tag.begin() + from->live,
              from->tag.begin());
    from->live -= k;
    std::fill(from->rows.begin() + from->live,
              from->rows.begin() + from->live + k, Row{});
    from->Rerank(0);
  }
  /// Moves row `r` of `from` into slot `at` of `to` under a fresh tag
  /// and repoints its Loc.
  void Adopt(Chunk* from, uint32_t r, Chunk* to, uint32_t at,
             Generation gen) {
    to->rows[at] = std::move(from->rows[r]);
    from->rows[r] = Row{};
    from->FreeTag(from->tag[r]);
    to->tag[at] = static_cast<uint8_t>(to->TakeTag());
    loc_.Mutable(to->rows[at].id, gen) = MakeLoc(to->cno, to->tag[at]);
  }

  CowArray<std::shared_ptr<Chunk>> owners_;  // by chunk number
  std::shared_ptr<Directory> dir_;
  CowArray<Loc, kLocBits> loc_;  // by symbol id
  size_t size_ = 0;
};

/// The bounded changelog window as append-only chunks. Entries are
/// numbered absolutely; a window is [begin_, end_). Appends write past
/// every published end, so the tail chunk is shared with published
/// windows and filled in place; the chunk spine is copied only when a
/// chunk is added or dropped.
template <typename Entry>
class ChangeWindow {
 public:
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return end_ == begin_; }
  /// The i-th live entry, oldest first.
  const Entry& at(size_t i) const {
    const uint64_t n = begin_ + i;
    return spine_->chunks[n / kChunk - spine_->first_chunk]
        ->entries[n % kChunk];
  }
  const Entry& front() const { return at(0); }

  void PushBack(Entry entry, Generation gen) {
    const uint64_t chunk_no = end_ / kChunk;
    if (spine_ == nullptr ||
        chunk_no - spine_->first_chunk == spine_->chunks.size()) {
      MutableSpine(gen)->chunks.push_back(std::make_shared<Chunk>());
    }
    spine_->chunks[chunk_no - spine_->first_chunk]->entries[end_ % kChunk] =
        std::move(entry);
    ++end_;
  }
  void PopFront(Generation gen) {
    ++begin_;
    if (begin_ / kChunk > spine_->first_chunk) {
      Spine* spine = MutableSpine(gen);
      spine->chunks.erase(spine->chunks.begin());
      ++spine->first_chunk;
    }
  }

 private:
  static constexpr uint64_t kChunk = 64;
  struct Chunk {
    std::array<Entry, kChunk> entries;
  };
  struct Spine {
    Generation gen = 0;
    uint64_t first_chunk = 0;  // absolute number of chunks.front()
    std::vector<std::shared_ptr<Chunk>> chunks;
  };
  Spine* MutableSpine(Generation gen) {
    if (spine_ == nullptr) {
      spine_ = std::make_shared<Spine>();
    } else if (spine_->gen != gen) {
      spine_ = std::make_shared<Spine>(*spine_);
    }
    spine_->gen = gen;
    return spine_.get();
  }

  std::shared_ptr<Spine> spine_;
  uint64_t begin_ = 0;
  uint64_t end_ = 0;
};

}  // namespace vdg

#endif  // VDG_CATALOG_COW_H_
