#ifndef VDG_CATALOG_POSTING_H_
#define VDG_CATALOG_POSTING_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vdg {

/// A compressed posting list of 32-bit symbol ids with multiset
/// semantics, replacing the flat sorted-vector lists the snapshot
/// indexes used to hold.
///
/// Layout: ids are partitioned into fixed-span blocks keyed by the
/// high 16 bits (the roaring-bitmap container scheme). Each block
/// carries a {key, count, min16, max16} header and stores its low-16
/// values either as a sorted uint16 array (sparse) or as a 65536-bit
/// bitmap (dense, past kBitmapThreshold entries) — so a list of L ids
/// costs at most 2 bytes per id and at most 8 KiB per dense block,
/// against 4 bytes per id before.
///
/// Ids are kept in *id-value* order (not name order): integer order is
/// what makes galloping intersection and word-wise bitmap AND possible.
/// Callers that must present results in name order re-sort the (small)
/// final candidate set — see CatalogView.
///
/// Duplicates (one derivation naming the same dataset twice) are kept
/// out of the blocks: the block structure is the distinct-id set, and
/// a small sorted (id, extra occurrences) side table preserves multiset
/// cardinality for enumeration. Intersections are set-semantics — every
/// consumer deduplicates anyway.
///
/// Small form: a list of at most kSmallIds occurrences keeps them in
/// the object itself, sorted with duplicates adjacent, and has no
/// blocks and no side table, so a one-id list is one allocation (the
/// object and its shared_ptr control block) instead of three. Add
/// promotes it to blocks when it overflows and Remove demotes it again
/// when it shrinks back; the form follows from size() alone. Most
/// edge-index lists (a dataset's producer, its consumers) hold one or
/// two ids. Both forms serialize to the same bytes.
///
/// A block's payload may be *borrowed* from an mmap-ed flat snapshot
/// instead of owned: Parse() points blocks straight into the buffer
/// (zero copy) and `keepalive` pins the mapping. Mutating a borrowed
/// block first materializes it; everything else never writes through
/// the borrowed pointers.
///
/// Mutation is writer-side only, on a privately owned copy (the
/// catalog's copy-on-write discipline); published lists are immutable.
class PostingBlocks {
 public:
  using Id = uint32_t;

  static constexpr uint32_t kSpanBits = 16;
  /// Ids covered by one block (the fixed block span).
  static constexpr uint32_t kSpan = 1u << kSpanBits;
  static constexpr uint32_t kBitmapWords = kSpan / 64;  // 1024
  /// Array blocks convert to bitmaps at this many entries (density
  /// 1/16, the roaring threshold: beyond it the bitmap is smaller).
  static constexpr uint32_t kBitmapThreshold = 4096;
  /// Lists of at most this many occurrences use the small form.
  static constexpr uint32_t kSmallIds = 4;

  PostingBlocks() = default;

  /// Adds one occurrence of `id` (multiset insert).
  void Add(Id id);
  /// Removes one occurrence of `id`; no-op when absent.
  void Remove(Id id);

  bool Contains(Id id) const;
  /// Occurrences of `id` (0 when absent).
  uint32_t CountOf(Id id) const;

  /// Total occurrences including duplicates — the historical
  /// vector-list size, used for planner selectivity estimates.
  size_t size() const { return total_; }
  /// Distinct ids.
  size_t distinct() const { return distinct_; }
  bool empty() const { return distinct_ == 0; }
  /// True while the list is in the small form (no blocks).
  bool is_small() const { return total_ <= kSmallIds; }
  /// Blocks of the block form; 0 in the small form.
  size_t block_count() const { return blocks_.size(); }

  /// Calls `fn(Id)` for every distinct id, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (!is_small()) {
      ForEachInBlocks(fn);
      return;
    }
    for (size_t i = 0; i < total_; ++i) {
      if (i == 0 || small_[i] != small_[i - 1]) fn(small_[i]);
    }
  }

  /// Calls `fn(Id)` once per *occurrence* (duplicates expanded),
  /// ascending by id.
  template <typename Fn>
  void ForEachOccurrence(Fn&& fn) const {
    if (!is_small()) {
      ForEachOccurrenceInBlocks(fn);
      return;
    }
    for (size_t i = 0; i < total_; ++i) fn(small_[i]);
  }

  /// The full multiset as a sorted id vector (tests, small lists).
  std::vector<Id> ToVector() const;

  /// Distinct ids common to `a` and `b`, ascending. Kernel selection
  /// per aligned block pair: word-AND for bitmap x bitmap, probe for
  /// array x bitmap, galloping (exponential search) for skewed
  /// array x array, linear merge otherwise; block min/max headers skip
  /// non-overlapping pairs without touching payloads. A small-form side
  /// probes its few ids against the other.
  static std::vector<Id> Intersect(const PostingBlocks& a,
                                   const PostingBlocks& b);

  /// In-place `*candidates &= b` for an ascending distinct id vector —
  /// the progressive-intersection step after the first pair.
  static void IntersectWith(std::vector<Id>* candidates,
                            const PostingBlocks& b);

  /// Multiset union (distinct sets merged, duplicate counts added).
  static PostingBlocks Union(const PostingBlocks& a, const PostingBlocks& b);

  // --- Flat-snapshot serialization ---------------------------------

  /// Appends the serialized form to `out`. The encoding is relocatable
  /// and self-delimiting; block payloads are padded so that when the
  /// blob starts at an 8-byte-aligned offset, every bitmap word sits
  /// 8-byte aligned and every array 2-byte aligned (the mmap-borrow
  /// contract). A small-form list writes the bytes of its block form.
  void AppendSerialized(std::string* out) const;

  /// Parses one serialized blob from `data`. `*consumed` receives the
  /// encoded length. When `keepalive` is non-null and the payload
  /// alignment holds, block payloads are *borrowed* from `data`
  /// (zero-copy; the caller guarantees `data` outlives the result via
  /// `keepalive`); otherwise payloads are copied into owned storage.
  /// A blob of at most kSmallIds occurrences is parsed as blocks and
  /// then demoted to the small form, which keeps no `keepalive`.
  static Result<PostingBlocks> Parse(const uint8_t* data, size_t size,
                                     size_t* consumed,
                                     std::shared_ptr<const void> keepalive);

 private:
  struct Block {
    uint32_t key = 0;    // id >> kSpanBits
    uint32_t count = 0;  // distinct ids in this block
    uint16_t min16 = 0;  // smallest low-16 value present
    uint16_t max16 = 0;  // largest low-16 value present
    bool bitmap = false;

    // Exactly one representation is active (per `bitmap`); storage is
    // either owned or borrowed (ext_* non-null) from an mmap buffer.
    std::vector<uint16_t> own_array;
    std::vector<uint64_t> own_bits;
    const uint16_t* ext_array = nullptr;
    const uint64_t* ext_bits = nullptr;

    const uint16_t* array() const {
      return ext_array != nullptr ? ext_array : own_array.data();
    }
    const uint64_t* bits() const {
      return ext_bits != nullptr ? ext_bits : own_bits.data();
    }
  };
  using Extra = std::pair<Id, uint32_t>;

  template <typename Fn>
  void ForEachInBlocks(Fn& fn) const {
    for (const Block& b : blocks_) {
      const Id base = static_cast<Id>(b.key) << kSpanBits;
      if (b.bitmap) {
        const uint64_t* words = b.bits();
        for (uint32_t w = b.min16 / 64; w <= b.max16 / 64; ++w) {
          uint64_t bits = words[w];
          while (bits != 0) {
            const uint32_t bit = CountTrailingZeros(bits);
            fn(base | (w * 64 + bit));
            bits &= bits - 1;
          }
        }
      } else {
        const uint16_t* vals = b.array();
        for (uint32_t i = 0; i < b.count; ++i) fn(base | vals[i]);
      }
    }
  }

  template <typename Fn>
  void ForEachOccurrenceInBlocks(Fn& fn) const {
    size_t dup = 0;
    auto expand = [&](Id id) {
      uint32_t times = 1;
      while (dup < extra_.size() && extra_[dup].first < id) ++dup;
      if (dup < extra_.size() && extra_[dup].first == id) {
        times += extra_[dup].second;
      }
      for (uint32_t i = 0; i < times; ++i) fn(id);
    };
    ForEachInBlocks(expand);
  }

  static uint32_t CountTrailingZeros(uint64_t v);

  /// Index of the block with `key`, or blocks_.size() when absent.
  size_t FindBlock(uint32_t key) const;
  /// Copies borrowed storage into owned vectors (pre-mutation).
  static void Materialize(Block* b);
  static void ToBitmap(Block* b);
  static void ToArray(Block* b);
  static bool BlockContains(const Block& b, uint16_t low);

  static void IntersectBlocks(const Block& x, const Block& y, Id base,
                              std::vector<Id>* out);

  void AddToBlocks(Id id);
  void RemoveFromBlocks(Id id);
  /// Small form -> block form (the caller adds the overflowing id).
  void Promote();
  /// Block form of at most kSmallIds occurrences -> small form. False
  /// when the blocks do not hold exactly total_ ascending occurrences
  /// with distinct_ distinct ids (only a damaged parsed blob can't).
  bool Demote();
  /// Serializes the block form (the only form the format has).
  void AppendBlocks(std::string* out) const;

  std::vector<Block> blocks_;  // sorted by key; empty in the small form
  /// (id, extra occurrences beyond the first), sorted by id.
  std::vector<Extra> extra_;
  size_t total_ = 0;
  size_t distinct_ = 0;
  /// Pins the mmap buffer borrowed blocks point into.
  std::shared_ptr<const void> keepalive_;
  /// The small form's occurrences, ascending: small_[0, total_).
  std::array<Id, kSmallIds> small_{};
};

}  // namespace vdg

#endif  // VDG_CATALOG_POSTING_H_
