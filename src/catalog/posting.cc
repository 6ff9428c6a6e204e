#include "catalog/posting.h"

#include <algorithm>
#include <cstring>

namespace vdg {

namespace {

/// Gallop ratio: array x array intersection switches from linear merge
/// to exponential search when one side is this many times longer.
constexpr uint32_t kGallopRatio = 16;

/// Exponential (galloping) search: smallest index in [lo, n) with
/// vals[index] >= target. Starts probing at `lo` with doubling steps,
/// then binary-searches the bracketed range — O(log distance) instead
/// of O(log n), which is what makes skewed intersections cheap.
uint32_t GallopLowerBound(const uint16_t* vals, uint32_t lo, uint32_t n,
                          uint16_t target) {
  if (lo >= n || vals[lo] >= target) return lo;
  uint32_t step = 1;
  uint32_t prev = lo;
  uint32_t probe = lo + 1;
  while (probe < n && vals[probe] < target) {
    prev = probe;
    step <<= 1;
    probe = (probe + step < n) ? probe + step : n;
  }
  const uint16_t* it =
      std::lower_bound(vals + prev + 1, vals + probe, target);
  return static_cast<uint32_t>(it - vals);
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutU16(std::string* out, uint16_t v) {
  char buf[2];
  std::memcpy(buf, &v, 2);
  out->append(buf, 2);
}

/// Bounded little-endian reader over the blob being parsed.
struct Reader {
  const uint8_t* p;
  const uint8_t* end;
  bool ok = true;

  bool Need(size_t n) {
    if (static_cast<size_t>(end - p) < n) ok = false;
    return ok;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v;
    std::memcpy(&v, p, 2);
    p += 2;
    return v;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return *p++;
  }
};

}  // namespace

uint32_t PostingBlocks::CountTrailingZeros(uint64_t v) {
  return static_cast<uint32_t>(__builtin_ctzll(v));
}

size_t PostingBlocks::FindBlock(uint32_t key) const {
  auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), key,
      [](const Block& b, uint32_t k) { return b.key < k; });
  if (it == blocks_.end() || it->key != key) return blocks_.size();
  return static_cast<size_t>(it - blocks_.begin());
}

void PostingBlocks::Materialize(Block* b) {
  if (b->ext_array != nullptr) {
    b->own_array.assign(b->ext_array, b->ext_array + b->count);
    b->ext_array = nullptr;
  }
  if (b->ext_bits != nullptr) {
    b->own_bits.assign(b->ext_bits, b->ext_bits + kBitmapWords);
    b->ext_bits = nullptr;
  }
}

void PostingBlocks::ToBitmap(Block* b) {
  std::vector<uint64_t> bits(kBitmapWords, 0);
  const uint16_t* vals = b->array();
  for (uint32_t i = 0; i < b->count; ++i) {
    bits[vals[i] / 64] |= uint64_t{1} << (vals[i] % 64);
  }
  b->own_bits = std::move(bits);
  b->own_array.clear();
  b->own_array.shrink_to_fit();
  b->ext_array = nullptr;
  b->bitmap = true;
}

void PostingBlocks::ToArray(Block* b) {
  std::vector<uint16_t> vals;
  vals.reserve(b->count);
  const uint64_t* words = b->bits();
  for (uint32_t w = 0; w < kBitmapWords; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      vals.push_back(static_cast<uint16_t>(w * 64 + CountTrailingZeros(bits)));
      bits &= bits - 1;
    }
  }
  b->own_array = std::move(vals);
  b->own_bits.clear();
  b->own_bits.shrink_to_fit();
  b->ext_bits = nullptr;
  b->bitmap = false;
}

bool PostingBlocks::BlockContains(const Block& b, uint16_t low) {
  if (low < b.min16 || low > b.max16) return false;
  if (b.bitmap) {
    return (b.bits()[low / 64] >> (low % 64)) & 1;
  }
  const uint16_t* vals = b.array();
  return std::binary_search(vals, vals + b.count, low);
}

bool PostingBlocks::Contains(Id id) const {
  if (is_small()) {
    return std::binary_search(small_.begin(), small_.begin() + total_, id);
  }
  const size_t bi = FindBlock(id >> kSpanBits);
  if (bi == blocks_.size()) return false;
  return BlockContains(blocks_[bi], static_cast<uint16_t>(id & 0xffff));
}

uint32_t PostingBlocks::CountOf(Id id) const {
  if (is_small()) {
    return static_cast<uint32_t>(
        std::count(small_.begin(), small_.begin() + total_, id));
  }
  if (!Contains(id)) return 0;
  auto it = std::lower_bound(
      extra_.begin(), extra_.end(), id,
      [](const std::pair<Id, uint32_t>& e, Id v) { return e.first < v; });
  uint32_t n = 1;
  if (it != extra_.end() && it->first == id) n += it->second;
  return n;
}

void PostingBlocks::Add(Id id) {
  if (is_small()) {
    if (total_ < kSmallIds) {
      Id* const end = small_.data() + total_;
      Id* const at = std::upper_bound(small_.data(), end, id);
      if (at == small_.data() || at[-1] != id) ++distinct_;
      std::move_backward(at, end, end + 1);
      *at = id;
      ++total_;
      return;
    }
    Promote();
  }
  AddToBlocks(id);
}

void PostingBlocks::Promote() {
  const std::array<Id, kSmallIds> ids = small_;
  const size_t n = total_;
  total_ = 0;
  distinct_ = 0;
  for (size_t i = 0; i < n; ++i) AddToBlocks(ids[i]);
}

bool PostingBlocks::Demote() {
  size_t n = 0;  // occurrences the blocks hold; only total_ are kept
  auto take = [this, &n](Id id) {
    if (n < total_) small_[n] = id;
    ++n;
  };
  ForEachOccurrenceInBlocks(take);
  blocks_ = std::vector<Block>();
  extra_ = std::vector<Extra>();
  keepalive_.reset();
  if (n != total_) return false;
  size_t distinct = total_ == 0 ? 0 : 1;
  for (size_t i = 1; i < total_; ++i) {
    if (small_[i] < small_[i - 1]) return false;
    if (small_[i] != small_[i - 1]) ++distinct;
  }
  return distinct == distinct_;
}

void PostingBlocks::AddToBlocks(Id id) {
  const uint32_t key = id >> kSpanBits;
  const uint16_t low = static_cast<uint16_t>(id & 0xffff);
  auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), key,
      [](const Block& b, uint32_t k) { return b.key < k; });
  if (it == blocks_.end() || it->key != key) {
    Block fresh;
    fresh.key = key;
    fresh.count = 1;
    fresh.min16 = fresh.max16 = low;
    fresh.own_array.push_back(low);
    blocks_.insert(it, std::move(fresh));
    ++distinct_;
    ++total_;
    return;
  }
  Block& b = *it;
  if (BlockContains(b, low)) {
    // Duplicate occurrence: bump the side table, not the block.
    auto e = std::lower_bound(
        extra_.begin(), extra_.end(), id,
        [](const std::pair<Id, uint32_t>& x, Id v) { return x.first < v; });
    if (e != extra_.end() && e->first == id) {
      ++e->second;
    } else {
      extra_.insert(e, {id, 1});
    }
    ++total_;
    return;
  }
  Materialize(&b);
  if (b.bitmap) {
    b.own_bits[low / 64] |= uint64_t{1} << (low % 64);
  } else if (b.count + 1 > kBitmapThreshold) {
    ToBitmap(&b);
    b.own_bits[low / 64] |= uint64_t{1} << (low % 64);
  } else {
    b.own_array.insert(
        std::lower_bound(b.own_array.begin(), b.own_array.end(), low), low);
  }
  ++b.count;
  b.min16 = std::min(b.min16, low);
  b.max16 = std::max(b.max16, low);
  ++distinct_;
  ++total_;
}

void PostingBlocks::Remove(Id id) {
  if (is_small()) {
    Id* const end = small_.data() + total_;
    Id* const at = std::lower_bound(small_.data(), end, id);
    if (at == end || *at != id) return;
    if (at + 1 == end || at[1] != id) --distinct_;
    std::move(at + 1, end, at);
    --total_;
    return;
  }
  RemoveFromBlocks(id);
  if (is_small()) Demote();
}

void PostingBlocks::RemoveFromBlocks(Id id) {
  const size_t bi = FindBlock(id >> kSpanBits);
  if (bi == blocks_.size()) return;
  Block& b = blocks_[bi];
  const uint16_t low = static_cast<uint16_t>(id & 0xffff);
  if (!BlockContains(b, low)) return;
  // Duplicates burn down the side table before block membership goes.
  auto e = std::lower_bound(
      extra_.begin(), extra_.end(), id,
      [](const std::pair<Id, uint32_t>& x, Id v) { return x.first < v; });
  if (e != extra_.end() && e->first == id) {
    if (--e->second == 0) extra_.erase(e);
    --total_;
    return;
  }
  if (b.count == 1) {
    blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(bi));
    --distinct_;
    --total_;
    return;
  }
  Materialize(&b);
  if (b.bitmap) {
    b.own_bits[low / 64] &= ~(uint64_t{1} << (low % 64));
    --b.count;
    if (b.count < kBitmapThreshold / 2) ToArray(&b);
  } else {
    auto pos = std::lower_bound(b.own_array.begin(), b.own_array.end(), low);
    b.own_array.erase(pos);
    --b.count;
  }
  if (low == b.min16 || low == b.max16) {
    if (b.bitmap) {
      const uint64_t* words = b.bits();
      for (uint32_t w = 0; w < kBitmapWords; ++w) {
        if (words[w] != 0) {
          b.min16 = static_cast<uint16_t>(w * 64 + CountTrailingZeros(words[w]));
          break;
        }
      }
      for (uint32_t w = kBitmapWords; w-- > 0;) {
        if (words[w] != 0) {
          b.max16 = static_cast<uint16_t>(
              w * 64 + (63 - __builtin_clzll(words[w])));
          break;
        }
      }
    } else {
      b.min16 = b.own_array.front();
      b.max16 = b.own_array.back();
    }
  }
  --distinct_;
  --total_;
}

std::vector<PostingBlocks::Id> PostingBlocks::ToVector() const {
  std::vector<Id> out;
  out.reserve(total_);
  ForEachOccurrence([&out](Id id) { out.push_back(id); });
  return out;
}

// ---------------------------------------------------------------------
// Intersection kernels
// ---------------------------------------------------------------------

void PostingBlocks::IntersectBlocks(const Block& x, const Block& y, Id base,
                                    std::vector<Id>* out) {
  // Header check: disjoint low-16 ranges never touch the payloads.
  if (x.max16 < y.min16 || y.max16 < x.min16) return;

  if (x.bitmap && y.bitmap) {
    // Dense x dense: word-wise AND over the overlapping word range.
    const uint64_t* xw = x.bits();
    const uint64_t* yw = y.bits();
    const uint32_t w_lo = std::max(x.min16, y.min16) / 64;
    const uint32_t w_hi = std::min(x.max16, y.max16) / 64;
    for (uint32_t w = w_lo; w <= w_hi; ++w) {
      uint64_t bits = xw[w] & yw[w];
      while (bits != 0) {
        out->push_back(base | (w * 64 + CountTrailingZeros(bits)));
        bits &= bits - 1;
      }
    }
    return;
  }

  if (x.bitmap != y.bitmap) {
    // Sparse x dense: probe each array value against the bitmap.
    const Block& arr = x.bitmap ? y : x;
    const Block& bm = x.bitmap ? x : y;
    const uint16_t* vals = arr.array();
    const uint64_t* words = bm.bits();
    for (uint32_t i = 0; i < arr.count; ++i) {
      const uint16_t v = vals[i];
      if (v < bm.min16) continue;
      if (v > bm.max16) break;
      if ((words[v / 64] >> (v % 64)) & 1) out->push_back(base | v);
    }
    return;
  }

  const Block& small = x.count <= y.count ? x : y;
  const Block& large = x.count <= y.count ? y : x;
  const uint16_t* sv = small.array();
  const uint16_t* lv = large.array();

  if (large.count >= kGallopRatio * small.count) {
    // Skewed: gallop the short list through the long one.
    uint32_t pos = 0;
    for (uint32_t i = 0; i < small.count; ++i) {
      const uint16_t v = sv[i];
      if (v > large.max16) break;
      pos = GallopLowerBound(lv, pos, large.count, v);
      if (pos == large.count) break;
      if (lv[pos] == v) out->push_back(base | v);
    }
    return;
  }

  // Comparable sizes: linear two-pointer merge.
  uint32_t i = 0, j = 0;
  while (i < small.count && j < large.count) {
    if (sv[i] < lv[j]) {
      ++i;
    } else if (lv[j] < sv[i]) {
      ++j;
    } else {
      out->push_back(base | sv[i]);
      ++i;
      ++j;
    }
  }
}

std::vector<PostingBlocks::Id> PostingBlocks::Intersect(
    const PostingBlocks& a, const PostingBlocks& b) {
  std::vector<Id> out;
  if (a.empty() || b.empty()) return out;
  out.reserve(std::min(a.distinct_, b.distinct_));
  if (a.is_small() || b.is_small()) {
    const PostingBlocks& few = a.is_small() ? a : b;
    const PostingBlocks& other = a.is_small() ? b : a;
    few.ForEach([&](Id id) {
      if (other.Contains(id)) out.push_back(id);
    });
    return out;
  }
  size_t i = 0, j = 0;
  while (i < a.blocks_.size() && j < b.blocks_.size()) {
    const uint32_t ka = a.blocks_[i].key;
    const uint32_t kb = b.blocks_[j].key;
    if (ka == kb) {
      IntersectBlocks(a.blocks_[i], b.blocks_[j],
                      static_cast<Id>(ka) << kSpanBits, &out);
      ++i;
      ++j;
    } else if (ka < kb) {
      // Jump the lagging side by key (block-level gallop).
      i = static_cast<size_t>(
          std::lower_bound(a.blocks_.begin() + static_cast<ptrdiff_t>(i),
                           a.blocks_.end(), kb,
                           [](const Block& blk, uint32_t k) {
                             return blk.key < k;
                           }) -
          a.blocks_.begin());
    } else {
      j = static_cast<size_t>(
          std::lower_bound(b.blocks_.begin() + static_cast<ptrdiff_t>(j),
                           b.blocks_.end(), ka,
                           [](const Block& blk, uint32_t k) {
                             return blk.key < k;
                           }) -
          b.blocks_.begin());
    }
  }
  return out;
}

void PostingBlocks::IntersectWith(std::vector<Id>* candidates,
                                  const PostingBlocks& b) {
  if (candidates->empty()) return;
  if (b.empty()) {
    candidates->clear();
    return;
  }
  size_t out_n = 0;
  if (b.is_small()) {
    // Look the few ids up in the candidates; hits land at or after
    // out_n, so they compact in place.
    auto from = candidates->begin();
    b.ForEach([&](Id id) {
      from = std::lower_bound(from, candidates->end(), id);
      if (from != candidates->end() && *from == id) {
        (*candidates)[out_n++] = id;
      }
    });
    candidates->resize(out_n);
    return;
  }
  size_t bi = 0;
  uint32_t pos = 0;  // array cursor within the current block
  for (const Id id : *candidates) {
    const uint32_t key = id >> kSpanBits;
    while (bi < b.blocks_.size() && b.blocks_[bi].key < key) {
      ++bi;
      pos = 0;
    }
    if (bi == b.blocks_.size()) break;
    const Block& blk = b.blocks_[bi];
    if (blk.key != key) continue;
    const uint16_t low = static_cast<uint16_t>(id & 0xffff);
    if (low < blk.min16 || low > blk.max16) continue;
    if (blk.bitmap) {
      if ((blk.bits()[low / 64] >> (low % 64)) & 1) {
        (*candidates)[out_n++] = id;
      }
    } else {
      // Candidates ascend, so the cursor only moves forward; gallop
      // covers skew between the candidate set and the block.
      pos = GallopLowerBound(blk.array(), pos, blk.count, low);
      if (pos < blk.count && blk.array()[pos] == low) {
        (*candidates)[out_n++] = id;
      }
    }
  }
  candidates->resize(out_n);
}

PostingBlocks PostingBlocks::Union(const PostingBlocks& a,
                                   const PostingBlocks& b) {
  // Start from the larger side's structure, fold the other in. Only
  // the copied side's blocks may stay borrowed (they keep `keepalive`);
  // every fold-in mutation materializes as it goes.
  const PostingBlocks& seed = a.distinct_ >= b.distinct_ ? a : b;
  const PostingBlocks& rest = a.distinct_ >= b.distinct_ ? b : a;
  PostingBlocks out = seed;
  rest.ForEachOccurrence([&out](Id id) { out.Add(id); });
  return out;
}

// ---------------------------------------------------------------------
// Serialization (the flat-snapshot wire form)
// ---------------------------------------------------------------------

void PostingBlocks::AppendSerialized(std::string* out) const {
  if (is_small()) {
    // The small form writes the bytes of its block form.
    PostingBlocks blocks;
    ForEachOccurrence([&blocks](Id id) { blocks.AddToBlocks(id); });
    blocks.AppendBlocks(out);
    return;
  }
  AppendBlocks(out);
}

void PostingBlocks::AppendBlocks(std::string* out) const {
  const size_t start = out->size();
  PutU32(out, static_cast<uint32_t>(blocks_.size()));
  PutU32(out, static_cast<uint32_t>(distinct_));
  PutU64(out, static_cast<uint64_t>(total_));
  PutU32(out, static_cast<uint32_t>(extra_.size()));
  PutU32(out, 0);  // reserved; keeps the 24-byte header 8-aligned
  for (const Block& b : blocks_) {
    PutU32(out, b.key);
    PutU32(out, b.count);
    PutU16(out, b.min16);
    PutU16(out, b.max16);
    out->push_back(b.bitmap ? '\1' : '\0');
    out->append(3, '\0');
  }
  for (const Block& b : blocks_) {
    while ((out->size() - start) % 8 != 0) out->push_back('\0');
    if (b.bitmap) {
      out->append(reinterpret_cast<const char*>(b.bits()),
                  kBitmapWords * sizeof(uint64_t));
    } else {
      out->append(reinterpret_cast<const char*>(b.array()),
                  b.count * sizeof(uint16_t));
    }
  }
  while ((out->size() - start) % 8 != 0) out->push_back('\0');
  for (const auto& [id, n] : extra_) {
    PutU32(out, id);
    PutU32(out, n);
  }
}

Result<PostingBlocks> PostingBlocks::Parse(
    const uint8_t* data, size_t size, size_t* consumed,
    std::shared_ptr<const void> keepalive) {
  Reader r{data, data + size};
  PostingBlocks out;
  const uint32_t block_count = r.U32();
  const uint32_t distinct = r.U32();
  const uint64_t total = r.U64();
  const uint32_t extra_count = r.U32();
  r.U32();  // reserved
  if (!r.ok || block_count > kSpan || extra_count > distinct ||
      distinct > total) {
    return Status::ParseError("posting blob: bad header");
  }
  out.blocks_.resize(block_count);
  uint64_t counted = 0;
  uint32_t prev_key = 0;
  for (uint32_t i = 0; i < block_count; ++i) {
    Block& b = out.blocks_[i];
    b.key = r.U32();
    b.count = r.U32();
    b.min16 = r.U16();
    b.max16 = r.U16();
    b.bitmap = r.U8() != 0;
    r.U8();
    r.U16();
    if (!r.ok || b.count == 0 || b.count > kSpan || b.min16 > b.max16 ||
        (i > 0 && b.key <= prev_key)) {
      return Status::ParseError("posting blob: bad block header");
    }
    // The writer turns a block into a bitmap only past
    // kBitmapThreshold / 2 ids, so a small list has array blocks.
    if (b.bitmap && total <= kSmallIds) {
      return Status::ParseError("posting blob: bitmap in a small list");
    }
    prev_key = b.key;
    counted += b.count;
  }
  if (counted != distinct) {
    return Status::ParseError("posting blob: distinct count mismatch");
  }
  for (uint32_t i = 0; i < block_count; ++i) {
    Block& b = out.blocks_[i];
    while ((r.p - data) % 8 != 0) {
      if (!r.Need(1)) return Status::ParseError("posting blob: truncated");
      ++r.p;
    }
    const size_t bytes = b.bitmap ? kBitmapWords * sizeof(uint64_t)
                                  : b.count * sizeof(uint16_t);
    if (!r.Need(bytes)) {
      return Status::ParseError("posting blob: truncated payload");
    }
    const bool aligned =
        reinterpret_cast<uintptr_t>(r.p) % (b.bitmap ? 8 : 2) == 0;
    if (keepalive != nullptr && aligned) {
      if (b.bitmap) {
        b.ext_bits = reinterpret_cast<const uint64_t*>(r.p);
      } else {
        b.ext_array = reinterpret_cast<const uint16_t*>(r.p);
      }
    } else if (b.bitmap) {
      b.own_bits.resize(kBitmapWords);
      std::memcpy(b.own_bits.data(), r.p, bytes);
    } else {
      b.own_array.resize(b.count);
      std::memcpy(b.own_array.data(), r.p, bytes);
    }
    r.p += bytes;
  }
  while ((r.p - data) % 8 != 0) {
    if (!r.Need(1)) return Status::ParseError("posting blob: truncated");
    ++r.p;
  }
  out.extra_.resize(extra_count);
  uint64_t extras = 0;
  for (uint32_t i = 0; i < extra_count; ++i) {
    out.extra_[i].first = r.U32();
    out.extra_[i].second = r.U32();
    if (!r.ok || out.extra_[i].second == 0 ||
        (i > 0 && out.extra_[i].first <= out.extra_[i - 1].first)) {
      return Status::ParseError("posting blob: bad duplicate table");
    }
    extras += out.extra_[i].second;
  }
  if (total != distinct + extras) {
    return Status::ParseError("posting blob: total count mismatch");
  }
  out.distinct_ = distinct;
  out.total_ = total;
  out.keepalive_ = std::move(keepalive);
  if (out.is_small() && !out.Demote()) {
    return Status::ParseError("posting blob: ids disagree with the counts");
  }
  *consumed = static_cast<size_t>(r.p - data);
  return out;
}

}  // namespace vdg
