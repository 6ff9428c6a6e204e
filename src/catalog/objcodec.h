#ifndef VDG_CATALOG_OBJCODEC_H_
#define VDG_CATALOG_OBJCODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/snapshot.h"
#include "common/status.h"
#include "schema/attribute.h"
#include "schema/dataset.h"
#include "schema/derivation.h"
#include "schema/transformation.h"

namespace vdg {

/// The one binary encoding of the catalog's schema objects — Dataset,
/// Replica, Transformation, Derivation, Invocation, plus their
/// attribute sets and the changelog's CatalogChange. Both the wire
/// protocol (request/response payloads, wire.h) and the flat snapshot
/// (object and changelog sections, flatsnap.h) write and read objects
/// only through this module, so an object has exactly one binary form.
///
/// Integers are little-endian, doubles raw IEEE-754 bits (the round
/// trip is bit-exact), strings and element counts a u32 length prefix,
/// optionals a 0/1 presence byte. Attribute values are a type-tag byte
/// ('s' string, 'i' int64, 'd' double, 'b' bool) plus the typed value.
namespace objcodec {

/// Appends encoded fields to a string.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v) { PutLittleEndian<4>(v); }
  void PutU64(uint64_t v) { PutLittleEndian<8>(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  void PutString(std::string_view s) {
    PutCount(s.size());
    out_->append(s.data(), s.size());
  }
  void PutCount(size_t n) { PutU32(static_cast<uint32_t>(n)); }

 private:
  template <int N>
  void PutLittleEndian(uint64_t v) {
    char bytes[N];
    for (int i = 0; i < N; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    out_->append(bytes, N);
  }

  std::string* out_;
};

/// Bounds-checked cursor over encoded bytes. The first failed check
/// latches: the reader records why (a ParseError), every later read
/// returns a zero value without touching the bytes, and the caller
/// checks ok() or Finish() once after decoding a whole message. A
/// truncated or bit-flipped buffer therefore never crashes a decoder,
/// and decoders carry no per-field error plumbing.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  uint8_t ReadU8() {
    if (!Need(1, "u8")) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  /// Fails on any byte other than 0 or 1.
  bool ReadBool() {
    uint8_t v = ReadU8();
    if (v > 1) Fail("bool byte out of range");
    return v == 1;
  }
  uint32_t ReadU32() {
    if (!Need(4, "u32")) return 0;
    return static_cast<uint32_t>(LoadLittleEndian<4>());
  }
  uint64_t ReadU64() {
    if (!Need(8, "u64")) return 0;
    return LoadLittleEndian<8>();
  }
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }
  double ReadDouble() { return std::bit_cast<double>(ReadU64()); }
  std::string ReadString() { return std::string(ReadStringView()); }
  /// Zero-copy read: a view into the input bytes, valid only while
  /// they stay alive.
  std::string_view ReadStringView() {
    uint32_t len = ReadU32();
    if (!Need(len, "string body")) return {};
    std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }
  /// Element counts are bounded by the bytes actually present: every
  /// element costs at least one byte, so a count larger than the
  /// remaining input is corruption, not a huge message.
  size_t ReadCount() {
    uint32_t n = ReadU32();
    if (n <= remaining()) return n;
    Fail("element count exceeds the remaining bytes");
    return 0;
  }
  /// Advances past `n` bytes the caller decodes itself.
  void Skip(size_t n) {
    if (Need(n, "skipped bytes")) pos_ += n;
  }

  /// Latches a ParseError with `reason` unless a failure is already
  /// latched; decoders call it for semantic checks (enum ranges,
  /// unknown tags, rejected values).
  void Fail(std::string reason);

  bool ok() const { return ok_; }
  const Status& status() const { return status_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  std::string_view rest() const { return data_.substr(pos_); }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// The latched failure, else a ParseError when bytes remain past the
  /// decoded message, else OK.
  Status Finish() const;

 private:
  bool Need(size_t n, const char* what) {
    if (ok_ && data_.size() - pos_ >= n) [[likely]] return true;
    Fail(std::string("truncated input reading ") + what);
    return false;
  }
  template <int N>
  uint64_t LoadLittleEndian() {
    uint64_t v = 0;
    for (int i = 0; i < N; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += N;
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
  Status status_;
};

template <typename T, typename PutFn>
void PutOptional(Writer& w, const std::optional<T>& opt, PutFn put) {
  w.PutBool(opt.has_value());
  if (opt.has_value()) put(w, *opt);
}

template <typename ReadFn>
auto ReadOptional(Reader& r, ReadFn read)
    -> std::optional<decltype(read(r))> {
  if (!r.ReadBool()) return std::nullopt;
  return read(r);
}

void PutStringVec(Writer& w, const std::vector<std::string>& v);
std::vector<std::string> ReadStringVec(Reader& r);

void PutAttributeValue(Writer& w, const AttributeValue& v);
/// Rejects an unknown tag and a non-finite double: NaN and infinities
/// have no journal form (AttributeValue::FromTagged refuses them), so
/// accepting one would leave a catalog that cannot be reopened.
AttributeValue ReadAttributeValue(Reader& r);

void PutAttributeSet(Writer& w, const AttributeSet& attrs);
AttributeSet ReadAttributeSet(Reader& r);

void PutDatasetType(Writer& w, const DatasetType& t);
DatasetType ReadDatasetType(Reader& r);

void PutDataset(Writer& w, const Dataset& d);
Dataset ReadDataset(Reader& r);

void PutReplica(Writer& w, const Replica& rep);
Replica ReadReplica(Reader& r);

/// Formal args are restored as sent (no Transformation::AddArg
/// checks): semantic validation belongs to the catalog.
void PutTransformation(Writer& w, const Transformation& t);
Transformation ReadTransformation(Reader& r);

/// Actual args go through Derivation::AddArg; a rejected arg fails the
/// read.
void PutDerivation(Writer& w, const Derivation& d);
Derivation ReadDerivation(Reader& r);

void PutInvocation(Writer& w, const Invocation& inv);
Invocation ReadInvocation(Reader& r);

void PutCatalogChange(Writer& w, const CatalogChange& c);
CatalogChange ReadCatalogChange(Reader& r);

}  // namespace objcodec
}  // namespace vdg

#endif  // VDG_CATALOG_OBJCODEC_H_
