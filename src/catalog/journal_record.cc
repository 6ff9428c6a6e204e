#include "catalog/journal_record.h"

#include <cstdio>

#include "catalog/objcodec.h"

namespace vdg {
namespace journal_record {

namespace {

using objcodec::Reader;
using objcodec::Writer;

template <typename T>
std::string Tagged(Tag tag, const T& body, void (*put)(Writer&, const T&)) {
  std::string out(1, static_cast<char>(tag));
  Writer w(&out);
  put(w, body);
  return out;
}

Record ReadRecord(Reader& r) {
  const auto tag = static_cast<Tag>(r.ReadU8());
  switch (tag) {
    case Tag::kDataset:
      return objcodec::ReadDataset(r);
    case Tag::kTransformation:
      return objcodec::ReadTransformation(r);
    case Tag::kDerivation:
      return objcodec::ReadDerivation(r);
    case Tag::kReplica:
      return objcodec::ReadReplica(r);
    case Tag::kInvocation:
      return objcodec::ReadInvocation(r);
    case Tag::kType: {
      TypeEdge edge;
      const uint8_t dim = r.ReadU8();
      if (dim >= kNumTypeDimensions) r.Fail("type dimension out of range");
      edge.dimension = static_cast<TypeDimension>(dim);
      edge.name = r.ReadString();
      edge.parent = r.ReadString();
      return edge;
    }
    case Tag::kRemoveDataset:
    case Tag::kRemoveTransformation:
    case Tag::kRemoveDerivation:
    case Tag::kRemoveReplica:
      return Removal{tag, r.ReadString()};
  }
  r.Fail("unknown journal record tag");
  return Removal{};
}

}  // namespace

std::string Encode(const Dataset& dataset) {
  return Tagged(Tag::kDataset, dataset, objcodec::PutDataset);
}

std::string Encode(const Transformation& transformation) {
  return Tagged(Tag::kTransformation, transformation,
                objcodec::PutTransformation);
}

std::string Encode(const Derivation& derivation) {
  return Tagged(Tag::kDerivation, derivation, objcodec::PutDerivation);
}

std::string Encode(const Replica& replica) {
  return Tagged(Tag::kReplica, replica, objcodec::PutReplica);
}

std::string Encode(const Invocation& invocation) {
  return Tagged(Tag::kInvocation, invocation, objcodec::PutInvocation);
}

std::string EncodeType(TypeDimension dimension, std::string_view name,
                       std::string_view parent) {
  std::string out(1, static_cast<char>(Tag::kType));
  Writer w(&out);
  w.PutU8(static_cast<uint8_t>(dimension));
  w.PutString(name);
  w.PutString(parent);
  return out;
}

std::string EncodeRemoval(Tag tag, std::string_view name) {
  std::string out(1, static_cast<char>(tag));
  Writer(&out).PutString(name);
  return out;
}

Result<Record> Decode(std::string_view record) {
  Reader r(record);
  Record decoded = ReadRecord(r);
  VDG_RETURN_IF_ERROR(r.Finish());
  return decoded;
}

Status CheckFormat(const std::vector<std::string>& records) {
  const char first = records.empty() || records[0].empty() ? 0 : records[0][0];
  if ((first | 0x20) < 'a' || (first | 0x20) > 'z') return Status::OK();
  return Status::FailedPrecondition(
      "journal is in the retired text record format, which this build "
      "does not read; rebuild the catalog (e.g. re-import its VDL)");
}

std::string Describe(size_t index, std::string_view record) {
  char tag[8] = "none";
  if (!record.empty()) {
    std::snprintf(tag, sizeof(tag), "0x%02x", record[0] & 0xff);
  }
  return "record " + std::to_string(index) + " (tag " + tag + ")";
}

}  // namespace journal_record
}  // namespace vdg
