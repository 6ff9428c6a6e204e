#ifndef VDG_CATALOG_JOURNAL_RECORD_H_
#define VDG_CATALOG_JOURNAL_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "schema/dataset.h"
#include "schema/derivation.h"
#include "schema/transformation.h"
#include "types/type_system.h"

namespace vdg {

/// One catalog journal record: a tag byte, then the body in the shared
/// object codec (objcodec.h) — a whole object (replay upserts it), a
/// type edge, or a removed name. Tags are never ASCII letters, which
/// every record of the retired text format began with ("DS|...").
namespace journal_record {

enum class Tag : uint8_t {
  kDataset = 0x01,
  kTransformation = 0x02,
  kDerivation = 0x03,
  kReplica = 0x04,
  kInvocation = 0x05,
  kType = 0x06,
  // A removal's tag is its object's tag with bit 4 set.
  kRemoveDataset = 0x11,
  kRemoveTransformation = 0x12,
  kRemoveDerivation = 0x13,
  kRemoveReplica = 0x14,
};

struct TypeEdge {
  TypeDimension dimension = TypeDimension::kContent;
  std::string name;
  std::string parent;
};

struct Removal {
  Tag tag = Tag::kRemoveDataset;  // one of the kRemove* tags
  std::string name;
};

using Record = std::variant<Dataset, Transformation, Derivation, Replica,
                            Invocation, TypeEdge, Removal>;

std::string Encode(const Dataset& dataset);
std::string Encode(const Transformation& transformation);
std::string Encode(const Derivation& derivation);
std::string Encode(const Replica& replica);
std::string Encode(const Invocation& invocation);
std::string EncodeType(TypeDimension dimension, std::string_view name,
                       std::string_view parent);
std::string EncodeRemoval(Tag tag, std::string_view name);

/// Decodes a whole record (tag, body, no trailing bytes), so damage is
/// caught before replay applies anything.
Result<Record> Decode(std::string_view record);

/// FailedPrecondition when the first record is in the text format: no
/// reader is kept for it.
Status CheckFormat(const std::vector<std::string>& records);

/// "record 12 (tag 0x03)": names a record without dumping its bytes.
std::string Describe(size_t index, std::string_view record);

}  // namespace journal_record
}  // namespace vdg

#endif  // VDG_CATALOG_JOURNAL_RECORD_H_
