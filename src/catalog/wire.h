#ifndef VDG_CATALOG_WIRE_H_
#define VDG_CATALOG_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "catalog/batch.h"
#include "catalog/client.h"
#include "catalog/query.h"
#include "catalog/snapshot.h"
#include "common/status.h"

namespace vdg {

/// Binary wire protocol for the catalog service boundary: every
/// CatalogClient call — point reads, discovery queries, the compound
/// BatchGet / GetProvenanceStep reads, all mutations, and ApplyBatch —
/// serializes to one length-prefixed frame, and every reply to one
/// response frame. This replaces the simulated transport's in-process
/// object hand-off with bytes a real server can dispatch, so RPC cost
/// is measured serialization + dispatch, not a synthetic latency knob.
///
/// Frame layout (all integers little-endian, doubles as IEEE-754 bits):
///
///   offset  size  field
///   0       4     magic "VDGW"
///   4       1     codec version (kCodecVersion)
///   5       1     flags (bit 0: response frame)
///   6       1     message kind (MsgKind)
///   7       1     reserved, must be 0
///   8       8     request id (client-assigned correlation id)
///   16      4     payload size N (bounded by kMaxPayloadBytes)
///   20      N     payload (per-kind encoding)
///   20+N    4     CRC-32 of bytes [0, 20+N)
///
/// Schema objects inside a payload use the shared object codec
/// (objcodec.h), the same bytes the flat snapshot stores.
///
/// Integrity contract: a frame is accepted only when the magic,
/// version, reserved byte, size bound, and trailing CRC all check out;
/// anything else is rejected with a typed error (ParseError for
/// malformed bytes, ResourceExhausted for an oversized declared
/// payload) and never crashes the decoder. Payload decoding is
/// bounds-checked field by field, so truncated or bit-flipped frames
/// that somehow pass CRC still fail cleanly.
///
/// Round-trip contract: Decode(Encode(x)) reproduces x bit-for-bit —
/// doubles travel as raw IEEE bits, attribute values keep their typed
/// wire form — which is what lets a zero-fault wire transport return
/// results identical to InProcessCatalogClient.
namespace wire {

inline constexpr uint8_t kCodecVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr size_t kFrameTrailerBytes = 4;
/// Upper bound on one frame's declared payload. Generous for catalog
/// objects (a frame carries one call, not a bulk export) while keeping
/// a corrupted length field from looking like a 4 GiB allocation.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// One wire message kind per CatalogClient method, plus the handshake
/// that tells a fresh connection the server's authority and mutability.
enum class MsgKind : uint8_t {
  kHandshake = 1,
  kVersion = 2,
  kChangesSince = 3,
  kGetDataset = 4,
  kGetTransformation = 5,
  kGetDerivation = 6,
  kHasDataset = 7,
  kIsMaterialized = 8,
  kProducerOf = 9,
  kInvocationsOf = 10,
  kFindDatasets = 11,
  kFindTransformations = 12,
  kFindDerivations = 13,
  kAllNames = 14,
  kTypeConforms = 15,
  kBatchGet = 16,
  kGetProvenanceStep = 17,
  kDefineDataset = 18,
  kDefineTransformation = 19,
  kDefineDerivation = 20,
  kAnnotate = 21,
  kAddReplica = 22,
  kRecordInvocation = 23,
  kSetDatasetSize = 24,
  kInvalidateReplica = 25,
  kApplyBatch = 26,
};

/// Human-readable kind name for diagnostics ("GetDataset", ...).
std::string_view MsgKindName(MsgKind kind);
/// True when `raw` maps to a defined MsgKind value.
bool IsValidMsgKind(uint8_t raw);

/// The retry-safety table: true for the kinds that change the catalog.
/// Every other kind is an idempotent read that any rung may re-send.
/// A mutation may be re-sent only when the server can recognise the
/// repeat — an ApplyBatch carrying an idempotency token.
constexpr bool IsMutation(MsgKind kind) {
  switch (kind) {
    case MsgKind::kDefineDataset:
    case MsgKind::kDefineTransformation:
    case MsgKind::kDefineDerivation:
    case MsgKind::kAnnotate:
    case MsgKind::kAddReplica:
    case MsgKind::kRecordInvocation:
    case MsgKind::kSetDatasetSize:
    case MsgKind::kInvalidateReplica:
    case MsgKind::kApplyBatch:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------
// Request payloads. Kinds whose payload is just an object name share
// NameReq; empty-payload kinds (handshake, version poll) share
// EmptyReq.
// ---------------------------------------------------------------------

struct EmptyReq {};
struct NameReq {
  std::string name;
};
struct ChangesSinceReq {
  uint64_t since_version = 0;
};
struct FindDatasetsReq {
  DatasetQuery query;
};
struct FindTransformationsReq {
  TransformationQuery query;
};
struct FindDerivationsReq {
  DerivationQuery query;
};
struct TypeConformsReq {
  DatasetType type;
  DatasetType against;
};
struct BatchGetReq {
  std::vector<ObjectKey> keys;
};
struct DefineDatasetReq {
  Dataset dataset;
};
struct DefineTransformationReq {
  Transformation transformation;
};
struct DefineDerivationReq {
  Derivation derivation;
};
struct AnnotateReq {
  std::string kind;
  std::string name;
  std::string key;
  AttributeValue value;
};
struct AddReplicaReq {
  Replica replica;
};
struct RecordInvocationReq {
  Invocation invocation;
};
struct SetDatasetSizeReq {
  std::string name;
  int64_t size_bytes = 0;
};
struct ApplyBatchReq {
  std::vector<CatalogMutation> mutations;
  BatchOptions options;
};

/// A decoded request: the kind plus its typed payload.
struct Request {
  MsgKind kind = MsgKind::kVersion;
  std::variant<EmptyReq, NameReq, ChangesSinceReq, FindDatasetsReq,
               FindTransformationsReq, FindDerivationsReq, TypeConformsReq,
               BatchGetReq, DefineDatasetReq, DefineTransformationReq,
               DefineDerivationReq, AnnotateReq, AddReplicaReq,
               RecordInvocationReq, SetDatasetSizeReq, ApplyBatchReq>
      body;
};

// ---------------------------------------------------------------------
// Response payloads. A response always carries the call-level Status;
// the typed body is present only when that status is OK.
// ---------------------------------------------------------------------

struct HandshakeResp {
  std::string authority;
  bool read_only = false;
};
struct VersionResp {
  uint64_t version = 0;
};
struct ChangesResp {
  std::vector<CatalogChange> changes;
};
struct DatasetResp {
  Dataset dataset;
};
struct TransformationResp {
  Transformation transformation;
};
struct DerivationResp {
  Derivation derivation;
};
struct BoolResp {
  bool value = false;
};
struct StringResp {
  std::string value;
};
struct InvocationsResp {
  std::vector<Invocation> invocations;
};
/// Find*/AllNames responses carry a NameList end-to-end: the server
/// encodes straight from the snapshot-pinned views (no intermediate
/// vector<string>), and the decoder rebuilds the list over one
/// arena-backed buffer per response (DESIGN.md §15).
struct NamesResp {
  NameList names;
};
struct RecordsResp {
  std::vector<ObjectRecord> records;
};
struct StepResp {
  ProvenanceStep step;
};
struct BatchResultResp {
  BatchResult result;
};

/// A decoded response: the originating kind, the call-level status,
/// and (iff status is OK) the typed body. The status field carries an
/// error across the wire; CatalogClient::Call returns a non-OK status
/// as the Result's status, never inside a Response.
struct Response {
  MsgKind kind = MsgKind::kVersion;
  Status status = Status::OK();
  std::variant<std::monostate, HandshakeResp, VersionResp, ChangesResp,
               DatasetResp, TransformationResp, DerivationResp, BoolResp,
               StringResp, InvocationsResp, NamesResp, RecordsResp, StepResp,
               BatchResultResp>
      body;
};

// ---------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------

/// Serializes one request into a complete frame (header + payload +
/// CRC), ready to write to a byte stream.
std::string EncodeRequestFrame(uint64_t request_id, const Request& request);

/// Serializes one response into a complete frame.
std::string EncodeResponseFrame(uint64_t request_id,
                                const Response& response);

/// A validated frame envelope; `payload` borrows from the input bytes.
struct Frame {
  uint8_t version = kCodecVersion;
  bool is_response = false;
  MsgKind kind = MsgKind::kVersion;
  uint64_t request_id = 0;
  std::string_view payload;
};

/// Given the start of a byte stream, returns the total length of the
/// first frame (header + payload + CRC) once enough bytes are present
/// to know it. NotFound means "need more bytes"; ParseError /
/// ResourceExhausted mean the stream is corrupt or oversized and the
/// connection should be dropped (framing cannot be resynchronized).
Result<size_t> FrameSize(std::string_view buffer);

/// Validates and splits exactly one complete frame (magic, version,
/// kind, reserved byte, size bound, CRC). `bytes` must be exactly the
/// frame as sized by FrameSize().
Result<Frame> DecodeFrame(std::string_view bytes);

/// Decodes a request payload previously framed with kind `kind`.
Result<Request> DecodeRequest(MsgKind kind, std::string_view payload);

/// Decodes a response payload previously framed with kind `kind`.
Result<Response> DecodeResponse(MsgKind kind, std::string_view payload);

}  // namespace wire

}  // namespace vdg

#endif  // VDG_CATALOG_WIRE_H_
