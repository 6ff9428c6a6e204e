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
/// response frame, so RPC cost is measured serialization + dispatch,
/// not a synthetic latency knob.
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
///
/// The message table (VDG_WIRE_MESSAGES below) declares every kind
/// once: its name, wire value, request body, response body and whether
/// it mutates. The MsgKind enum, MsgKindName, IsMutation, the codec's
/// kind dispatch, CatalogClient's default Call and RequestClient's
/// typed methods are all derived from it. Adding a kind is one table
/// row plus, when no existing body fits, its body structs (listed in
/// the Request/Response variants) and their Put/Read pair in wire.cc; a
/// kind that is a CatalogClient call also needs the typed method of the
/// same name, whose parameters are the request body's fields in order.
namespace wire {

inline constexpr uint8_t kCodecVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr size_t kFrameTrailerBytes = 4;
/// Upper bound on one frame's declared payload. Generous for catalog
/// objects (a frame carries one call, not a bulk export) while keeping
/// a corrupted length field from looking like a 4 GiB allocation.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// The message table, one row per kind:
///   X(Name, wire value, request body, response body, mutates)
/// The response body is std::monostate when the answer is a bare
/// status. Mutating kinds change the catalog; every other kind is an
/// idempotent read that any rung may re-send.
#define VDG_WIRE_MESSAGES(X)                                           \
  X(Handshake, 1, EmptyReq, HandshakeResp, false)                      \
  VDG_WIRE_CALLS(X)

/// The rows that are CatalogClient calls: kind k<Name> is the typed
/// method CatalogClient::<Name>, its request body holds the method's
/// parameters in order, and its response body holds the method's value
/// as its one field. The handshake alone is not a call: it tells a
/// fresh connection the server's authority and mutability.
#define VDG_WIRE_CALLS(X)                                              \
  X(Version, 2, EmptyReq, VersionResp, false)                          \
  X(ChangesSince, 3, ChangesSinceReq, ChangesResp, false)              \
  X(GetDataset, 4, NameReq, DatasetResp, false)                        \
  X(GetTransformation, 5, NameReq, TransformationResp, false)          \
  X(GetDerivation, 6, NameReq, DerivationResp, false)                  \
  X(HasDataset, 7, NameReq, BoolResp, false)                           \
  X(IsMaterialized, 8, NameReq, BoolResp, false)                       \
  X(ProducerOf, 9, NameReq, StringResp, false)                         \
  X(InvocationsOf, 10, NameReq, InvocationsResp, false)                \
  X(FindDatasets, 11, FindDatasetsReq, NamesResp, false)               \
  X(FindTransformations, 12, FindTransformationsReq, NamesResp, false) \
  X(FindDerivations, 13, FindDerivationsReq, NamesResp, false)         \
  X(AllNames, 14, NameReq, NamesResp, false)                           \
  X(TypeConforms, 15, TypeConformsReq, BoolResp, false)                \
  X(BatchGet, 16, BatchGetReq, RecordsResp, false)                     \
  X(GetProvenanceStep, 17, NameReq, StepResp, false)                   \
  X(DefineDataset, 18, DefineDatasetReq, std::monostate, true)         \
  X(DefineTransformation, 19, DefineTransformationReq, std::monostate, \
    true)                                                              \
  X(DefineDerivation, 20, DefineDerivationReq, std::monostate, true)   \
  X(Annotate, 21, AnnotateReq, std::monostate, true)                   \
  X(AddReplica, 22, AddReplicaReq, StringResp, true)                   \
  X(RecordInvocation, 23, RecordInvocationReq, StringResp, true)       \
  X(SetDatasetSize, 24, SetDatasetSizeReq, std::monostate, true)       \
  X(InvalidateReplica, 25, NameReq, std::monostate, true)              \
  X(ApplyBatch, 26, ApplyBatchReq, BatchResultResp, true)              \
  X(ReplicasOf, 27, NameReq, ReplicasResp, false)                      \
  X(FindEquivalentDerivation, 28, DefineDerivationReq, StringResp, false)

#define VDG_WIRE_ENUMERATOR(Name, value, ...) k##Name = value,
enum class MsgKind : uint8_t { VDG_WIRE_MESSAGES(VDG_WIRE_ENUMERATOR) };
#undef VDG_WIRE_ENUMERATOR

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
struct ReplicasResp {
  std::vector<Replica> replicas;
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
               BatchResultResp, ReplicasResp>
      body;
};

// ---------------------------------------------------------------------
// The table, as types and dispatch
// ---------------------------------------------------------------------

/// One table row as a type: Message<MsgKind::kGetDataset>::RequestBody
/// is NameReq, and so on.
template <MsgKind K>
struct Message;

#define VDG_WIRE_MESSAGE(Name, value, Req, Resp, mutates) \
  template <>                                             \
  struct Message<MsgKind::k##Name> {                      \
    static constexpr MsgKind kKind = MsgKind::k##Name;    \
    static constexpr std::string_view kName = #Name;      \
    static constexpr bool kMutates = mutates;             \
    using RequestBody = Req;                              \
    using ResponseBody = Resp;                            \
  };
VDG_WIRE_MESSAGES(VDG_WIRE_MESSAGE)
#undef VDG_WIRE_MESSAGE

/// The one switch over the kinds: calls `fn(Message<kind>{})`, or
/// `otherwise()` when no row has that kind (a raw byte cast to
/// MsgKind).
template <typename Fn, typename Otherwise>
constexpr auto VisitKind(MsgKind kind, Fn&& fn, Otherwise&& otherwise)
    -> decltype(otherwise()) {
  switch (kind) {
#define VDG_WIRE_VISIT(Name, ...) \
  case MsgKind::k##Name:          \
    return fn(Message<MsgKind::k##Name>{});
    VDG_WIRE_MESSAGES(VDG_WIRE_VISIT)
#undef VDG_WIRE_VISIT
  }
  return otherwise();
}

/// Human-readable kind name for diagnostics ("GetDataset", ...).
constexpr std::string_view MsgKindName(MsgKind kind) {
  return VisitKind(
      kind, []<typename M>(M) { return M::kName; },
      [] { return std::string_view("Unknown"); });
}

/// True when `raw` maps to a defined MsgKind value.
constexpr bool IsValidMsgKind(uint8_t raw) {
  return VisitKind(
      static_cast<MsgKind>(raw), [](auto) { return true; },
      [] { return false; });
}

/// True for the kinds that change the catalog (the table's last
/// column). IsRetrySafe says when one may be re-sent.
constexpr bool IsMutation(MsgKind kind) {
  return VisitKind(
      kind, []<typename M>(M) { return M::kMutates; }, [] { return false; });
}

/// Typed body access: `request`'s body as `Body`, or InvalidArgument
/// when it carries another alternative.
template <typename Body>
Result<const Body*> BodyAs(const Request& request) {
  const Body* body = std::get_if<Body>(&request.body);
  if (body == nullptr) {
    return Status::InvalidArgument(
        "request body does not match message kind " +
        std::string(MsgKindName(request.kind)));
  }
  return body;
}

/// The body of a kind-K request, or nullptr when `request` is another
/// kind or carries another body.
template <MsgKind K>
const typename Message<K>::RequestBody* BodyIf(const Request& request) {
  return request.kind == K
             ? std::get_if<typename Message<K>::RequestBody>(&request.body)
             : nullptr;
}

/// Response construction: an OK `kind` response carrying `body`
/// (std::monostate for a bare status).
template <typename Body>
Response Reply(MsgKind kind, Body body) {
  Response response;
  response.kind = kind;
  response.body = std::move(body);
  return response;
}

/// InvalidArgument unless `request.kind` is in the table and its body
/// is the one that kind's row names. A transport checks before it
/// encodes, so a malformed request never reaches the wire.
Status CheckRequest(const Request& request);

/// The idempotency token of an ApplyBatch request; empty for every
/// other request.
std::string_view IdempotencyToken(const Request& request);

/// The retry-safety rule: a read, or an ApplyBatch carrying an
/// idempotency token (the server's dedup window recognises the repeat).
/// Any other mutation may have applied even though its reply was lost.
bool IsRetrySafe(const Request& request);

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
