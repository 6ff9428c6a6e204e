#include "catalog/wire.h"

#include <algorithm>
#include <cstring>

#include "catalog/objcodec.h"
#include "common/hash.h"

namespace vdg {
namespace wire {

namespace {

constexpr char kMagic[4] = {'V', 'D', 'G', 'W'};
constexpr uint8_t kFlagResponse = 0x01;

using objcodec::Reader;
using objcodec::Writer;

// -----------------------------------------------------------------------
// Message field codecs. Schema objects encode through objcodec; these
// are the fields only requests and responses carry.
// -----------------------------------------------------------------------

void PutStatus(Writer& w, const Status& s) {
  w.PutU8(static_cast<uint8_t>(s.code()));
  w.PutString(s.message());
}

Status ReadStatus(Reader& r) {
  uint8_t code = r.ReadU8();
  if (code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    r.Fail("unknown status code");
  }
  std::string msg = r.ReadString();
  if (!r.ok()) return Status::OK();
  return Status(static_cast<StatusCode>(code), std::move(msg));
}

void PutPredicate(Writer& w, const AttributePredicate& p) {
  w.PutString(p.key);
  w.PutU8(static_cast<uint8_t>(p.op));
  PutAttributeValue(w, p.operand);
}

AttributePredicate ReadPredicate(Reader& r) {
  AttributePredicate p;
  p.key = r.ReadString();
  uint8_t op = r.ReadU8();
  if (op > static_cast<uint8_t>(PredicateOp::kExists)) {
    r.Fail("predicate op out of range");
  }
  p.op = static_cast<PredicateOp>(op);
  p.operand = ReadAttributeValue(r);
  return p;
}

void PutPredicates(Writer& w, const std::vector<AttributePredicate>& v) {
  w.PutCount(v.size());
  for (const auto& p : v) PutPredicate(w, p);
}

std::vector<AttributePredicate> ReadPredicates(Reader& r) {
  size_t n = r.ReadCount();
  std::vector<AttributePredicate> v;
  v.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) v.push_back(ReadPredicate(r));
  return v;
}

void PutOptionalType(Writer& w, const std::optional<DatasetType>& opt) {
  PutOptional(w, opt, objcodec::PutDatasetType);
}

std::optional<DatasetType> ReadOptionalType(Reader& r) {
  return ReadOptional(r, objcodec::ReadDatasetType);
}

void PutDatasetQuery(Writer& w, const DatasetQuery& q) {
  PutOptionalType(w, q.type);
  PutPredicates(w, q.predicates);
  w.PutString(q.name_prefix);
  w.PutBool(q.require_materialized);
  w.PutBool(q.only_virtual);
  w.PutU64(q.limit);
}

DatasetQuery ReadDatasetQuery(Reader& r) {
  DatasetQuery q;
  q.type = ReadOptionalType(r);
  q.predicates = ReadPredicates(r);
  q.name_prefix = r.ReadString();
  q.require_materialized = r.ReadBool();
  q.only_virtual = r.ReadBool();
  q.limit = static_cast<size_t>(r.ReadU64());
  return q;
}

void PutTransformationQuery(Writer& w, const TransformationQuery& q) {
  PutOptionalType(w, q.consumes);
  PutOptionalType(w, q.produces);
  PutPredicates(w, q.predicates);
  w.PutString(q.name_prefix);
  w.PutU64(q.limit);
}

TransformationQuery ReadTransformationQuery(Reader& r) {
  TransformationQuery q;
  q.consumes = ReadOptionalType(r);
  q.produces = ReadOptionalType(r);
  q.predicates = ReadPredicates(r);
  q.name_prefix = r.ReadString();
  q.limit = static_cast<size_t>(r.ReadU64());
  return q;
}

void PutDerivationQuery(Writer& w, const DerivationQuery& q) {
  w.PutString(q.transformation);
  w.PutString(q.reads_dataset);
  w.PutString(q.writes_dataset);
  PutPredicates(w, q.predicates);
  w.PutString(q.name_prefix);
  w.PutU64(q.limit);
}

DerivationQuery ReadDerivationQuery(Reader& r) {
  DerivationQuery q;
  q.transformation = r.ReadString();
  q.reads_dataset = r.ReadString();
  q.writes_dataset = r.ReadString();
  q.predicates = ReadPredicates(r);
  q.name_prefix = r.ReadString();
  q.limit = static_cast<size_t>(r.ReadU64());
  return q;
}

void PutObjectRecord(Writer& w, const ObjectRecord& rec) {
  w.PutString(rec.kind);
  w.PutString(rec.name);
  PutStatus(w, rec.status);
  PutOptional(w, rec.dataset, objcodec::PutDataset);
  PutOptional(w, rec.transformation, objcodec::PutTransformation);
  PutOptional(w, rec.derivation, objcodec::PutDerivation);
  w.PutBool(rec.materialized);
}

ObjectRecord ReadObjectRecord(Reader& r) {
  ObjectRecord rec;
  rec.kind = r.ReadString();
  rec.name = r.ReadString();
  rec.status = ReadStatus(r);
  rec.dataset = ReadOptional(r, objcodec::ReadDataset);
  rec.transformation = ReadOptional(r, objcodec::ReadTransformation);
  rec.derivation = ReadOptional(r, objcodec::ReadDerivation);
  rec.materialized = r.ReadBool();
  return rec;
}

void PutProvenanceStep(Writer& w, const ProvenanceStep& s) {
  w.PutString(s.dataset);
  w.PutBool(s.exists);
  w.PutString(s.producer);
  PutOptional(w, s.derivation, objcodec::PutDerivation);
  w.PutCount(s.invocations.size());
  for (const auto& inv : s.invocations) PutInvocation(w, inv);
}

std::vector<Invocation> ReadInvocations(Reader& r) {
  size_t n = r.ReadCount();
  std::vector<Invocation> v;
  v.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) v.push_back(ReadInvocation(r));
  return v;
}

ProvenanceStep ReadProvenanceStep(Reader& r) {
  ProvenanceStep s;
  s.dataset = r.ReadString();
  s.exists = r.ReadBool();
  s.producer = r.ReadString();
  s.derivation = ReadOptional(r, objcodec::ReadDerivation);
  s.invocations = ReadInvocations(r);
  return s;
}

void PutMutation(Writer& w, const CatalogMutation& m) {
  w.PutU8(static_cast<uint8_t>(m.op.index()));
  std::visit(
      [&w](const auto& op) {
        using T = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<T, CatalogMutation::DefineDatasetOp>) {
          PutDataset(w, op.dataset);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::DefineTransformationOp>) {
          PutTransformation(w, op.transformation);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::DefineDerivationOp>) {
          PutDerivation(w, op.derivation);
        } else if constexpr (std::is_same_v<T, CatalogMutation::AnnotateOp>) {
          w.PutString(op.kind);
          w.PutString(op.name);
          w.PutString(op.key);
          PutAttributeValue(w, op.value);
          w.PutBool(op.name_from_op.has_value());
          if (op.name_from_op) w.PutU64(*op.name_from_op);
        } else if constexpr (std::is_same_v<T,
                                            CatalogMutation::AddReplicaOp>) {
          PutReplica(w, op.replica);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::RecordInvocationOp>) {
          PutInvocation(w, op.invocation);
          w.PutCount(op.produced_from_ops.size());
          for (size_t pos : op.produced_from_ops) w.PutU64(pos);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::SetDatasetSizeOp>) {
          w.PutString(op.name);
          w.PutI64(op.size_bytes);
        } else {
          static_assert(
              std::is_same_v<T, CatalogMutation::InvalidateReplicaOp>);
          w.PutString(op.id);
        }
      },
      m.op);
}

CatalogMutation ReadMutation(Reader& r) {
  switch (r.ReadU8()) {
    case 0:
      return CatalogMutation::DefineDataset(ReadDataset(r));
    case 1:
      return CatalogMutation::DefineTransformation(ReadTransformation(r));
    case 2:
      return CatalogMutation::DefineDerivation(ReadDerivation(r));
    case 3: {
      CatalogMutation::AnnotateOp op;
      op.kind = r.ReadString();
      op.name = r.ReadString();
      op.key = r.ReadString();
      op.value = ReadAttributeValue(r);
      op.name_from_op = ReadOptional(
          r, [](Reader& r) { return static_cast<size_t>(r.ReadU64()); });
      return CatalogMutation{std::move(op)};
    }
    case 4:
      return CatalogMutation::AddReplica(ReadReplica(r));
    case 5: {
      CatalogMutation::RecordInvocationOp op;
      op.invocation = ReadInvocation(r);
      size_t n = r.ReadCount();
      op.produced_from_ops.reserve(n);
      for (size_t i = 0; i < n && r.ok(); ++i) {
        op.produced_from_ops.push_back(static_cast<size_t>(r.ReadU64()));
      }
      return CatalogMutation{std::move(op)};
    }
    case 6: {
      CatalogMutation::SetDatasetSizeOp op;
      op.name = r.ReadString();
      op.size_bytes = r.ReadI64();
      return CatalogMutation{std::move(op)};
    }
    case 7:
      return CatalogMutation::InvalidateReplica(r.ReadString());
    default:
      r.Fail("unknown mutation op index");
      return CatalogMutation::InvalidateReplica("");
  }
}

void PutBatchResult(Writer& w, const BatchResult& b) {
  w.PutCount(b.statuses.size());
  for (const auto& s : b.statuses) PutStatus(w, s);
  PutStringVec(w, b.assigned_ids);
  w.PutU64(b.applied);
  w.PutU64(b.version);
  PutStatus(w, b.first_error);
}

BatchResult ReadBatchResult(Reader& r) {
  BatchResult b;
  size_t n = r.ReadCount();
  b.statuses.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) b.statuses.push_back(ReadStatus(r));
  b.assigned_ids = ReadStringVec(r);
  b.applied = static_cast<size_t>(r.ReadU64());
  b.version = r.ReadU64();
  b.first_error = ReadStatus(r);
  return b;
}

// -----------------------------------------------------------------------
// Request / response payload encoding
// -----------------------------------------------------------------------

void EncodeRequestPayload(const Request& request, std::string* out) {
  Writer w(out);
  std::visit(
      [&w](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, EmptyReq>) {
          // no payload
        } else if constexpr (std::is_same_v<T, NameReq>) {
          w.PutString(body.name);
        } else if constexpr (std::is_same_v<T, ChangesSinceReq>) {
          w.PutU64(body.since_version);
        } else if constexpr (std::is_same_v<T, FindDatasetsReq>) {
          PutDatasetQuery(w, body.query);
        } else if constexpr (std::is_same_v<T, FindTransformationsReq>) {
          PutTransformationQuery(w, body.query);
        } else if constexpr (std::is_same_v<T, FindDerivationsReq>) {
          PutDerivationQuery(w, body.query);
        } else if constexpr (std::is_same_v<T, TypeConformsReq>) {
          PutDatasetType(w, body.type);
          PutDatasetType(w, body.against);
        } else if constexpr (std::is_same_v<T, BatchGetReq>) {
          w.PutCount(body.keys.size());
          for (const auto& key : body.keys) {
            w.PutString(key.kind);
            w.PutString(key.name);
          }
        } else if constexpr (std::is_same_v<T, DefineDatasetReq>) {
          PutDataset(w, body.dataset);
        } else if constexpr (std::is_same_v<T, DefineTransformationReq>) {
          PutTransformation(w, body.transformation);
        } else if constexpr (std::is_same_v<T, DefineDerivationReq>) {
          PutDerivation(w, body.derivation);
        } else if constexpr (std::is_same_v<T, AnnotateReq>) {
          w.PutString(body.kind);
          w.PutString(body.name);
          w.PutString(body.key);
          PutAttributeValue(w, body.value);
        } else if constexpr (std::is_same_v<T, AddReplicaReq>) {
          PutReplica(w, body.replica);
        } else if constexpr (std::is_same_v<T, RecordInvocationReq>) {
          PutInvocation(w, body.invocation);
        } else if constexpr (std::is_same_v<T, SetDatasetSizeReq>) {
          w.PutString(body.name);
          w.PutI64(body.size_bytes);
        } else {
          static_assert(std::is_same_v<T, ApplyBatchReq>);
          w.PutCount(body.mutations.size());
          for (const auto& m : body.mutations) PutMutation(w, m);
          w.PutBool(body.options.stop_on_error);
          w.PutString(body.options.idempotency_token);
        }
      },
      request.body);
}

void EncodeResponsePayload(const Response& response, std::string* out) {
  Writer w(out);
  PutStatus(w, response.status);
  std::visit(
      [&w](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          // status-only response
        } else if constexpr (std::is_same_v<T, HandshakeResp>) {
          w.PutString(body.authority);
          w.PutBool(body.read_only);
        } else if constexpr (std::is_same_v<T, VersionResp>) {
          w.PutU64(body.version);
        } else if constexpr (std::is_same_v<T, ChangesResp>) {
          w.PutCount(body.changes.size());
          for (const auto& c : body.changes) PutCatalogChange(w, c);
        } else if constexpr (std::is_same_v<T, DatasetResp>) {
          PutDataset(w, body.dataset);
        } else if constexpr (std::is_same_v<T, TransformationResp>) {
          PutTransformation(w, body.transformation);
        } else if constexpr (std::is_same_v<T, DerivationResp>) {
          PutDerivation(w, body.derivation);
        } else if constexpr (std::is_same_v<T, BoolResp>) {
          w.PutBool(body.value);
        } else if constexpr (std::is_same_v<T, StringResp>) {
          w.PutString(body.value);
        } else if constexpr (std::is_same_v<T, InvocationsResp>) {
          w.PutCount(body.invocations.size());
          for (const auto& inv : body.invocations) PutInvocation(w, inv);
        } else if constexpr (std::is_same_v<T, NamesResp>) {
          // Straight from the views: no owned-string materialization
          // between the snapshot and the payload bytes.
          w.PutCount(body.names.size());
          for (std::string_view name : body.names) w.PutString(name);
        } else if constexpr (std::is_same_v<T, RecordsResp>) {
          w.PutCount(body.records.size());
          for (const auto& rec : body.records) PutObjectRecord(w, rec);
        } else if constexpr (std::is_same_v<T, StepResp>) {
          PutProvenanceStep(w, body.step);
        } else {
          static_assert(std::is_same_v<T, BatchResultResp>);
          PutBatchResult(w, body.result);
        }
      },
      response.body);
}

std::string EncodeFrame(uint64_t request_id, bool is_response, MsgKind kind,
                        std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  Writer w(&frame);
  frame.append(kMagic, sizeof(kMagic));
  w.PutU8(kCodecVersion);
  w.PutU8(is_response ? kFlagResponse : 0);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU8(0);  // reserved
  w.PutU64(request_id);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  w.PutU32(Crc32(frame));
  return frame;
}

}  // namespace

std::string_view MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kHandshake: return "Handshake";
    case MsgKind::kVersion: return "Version";
    case MsgKind::kChangesSince: return "ChangesSince";
    case MsgKind::kGetDataset: return "GetDataset";
    case MsgKind::kGetTransformation: return "GetTransformation";
    case MsgKind::kGetDerivation: return "GetDerivation";
    case MsgKind::kHasDataset: return "HasDataset";
    case MsgKind::kIsMaterialized: return "IsMaterialized";
    case MsgKind::kProducerOf: return "ProducerOf";
    case MsgKind::kInvocationsOf: return "InvocationsOf";
    case MsgKind::kFindDatasets: return "FindDatasets";
    case MsgKind::kFindTransformations: return "FindTransformations";
    case MsgKind::kFindDerivations: return "FindDerivations";
    case MsgKind::kAllNames: return "AllNames";
    case MsgKind::kTypeConforms: return "TypeConforms";
    case MsgKind::kBatchGet: return "BatchGet";
    case MsgKind::kGetProvenanceStep: return "GetProvenanceStep";
    case MsgKind::kDefineDataset: return "DefineDataset";
    case MsgKind::kDefineTransformation: return "DefineTransformation";
    case MsgKind::kDefineDerivation: return "DefineDerivation";
    case MsgKind::kAnnotate: return "Annotate";
    case MsgKind::kAddReplica: return "AddReplica";
    case MsgKind::kRecordInvocation: return "RecordInvocation";
    case MsgKind::kSetDatasetSize: return "SetDatasetSize";
    case MsgKind::kInvalidateReplica: return "InvalidateReplica";
    case MsgKind::kApplyBatch: return "ApplyBatch";
  }
  return "Unknown";
}

bool IsValidMsgKind(uint8_t raw) {
  return raw >= static_cast<uint8_t>(MsgKind::kHandshake) &&
         raw <= static_cast<uint8_t>(MsgKind::kApplyBatch);
}

std::string EncodeRequestFrame(uint64_t request_id, const Request& request) {
  std::string payload;
  EncodeRequestPayload(request, &payload);
  return EncodeFrame(request_id, /*is_response=*/false, request.kind, payload);
}

std::string EncodeResponseFrame(uint64_t request_id,
                                const Response& response) {
  std::string payload;
  EncodeResponsePayload(response, &payload);
  return EncodeFrame(request_id, /*is_response=*/true, response.kind, payload);
}

Result<size_t> FrameSize(std::string_view buffer) {
  if (buffer.empty()) return Status::NotFound("wire: incomplete frame header");
  // Validate whatever prefix of the header is present: a bad magic or
  // version is corruption no amount of further bytes can fix, and the
  // connection should drop immediately instead of waiting forever.
  size_t check = std::min(buffer.size(), sizeof(kMagic));
  if (std::memcmp(buffer.data(), kMagic, check) != 0) {
    return Status::ParseError("wire: bad frame magic");
  }
  if (buffer.size() > 4 && static_cast<uint8_t>(buffer[4]) != kCodecVersion) {
    return Status::ParseError("wire: unsupported codec version");
  }
  if (buffer.size() < kFrameHeaderBytes) {
    return Status::NotFound("wire: incomplete frame header");
  }
  uint32_t payload_size = Reader(buffer.substr(16, 4)).ReadU32();
  if (payload_size > kMaxPayloadBytes) {
    return Status::ResourceExhausted("wire: declared payload exceeds limit");
  }
  return kFrameHeaderBytes + static_cast<size_t>(payload_size) +
         kFrameTrailerBytes;
}

Result<Frame> DecodeFrame(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return Status::ParseError("wire: frame shorter than header + checksum");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("wire: bad frame magic");
  }
  Reader header(
      bytes.substr(sizeof(kMagic), kFrameHeaderBytes - sizeof(kMagic)));
  Frame frame;
  frame.version = header.ReadU8();
  if (frame.version != kCodecVersion) {
    return Status::ParseError("wire: unsupported codec version");
  }
  uint8_t flags = header.ReadU8();
  if ((flags & ~kFlagResponse) != 0) {
    return Status::ParseError("wire: unknown frame flags");
  }
  frame.is_response = (flags & kFlagResponse) != 0;
  uint8_t raw_kind = header.ReadU8();
  if (!IsValidMsgKind(raw_kind)) {
    return Status::ParseError("wire: unknown message kind");
  }
  frame.kind = static_cast<MsgKind>(raw_kind);
  if (header.ReadU8() != 0) {
    return Status::ParseError("wire: nonzero reserved header byte");
  }
  frame.request_id = header.ReadU64();
  uint32_t payload_size = header.ReadU32();
  if (payload_size > kMaxPayloadBytes) {
    return Status::ResourceExhausted("wire: declared payload exceeds limit");
  }
  if (bytes.size() !=
      kFrameHeaderBytes + payload_size + kFrameTrailerBytes) {
    return Status::ParseError("wire: frame length disagrees with header");
  }
  size_t crc_offset = bytes.size() - kFrameTrailerBytes;
  uint32_t stored_crc = Reader(bytes.substr(crc_offset)).ReadU32();
  if (stored_crc != Crc32(bytes.substr(0, crc_offset))) {
    return Status::ParseError("wire: frame checksum mismatch");
  }
  frame.payload = bytes.substr(kFrameHeaderBytes, payload_size);
  return frame;
}

Result<Request> DecodeRequest(MsgKind kind, std::string_view payload) {
  Reader r(payload);
  Request req;
  req.kind = kind;
  switch (kind) {
    case MsgKind::kHandshake:
    case MsgKind::kVersion:
      req.body = EmptyReq{};
      break;
    case MsgKind::kChangesSince:
      req.body = ChangesSinceReq{r.ReadU64()};
      break;
    case MsgKind::kGetDataset:
    case MsgKind::kGetTransformation:
    case MsgKind::kGetDerivation:
    case MsgKind::kHasDataset:
    case MsgKind::kIsMaterialized:
    case MsgKind::kProducerOf:
    case MsgKind::kInvocationsOf:
    case MsgKind::kAllNames:
    case MsgKind::kGetProvenanceStep:
    case MsgKind::kInvalidateReplica:
      req.body = NameReq{r.ReadString()};
      break;
    case MsgKind::kFindDatasets:
      req.body = FindDatasetsReq{ReadDatasetQuery(r)};
      break;
    case MsgKind::kFindTransformations:
      req.body = FindTransformationsReq{ReadTransformationQuery(r)};
      break;
    case MsgKind::kFindDerivations:
      req.body = FindDerivationsReq{ReadDerivationQuery(r)};
      break;
    case MsgKind::kTypeConforms: {
      TypeConformsReq body;
      body.type = ReadDatasetType(r);
      body.against = ReadDatasetType(r);
      req.body = std::move(body);
      break;
    }
    case MsgKind::kBatchGet: {
      BatchGetReq body;
      size_t n = r.ReadCount();
      body.keys.reserve(n);
      for (size_t i = 0; i < n && r.ok(); ++i) {
        ObjectKey key;
        key.kind = r.ReadString();
        key.name = r.ReadString();
        body.keys.push_back(std::move(key));
      }
      req.body = std::move(body);
      break;
    }
    case MsgKind::kDefineDataset:
      req.body = DefineDatasetReq{ReadDataset(r)};
      break;
    case MsgKind::kDefineTransformation:
      req.body = DefineTransformationReq{ReadTransformation(r)};
      break;
    case MsgKind::kDefineDerivation:
      req.body = DefineDerivationReq{ReadDerivation(r)};
      break;
    case MsgKind::kAnnotate: {
      AnnotateReq body;
      body.kind = r.ReadString();
      body.name = r.ReadString();
      body.key = r.ReadString();
      body.value = ReadAttributeValue(r);
      req.body = std::move(body);
      break;
    }
    case MsgKind::kAddReplica:
      req.body = AddReplicaReq{ReadReplica(r)};
      break;
    case MsgKind::kRecordInvocation:
      req.body = RecordInvocationReq{ReadInvocation(r)};
      break;
    case MsgKind::kSetDatasetSize: {
      SetDatasetSizeReq body;
      body.name = r.ReadString();
      body.size_bytes = r.ReadI64();
      req.body = std::move(body);
      break;
    }
    case MsgKind::kApplyBatch: {
      ApplyBatchReq body;
      size_t n = r.ReadCount();
      body.mutations.reserve(n);
      for (size_t i = 0; i < n && r.ok(); ++i) {
        body.mutations.push_back(ReadMutation(r));
      }
      body.options.stop_on_error = r.ReadBool();
      // The idempotency token is a trailing optional field: frames
      // produced by pre-token encoders end right after stop_on_error,
      // and must keep decoding (version-tolerant within codec v1).
      if (!r.AtEnd()) body.options.idempotency_token = r.ReadString();
      req.body = std::move(body);
      break;
    }
  }
  VDG_RETURN_IF_ERROR(r.Finish());
  return req;
}

Result<Response> DecodeResponse(MsgKind kind, std::string_view payload) {
  Reader r(payload);
  Response resp;
  resp.kind = kind;
  resp.status = ReadStatus(r);
  if (!resp.status.ok()) {
    // Error responses carry no body regardless of kind.
    VDG_RETURN_IF_ERROR(r.Finish());
    return resp;
  }
  switch (kind) {
    case MsgKind::kHandshake: {
      HandshakeResp body;
      body.authority = r.ReadString();
      body.read_only = r.ReadBool();
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kVersion:
      resp.body = VersionResp{r.ReadU64()};
      break;
    case MsgKind::kChangesSince: {
      ChangesResp body;
      size_t n = r.ReadCount();
      body.changes.reserve(n);
      for (size_t i = 0; i < n && r.ok(); ++i) {
        body.changes.push_back(ReadCatalogChange(r));
      }
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kGetDataset:
      resp.body = DatasetResp{ReadDataset(r)};
      break;
    case MsgKind::kGetTransformation:
      resp.body = TransformationResp{ReadTransformation(r)};
      break;
    case MsgKind::kGetDerivation:
      resp.body = DerivationResp{ReadDerivation(r)};
      break;
    case MsgKind::kHasDataset:
    case MsgKind::kIsMaterialized:
    case MsgKind::kTypeConforms:
      resp.body = BoolResp{r.ReadBool()};
      break;
    case MsgKind::kProducerOf:
    case MsgKind::kAddReplica:
    case MsgKind::kRecordInvocation:
      resp.body = StringResp{r.ReadString()};
      break;
    case MsgKind::kInvocationsOf:
      resp.body = InvocationsResp{ReadInvocations(r)};
      break;
    case MsgKind::kFindDatasets:
    case MsgKind::kFindTransformations:
    case MsgKind::kFindDerivations:
    case MsgKind::kAllNames: {
      // Arena decode: one buffer per response holds every name;
      // the list's views point into it (no per-name allocation).
      size_t n = r.ReadCount();
      NameList::ArenaBuilder names;
      names.Reserve(n, r.remaining());
      for (size_t i = 0; i < n && r.ok(); ++i) {
        names.Append(r.ReadStringView());
      }
      resp.body = NamesResp{std::move(names).Build()};
      break;
    }
    case MsgKind::kBatchGet: {
      RecordsResp body;
      size_t n = r.ReadCount();
      body.records.reserve(n);
      for (size_t i = 0; i < n && r.ok(); ++i) {
        body.records.push_back(ReadObjectRecord(r));
      }
      resp.body = std::move(body);
      break;
    }
    case MsgKind::kGetProvenanceStep:
      resp.body = StepResp{ReadProvenanceStep(r)};
      break;
    case MsgKind::kApplyBatch:
      resp.body = BatchResultResp{ReadBatchResult(r)};
      break;
    case MsgKind::kDefineDataset:
    case MsgKind::kDefineTransformation:
    case MsgKind::kDefineDerivation:
    case MsgKind::kAnnotate:
    case MsgKind::kSetDatasetSize:
    case MsgKind::kInvalidateReplica:
      // Status-only responses.
      break;
  }
  VDG_RETURN_IF_ERROR(r.Finish());
  return resp;
}

}  // namespace wire
}  // namespace vdg
