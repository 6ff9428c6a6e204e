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

template <typename T, typename PutFn>
void PutVec(Writer& w, const std::vector<T>& v, PutFn put) {
  w.PutCount(v.size());
  for (const T& x : v) put(w, x);
}

template <typename ReadFn>
auto ReadVec(Reader& r, ReadFn read) -> std::vector<decltype(read(r))> {
  size_t n = r.ReadCount();
  std::vector<decltype(read(r))> v;
  v.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) v.push_back(read(r));
  return v;
}

void PutStatus(Writer& w, const Status& s) {
  w.PutU8(static_cast<uint8_t>(s.code()));
  w.PutString(s.message());
}

Status ReadStatus(Reader& r) {
  uint8_t code = r.ReadU8();
  if (code > static_cast<uint8_t>(StatusCode::kUnimplemented)) {
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

void PutOptionalType(Writer& w, const std::optional<DatasetType>& opt) {
  PutOptional(w, opt, objcodec::PutDatasetType);
}

std::optional<DatasetType> ReadOptionalType(Reader& r) {
  return ReadOptional(r, objcodec::ReadDatasetType);
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

void PutMutation(Writer& w, const CatalogMutation& m) {
  w.PutU8(static_cast<uint8_t>(m.op.index()));
  std::visit(
      [&w](const auto& op) {
        using T = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<T, CatalogMutation::DefineDatasetOp>) {
          PutDataset(w, *op.dataset);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::DefineTransformationOp>) {
          PutTransformation(w, *op.transformation);
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::DefineDerivationOp>) {
          PutDerivation(w, *op.derivation);
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

// -----------------------------------------------------------------------
// Body codecs: one Put/Read pair per request and response body. The
// message table picks the body for a kind; these fix its bytes.
// -----------------------------------------------------------------------

void Put(Writer&, const EmptyReq&) {}
void Read(Reader&, EmptyReq&) {}

void Put(Writer& w, const NameReq& b) { w.PutString(b.name); }
void Read(Reader& r, NameReq& b) { b.name = r.ReadString(); }

void Put(Writer& w, const ChangesSinceReq& b) { w.PutU64(b.since_version); }
void Read(Reader& r, ChangesSinceReq& b) { b.since_version = r.ReadU64(); }

void Put(Writer& w, const FindDatasetsReq& b) {
  const DatasetQuery& q = b.query;
  PutOptionalType(w, q.type);
  PutVec(w, q.predicates, PutPredicate);
  w.PutString(q.name_prefix);
  w.PutBool(q.require_materialized);
  w.PutBool(q.only_virtual);
  w.PutU64(q.limit);
}

void Read(Reader& r, FindDatasetsReq& b) {
  DatasetQuery& q = b.query;
  q.type = ReadOptionalType(r);
  q.predicates = ReadVec(r, ReadPredicate);
  q.name_prefix = r.ReadString();
  q.require_materialized = r.ReadBool();
  q.only_virtual = r.ReadBool();
  q.limit = static_cast<size_t>(r.ReadU64());
}

void Put(Writer& w, const FindTransformationsReq& b) {
  const TransformationQuery& q = b.query;
  PutOptionalType(w, q.consumes);
  PutOptionalType(w, q.produces);
  PutVec(w, q.predicates, PutPredicate);
  w.PutString(q.name_prefix);
  w.PutU64(q.limit);
}

void Read(Reader& r, FindTransformationsReq& b) {
  TransformationQuery& q = b.query;
  q.consumes = ReadOptionalType(r);
  q.produces = ReadOptionalType(r);
  q.predicates = ReadVec(r, ReadPredicate);
  q.name_prefix = r.ReadString();
  q.limit = static_cast<size_t>(r.ReadU64());
}

void Put(Writer& w, const FindDerivationsReq& b) {
  const DerivationQuery& q = b.query;
  w.PutString(q.transformation);
  w.PutString(q.reads_dataset);
  w.PutString(q.writes_dataset);
  PutVec(w, q.predicates, PutPredicate);
  w.PutString(q.name_prefix);
  w.PutU64(q.limit);
}

void Read(Reader& r, FindDerivationsReq& b) {
  DerivationQuery& q = b.query;
  q.transformation = r.ReadString();
  q.reads_dataset = r.ReadString();
  q.writes_dataset = r.ReadString();
  q.predicates = ReadVec(r, ReadPredicate);
  q.name_prefix = r.ReadString();
  q.limit = static_cast<size_t>(r.ReadU64());
}

void Put(Writer& w, const TypeConformsReq& b) {
  PutDatasetType(w, b.type);
  PutDatasetType(w, b.against);
}

void Read(Reader& r, TypeConformsReq& b) {
  b.type = ReadDatasetType(r);
  b.against = ReadDatasetType(r);
}

void Put(Writer& w, const BatchGetReq& b) {
  PutVec(w, b.keys, [](Writer& w, const ObjectKey& key) {
    w.PutString(key.kind);
    w.PutString(key.name);
  });
}

void Read(Reader& r, BatchGetReq& b) {
  b.keys = ReadVec(r, [](Reader& r) {
    ObjectKey key;
    key.kind = r.ReadString();
    key.name = r.ReadString();
    return key;
  });
}

void Put(Writer& w, const DefineDatasetReq& b) { PutDataset(w, b.dataset); }
void Read(Reader& r, DefineDatasetReq& b) { b.dataset = ReadDataset(r); }

void Put(Writer& w, const DefineTransformationReq& b) {
  PutTransformation(w, b.transformation);
}
void Read(Reader& r, DefineTransformationReq& b) {
  b.transformation = ReadTransformation(r);
}

void Put(Writer& w, const DefineDerivationReq& b) {
  PutDerivation(w, b.derivation);
}
void Read(Reader& r, DefineDerivationReq& b) {
  b.derivation = ReadDerivation(r);
}

void Put(Writer& w, const AnnotateReq& b) {
  w.PutString(b.kind);
  w.PutString(b.name);
  w.PutString(b.key);
  PutAttributeValue(w, b.value);
}

void Read(Reader& r, AnnotateReq& b) {
  b.kind = r.ReadString();
  b.name = r.ReadString();
  b.key = r.ReadString();
  b.value = ReadAttributeValue(r);
}

void Put(Writer& w, const AddReplicaReq& b) { PutReplica(w, b.replica); }
void Read(Reader& r, AddReplicaReq& b) { b.replica = ReadReplica(r); }

void Put(Writer& w, const RecordInvocationReq& b) {
  PutInvocation(w, b.invocation);
}
void Read(Reader& r, RecordInvocationReq& b) {
  b.invocation = ReadInvocation(r);
}

void Put(Writer& w, const SetDatasetSizeReq& b) {
  w.PutString(b.name);
  w.PutI64(b.size_bytes);
}

void Read(Reader& r, SetDatasetSizeReq& b) {
  b.name = r.ReadString();
  b.size_bytes = r.ReadI64();
}

void Put(Writer& w, const ApplyBatchReq& b) {
  PutVec(w, b.mutations, PutMutation);
  w.PutBool(b.options.stop_on_error);
  w.PutString(b.options.idempotency_token);
}

void Read(Reader& r, ApplyBatchReq& b) {
  b.mutations = ReadVec(r, ReadMutation);
  b.options.stop_on_error = r.ReadBool();
  // The idempotency token is a trailing optional field: frames
  // produced by pre-token encoders end right after stop_on_error,
  // and must keep decoding (version-tolerant within codec v1).
  if (!r.AtEnd()) b.options.idempotency_token = r.ReadString();
}

void Put(Writer&, const std::monostate&) {}
void Read(Reader&, std::monostate&) {}

void Put(Writer& w, const HandshakeResp& b) {
  w.PutString(b.authority);
  w.PutBool(b.read_only);
}

void Read(Reader& r, HandshakeResp& b) {
  b.authority = r.ReadString();
  b.read_only = r.ReadBool();
}

void Put(Writer& w, const VersionResp& b) { w.PutU64(b.version); }
void Read(Reader& r, VersionResp& b) { b.version = r.ReadU64(); }

void Put(Writer& w, const ChangesResp& b) {
  PutVec(w, b.changes, objcodec::PutCatalogChange);
}
void Read(Reader& r, ChangesResp& b) {
  b.changes = ReadVec(r, objcodec::ReadCatalogChange);
}

void Put(Writer& w, const DatasetResp& b) { PutDataset(w, b.dataset); }
void Read(Reader& r, DatasetResp& b) { b.dataset = ReadDataset(r); }

void Put(Writer& w, const TransformationResp& b) {
  PutTransformation(w, b.transformation);
}
void Read(Reader& r, TransformationResp& b) {
  b.transformation = ReadTransformation(r);
}

void Put(Writer& w, const DerivationResp& b) { PutDerivation(w, b.derivation); }
void Read(Reader& r, DerivationResp& b) { b.derivation = ReadDerivation(r); }

void Put(Writer& w, const BoolResp& b) { w.PutBool(b.value); }
void Read(Reader& r, BoolResp& b) { b.value = r.ReadBool(); }

void Put(Writer& w, const StringResp& b) { w.PutString(b.value); }
void Read(Reader& r, StringResp& b) { b.value = r.ReadString(); }

void Put(Writer& w, const InvocationsResp& b) {
  PutVec(w, b.invocations, objcodec::PutInvocation);
}
void Read(Reader& r, InvocationsResp& b) {
  b.invocations = ReadVec(r, objcodec::ReadInvocation);
}

void Put(Writer& w, const ReplicasResp& b) {
  PutVec(w, b.replicas, objcodec::PutReplica);
}
void Read(Reader& r, ReplicasResp& b) {
  b.replicas = ReadVec(r, objcodec::ReadReplica);
}

void Put(Writer& w, const NamesResp& b) {
  // Straight from the views: no owned-string materialization between
  // the snapshot and the payload bytes.
  w.PutCount(b.names.size());
  for (std::string_view name : b.names) w.PutString(name);
}

void Read(Reader& r, NamesResp& b) {
  // Arena decode: one buffer per response holds every name; the list's
  // views point into it (no per-name allocation).
  size_t n = r.ReadCount();
  NameList::ArenaBuilder names;
  names.Reserve(n, r.remaining());
  for (size_t i = 0; i < n && r.ok(); ++i) names.Append(r.ReadStringView());
  b.names = std::move(names).Build();
}

void Put(Writer& w, const RecordsResp& b) {
  PutVec(w, b.records, PutObjectRecord);
}
void Read(Reader& r, RecordsResp& b) {
  b.records = ReadVec(r, ReadObjectRecord);
}

void Put(Writer& w, const StepResp& b) {
  const ProvenanceStep& s = b.step;
  w.PutString(s.dataset);
  w.PutBool(s.exists);
  w.PutString(s.producer);
  PutOptional(w, s.derivation, objcodec::PutDerivation);
  PutVec(w, s.invocations, objcodec::PutInvocation);
}

void Read(Reader& r, StepResp& b) {
  ProvenanceStep& s = b.step;
  s.dataset = r.ReadString();
  s.exists = r.ReadBool();
  s.producer = r.ReadString();
  s.derivation = ReadOptional(r, objcodec::ReadDerivation);
  s.invocations = ReadVec(r, objcodec::ReadInvocation);
}

void Put(Writer& w, const BatchResultResp& b) {
  const BatchResult& result = b.result;
  PutVec(w, result.statuses, PutStatus);
  PutStringVec(w, result.assigned_ids);
  w.PutU64(result.applied);
  w.PutU64(result.version);
  PutStatus(w, result.first_error);
}

void Read(Reader& r, BatchResultResp& b) {
  BatchResult& result = b.result;
  result.statuses = ReadVec(r, ReadStatus);
  result.assigned_ids = ReadStringVec(r);
  result.applied = static_cast<size_t>(r.ReadU64());
  result.version = r.ReadU64();
  result.first_error = ReadStatus(r);
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

Status UnknownKind(MsgKind kind) {
  return Status::ParseError("wire: unknown message kind " +
                            std::to_string(static_cast<int>(kind)));
}

}  // namespace

Status CheckRequest(const Request& request) {
  return VisitKind(
      request.kind,
      [&]<typename M>(M) {
        return BodyAs<typename M::RequestBody>(request).status();
      },
      [&] {
        return Status::InvalidArgument(
            "unknown message kind " +
            std::to_string(static_cast<int>(request.kind)));
      });
}

std::string_view IdempotencyToken(const Request& request) {
  const ApplyBatchReq* batch = BodyIf<MsgKind::kApplyBatch>(request);
  return batch != nullptr ? std::string_view(batch->options.idempotency_token)
                          : std::string_view();
}

bool IsRetrySafe(const Request& request) {
  return !IsMutation(request.kind) || !IdempotencyToken(request).empty();
}

std::string EncodeRequestFrame(uint64_t request_id, const Request& request) {
  std::string payload;
  Writer w(&payload);
  std::visit([&w](const auto& body) { Put(w, body); }, request.body);
  return EncodeFrame(request_id, /*is_response=*/false, request.kind, payload);
}

std::string EncodeResponseFrame(uint64_t request_id,
                                const Response& response) {
  std::string payload;
  Writer w(&payload);
  PutStatus(w, response.status);
  std::visit([&w](const auto& body) { Put(w, body); }, response.body);
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
  return VisitKind(
      kind,
      [&]<typename M>(M) -> Result<Request> {
        Reader r(payload);
        Request request;
        request.kind = kind;
        Read(r, request.body.emplace<typename M::RequestBody>());
        VDG_RETURN_IF_ERROR(r.Finish());
        return request;
      },
      [&]() -> Result<Request> { return UnknownKind(kind); });
}

Result<Response> DecodeResponse(MsgKind kind, std::string_view payload) {
  return VisitKind(
      kind,
      [&]<typename M>(M) -> Result<Response> {
        Reader r(payload);
        Response response;
        response.kind = kind;
        response.status = ReadStatus(r);
        // Error responses carry no body regardless of kind.
        if (response.status.ok()) {
          Read(r, response.body.emplace<typename M::ResponseBody>());
        }
        VDG_RETURN_IF_ERROR(r.Finish());
        return response;
      },
      [&]() -> Result<Response> { return UnknownKind(kind); });
}

}  // namespace wire
}  // namespace vdg
