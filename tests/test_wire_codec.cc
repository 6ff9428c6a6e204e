// Wire-codec tests: randomized round-trip property tests over every
// request and response kind, frame-integrity checks (magic, version,
// CRC, declared size), and adversarial byte-mangling — truncation,
// bit flips, oversized declared payloads — which must always produce
// a typed error, never a crash or an accepted corrupt message.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "catalog/wire.h"
#include "common/hash.h"
#include "common/rng.h"

namespace vdg {
namespace wire {
namespace {

// ------------------------- random object makers ----------------------

std::string RandomName(Rng& rng) {
  static const char* kPool[] = {"alpha", "beta",  "gamma", "delta",
                                "sdss",  "cms",   "run2",  "galaxy",
                                "img",   "calib", "x",     ""};
  std::string name = kPool[rng.Index(std::size(kPool))];
  if (rng.Chance(0.5)) name += std::to_string(rng.UniformInt(0, 9999));
  return name;
}

AttributeValue RandomAttributeValue(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return AttributeValue(RandomName(rng));
    case 1:
      return AttributeValue(rng.UniformInt(std::numeric_limits<int64_t>::min(),
                                           std::numeric_limits<int64_t>::max()));
    case 2:
      // Oddball doubles that lossy text formatting would mangle;
      // the binary codec must carry them bit-for-bit.
      return AttributeValue(rng.Uniform(-1e18, 1e18) + 1e-9);
    default:
      return AttributeValue(rng.Chance(0.5));
  }
}

AttributeSet RandomAttributes(Rng& rng) {
  AttributeSet set;
  int n = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < n; ++i) {
    set.Set("k" + std::to_string(rng.UniformInt(0, 9)),
            RandomAttributeValue(rng));
  }
  return set;
}

DatasetType RandomType(Rng& rng) {
  DatasetType type;
  if (rng.Chance(0.7)) type.content = RandomName(rng);
  if (rng.Chance(0.5)) type.format = RandomName(rng);
  if (rng.Chance(0.3)) type.encoding = RandomName(rng);
  return type;
}

Dataset RandomDataset(Rng& rng) {
  Dataset ds;
  ds.name = RandomName(rng);
  ds.type = RandomType(rng);
  ds.descriptor.schema = rng.Chance(0.5) ? "file" : "sql-rows";
  ds.descriptor.fields = RandomAttributes(rng);
  ds.size_bytes = rng.UniformInt(0, 1 << 30);
  ds.producer = rng.Chance(0.5) ? RandomName(rng) : "";
  ds.annotations = RandomAttributes(rng);
  return ds;
}

Replica RandomReplica(Rng& rng) {
  Replica r;
  r.id = "r" + std::to_string(rng.UniformInt(0, 999));
  r.dataset = RandomName(rng);
  r.site = RandomName(rng);
  r.storage_element = RandomName(rng);
  r.physical_path = "/data/" + RandomName(rng);
  r.size_bytes = rng.UniformInt(0, 1 << 30);
  r.created_at = rng.Uniform(0, 1e9);
  r.valid = rng.Chance(0.8);
  r.annotations = RandomAttributes(rng);
  return r;
}

TemplateExpr RandomTemplateExpr(Rng& rng) {
  TemplateExpr expr;
  int n = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < n; ++i) {
    if (rng.Chance(0.5)) {
      expr.push_back(TemplatePiece::Literal(RandomName(rng)));
    } else {
      std::optional<ArgDirection> dir;
      if (rng.Chance(0.5)) {
        dir = static_cast<ArgDirection>(rng.UniformInt(0, 3));
      }
      expr.push_back(TemplatePiece::Ref("a" + std::to_string(i), dir));
    }
  }
  return expr;
}

Transformation RandomTransformation(Rng& rng) {
  Transformation tr("tr" + std::to_string(rng.UniformInt(0, 999)),
                    rng.Chance(0.2) ? Transformation::Kind::kCompound
                                    : Transformation::Kind::kSimple);
  if (rng.Chance(0.5)) tr.set_version("1." + std::to_string(rng.Index(10)));
  int nargs = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < nargs; ++i) {
    FormalArg arg;
    arg.name = "a" + std::to_string(i);
    arg.direction = static_cast<ArgDirection>(rng.UniformInt(0, 3));
    if (arg.direction != ArgDirection::kNone && rng.Chance(0.5)) {
      arg.types.push_back(RandomType(rng));
    }
    if (arg.direction == ArgDirection::kNone && rng.Chance(0.5)) {
      arg.default_string = RandomName(rng);
    }
    if (rng.Chance(0.2)) arg.default_dataset = RandomName(rng);
    EXPECT_TRUE(tr.AddArg(arg).ok());
  }
  if (!tr.is_compound()) {
    tr.set_executable("/bin/" + tr.name());
    if (rng.Chance(0.5)) {
      tr.AddArgumentTemplate(
          ArgumentTemplate{rng.Chance(0.5) ? "stdin" : "",
                           RandomTemplateExpr(rng)});
    }
    if (rng.Chance(0.3)) tr.SetEnv("PATH", RandomTemplateExpr(rng));
    if (rng.Chance(0.3)) {
      tr.SetProfile("hints.pfnHint", RandomTemplateExpr(rng));
    }
  } else {
    CompoundCall call;
    call.callee = "tr" + std::to_string(rng.UniformInt(0, 99));
    call.bindings.emplace_back("a0", TemplatePiece::Ref("a0"));
    tr.AddCall(call);
  }
  tr.annotations() = RandomAttributes(rng);
  return tr;
}

Derivation RandomDerivation(Rng& rng) {
  Derivation dv("dv" + std::to_string(rng.UniformInt(0, 999)),
                "tr" + std::to_string(rng.UniformInt(0, 99)));
  if (rng.Chance(0.3)) dv.set_transformation_namespace("ns1");
  int nargs = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < nargs; ++i) {
    // Derivation decode rebuilds args through AddArg, which validates;
    // generated args must be well-formed (unique non-empty formal,
    // exactly one value).
    std::string formal = "a" + std::to_string(i);
    if (rng.Chance(0.5)) {
      EXPECT_TRUE(dv.AddArg(ActualArg::String(formal, RandomName(rng))).ok());
    } else {
      EXPECT_TRUE(
          dv.AddArg(ActualArg::DatasetRef(
                        formal, "d" + std::to_string(i),
                        static_cast<ArgDirection>(rng.UniformInt(0, 2))))
              .ok());
    }
  }
  if (rng.Chance(0.3)) dv.SetEnvOverride("TZ", "UTC");
  dv.annotations() = RandomAttributes(rng);
  return dv;
}

Invocation RandomInvocation(Rng& rng) {
  Invocation inv;
  inv.id = "i" + std::to_string(rng.UniformInt(0, 999));
  inv.derivation = "dv" + std::to_string(rng.UniformInt(0, 99));
  inv.context.site = RandomName(rng);
  inv.context.host = RandomName(rng);
  inv.start_time = rng.Uniform(0, 1e9);
  inv.duration_s = rng.Uniform(0, 1e5);
  inv.cpu_seconds = rng.Uniform(0, 1e5);
  inv.peak_memory_bytes = rng.UniformInt(0, 1LL << 40);
  inv.exit_code = static_cast<int>(rng.UniformInt(-128, 255));
  inv.succeeded = rng.Chance(0.8);
  int n = static_cast<int>(rng.UniformInt(0, 2));
  for (int i = 0; i < n; ++i) {
    inv.consumed_replicas.push_back("r" + std::to_string(rng.Index(100)));
  }
  n = static_cast<int>(rng.UniformInt(0, 2));
  for (int i = 0; i < n; ++i) {
    inv.produced_replicas.push_back("r" + std::to_string(rng.Index(100)));
  }
  inv.annotations = RandomAttributes(rng);
  return inv;
}

std::vector<AttributePredicate> RandomPredicates(Rng& rng) {
  std::vector<AttributePredicate> preds;
  int n = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < n; ++i) {
    AttributePredicate p;
    p.key = "k" + std::to_string(rng.Index(10));
    p.op = static_cast<PredicateOp>(rng.UniformInt(0, 7));
    p.operand = RandomAttributeValue(rng);
    preds.push_back(p);
  }
  return preds;
}

Status RandomStatus(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return Status::OK();
    case 1:
      return Status::NotFound("object " + RandomName(rng) + " missing");
    case 2:
      return Status::InvalidArgument("bad " + RandomName(rng));
    case 3:
      return Status::DeadlineExceeded("too slow");
    default:
      return Status::ResourceExhausted("queue full");
  }
}

CatalogMutation RandomMutation(Rng& rng) {
  switch (rng.UniformInt(0, 7)) {
    case 0:
      return CatalogMutation::DefineDataset(RandomDataset(rng));
    case 1:
      return CatalogMutation::DefineTransformation(RandomTransformation(rng));
    case 2:
      return CatalogMutation::DefineDerivation(RandomDerivation(rng));
    case 3:
      if (rng.Chance(0.5)) {
        return CatalogMutation::AnnotateAssigned(
            "invocation", rng.Index(4), "k", RandomAttributeValue(rng));
      }
      return CatalogMutation::Annotate("dataset", RandomName(rng), "k",
                                       RandomAttributeValue(rng));
    case 4:
      return CatalogMutation::AddReplica(RandomReplica(rng));
    case 5:
      return CatalogMutation::RecordInvocation(
          RandomInvocation(rng), {0, rng.Index(8)});
    case 6:
      return CatalogMutation::SetDatasetSize(RandomName(rng),
                                             rng.UniformInt(0, 1 << 30));
    default:
      return CatalogMutation::InvalidateReplica(
          "r" + std::to_string(rng.Index(100)));
  }
}

// ------------------------- equality helpers --------------------------
// The schema types compare piecewise; these assert the fields the
// codec must carry. (Dataset/AttributeSet/DatasetType have ==.)

void ExpectEq(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.descriptor, b.descriptor);
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  EXPECT_EQ(a.producer, b.producer);
  EXPECT_EQ(a.annotations, b.annotations);
}

void ExpectEq(const Replica& a, const Replica& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.site, b.site);
  EXPECT_EQ(a.storage_element, b.storage_element);
  EXPECT_EQ(a.physical_path, b.physical_path);
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  EXPECT_EQ(a.created_at, b.created_at);  // bit-exact double
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.annotations, b.annotations);
}

void ExpectEq(const Transformation& a, const Transformation& b) {
  // ToString-level equality covers name, kind, signature, and body
  // templates; annotations compare directly.
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.kind(), b.kind());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.TypeSignature(), b.TypeSignature());
  EXPECT_EQ(a.executable(), b.executable());
  ASSERT_EQ(a.argument_templates().size(), b.argument_templates().size());
  for (size_t i = 0; i < a.argument_templates().size(); ++i) {
    EXPECT_EQ(a.argument_templates()[i].name, b.argument_templates()[i].name);
    EXPECT_EQ(a.argument_templates()[i].expr, b.argument_templates()[i].expr);
  }
  EXPECT_EQ(a.env(), b.env());
  EXPECT_EQ(a.profile(), b.profile());
  ASSERT_EQ(a.calls().size(), b.calls().size());
  for (size_t i = 0; i < a.calls().size(); ++i) {
    EXPECT_EQ(a.calls()[i].callee, b.calls()[i].callee);
    EXPECT_EQ(a.calls()[i].bindings, b.calls()[i].bindings);
  }
  EXPECT_EQ(a.annotations(), b.annotations());
  ASSERT_EQ(a.args().size(), b.args().size());
  for (size_t i = 0; i < a.args().size(); ++i) {
    EXPECT_EQ(a.args()[i].default_string, b.args()[i].default_string);
    EXPECT_EQ(a.args()[i].default_dataset, b.args()[i].default_dataset);
  }
}

void ExpectEq(const Derivation& a, const Derivation& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.transformation_namespace(), b.transformation_namespace());
  EXPECT_EQ(a.transformation(), b.transformation());
  // Signature() hashes transformation + sorted args + env overrides.
  EXPECT_EQ(a.Signature(), b.Signature());
  ASSERT_EQ(a.args().size(), b.args().size());
  for (size_t i = 0; i < a.args().size(); ++i) {
    EXPECT_EQ(a.args()[i].formal, b.args()[i].formal);
    EXPECT_EQ(a.args()[i].string_value, b.args()[i].string_value);
    EXPECT_EQ(a.args()[i].dataset, b.args()[i].dataset);
    EXPECT_EQ(a.args()[i].direction, b.args()[i].direction);
  }
  EXPECT_EQ(a.env_overrides(), b.env_overrides());
  EXPECT_EQ(a.annotations(), b.annotations());
}

void ExpectEq(const Invocation& a, const Invocation& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.derivation, b.derivation);
  EXPECT_EQ(a.context.site, b.context.site);
  EXPECT_EQ(a.context.host, b.context.host);
  EXPECT_EQ(a.context.os, b.context.os);
  EXPECT_EQ(a.context.architecture, b.context.architecture);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.consumed_replicas, b.consumed_replicas);
  EXPECT_EQ(a.produced_replicas, b.produced_replicas);
  EXPECT_EQ(a.annotations, b.annotations);
}

void ExpectEq(const Status& a, const Status& b) {
  EXPECT_EQ(a.code(), b.code());
  EXPECT_EQ(a.message(), b.message());
}

// ------------------------- round-trip plumbing -----------------------

/// Encodes `request`, walks it through FrameSize + DecodeFrame +
/// DecodeRequest, and returns the decoded copy (asserting the frame
/// envelope along the way).
Request RoundTrip(uint64_t id, const Request& request) {
  std::string frame = EncodeRequestFrame(id, request);
  Result<size_t> size = FrameSize(frame);
  EXPECT_TRUE(size.ok()) << size.status().ToString();
  EXPECT_EQ(*size, frame.size());
  Result<Frame> envelope = DecodeFrame(frame);
  EXPECT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_FALSE(envelope->is_response);
  EXPECT_EQ(envelope->kind, request.kind);
  EXPECT_EQ(envelope->request_id, id);
  Result<Request> decoded = DecodeRequest(request.kind, envelope->payload);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return *std::move(decoded);
}

Response RoundTrip(uint64_t id, const Response& response) {
  std::string frame = EncodeResponseFrame(id, response);
  Result<size_t> size = FrameSize(frame);
  EXPECT_TRUE(size.ok()) << size.status().ToString();
  EXPECT_EQ(*size, frame.size());
  Result<Frame> envelope = DecodeFrame(frame);
  EXPECT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_TRUE(envelope->is_response);
  EXPECT_EQ(envelope->kind, response.kind);
  EXPECT_EQ(envelope->request_id, id);
  Result<Response> decoded = DecodeResponse(response.kind, envelope->payload);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return *std::move(decoded);
}

// ------------------------- request round trips -----------------------

TEST(WireCodecRequests, EmptyAndNameKindsRoundTrip) {
  Rng rng(101);
  for (MsgKind kind : {MsgKind::kHandshake, MsgKind::kVersion}) {
    Request req{kind, EmptyReq{}};
    Request out = RoundTrip(7, req);
    EXPECT_EQ(out.kind, kind);
    EXPECT_TRUE(std::holds_alternative<EmptyReq>(out.body));
  }
  for (MsgKind kind :
       {MsgKind::kGetDataset, MsgKind::kGetTransformation,
        MsgKind::kGetDerivation, MsgKind::kHasDataset,
        MsgKind::kIsMaterialized, MsgKind::kProducerOf,
        MsgKind::kInvocationsOf, MsgKind::kAllNames,
        MsgKind::kGetProvenanceStep, MsgKind::kInvalidateReplica,
        MsgKind::kReplicasOf}) {
    std::string name = RandomName(rng);
    Request req{kind, NameReq{name}};
    Request out = RoundTrip(rng.UniformInt(0, 1 << 30), req);
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(std::get<NameReq>(out.body).name, name);
  }
}

TEST(WireCodecRequests, ChangesSinceCarries64BitVersions) {
  uint64_t version = 0xDEADBEEFCAFE1234ull;
  Request req{MsgKind::kChangesSince, ChangesSinceReq{version}};
  Request out = RoundTrip(1, req);
  EXPECT_EQ(std::get<ChangesSinceReq>(out.body).since_version, version);
}

TEST(WireCodecRequests, FindQueriesRoundTrip) {
  Rng rng(202);
  for (int iter = 0; iter < 50; ++iter) {
    DatasetQuery dq;
    if (rng.Chance(0.5)) dq.type = RandomType(rng);
    dq.predicates = RandomPredicates(rng);
    dq.name_prefix = RandomName(rng);
    dq.require_materialized = rng.Chance(0.3);
    dq.only_virtual = rng.Chance(0.3);
    dq.limit = static_cast<size_t>(rng.UniformInt(0, 100));
    Request out =
        RoundTrip(iter, Request{MsgKind::kFindDatasets, FindDatasetsReq{dq}});
    const DatasetQuery& got = std::get<FindDatasetsReq>(out.body).query;
    EXPECT_EQ(got.type, dq.type);
    EXPECT_EQ(got.name_prefix, dq.name_prefix);
    EXPECT_EQ(got.require_materialized, dq.require_materialized);
    EXPECT_EQ(got.only_virtual, dq.only_virtual);
    EXPECT_EQ(got.limit, dq.limit);
    ASSERT_EQ(got.predicates.size(), dq.predicates.size());
    for (size_t i = 0; i < dq.predicates.size(); ++i) {
      EXPECT_EQ(got.predicates[i].key, dq.predicates[i].key);
      EXPECT_EQ(got.predicates[i].op, dq.predicates[i].op);
      EXPECT_EQ(got.predicates[i].operand, dq.predicates[i].operand);
    }

    TransformationQuery tq;
    if (rng.Chance(0.5)) tq.consumes = RandomType(rng);
    if (rng.Chance(0.5)) tq.produces = RandomType(rng);
    tq.predicates = RandomPredicates(rng);
    tq.name_prefix = RandomName(rng);
    tq.limit = static_cast<size_t>(rng.UniformInt(0, 100));
    Request tout = RoundTrip(
        iter, Request{MsgKind::kFindTransformations,
                      FindTransformationsReq{tq}});
    const TransformationQuery& tgot =
        std::get<FindTransformationsReq>(tout.body).query;
    EXPECT_EQ(tgot.consumes, tq.consumes);
    EXPECT_EQ(tgot.produces, tq.produces);
    EXPECT_EQ(tgot.name_prefix, tq.name_prefix);
    EXPECT_EQ(tgot.limit, tq.limit);

    DerivationQuery vq;
    vq.transformation = RandomName(rng);
    vq.reads_dataset = RandomName(rng);
    vq.writes_dataset = RandomName(rng);
    vq.predicates = RandomPredicates(rng);
    vq.name_prefix = RandomName(rng);
    vq.limit = static_cast<size_t>(rng.UniformInt(0, 100));
    Request vout = RoundTrip(
        iter, Request{MsgKind::kFindDerivations, FindDerivationsReq{vq}});
    const DerivationQuery& vgot = std::get<FindDerivationsReq>(vout.body).query;
    EXPECT_EQ(vgot.transformation, vq.transformation);
    EXPECT_EQ(vgot.reads_dataset, vq.reads_dataset);
    EXPECT_EQ(vgot.writes_dataset, vq.writes_dataset);
    EXPECT_EQ(vgot.name_prefix, vq.name_prefix);
    EXPECT_EQ(vgot.limit, vq.limit);
  }
}

TEST(WireCodecRequests, ObjectCarryingRequestsRoundTrip) {
  Rng rng(303);
  for (int iter = 0; iter < 50; ++iter) {
    Dataset ds = RandomDataset(rng);
    Request dout =
        RoundTrip(iter, Request{MsgKind::kDefineDataset, DefineDatasetReq{ds}});
    ExpectEq(std::get<DefineDatasetReq>(dout.body).dataset, ds);

    Transformation tr = RandomTransformation(rng);
    Request tout = RoundTrip(
        iter,
        Request{MsgKind::kDefineTransformation, DefineTransformationReq{tr}});
    ExpectEq(std::get<DefineTransformationReq>(tout.body).transformation, tr);

    Derivation dv = RandomDerivation(rng);
    Request vout = RoundTrip(
        iter, Request{MsgKind::kDefineDerivation, DefineDerivationReq{dv}});
    ExpectEq(std::get<DefineDerivationReq>(vout.body).derivation, dv);

    Replica rep = RandomReplica(rng);
    Request rout =
        RoundTrip(iter, Request{MsgKind::kAddReplica, AddReplicaReq{rep}});
    ExpectEq(std::get<AddReplicaReq>(rout.body).replica, rep);

    Invocation inv = RandomInvocation(rng);
    Request iout = RoundTrip(
        iter, Request{MsgKind::kRecordInvocation, RecordInvocationReq{inv}});
    ExpectEq(std::get<RecordInvocationReq>(iout.body).invocation, inv);
  }
}

TEST(WireCodecRequests, ScalarRequestsRoundTrip) {
  Rng rng(404);
  AnnotateReq areq{"dataset", "d1", "quality", RandomAttributeValue(rng)};
  Request aout = RoundTrip(3, Request{MsgKind::kAnnotate, areq});
  const AnnotateReq& agot = std::get<AnnotateReq>(aout.body);
  EXPECT_EQ(agot.kind, areq.kind);
  EXPECT_EQ(agot.name, areq.name);
  EXPECT_EQ(agot.key, areq.key);
  EXPECT_EQ(agot.value, areq.value);

  Request sout = RoundTrip(
      4, Request{MsgKind::kSetDatasetSize, SetDatasetSizeReq{"d2", -1}});
  EXPECT_EQ(std::get<SetDatasetSizeReq>(sout.body).name, "d2");
  EXPECT_EQ(std::get<SetDatasetSizeReq>(sout.body).size_bytes, -1);

  TypeConformsReq creq{RandomType(rng), RandomType(rng)};
  Request cout = RoundTrip(5, Request{MsgKind::kTypeConforms, creq});
  EXPECT_EQ(std::get<TypeConformsReq>(cout.body).type, creq.type);
  EXPECT_EQ(std::get<TypeConformsReq>(cout.body).against, creq.against);

  BatchGetReq breq;
  breq.keys = {{"dataset", "d1"}, {"transformation", "t1"}};
  Request bout = RoundTrip(6, Request{MsgKind::kBatchGet, breq});
  const BatchGetReq& bgot = std::get<BatchGetReq>(bout.body);
  ASSERT_EQ(bgot.keys.size(), 2u);
  EXPECT_EQ(bgot.keys[0].kind, "dataset");
  EXPECT_EQ(bgot.keys[1].name, "t1");
}

TEST(WireCodecRequests, ApplyBatchCarriesEveryMutationKind) {
  Rng rng(505);
  for (int iter = 0; iter < 30; ++iter) {
    ApplyBatchReq req;
    int n = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < n; ++i) req.mutations.push_back(RandomMutation(rng));
    req.options.stop_on_error = rng.Chance(0.5);
    Request out = RoundTrip(iter, Request{MsgKind::kApplyBatch, req});
    const ApplyBatchReq& got = std::get<ApplyBatchReq>(out.body);
    EXPECT_EQ(got.options.stop_on_error, req.options.stop_on_error);
    ASSERT_EQ(got.mutations.size(), req.mutations.size());
    for (size_t i = 0; i < req.mutations.size(); ++i) {
      // Variant alternative (op kind) must survive; spot-check the
      // op payloads that carry cross-op references.
      EXPECT_EQ(got.mutations[i].op.index(), req.mutations[i].op.index());
      if (const auto* want = std::get_if<CatalogMutation::RecordInvocationOp>(
              &req.mutations[i].op)) {
        const auto& have =
            std::get<CatalogMutation::RecordInvocationOp>(got.mutations[i].op);
        EXPECT_EQ(have.produced_from_ops, want->produced_from_ops);
        ExpectEq(have.invocation, want->invocation);
      }
      if (const auto* want = std::get_if<CatalogMutation::AnnotateOp>(
              &req.mutations[i].op)) {
        const auto& have =
            std::get<CatalogMutation::AnnotateOp>(got.mutations[i].op);
        EXPECT_EQ(have.name_from_op, want->name_from_op);
        EXPECT_EQ(have.value, want->value);
      }
    }
  }
}

TEST(WireCodecRequests, ApplyBatchIdempotencyTokenRoundTrips) {
  Rng rng(707);
  ApplyBatchReq req;
  req.mutations.push_back(RandomMutation(rng));
  req.options.stop_on_error = true;
  req.options.idempotency_token = "rcc-deadbeef-42";
  Request out = RoundTrip(9, Request{MsgKind::kApplyBatch, req});
  const ApplyBatchReq& got = std::get<ApplyBatchReq>(out.body);
  EXPECT_EQ(got.options.idempotency_token, "rcc-deadbeef-42");
  EXPECT_TRUE(got.options.stop_on_error);
}

TEST(WireCodecRequests, ApplyBatchDecodeToleratesTokenlessOldPayloads) {
  // The idempotency token is a trailing optional field within codec
  // v1: a payload written by an encoder that predates it (i.e. ends
  // right after stop_on_error) must still decode, with an empty token.
  Rng rng(708);
  ApplyBatchReq req;
  req.mutations.push_back(RandomMutation(rng));
  req.options.stop_on_error = true;
  // req.options.idempotency_token left empty: the current encoder
  // appends it as a u32-length-prefixed string, so the empty token is
  // exactly 4 trailing zero bytes — strip them to reconstruct the
  // old-format payload.
  std::string frame =
      EncodeRequestFrame(11, Request{MsgKind::kApplyBatch, req});
  Result<Frame> envelope = DecodeFrame(frame);
  ASSERT_TRUE(envelope.ok());
  std::string payload(envelope->payload);
  ASSERT_GE(payload.size(), 4u);
  std::string old_payload = payload.substr(0, payload.size() - 4);

  Result<Request> decoded = DecodeRequest(MsgKind::kApplyBatch, old_payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ApplyBatchReq& got = std::get<ApplyBatchReq>(decoded->body);
  EXPECT_TRUE(got.options.idempotency_token.empty());
  EXPECT_TRUE(got.options.stop_on_error);
  EXPECT_EQ(got.mutations.size(), 1u);
}

// ------------------------- response round trips ----------------------

TEST(WireCodecResponses, ErrorResponsesCarryStatusOnly) {
  Rng rng(606);
  for (int iter = 0; iter < 20; ++iter) {
    Status status = RandomStatus(rng);
    if (status.ok()) status = Status::NotFound("forced error");
    Response resp;
    resp.kind = MsgKind::kGetDataset;
    resp.status = status;
    Response out = RoundTrip(iter, resp);
    ExpectEq(out.status, status);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(out.body));
  }
}

TEST(WireCodecResponses, AllBodyKindsRoundTrip) {
  Rng rng(707);

  Response handshake;
  handshake.kind = MsgKind::kHandshake;
  handshake.body = HandshakeResp{"vdc.example.org", true};
  Response hout = RoundTrip(1, handshake);
  EXPECT_EQ(std::get<HandshakeResp>(hout.body).authority, "vdc.example.org");
  EXPECT_TRUE(std::get<HandshakeResp>(hout.body).read_only);

  Response version;
  version.kind = MsgKind::kVersion;
  version.body = VersionResp{0xFFFFFFFF12345678ull};
  EXPECT_EQ(std::get<VersionResp>(RoundTrip(2, version).body).version,
            0xFFFFFFFF12345678ull);

  Response changes;
  changes.kind = MsgKind::kChangesSince;
  ChangesResp cr;
  cr.changes.push_back(CatalogChange{42, 'U', "dataset", "d1"});
  cr.changes.push_back(CatalogChange{43, 'D', "derivation", "v1"});
  changes.body = cr;
  Response cout = RoundTrip(3, changes);
  const ChangesResp& cgot = std::get<ChangesResp>(cout.body);
  ASSERT_EQ(cgot.changes.size(), 2u);
  EXPECT_EQ(cgot.changes[0].version, 42u);
  EXPECT_EQ(cgot.changes[1].op, 'D');
  EXPECT_EQ(cgot.changes[1].kind, "derivation");

  Response dataset;
  dataset.kind = MsgKind::kGetDataset;
  Dataset ds = RandomDataset(rng);
  dataset.body = DatasetResp{ds};
  ExpectEq(std::get<DatasetResp>(RoundTrip(4, dataset).body).dataset, ds);

  Response tr_resp;
  tr_resp.kind = MsgKind::kGetTransformation;
  Transformation tr = RandomTransformation(rng);
  tr_resp.body = TransformationResp{tr};
  ExpectEq(
      std::get<TransformationResp>(RoundTrip(5, tr_resp).body).transformation,
      tr);

  Response dv_resp;
  dv_resp.kind = MsgKind::kGetDerivation;
  Derivation dv = RandomDerivation(rng);
  dv_resp.body = DerivationResp{dv};
  ExpectEq(std::get<DerivationResp>(RoundTrip(6, dv_resp).body).derivation,
           dv);

  Response flag;
  flag.kind = MsgKind::kHasDataset;
  flag.body = BoolResp{true};
  EXPECT_TRUE(std::get<BoolResp>(RoundTrip(7, flag).body).value);

  Response id_resp;
  id_resp.kind = MsgKind::kAddReplica;
  id_resp.body = StringResp{"replica-17"};
  EXPECT_EQ(std::get<StringResp>(RoundTrip(8, id_resp).body).value,
            "replica-17");

  Response invocations;
  invocations.kind = MsgKind::kInvocationsOf;
  InvocationsResp ir;
  ir.invocations.push_back(RandomInvocation(rng));
  ir.invocations.push_back(RandomInvocation(rng));
  invocations.body = ir;
  Response iout = RoundTrip(9, invocations);
  const InvocationsResp& igot = std::get<InvocationsResp>(iout.body);
  ASSERT_EQ(igot.invocations.size(), 2u);
  ExpectEq(igot.invocations[0], ir.invocations[0]);
  ExpectEq(igot.invocations[1], ir.invocations[1]);

  Response names;
  names.kind = MsgKind::kFindDatasets;
  names.body = NamesResp{NameList::FromStrings({"d1", "d2", ""})};
  EXPECT_EQ(std::get<NamesResp>(RoundTrip(10, names).body).names,
            (std::vector<std::string>{"d1", "d2", ""}));

  Response step;
  step.kind = MsgKind::kGetProvenanceStep;
  StepResp sr;
  sr.step.dataset = "d5";
  sr.step.exists = true;
  sr.step.producer = "v5";
  sr.step.derivation = RandomDerivation(rng);
  sr.step.invocations.push_back(RandomInvocation(rng));
  step.body = sr;
  Response sout = RoundTrip(11, step);
  const StepResp& sgot = std::get<StepResp>(sout.body);
  EXPECT_EQ(sgot.step.dataset, "d5");
  EXPECT_TRUE(sgot.step.exists);
  EXPECT_EQ(sgot.step.producer, "v5");
  ASSERT_TRUE(sgot.step.derivation.has_value());
  ExpectEq(*sgot.step.derivation, *sr.step.derivation);
  ASSERT_EQ(sgot.step.invocations.size(), 1u);
  ExpectEq(sgot.step.invocations[0], sr.step.invocations[0]);

  Response replicas;
  replicas.kind = MsgKind::kReplicasOf;
  ReplicasResp rr;
  rr.replicas.push_back(RandomReplica(rng));
  rr.replicas.push_back(RandomReplica(rng));
  replicas.body = rr;
  Response rout = RoundTrip(12, replicas);
  const ReplicasResp& rgot = std::get<ReplicasResp>(rout.body);
  ASSERT_EQ(rgot.replicas.size(), 2u);
  ExpectEq(rgot.replicas[0], rr.replicas[0]);
  ExpectEq(rgot.replicas[1], rr.replicas[1]);
}

TEST(WireCodecResponses, RecordsAndBatchResultsRoundTrip) {
  Rng rng(808);
  Response records;
  records.kind = MsgKind::kBatchGet;
  RecordsResp rr;
  ObjectRecord hit;
  hit.kind = "dataset";
  hit.name = "d1";
  hit.dataset = RandomDataset(rng);
  hit.materialized = true;
  rr.records.push_back(hit);
  ObjectRecord miss;
  miss.kind = "derivation";
  miss.name = "nope";
  miss.status = Status::NotFound("derivation nope not defined");
  rr.records.push_back(miss);
  records.body = rr;
  Response rout = RoundTrip(12, records);
  const RecordsResp& rgot = std::get<RecordsResp>(rout.body);
  ASSERT_EQ(rgot.records.size(), 2u);
  EXPECT_EQ(rgot.records[0].kind, "dataset");
  ASSERT_TRUE(rgot.records[0].dataset.has_value());
  ExpectEq(*rgot.records[0].dataset, *hit.dataset);
  EXPECT_TRUE(rgot.records[0].materialized);
  EXPECT_FALSE(rgot.records[1].dataset.has_value());
  ExpectEq(rgot.records[1].status, miss.status);

  Response batch;
  batch.kind = MsgKind::kApplyBatch;
  BatchResultResp br;
  br.result.statuses = {Status::OK(), Status::InvalidArgument("bad op"),
                        Status::OK()};
  br.result.assigned_ids = {"", "r9", ""};
  br.result.applied = 2;
  br.result.version = 99;
  br.result.first_error = Status::InvalidArgument("bad op");
  batch.body = br;
  Response bout = RoundTrip(13, batch);
  const BatchResult& bgot = std::get<BatchResultResp>(bout.body).result;
  ASSERT_EQ(bgot.statuses.size(), 3u);
  ExpectEq(bgot.statuses[1], br.result.statuses[1]);
  EXPECT_EQ(bgot.assigned_ids, br.result.assigned_ids);
  EXPECT_EQ(bgot.applied, 2u);
  EXPECT_EQ(bgot.version, 99u);
  ExpectEq(bgot.first_error, br.result.first_error);
}

// ------------------------- frame integrity ---------------------------

TEST(WireFrames, FrameSizeNeedsHeaderBytes) {
  Request req{MsgKind::kVersion, EmptyReq{}};
  std::string frame = EncodeRequestFrame(1, req);
  // Any strict prefix shorter than the header: "need more bytes".
  for (size_t n = 0; n < kFrameHeaderBytes; ++n) {
    Result<size_t> size = FrameSize(std::string_view(frame).substr(0, n));
    // A short prefix either can't be sized yet (NotFound) — or, once
    // the magic/version bytes are present and wrong, is already a
    // protocol error. Here the bytes are valid, so: NotFound.
    EXPECT_FALSE(size.ok());
    EXPECT_TRUE(size.status().IsNotFound()) << n;
  }
  EXPECT_EQ(*FrameSize(frame), frame.size());
}

TEST(WireFrames, BadMagicAndVersionAreProtocolErrors) {
  Request req{MsgKind::kVersion, EmptyReq{}};
  std::string frame = EncodeRequestFrame(1, req);

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_TRUE(FrameSize(bad_magic).status().IsParseError());
  EXPECT_TRUE(DecodeFrame(bad_magic).status().IsParseError());

  std::string bad_version = frame;
  bad_version[4] = kCodecVersion + 1;
  EXPECT_TRUE(FrameSize(bad_version).status().IsParseError());
  EXPECT_TRUE(DecodeFrame(bad_version).status().IsParseError());
}

TEST(WireFrames, OversizedDeclaredPayloadIsRejected) {
  Request req{MsgKind::kVersion, EmptyReq{}};
  std::string frame = EncodeRequestFrame(1, req);
  // Rewrite the payload-size field to something absurd.
  uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  Result<size_t> size = FrameSize(frame);
  EXPECT_FALSE(size.ok());
  EXPECT_TRUE(size.status().IsResourceExhausted());
}

TEST(WireFrames, CorruptedBytesFailCrcNeverCrash) {
  Rng rng(909);
  Request req{MsgKind::kDefineDataset, DefineDatasetReq{RandomDataset(rng)}};
  std::string frame = EncodeRequestFrame(1, req);
  // Flip one random byte at every position in turn: every mutation
  // must be rejected (CRC mismatch, or an envelope field check), and
  // none may crash.
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    std::string mangled = frame;
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x40);
    Result<Frame> decoded = DecodeFrame(mangled);
    EXPECT_FALSE(decoded.ok()) << "flipped byte at " << pos;
  }
}

TEST(WireFrames, TruncatedPayloadsFailCleanly) {
  Rng rng(1010);
  for (int iter = 0; iter < 20; ++iter) {
    Request req{MsgKind::kDefineTransformation,
                DefineTransformationReq{RandomTransformation(rng)}};
    std::string frame = EncodeRequestFrame(1, req);
    Result<Frame> envelope = DecodeFrame(frame);
    ASSERT_TRUE(envelope.ok());
    std::string_view payload = envelope->payload;
    // Every strict prefix of the payload must decode to an error.
    for (size_t n = 0; n < payload.size();
         n += 1 + rng.Index(7)) {
      Result<Request> decoded =
          DecodeRequest(req.kind, payload.substr(0, n));
      EXPECT_FALSE(decoded.ok()) << "prefix length " << n;
    }
  }
}

TEST(WireFrames, TrailingGarbageAfterPayloadIsRejected) {
  Request req{MsgKind::kGetDataset, NameReq{"d1"}};
  std::string frame = EncodeRequestFrame(1, req);
  Result<Frame> envelope = DecodeFrame(frame);
  ASSERT_TRUE(envelope.ok());
  std::string padded(envelope->payload);
  padded.push_back('\0');
  Result<Request> decoded = DecodeRequest(req.kind, padded);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError());
}

TEST(WireFrames, NonFiniteDoubleAttributesAreParseErrors) {
  // nan/inf have no journal form, so the decoder refuses them rather
  // than hand the catalog a value it could journal but never replay.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Dataset ds;
    ds.name = "d1";
    ds.annotations.Set("q", AttributeValue(bad));
    for (const Request& req :
         {Request{MsgKind::kAnnotate,
                  AnnotateReq{"dataset", "d1", "q", AttributeValue(bad)}},
          Request{MsgKind::kDefineDataset, DefineDatasetReq{ds}}}) {
      std::string frame = EncodeRequestFrame(1, req);
      Result<Frame> envelope = DecodeFrame(frame);
      ASSERT_TRUE(envelope.ok());
      Result<Request> decoded = DecodeRequest(req.kind, envelope->payload);
      EXPECT_TRUE(decoded.status().IsParseError())
          << MsgKindName(req.kind) << " " << bad;
    }
  }
}

TEST(WireFrames, RandomGarbagePayloadsNeverCrash) {
  Rng rng(1111);
  // Fully random bytes against every kind's request and response
  // decoder: typed error or (rarely) a successful parse of noise —
  // but no crash, no hang, no unbounded allocation.
  for (int iter = 0; iter < 300; ++iter) {
    std::string noise;
    size_t len = rng.Index(64);
    noise.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      noise.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    for (uint8_t raw = 1; raw <= 26; ++raw) {
      MsgKind kind = static_cast<MsgKind>(raw);
      (void)DecodeRequest(kind, noise);
      (void)DecodeResponse(kind, noise);
    }
  }
}

TEST(WireFrames, ResponseFlagAndKindValidated) {
  Request req{MsgKind::kVersion, EmptyReq{}};
  std::string frame = EncodeRequestFrame(1, req);

  // Unknown kind byte.
  std::string bad_kind = frame;
  bad_kind[6] = 99;
  EXPECT_FALSE(DecodeFrame(bad_kind).ok());

  // Reserved flag bits set.
  std::string bad_flags = frame;
  bad_flags[5] = 0x02;
  EXPECT_FALSE(DecodeFrame(bad_flags).ok());

  // Nonzero reserved byte.
  std::string bad_reserved = frame;
  bad_reserved[7] = 1;
  EXPECT_FALSE(DecodeFrame(bad_reserved).ok());
}

TEST(WireFrames, StreamingSplitAcrossArbitraryBoundaries) {
  // Frames written back-to-back must be recoverable from any chunking
  // of the byte stream — the property the server's frame extraction
  // relies on when a channel delivers partial reads.
  Rng rng(1212);
  std::vector<Request> sent;
  std::string stream;
  for (int i = 0; i < 10; ++i) {
    Request req{MsgKind::kGetDataset, NameReq{RandomName(rng)}};
    stream += EncodeRequestFrame(i, req);
    sent.push_back(std::move(req));
  }
  std::string buffer;
  size_t cursor = 0;
  size_t decoded = 0;
  while (cursor < stream.size()) {
    size_t chunk = 1 + rng.Index(13);
    chunk = std::min(chunk, stream.size() - cursor);
    buffer.append(stream, cursor, chunk);
    cursor += chunk;
    while (true) {
      Result<size_t> size = FrameSize(buffer);
      if (!size.ok()) {
        ASSERT_TRUE(size.status().IsNotFound()) << size.status().ToString();
        break;
      }
      if (buffer.size() < *size) break;
      Result<Frame> envelope =
          DecodeFrame(std::string_view(buffer).substr(0, *size));
      ASSERT_TRUE(envelope.ok());
      EXPECT_EQ(envelope->request_id, decoded);
      Result<Request> req = DecodeRequest(envelope->kind, envelope->payload);
      ASSERT_TRUE(req.ok());
      EXPECT_EQ(std::get<NameReq>(req->body).name,
                std::get<NameReq>(sent[decoded].body).name);
      buffer.erase(0, *size);
      ++decoded;
    }
  }
  EXPECT_TRUE(buffer.empty()) << "stream ended mid-frame";
  EXPECT_EQ(decoded, 10u);
}

TEST(WireFrames, MsgKindNamesAreDistinct) {
  for (uint8_t raw = 1; raw <= 28; ++raw) {
    EXPECT_TRUE(IsValidMsgKind(raw));
    EXPECT_FALSE(MsgKindName(static_cast<MsgKind>(raw)).empty());
  }
  EXPECT_FALSE(IsValidMsgKind(0));
  EXPECT_FALSE(IsValidMsgKind(29));
  EXPECT_FALSE(IsValidMsgKind(255));
}

// ------------------------- golden frames -----------------------------
// One request frame and one OK response frame per kind, plus one error
// response, pinned byte for byte. The bodies are fixed, and every field
// of every body is non-default somewhere in the set, so a codec rewrite
// that moves, drops or reorders a field changes at least one frame.

AttributeSet GoldenAttributes() {
  AttributeSet set;
  set.Set("label", AttributeValue("z-band"));
  set.Set("count", AttributeValue(int64_t{-42}));
  set.Set("ratio", AttributeValue(0.1));
  set.Set("calibrated", AttributeValue(true));
  return set;
}

DatasetType GoldenType() { return DatasetType{"SDSS", "Fileset", "FITS"}; }

Dataset GoldenDataset() {
  Dataset ds;
  ds.name = "galaxy.cat";
  ds.type = GoldenType();
  ds.descriptor.schema = "sql-rows";
  ds.descriptor.fields.Set("table", AttributeValue("galaxies"));
  ds.size_bytes = 1 << 20;
  ds.producer = "find-galaxies";
  ds.annotations = GoldenAttributes();
  return ds;
}

Replica GoldenReplica() {
  Replica r;
  r.id = "rp-s1-7";
  r.dataset = "galaxy.cat";
  r.site = "fnal";
  r.storage_element = "se1";
  r.physical_path = "/data/galaxy.cat";
  r.size_bytes = 1 << 20;
  r.created_at = 1234.5;
  r.valid = false;
  r.annotations = GoldenAttributes();
  return r;
}

FormalArg GoldenFormal(std::string name, ArgDirection direction) {
  FormalArg arg;
  arg.name = std::move(name);
  arg.direction = direction;
  return arg;
}

/// A simple transformation exercising every field but the calls.
Transformation GoldenSimpleTransformation() {
  Transformation tr("find-clusters", Transformation::Kind::kSimple);
  tr.set_version("2.1");
  FormalArg in = GoldenFormal("in", ArgDirection::kIn);
  in.types.push_back(GoldenType());
  in.default_dataset = "galaxy.cat";
  EXPECT_TRUE(tr.AddArg(in).ok());
  FormalArg radius = GoldenFormal("radius", ArgDirection::kNone);
  radius.default_string = "0.5";
  EXPECT_TRUE(tr.AddArg(radius).ok());
  EXPECT_TRUE(tr.AddArg(GoldenFormal("out", ArgDirection::kOut)).ok());
  tr.set_executable("/bin/find-clusters");
  tr.AddArgumentTemplate(ArgumentTemplate{
      "stdin", {TemplatePiece::Ref("in", ArgDirection::kIn)}});
  tr.AddArgumentTemplate(ArgumentTemplate{
      "", {TemplatePiece::Literal("-r "), TemplatePiece::Ref("radius")}});
  tr.SetEnv("PATH", {TemplatePiece::Literal("/usr/bin")});
  tr.SetProfile("hints.pfnHint", {TemplatePiece::Literal("/opt/fc")});
  tr.annotations() = GoldenAttributes();
  return tr;
}

/// A compound transformation with env and profile entries.
Transformation GoldenCompoundTransformation() {
  Transformation tr("cluster-pipeline", Transformation::Kind::kCompound);
  tr.set_version("1.0");
  EXPECT_TRUE(tr.AddArg(GoldenFormal("a", ArgDirection::kInOut)).ok());
  tr.SetEnv("TZ", {TemplatePiece::Literal("UTC")});
  tr.SetProfile("globus.maxwalltime", {TemplatePiece::Literal("60")});
  CompoundCall call;
  call.callee = "vdp://sdss.org/find-clusters";
  call.bindings.emplace_back("in", TemplatePiece::Ref("a"));
  call.bindings.emplace_back("radius", TemplatePiece::Literal("0.25"));
  tr.AddCall(call);
  tr.annotations() = GoldenAttributes();
  return tr;
}

Derivation GoldenDerivation() {
  Derivation dv("find-galaxies", "find-clusters");
  dv.set_transformation_namespace("sdss");
  EXPECT_TRUE(dv.AddArg(ActualArg::String("radius", "0.5")).ok());
  EXPECT_TRUE(dv.AddArg(ActualArg::DatasetRef("in", "galaxy.cat",
                                              ArgDirection::kIn))
                  .ok());
  EXPECT_TRUE(dv.AddArg(ActualArg::DatasetRef("out", "clusters.cat",
                                              ArgDirection::kOut))
                  .ok());
  dv.SetEnvOverride("TZ", "UTC");
  dv.annotations() = GoldenAttributes();
  return dv;
}

Invocation GoldenInvocation() {
  Invocation inv;
  inv.id = "iv-s0-3";
  inv.derivation = "find-galaxies";
  inv.context = ExecutionContext{"fnal", "node7", "irix", "mips"};
  inv.start_time = 100.25;
  inv.duration_s = 12.5;
  inv.cpu_seconds = 11.75;
  inv.peak_memory_bytes = int64_t{1} << 33;
  inv.exit_code = -9;
  inv.succeeded = false;
  inv.consumed_replicas = {"rp-s1-7"};
  inv.produced_replicas = {"rp-s0-8", "rp-s0-9"};
  inv.annotations = GoldenAttributes();
  return inv;
}

std::vector<AttributePredicate> GoldenPredicates() {
  return {AttributePredicate{"ratio", PredicateOp::kGe, AttributeValue(0.05)},
          AttributePredicate{"calibrated", PredicateOp::kEq,
                             AttributeValue(true)},
          AttributePredicate{"label", PredicateOp::kContains,
                             AttributeValue("band")}};
}

CatalogMutation GoldenAnnotateOp() {
  return CatalogMutation::AnnotateAssigned("replica", 4, "checked",
                                           AttributeValue(false));
}

ApplyBatchReq GoldenBatch() {
  ApplyBatchReq batch;
  batch.mutations = {
      CatalogMutation::DefineDataset(GoldenDataset()),
      CatalogMutation::DefineTransformation(GoldenCompoundTransformation()),
      CatalogMutation::DefineDerivation(GoldenDerivation()),
      GoldenAnnotateOp(),
      CatalogMutation::AddReplica(GoldenReplica()),
      CatalogMutation::RecordInvocation(GoldenInvocation(), {4}),
      CatalogMutation::SetDatasetSize("galaxy.cat", -1),
      CatalogMutation::InvalidateReplica("rp-s1-7"),
  };
  batch.options.stop_on_error = true;
  batch.options.idempotency_token = "rcc-00ff-1";
  return batch;
}

/// The request each kind's golden frame carries, in MsgKind order.
std::vector<Request> GoldenRequests() {
  DatasetQuery dq;
  dq.type = GoldenType();
  dq.predicates = GoldenPredicates();
  dq.name_prefix = "gal";
  dq.require_materialized = true;
  dq.only_virtual = true;
  dq.limit = 50;
  TransformationQuery tq;
  tq.consumes = GoldenType();
  tq.produces = DatasetType{"SDSS", "Relation", ""};
  tq.predicates = GoldenPredicates();
  tq.name_prefix = "find";
  tq.limit = 7;
  DerivationQuery vq;
  vq.transformation = "find-clusters";
  vq.reads_dataset = "galaxy.cat";
  vq.writes_dataset = "clusters.cat";
  vq.predicates = GoldenPredicates();
  vq.name_prefix = "find";
  vq.limit = 3;
  return {
      {MsgKind::kHandshake, EmptyReq{}},
      {MsgKind::kVersion, EmptyReq{}},
      {MsgKind::kChangesSince, ChangesSinceReq{0x0123456789ABCDEFull}},
      {MsgKind::kGetDataset, NameReq{"galaxy.cat"}},
      {MsgKind::kGetTransformation, NameReq{"find-clusters"}},
      {MsgKind::kGetDerivation, NameReq{"find-galaxies"}},
      {MsgKind::kHasDataset, NameReq{"clusters.cat"}},
      {MsgKind::kIsMaterialized, NameReq{"galaxy.cat"}},
      {MsgKind::kProducerOf, NameReq{"clusters.cat"}},
      {MsgKind::kInvocationsOf, NameReq{"find-galaxies"}},
      {MsgKind::kFindDatasets, FindDatasetsReq{dq}},
      {MsgKind::kFindTransformations, FindTransformationsReq{tq}},
      {MsgKind::kFindDerivations, FindDerivationsReq{vq}},
      {MsgKind::kAllNames, NameReq{"derivation"}},
      {MsgKind::kTypeConforms,
       TypeConformsReq{GoldenType(), DatasetType{"SDSS", "", ""}}},
      {MsgKind::kBatchGet, BatchGetReq{{{"dataset", "galaxy.cat"},
                                        {"derivation", "find-galaxies"}}}},
      {MsgKind::kGetProvenanceStep, NameReq{"clusters.cat"}},
      {MsgKind::kDefineDataset, DefineDatasetReq{GoldenDataset()}},
      {MsgKind::kDefineTransformation,
       DefineTransformationReq{GoldenCompoundTransformation()}},
      {MsgKind::kDefineDerivation, DefineDerivationReq{GoldenDerivation()}},
      {MsgKind::kAnnotate, AnnotateReq{"dataset", "galaxy.cat", "ratio",
                                       AttributeValue(2.5)}},
      {MsgKind::kAddReplica, AddReplicaReq{GoldenReplica()}},
      {MsgKind::kRecordInvocation, RecordInvocationReq{GoldenInvocation()}},
      {MsgKind::kSetDatasetSize,
       SetDatasetSizeReq{"galaxy.cat", int64_t{1} << 40}},
      {MsgKind::kInvalidateReplica, NameReq{"rp-s1-7"}},
      {MsgKind::kApplyBatch, GoldenBatch()},
      {MsgKind::kReplicasOf, NameReq{"galaxy.cat"}},
      {MsgKind::kFindEquivalentDerivation,
       DefineDerivationReq{GoldenDerivation()}},
  };
}

/// The OK response each kind's golden frame carries, in MsgKind order.
std::vector<Response> GoldenResponses() {
  auto ok = [](MsgKind kind, auto body) {
    Response response;
    response.kind = kind;
    response.body = std::move(body);
    return response;
  };
  ObjectRecord hit;
  hit.kind = "dataset";
  hit.name = "galaxy.cat";
  hit.dataset = GoldenDataset();
  hit.materialized = true;
  ObjectRecord tr_hit;
  tr_hit.kind = "transformation";
  tr_hit.name = "find-clusters";
  tr_hit.transformation = GoldenSimpleTransformation();
  ObjectRecord dv_hit;
  dv_hit.kind = "derivation";
  dv_hit.name = "find-galaxies";
  dv_hit.derivation = GoldenDerivation();
  ObjectRecord miss;
  miss.kind = "derivation";
  miss.name = "nope";
  miss.status = Status::NotFound("derivation 'nope' not defined");
  ProvenanceStep step;
  step.dataset = "clusters.cat";
  step.exists = true;
  step.producer = "find-galaxies";
  step.derivation = GoldenDerivation();
  step.invocations = {GoldenInvocation()};
  BatchResult result;
  result.statuses = {Status::OK(), Status::AlreadyExists("galaxy.cat"),
                     Status::FailedPrecondition("batch aborted")};
  result.assigned_ids = {"", "rp-s0-8", ""};
  result.applied = 1;
  result.version = 0xFEDCBA9876543210ull;
  result.first_error = Status::AlreadyExists("galaxy.cat");
  const NameList names = NameList::FromStrings({"clusters.cat", "galaxy.cat"});
  return {
      ok(MsgKind::kHandshake, HandshakeResp{"sdss.org", true}),
      ok(MsgKind::kVersion, VersionResp{0x8000000000000001ull}),
      ok(MsgKind::kChangesSince,
         ChangesResp{{CatalogChange{41, 'U', "dataset", "galaxy.cat"},
                      CatalogChange{42, 'D', "invocation", "iv-s0-3"}}}),
      ok(MsgKind::kGetDataset, DatasetResp{GoldenDataset()}),
      ok(MsgKind::kGetTransformation,
         TransformationResp{GoldenSimpleTransformation()}),
      ok(MsgKind::kGetDerivation, DerivationResp{GoldenDerivation()}),
      ok(MsgKind::kHasDataset, BoolResp{true}),
      ok(MsgKind::kIsMaterialized, BoolResp{true}),
      ok(MsgKind::kProducerOf, StringResp{"find-galaxies"}),
      ok(MsgKind::kInvocationsOf, InvocationsResp{{GoldenInvocation()}}),
      ok(MsgKind::kFindDatasets, NamesResp{names}),
      ok(MsgKind::kFindTransformations,
         NamesResp{NameList::FromStrings({"find-clusters"})}),
      ok(MsgKind::kFindDerivations,
         NamesResp{NameList::FromStrings({"find-galaxies", ""})}),
      ok(MsgKind::kAllNames, NamesResp{names}),
      ok(MsgKind::kTypeConforms, BoolResp{true}),
      ok(MsgKind::kBatchGet, RecordsResp{{hit, tr_hit, dv_hit, miss}}),
      ok(MsgKind::kGetProvenanceStep, StepResp{step}),
      ok(MsgKind::kDefineDataset, std::monostate{}),
      ok(MsgKind::kDefineTransformation, std::monostate{}),
      ok(MsgKind::kDefineDerivation, std::monostate{}),
      ok(MsgKind::kAnnotate, std::monostate{}),
      ok(MsgKind::kAddReplica, StringResp{"rp-s0-8"}),
      ok(MsgKind::kRecordInvocation, StringResp{"iv-s0-4"}),
      ok(MsgKind::kSetDatasetSize, std::monostate{}),
      ok(MsgKind::kInvalidateReplica, std::monostate{}),
      ok(MsgKind::kApplyBatch, BatchResultResp{result}),
      ok(MsgKind::kReplicasOf, ReplicasResp{{GoldenReplica()}}),
      ok(MsgKind::kFindEquivalentDerivation, StringResp{"find-galaxies"}),
  };
}

Response GoldenErrorResponse() {
  Response response;
  response.kind = MsgKind::kGetDataset;
  response.status = Status::NotFound("dataset 'galaxy.cat' not defined");
  return response;
}

/// Request ids of the golden frames: request i and its response share
/// id 1000 + i; the error response is id 7.
uint64_t GoldenId(size_t i) { return 1000 + i; }
constexpr uint64_t kGoldenErrorId = 7;

struct GoldenFrame {
  const char* label;
  const char* hex;
};

// clang-format off
constexpr GoldenFrame kGoldenFrames[] = {
    {"request Handshake",
     "5644475701000100e803000000000000000000009775922f"},
    {"request Version",
     "5644475701000200e90300000000000000000000231c56c8"},
    {"request ChangesSince",
     "5644475701000300ea0300000000000008000000efcdab89674523014c66832e"},
    {"request GetDataset",
     "5644475701000400eb030000000000000e0000000a00000067616c6178792e63"
     "6174e1b324bd"},
    {"request GetTransformation",
     "5644475701000500ec03000000000000110000000d00000066696e642d636c75"
     "73746572735efd2b49"},
    {"request GetDerivation",
     "5644475701000600ed03000000000000110000000d00000066696e642d67616c"
     "6178696573c8272fa4"},
    {"request HasDataset",
     "5644475701000700ee03000000000000100000000c000000636c757374657273"
     "2e6361749c324a31"},
    {"request IsMaterialized",
     "5644475701000800ef030000000000000e0000000a00000067616c6178792e63"
     "6174a339c89c"},
    {"request ProducerOf",
     "5644475701000900f003000000000000100000000c000000636c757374657273"
     "2e636174db513293"},
    {"request InvocationsOf",
     "5644475701000a00f103000000000000110000000d00000066696e642d67616c"
     "617869657372e8f597"},
    {"request FindDatasets",
     "5644475701000b00f20300000000000068000000010400000053445353070000"
     "0046696c6573657404000000464954530300000005000000726174696f05649a"
     "9999999999a93f0a00000063616c69627261746564006201050000006c616265"
     "6c06730400000062616e640300000067616c010132000000000000002c2c3d0b"},
    {"request FindTransformations",
     "5644475701000c00f30300000000000080000000010400000053445353070000"
     "0046696c6573657404000000464954530104000000534453530800000052656c"
     "6174696f6e000000000300000005000000726174696f05649a9999999999a93f"
     "0a00000063616c69627261746564006201050000006c6162656c067304000000"
     "62616e640400000066696e640700000000000000aed35df7"},
    {"request FindDerivations",
     "5644475701000d00f4030000000000007a0000000d00000066696e642d636c75"
     "73746572730a00000067616c6178792e6361740c000000636c7573746572732e"
     "6361740300000005000000726174696f05649a9999999999a93f0a0000006361"
     "6c69627261746564006201050000006c6162656c06730400000062616e640400"
     "000066696e64030000000000000067a13145"},
    {"request AllNames",
     "5644475701000e00f5030000000000000e0000000a0000006465726976617469"
     "6f6ee08e1c3f"},
    {"request TypeConforms",
     "5644475701000f00f6030000000000002b000000040000005344535307000000"
     "46696c6573657404000000464954530400000053445353000000000000000060"
     "82564a"},
    {"request BatchGet",
     "5644475701001000f7030000000000003c000000020000000700000064617461"
     "7365740a00000067616c6178792e6361740a00000064657269766174696f6e0d"
     "00000066696e642d67616c6178696573dc147aa0"},
    {"request GetProvenanceStep",
     "5644475701001100f803000000000000100000000c000000636c757374657273"
     "2e636174309b07d6"},
    {"request DefineDataset",
     "5644475701001200f903000000000000b40000000a00000067616c6178792e63"
     "617404000000534453530700000046696c657365740400000046495453080000"
     "0073716c2d726f777301000000050000007461626c65730800000067616c6178"
     "69657300001000000000000d00000066696e642d67616c617869657304000000"
     "0a00000063616c69627261746564620105000000636f756e7469d6ffffffffff"
     "ffff050000006c6162656c73060000007a2d62616e6405000000726174696f64"
     "9a9999999999b93f14eaa87e"},
    {"request DefineTransformation",
     "5644475701001300fa030000000000000601000010000000636c75737465722d"
     "706970656c696e650103000000312e3001000000010000006102000000000000"
     "00000000000000000100000002000000545a0100000000030000005554430001"
     "00000012000000676c6f6275732e6d617877616c6c74696d6501000000000200"
     "0000363000010000001c0000007664703a2f2f736473732e6f72672f66696e64"
     "2d636c7573746572730200000002000000696e01010000006100060000007261"
     "646975730004000000302e323500040000000a00000063616c69627261746564"
     "620105000000636f756e7469d6ffffffffffffff050000006c6162656c730600"
     "00007a2d62616e6405000000726174696f649a9999999999b93f0e580147"},
    {"request DefineDerivation",
     "5644475701001400fb03000000000000d20000000d00000066696e642d67616c"
     "617869657304000000736473730d00000066696e642d636c7573746572730300"
     "0000060000007261646975730103000000302e35000002000000696e00010a00"
     "000067616c6178792e6361740100030000006f757400010c000000636c757374"
     "6572732e63617401010100000002000000545a03000000555443040000000a00"
     "000063616c69627261746564620105000000636f756e7469d6ffffffffffffff"
     "050000006c6162656c73060000007a2d62616e6405000000726174696f649a99"
     "99999999b93f722d0005"},
    {"request Annotate",
     "5644475701001500fc030000000000002b00000007000000646174617365740a"
     "00000067616c6178792e63617405000000726174696f64000000000000044027"
     "e16318"},
    {"request AddReplica",
     "5644475701001600fd03000000000000990000000700000072702d73312d370a"
     "00000067616c6178792e63617404000000666e616c0300000073653110000000"
     "2f646174612f67616c6178792e636174000010000000000000000000004a9340"
     "00040000000a00000063616c69627261746564620105000000636f756e7469d6"
     "ffffffffffffff050000006c6162656c73060000007a2d62616e640500000072"
     "6174696f649a9999999999b93f07e48aaa"},
    {"request RecordInvocation",
     "5644475701001700fe03000000000000d70000000700000069762d73302d330d"
     "00000066696e642d67616c617869657304000000666e616c050000006e6f6465"
     "370400000069726978040000006d697073000000000010594000000000000029"
     "4000000000008027400000000002000000f7ffffff0001000000070000007270"
     "2d73312d37020000000700000072702d73302d380700000072702d73302d3904"
     "0000000a00000063616c69627261746564620105000000636f756e7469d6ffff"
     "ffffffffff050000006c6162656c73060000007a2d62616e6405000000726174"
     "696f649a9999999999b93f5264042b"},
    {"request SetDatasetSize",
     "5644475701001800ff03000000000000160000000a00000067616c6178792e63"
     "6174000000000001000043ee18af"},
    {"request InvalidateReplica",
     "564447570100190000040000000000000b0000000700000072702d73312d37ec"
     "04c628"},
    {"request ApplyBatch",
     "5644475701001a0001040000000000006904000008000000000a00000067616c"
     "6178792e63617404000000534453530700000046696c65736574040000004649"
     "54530800000073716c2d726f777301000000050000007461626c657308000000"
     "67616c617869657300001000000000000d00000066696e642d67616c61786965"
     "73040000000a00000063616c69627261746564620105000000636f756e7469d6"
     "ffffffffffffff050000006c6162656c73060000007a2d62616e640500000072"
     "6174696f649a9999999999b93f0110000000636c75737465722d706970656c69"
     "6e650103000000312e3001000000010000006102000000000000000000000000"
     "00000100000002000000545a0100000000030000005554430001000000120000"
     "00676c6f6275732e6d617877616c6c74696d6501000000000200000036300001"
     "0000001c0000007664703a2f2f736473732e6f72672f66696e642d636c757374"
     "6572730200000002000000696e01010000006100060000007261646975730004"
     "000000302e323500040000000a00000063616c69627261746564620105000000"
     "636f756e7469d6ffffffffffffff050000006c6162656c73060000007a2d6261"
     "6e6405000000726174696f649a9999999999b93f020d00000066696e642d6761"
     "6c617869657304000000736473730d00000066696e642d636c75737465727303"
     "000000060000007261646975730103000000302e35000002000000696e00010a"
     "00000067616c6178792e6361740100030000006f757400010c000000636c7573"
     "746572732e63617401010100000002000000545a03000000555443040000000a"
     "00000063616c69627261746564620105000000636f756e7469d6ffffffffffff"
     "ff050000006c6162656c73060000007a2d62616e6405000000726174696f649a"
     "9999999999b93f03070000007265706c6963610000000007000000636865636b"
     "65646200010400000000000000040700000072702d73312d370a00000067616c"
     "6178792e63617404000000666e616c03000000736531100000002f646174612f"
     "67616c6178792e636174000010000000000000000000004a934000040000000a"
     "00000063616c69627261746564620105000000636f756e7469d6ffffffffffff"
     "ff050000006c6162656c73060000007a2d62616e6405000000726174696f649a"
     "9999999999b93f050700000069762d73302d330d00000066696e642d67616c61"
     "7869657304000000666e616c050000006e6f6465370400000069726978040000"
     "006d697073000000000010594000000000000029400000000000802740000000"
     "0002000000f7ffffff00010000000700000072702d73312d3702000000070000"
     "0072702d73302d380700000072702d73302d39040000000a00000063616c6962"
     "7261746564620105000000636f756e7469d6ffffffffffffff050000006c6162"
     "656c73060000007a2d62616e6405000000726174696f649a9999999999b93f01"
     "0000000400000000000000060a00000067616c6178792e636174ffffffffffff"
     "ffff070700000072702d73312d37010a0000007263632d303066662d31e55e2a"
     "49"},
    {"request ReplicasOf",
     "5644475701001b0002040000000000000e0000000a00000067616c6178792e63"
     "61749c1173ca"},
    {"request FindEquivalentDerivation",
     "5644475701001c000304000000000000d20000000d00000066696e642d67616c"
     "617869657304000000736473730d00000066696e642d636c7573746572730300"
     "0000060000007261646975730103000000302e35000002000000696e00010a00"
     "000067616c6178792e6361740100030000006f757400010c000000636c757374"
     "6572732e63617401010100000002000000545a03000000555443040000000a00"
     "000063616c69627261746564620105000000636f756e7469d6ffffffffffffff"
     "050000006c6162656c73060000007a2d62616e6405000000726174696f649a99"
     "99999999b93f402cc805"},
    {"response Handshake",
     "5644475701010100e80300000000000012000000000000000008000000736473"
     "732e6f7267016a754546"},
    {"response Version",
     "5644475701010200e9030000000000000d000000000000000001000000000000"
     "804745a8c1"},
    {"response ChangesSince",
     "5644475701010300ea030000000000004d000000000000000002000000290000"
     "00000000005507000000646174617365740a00000067616c6178792e6361742a"
     "00000000000000440a000000696e766f636174696f6e0700000069762d73302d"
     "33af31c54f"},
    {"response GetDataset",
     "5644475701010400eb03000000000000b900000000000000000a00000067616c"
     "6178792e63617404000000534453530700000046696c65736574040000004649"
     "54530800000073716c2d726f777301000000050000007461626c657308000000"
     "67616c617869657300001000000000000d00000066696e642d67616c61786965"
     "73040000000a00000063616c69627261746564620105000000636f756e7469d6"
     "ffffffffffffff050000006c6162656c73060000007a2d62616e640500000072"
     "6174696f649a9999999999b93f5f376942"},
    {"response GetTransformation",
     "5644475701010500ec030000000000005f01000000000000000d00000066696e"
     "642d636c7573746572730003000000322e310300000002000000696e00010000"
     "0004000000534453530700000046696c65736574040000004649545300010a00"
     "000067616c6178792e6361740600000072616469757303000000000103000000"
     "302e3500030000006f757401000000000000120000002f62696e2f66696e642d"
     "636c7573746572730200000005000000737464696e010000000102000000696e"
     "0100000000000200000000030000002d72200001060000007261646975730001"
     "00000004000000504154480100000000080000002f7573722f62696e00010000"
     "000d00000068696e74732e70666e48696e740100000000070000002f6f70742f"
     "66630000000000040000000a00000063616c6962726174656462010500000063"
     "6f756e7469d6ffffffffffffff050000006c6162656c73060000007a2d62616e"
     "6405000000726174696f649a9999999999b93f8ebf3ba8"},
    {"response GetDerivation",
     "5644475701010600ed03000000000000d700000000000000000d00000066696e"
     "642d67616c617869657304000000736473730d00000066696e642d636c757374"
     "65727303000000060000007261646975730103000000302e3500000200000069"
     "6e00010a00000067616c6178792e6361740100030000006f757400010c000000"
     "636c7573746572732e63617401010100000002000000545a0300000055544304"
     "0000000a00000063616c69627261746564620105000000636f756e7469d6ffff"
     "ffffffffff050000006c6162656c73060000007a2d62616e6405000000726174"
     "696f649a9999999999b93fff56595e"},
    {"response HasDataset",
     "5644475701010700ee03000000000000060000000000000000010a2257cb"},
    {"response IsMaterialized",
     "5644475701010800ef0300000000000006000000000000000001cae49a58"},
    {"response ProducerOf",
     "5644475701010900f0030000000000001600000000000000000d00000066696e"
     "642d67616c617869657364862ca1"},
    {"response InvocationsOf",
     "5644475701010a00f103000000000000e0000000000000000001000000070000"
     "0069762d73302d330d00000066696e642d67616c617869657304000000666e61"
     "6c050000006e6f6465370400000069726978040000006d697073000000000010"
     "5940000000000000294000000000008027400000000002000000f7ffffff0001"
     "0000000700000072702d73312d37020000000700000072702d73302d38070000"
     "0072702d73302d39040000000a00000063616c69627261746564620105000000"
     "636f756e7469d6ffffffffffffff050000006c6162656c73060000007a2d6261"
     "6e6405000000726174696f649a9999999999b93f51f09245"},
    {"response FindDatasets",
     "5644475701010b00f203000000000000270000000000000000020000000c0000"
     "00636c7573746572732e6361740a00000067616c6178792e63617475513415"},
    {"response FindTransformations",
     "5644475701010c00f3030000000000001a0000000000000000010000000d0000"
     "0066696e642d636c757374657273d44f6539"},
    {"response FindDerivations",
     "5644475701010d00f4030000000000001e0000000000000000020000000d0000"
     "0066696e642d67616c617869657300000000918f7af7"},
    {"response AllNames",
     "5644475701010e00f503000000000000270000000000000000020000000c0000"
     "00636c7573746572732e6361740a00000067616c6178792e6361744bf6d450"},
    {"response TypeConforms",
     "5644475701010f00f60300000000000006000000000000000001ac067e6f"},
    {"response BatchGet",
     "5644475701011000f7030000000000009b030000000000000004000000070000"
     "00646174617365740a00000067616c6178792e6361740000000000010a000000"
     "67616c6178792e63617404000000534453530700000046696c65736574040000"
     "00464954530800000073716c2d726f777301000000050000007461626c657308"
     "00000067616c617869657300001000000000000d00000066696e642d67616c61"
     "78696573040000000a00000063616c69627261746564620105000000636f756e"
     "7469d6ffffffffffffff050000006c6162656c73060000007a2d62616e640500"
     "0000726174696f649a9999999999b93f0000010e0000007472616e73666f726d"
     "6174696f6e0d00000066696e642d636c757374657273000000000000010d0000"
     "0066696e642d636c7573746572730003000000322e310300000002000000696e"
     "000100000004000000534453530700000046696c657365740400000046495453"
     "00010a00000067616c6178792e63617406000000726164697573030000000001"
     "03000000302e3500030000006f757401000000000000120000002f62696e2f66"
     "696e642d636c7573746572730200000005000000737464696e01000000010200"
     "0000696e0100000000000200000000030000002d722000010600000072616469"
     "7573000100000004000000504154480100000000080000002f7573722f62696e"
     "00010000000d00000068696e74732e70666e48696e740100000000070000002f"
     "6f70742f66630000000000040000000a00000063616c69627261746564620105"
     "000000636f756e7469d6ffffffffffffff050000006c6162656c73060000007a"
     "2d62616e6405000000726174696f649a9999999999b93f00000a000000646572"
     "69766174696f6e0d00000066696e642d67616c61786965730000000000000001"
     "0d00000066696e642d67616c617869657304000000736473730d00000066696e"
     "642d636c75737465727303000000060000007261646975730103000000302e35"
     "000002000000696e00010a00000067616c6178792e6361740100030000006f75"
     "7400010c000000636c7573746572732e63617401010100000002000000545a03"
     "000000555443040000000a00000063616c69627261746564620105000000636f"
     "756e7469d6ffffffffffffff050000006c6162656c73060000007a2d62616e64"
     "05000000726174696f649a9999999999b93f000a00000064657269766174696f"
     "6e040000006e6f7065021d00000064657269766174696f6e20276e6f70652720"
     "6e6f7420646566696e6564000000007a57ba97"},
    {"response GetProvenanceStep",
     "5644475701011100f803000000000000d501000000000000000c000000636c75"
     "73746572732e636174010d00000066696e642d67616c6178696573010d000000"
     "66696e642d67616c617869657304000000736473730d00000066696e642d636c"
     "75737465727303000000060000007261646975730103000000302e3500000200"
     "0000696e00010a00000067616c6178792e6361740100030000006f757400010c"
     "000000636c7573746572732e63617401010100000002000000545a0300000055"
     "5443040000000a00000063616c69627261746564620105000000636f756e7469"
     "d6ffffffffffffff050000006c6162656c73060000007a2d62616e6405000000"
     "726174696f649a9999999999b93f010000000700000069762d73302d330d0000"
     "0066696e642d67616c617869657304000000666e616c050000006e6f64653704"
     "00000069726978040000006d6970730000000000105940000000000000294000"
     "000000008027400000000002000000f7ffffff00010000000700000072702d73"
     "312d37020000000700000072702d73302d380700000072702d73302d39040000"
     "000a00000063616c69627261746564620105000000636f756e7469d6ffffffff"
     "ffffff050000006c6162656c73060000007a2d62616e6405000000726174696f"
     "649a9999999999b93f78504b1e"},
    {"response DefineDataset",
     "5644475701011200f903000000000000050000000000000000d4997d1a"},
    {"response DefineTransformation",
     "5644475701011300fa030000000000000500000000000000000842059e"},
    {"response DefineDerivation",
     "5644475701011400fb0300000000000005000000000000000000029d53"},
    {"response Annotate",
     "5644475701011500fc0300000000000005000000000000000013feeda4"},
    {"response AddReplica",
     "5644475701011600fd030000000000001000000000000000000700000072702d"
     "73302d389fb9460c"},
    {"response RecordInvocation",
     "5644475701011700fe030000000000001000000000000000000700000069762d"
     "73302d34b23ace88"},
    {"response SetDatasetSize",
     "5644475701011800ff03000000000000050000000000000000a8355cc0"},
    {"response InvalidateReplica",
     "56444757010119000004000000000000050000000000000000cb7bfdf2"},
    {"response ApplyBatch",
     "5644475701011a00010400000000000065000000000000000003000000000000"
     "0000030a00000067616c6178792e636174090d00000062617463682061626f72"
     "74656403000000000000000700000072702d73302d3800000000010000000000"
     "00001032547698badcfe030a00000067616c6178792e636174ad1dcbf2"},
    {"response ReplicasOf",
     "5644475701011b000204000000000000a2000000000000000001000000070000"
     "0072702d73312d370a00000067616c6178792e63617404000000666e616c0300"
     "0000736531100000002f646174612f67616c6178792e63617400001000000000"
     "0000000000004a934000040000000a00000063616c6962726174656462010500"
     "0000636f756e7469d6ffffffffffffff050000006c6162656c73060000007a2d"
     "62616e6405000000726174696f649a9999999999b93f40a4d272"},
    {"response FindEquivalentDerivation",
     "5644475701011c0003040000000000001600000000000000000d00000066696e"
     "642d67616c617869657389eed50e"},
    {"error GetDataset",
     "5644475701010400070000000000000025000000022000000064617461736574"
     "202767616c6178792e63617427206e6f7420646566696e65645333f1fc"},
};
// clang-format on

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

/// The golden corpus re-encoded from the fixed bodies, keyed by label:
/// "request <Kind>", "response <Kind>", "error <Kind>".
std::map<std::string, std::string> EncodeGoldenCorpus() {
  std::map<std::string, std::string> frames;
  const std::vector<Request> requests = GoldenRequests();
  const std::vector<Response> responses = GoldenResponses();
  for (size_t i = 0; i < requests.size(); ++i) {
    frames["request " + std::string(MsgKindName(requests[i].kind))] =
        EncodeRequestFrame(GoldenId(i), requests[i]);
  }
  for (size_t i = 0; i < responses.size(); ++i) {
    frames["response " + std::string(MsgKindName(responses[i].kind))] =
        EncodeResponseFrame(GoldenId(i), responses[i]);
  }
  const Response error = GoldenErrorResponse();
  frames["error " + std::string(MsgKindName(error.kind))] =
      EncodeResponseFrame(kGoldenErrorId, error);
  return frames;
}

/// Decodes one complete frame and encodes the result again.
Result<std::string> Reencode(std::string_view frame) {
  VDG_ASSIGN_OR_RETURN(Frame envelope, DecodeFrame(frame));
  if (envelope.is_response) {
    VDG_ASSIGN_OR_RETURN(Response response,
                         DecodeResponse(envelope.kind, envelope.payload));
    return EncodeResponseFrame(envelope.request_id, response);
  }
  VDG_ASSIGN_OR_RETURN(Request request,
                       DecodeRequest(envelope.kind, envelope.payload));
  return EncodeRequestFrame(envelope.request_id, request);
}

TEST(WireGolden, CorpusCoversEveryKind) {
  const std::vector<Request> requests = GoldenRequests();
  const std::vector<Response> responses = GoldenResponses();
  ASSERT_EQ(requests.size(), 28u);
  ASSERT_EQ(responses.size(), 28u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(requests[i].kind), i + 1);
    EXPECT_EQ(static_cast<size_t>(responses[i].kind), i + 1);
  }
  EXPECT_EQ(std::size(kGoldenFrames), 57u);
  EXPECT_EQ(kCodecVersion, 1);
}

TEST(WireGolden, EncodeReproducesTheGoldenBytes) {
  const std::map<std::string, std::string> encoded = EncodeGoldenCorpus();
  std::map<std::string, std::string> golden;
  for (const GoldenFrame& frame : kGoldenFrames) {
    golden[frame.label] = frame.hex;
  }
  for (const auto& [label, frame] : encoded) {
    auto it = golden.find(label);
    ASSERT_NE(it, golden.end()) << "no golden frame for " << label;
    EXPECT_EQ(Hex(frame), it->second) << label;
  }
  EXPECT_EQ(encoded.size(), golden.size());
}

TEST(WireGolden, GoldenFramesDecodeAndReencodeExactly) {
  for (const GoldenFrame& golden : kGoldenFrames) {
    const std::string frame = Unhex(golden.hex);
    Result<size_t> size = FrameSize(frame);
    ASSERT_TRUE(size.ok()) << golden.label << ": " << size.status();
    EXPECT_EQ(*size, frame.size()) << golden.label;
    Result<std::string> again = Reencode(frame);
    ASSERT_TRUE(again.ok()) << golden.label << ": " << again.status();
    EXPECT_EQ(Hex(*again), golden.hex) << golden.label;
  }
}

TEST(WireGolden, ApplyBatchDecodesEachDefinePayloadOnce) {
  // The decoder allocates each define payload of the golden ApplyBatch
  // frame once and hands it to its mutation: nothing else holds a
  // reference.
  std::string frame;
  for (const GoldenFrame& golden : kGoldenFrames) {
    if (std::string_view(golden.label) == "request ApplyBatch") {
      frame = Unhex(golden.hex);
    }
  }
  Result<Frame> envelope = DecodeFrame(frame);
  ASSERT_TRUE(envelope.ok()) << envelope.status();
  Result<Request> decoded =
      DecodeRequest(MsgKind::kApplyBatch, envelope->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto& got = std::get<ApplyBatchReq>(decoded->body).mutations;
  ASSERT_EQ(got.size(), GoldenBatch().mutations.size());
  const auto& ds = std::get<CatalogMutation::DefineDatasetOp>(got[0].op);
  const auto& tr = std::get<CatalogMutation::DefineTransformationOp>(got[1].op);
  const auto& dv = std::get<CatalogMutation::DefineDerivationOp>(got[2].op);
  EXPECT_EQ(ds.dataset.use_count(), 1);
  EXPECT_EQ(tr.transformation.use_count(), 1);
  EXPECT_EQ(dv.derivation.use_count(), 1);
  ExpectEq(*ds.dataset, GoldenDataset());
  ExpectEq(*tr.transformation, GoldenCompoundTransformation());
  ExpectEq(*dv.derivation, GoldenDerivation());
}

// ------------------------- payload fuzzing ---------------------------

/// Rewrites a frame's declared payload size and trailing CRC to match
/// its (possibly damaged) payload, so the damage gets past the
/// envelope checks and reaches the payload decoders.
std::string Reseal(std::string_view header, std::string_view payload) {
  std::string frame(header.substr(0, kFrameHeaderBytes));
  const uint32_t size = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) frame[16 + i] = static_cast<char>(size >> (8 * i));
  frame.append(payload);
  const uint32_t crc = Crc32(frame);
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(crc >> (8 * i)));
  return frame;
}

/// One seeded mutation of `payload`: bit flips, a truncation, an
/// inserted byte, or a length/count field inflated past the input.
std::string Damage(Rng& rng, std::string payload) {
  switch (payload.empty() ? 2 : rng.UniformInt(0, 3)) {
    case 0: {
      const int flips = static_cast<int>(rng.UniformInt(1, 3));
      for (int i = 0; i < flips; ++i) {
        payload[rng.Index(payload.size())] ^=
            static_cast<char>(1 << rng.Index(8));
      }
      break;
    }
    case 1:
      payload.resize(rng.Index(payload.size()));
      break;
    case 2:
      payload.insert(payload.begin() + rng.Index(payload.size() + 1),
                     static_cast<char>(rng.UniformInt(0, 255)));
      break;
    default: {
      if (payload.size() < 4) break;
      const uint32_t inflated[] = {static_cast<uint32_t>(payload.size()),
                                   static_cast<uint32_t>(payload.size()) + 1,
                                   0x7FFFFFFFu, 0xFFFFFFFFu};
      const uint32_t value = inflated[rng.Index(std::size(inflated))];
      const size_t at = rng.Index(payload.size() - 3);
      for (int i = 0; i < 4; ++i) {
        payload[at + i] = static_cast<char>(value >> (8 * i));
      }
      break;
    }
  }
  return payload;
}

TEST(WireFuzz, ResealedPayloadDamageNeverEscapesTheDecoders) {
  Rng rng(20031);
  constexpr int kMutationsPerFrame = 500;
  size_t decoded_ok = 0;
  size_t rejected = 0;
  for (const GoldenFrame& golden : kGoldenFrames) {
    const std::string frame = Unhex(golden.hex);
    const std::string_view payload =
        std::string_view(frame).substr(
            kFrameHeaderBytes,
            frame.size() - kFrameHeaderBytes - kFrameTrailerBytes);
    for (int m = 0; m < kMutationsPerFrame; ++m) {
      const std::string damaged =
          Reseal(frame, Damage(rng, std::string(payload)));
      Result<Frame> envelope = DecodeFrame(damaged);
      ASSERT_TRUE(envelope.ok()) << golden.label << ": " << envelope.status();
      Result<std::string> once = Reencode(damaged);
      if (!once.ok()) {
        EXPECT_TRUE(once.status().IsParseError() ||
                    once.status().IsResourceExhausted())
            << golden.label << ": " << once.status();
        ++rejected;
        continue;
      }
      ++decoded_ok;
      // Whatever the decoder accepted has one canonical encoding: it
      // decodes again and encodes to the same bytes.
      Result<std::string> twice = Reencode(*once);
      ASSERT_TRUE(twice.ok()) << golden.label << ": " << twice.status();
      EXPECT_EQ(Hex(*twice), Hex(*once)) << golden.label;
    }
  }
  // Both outcomes occur: the corpus reaches past the first field.
  EXPECT_GT(decoded_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace wire
}  // namespace vdg
