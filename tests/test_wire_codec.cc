// Wire-codec tests: randomized round-trip property tests over every
// request and response kind, frame-integrity checks (magic, version,
// CRC, declared size), and adversarial byte-mangling — truncation,
// bit flips, oversized declared payloads — which must always produce
// a typed error, never a crash or an accepted corrupt message.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "catalog/wire.h"
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
        MsgKind::kGetProvenanceStep, MsgKind::kInvalidateReplica}) {
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
  // relies on when a socket delivers partial reads.
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
  for (uint8_t raw = 1; raw <= 26; ++raw) {
    EXPECT_TRUE(IsValidMsgKind(raw));
    EXPECT_FALSE(MsgKindName(static_cast<MsgKind>(raw)).empty());
  }
  EXPECT_FALSE(IsValidMsgKind(0));
  EXPECT_FALSE(IsValidMsgKind(27));
  EXPECT_FALSE(IsValidMsgKind(255));
}

}  // namespace
}  // namespace wire
}  // namespace vdg
