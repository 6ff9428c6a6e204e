#include "catalog/objcodec.h"

#include <cmath>
#include <map>
#include <utility>

namespace vdg {
namespace objcodec {

// -----------------------------------------------------------------------
// Primitives
// -----------------------------------------------------------------------

void Reader::Fail(std::string reason) {
  if (!ok_) return;
  ok_ = false;
  status_ = Status::ParseError(std::move(reason));
}

Status Reader::Finish() const {
  if (!ok_) return status_;
  if (!AtEnd()) return Status::ParseError("trailing bytes after message");
  return Status::OK();
}

void PutStringVec(Writer& w, const std::vector<std::string>& v) {
  w.PutCount(v.size());
  for (const auto& s : v) w.PutString(s);
}

std::vector<std::string> ReadStringVec(Reader& r) {
  size_t n = r.ReadCount();
  std::vector<std::string> v;
  v.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) v.push_back(r.ReadString());
  return v;
}

// -----------------------------------------------------------------------
// Attributes
// -----------------------------------------------------------------------

void PutAttributeValue(Writer& w, const AttributeValue& v) {
  w.PutU8(static_cast<uint8_t>(v.TypeTag()));
  if (v.is_string()) {
    w.PutString(v.AsString());
  } else if (v.is_int()) {
    w.PutI64(v.AsInt());
  } else if (v.is_double()) {
    w.PutDouble(v.AsDouble());
  } else {
    w.PutBool(v.AsBool());
  }
}

AttributeValue ReadAttributeValue(Reader& r) {
  switch (r.ReadU8()) {
    case 's':
      return AttributeValue(r.ReadString());
    case 'i':
      return AttributeValue(r.ReadI64());
    case 'd': {
      double d = r.ReadDouble();
      if (!std::isfinite(d)) r.Fail("non-finite double attribute");
      return AttributeValue(d);
    }
    case 'b':
      return AttributeValue(r.ReadBool());
    default:
      r.Fail("unknown attribute value tag");
      return AttributeValue();
  }
}

void PutAttributeSet(Writer& w, const AttributeSet& attrs) {
  w.PutCount(attrs.size());
  for (const auto& [key, value] : attrs) {
    w.PutString(key);
    PutAttributeValue(w, value);
  }
}

AttributeSet ReadAttributeSet(Reader& r) {
  size_t n = r.ReadCount();
  AttributeSet attrs;
  for (size_t i = 0; i < n && r.ok(); ++i) {
    std::string_view key = r.ReadStringView();
    AttributeValue value = ReadAttributeValue(r);
    if (r.ok()) attrs.Set(key, std::move(value));
  }
  return attrs;
}

// -----------------------------------------------------------------------
// Schema objects, in dependency order
// -----------------------------------------------------------------------

namespace {

void PutOptionalString(Writer& w, const std::optional<std::string>& opt) {
  PutOptional(w, opt,
              [](Writer& w, const std::string& s) { w.PutString(s); });
}

std::optional<std::string> ReadOptionalString(Reader& r) {
  return ReadOptional(r, [](Reader& r) { return r.ReadString(); });
}

void PutDirection(Writer& w, ArgDirection dir) {
  w.PutU8(static_cast<uint8_t>(dir));
}

ArgDirection ReadDirection(Reader& r) {
  uint8_t v = r.ReadU8();
  if (v > static_cast<uint8_t>(ArgDirection::kNone)) {
    r.Fail("argument direction out of range");
  }
  return static_cast<ArgDirection>(v);
}

void PutOptionalDirection(Writer& w, const std::optional<ArgDirection>& opt) {
  PutOptional(w, opt, PutDirection);
}

std::optional<ArgDirection> ReadOptionalDirection(Reader& r) {
  return ReadOptional(r, ReadDirection);
}

void PutFormalArg(Writer& w, const FormalArg& a) {
  w.PutString(a.name);
  PutDirection(w, a.direction);
  w.PutCount(a.types.size());
  for (const auto& t : a.types) PutDatasetType(w, t);
  PutOptionalString(w, a.default_string);
  PutOptionalString(w, a.default_dataset);
}

FormalArg ReadFormalArg(Reader& r) {
  FormalArg a;
  a.name = r.ReadString();
  a.direction = ReadDirection(r);
  size_t n = r.ReadCount();
  a.types.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) {
    a.types.push_back(ReadDatasetType(r));
  }
  a.default_string = ReadOptionalString(r);
  a.default_dataset = ReadOptionalString(r);
  return a;
}

void PutTemplatePiece(Writer& w, const TemplatePiece& p) {
  w.PutU8(static_cast<uint8_t>(p.kind));
  w.PutString(p.text);
  PutOptionalDirection(w, p.ref_direction);
}

TemplatePiece ReadTemplatePiece(Reader& r) {
  TemplatePiece p;
  uint8_t kind = r.ReadU8();
  if (kind > static_cast<uint8_t>(TemplatePiece::Kind::kArgRef)) {
    r.Fail("template piece kind out of range");
  }
  p.kind = static_cast<TemplatePiece::Kind>(kind);
  p.text = r.ReadString();
  p.ref_direction = ReadOptionalDirection(r);
  return p;
}

void PutTemplateExpr(Writer& w, const TemplateExpr& e) {
  w.PutCount(e.size());
  for (const auto& p : e) PutTemplatePiece(w, p);
}

TemplateExpr ReadTemplateExpr(Reader& r) {
  size_t n = r.ReadCount();
  TemplateExpr e;
  e.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) e.push_back(ReadTemplatePiece(r));
  return e;
}

void PutTemplateMap(Writer& w, const std::map<std::string, TemplateExpr>& m) {
  w.PutCount(m.size());
  for (const auto& [key, expr] : m) {
    w.PutString(key);
    PutTemplateExpr(w, expr);
  }
}

void PutActualArg(Writer& w, const ActualArg& a) {
  w.PutString(a.formal);
  PutOptionalString(w, a.string_value);
  PutOptionalString(w, a.dataset);
  PutOptionalDirection(w, a.direction);
}

ActualArg ReadActualArg(Reader& r) {
  ActualArg a;
  a.formal = r.ReadString();
  a.string_value = ReadOptionalString(r);
  a.dataset = ReadOptionalString(r);
  a.direction = ReadOptionalDirection(r);
  return a;
}

}  // namespace

void PutDatasetType(Writer& w, const DatasetType& t) {
  w.PutString(t.content);
  w.PutString(t.format);
  w.PutString(t.encoding);
}

DatasetType ReadDatasetType(Reader& r) {
  DatasetType t;
  t.content = r.ReadString();
  t.format = r.ReadString();
  t.encoding = r.ReadString();
  return t;
}

void PutDataset(Writer& w, const Dataset& d) {
  w.PutString(d.name);
  PutDatasetType(w, d.type);
  w.PutString(d.descriptor.schema);
  PutAttributeSet(w, d.descriptor.fields);
  w.PutI64(d.size_bytes);
  w.PutString(d.producer);
  PutAttributeSet(w, d.annotations);
}

Dataset ReadDataset(Reader& r) {
  Dataset d;
  d.name = r.ReadString();
  d.type = ReadDatasetType(r);
  d.descriptor.schema = r.ReadString();
  d.descriptor.fields = ReadAttributeSet(r);
  d.size_bytes = r.ReadI64();
  d.producer = r.ReadString();
  d.annotations = ReadAttributeSet(r);
  return d;
}

void PutReplica(Writer& w, const Replica& rep) {
  w.PutString(rep.id);
  w.PutString(rep.dataset);
  w.PutString(rep.site);
  w.PutString(rep.storage_element);
  w.PutString(rep.physical_path);
  w.PutI64(rep.size_bytes);
  w.PutDouble(rep.created_at);
  w.PutBool(rep.valid);
  PutAttributeSet(w, rep.annotations);
}

Replica ReadReplica(Reader& r) {
  Replica rep;
  rep.id = r.ReadString();
  rep.dataset = r.ReadString();
  rep.site = r.ReadString();
  rep.storage_element = r.ReadString();
  rep.physical_path = r.ReadString();
  rep.size_bytes = r.ReadI64();
  rep.created_at = r.ReadDouble();
  rep.valid = r.ReadBool();
  rep.annotations = ReadAttributeSet(r);
  return rep;
}

void PutTransformation(Writer& w, const Transformation& t) {
  w.PutString(t.name());
  w.PutU8(static_cast<uint8_t>(t.kind()));
  w.PutString(t.version());
  w.PutCount(t.args().size());
  for (const auto& a : t.args()) PutFormalArg(w, a);
  w.PutString(t.executable());
  w.PutCount(t.argument_templates().size());
  for (const auto& at : t.argument_templates()) {
    w.PutString(at.name);
    PutTemplateExpr(w, at.expr);
  }
  PutTemplateMap(w, t.env());
  PutTemplateMap(w, t.profile());
  w.PutCount(t.calls().size());
  for (const auto& c : t.calls()) {
    w.PutString(c.callee);
    w.PutCount(c.bindings.size());
    for (const auto& [formal, piece] : c.bindings) {
      w.PutString(formal);
      PutTemplatePiece(w, piece);
    }
  }
  PutAttributeSet(w, t.annotations());
}

Transformation ReadTransformation(Reader& r) {
  Transformation t;
  t.set_name(r.ReadString());
  uint8_t kind = r.ReadU8();
  if (kind > static_cast<uint8_t>(Transformation::Kind::kCompound)) {
    r.Fail("transformation kind out of range");
  }
  t.set_kind(static_cast<Transformation::Kind>(kind));
  t.set_version(r.ReadString());
  size_t nargs = r.ReadCount();
  for (size_t i = 0; i < nargs && r.ok(); ++i) {
    t.mutable_args().push_back(ReadFormalArg(r));
  }
  t.set_executable(r.ReadString());
  size_t ntmpl = r.ReadCount();
  for (size_t i = 0; i < ntmpl && r.ok(); ++i) {
    ArgumentTemplate at;
    at.name = r.ReadString();
    at.expr = ReadTemplateExpr(r);
    if (r.ok()) t.AddArgumentTemplate(std::move(at));
  }
  size_t nenv = r.ReadCount();
  for (size_t i = 0; i < nenv && r.ok(); ++i) {
    std::string key = r.ReadString();
    TemplateExpr expr = ReadTemplateExpr(r);
    if (r.ok()) t.SetEnv(std::move(key), std::move(expr));
  }
  size_t nprof = r.ReadCount();
  for (size_t i = 0; i < nprof && r.ok(); ++i) {
    std::string key = r.ReadString();
    TemplateExpr expr = ReadTemplateExpr(r);
    if (r.ok()) t.SetProfile(std::move(key), std::move(expr));
  }
  size_t ncalls = r.ReadCount();
  for (size_t i = 0; i < ncalls && r.ok(); ++i) {
    CompoundCall c;
    c.callee = r.ReadString();
    size_t nbind = r.ReadCount();
    c.bindings.reserve(nbind);
    for (size_t j = 0; j < nbind && r.ok(); ++j) {
      std::string formal = r.ReadString();
      TemplatePiece piece = ReadTemplatePiece(r);
      c.bindings.emplace_back(std::move(formal), std::move(piece));
    }
    if (r.ok()) t.AddCall(std::move(c));
  }
  t.annotations() = ReadAttributeSet(r);
  return t;
}

void PutDerivation(Writer& w, const Derivation& d) {
  w.PutString(d.name());
  w.PutString(d.transformation_namespace());
  w.PutString(d.transformation());
  w.PutCount(d.args().size());
  for (const auto& a : d.args()) PutActualArg(w, a);
  w.PutCount(d.env_overrides().size());
  for (const auto& [key, value] : d.env_overrides()) {
    w.PutString(key);
    w.PutString(value);
  }
  PutAttributeSet(w, d.annotations());
}

Derivation ReadDerivation(Reader& r) {
  Derivation d;
  d.set_name(r.ReadString());
  d.set_transformation_namespace(r.ReadString());
  d.set_transformation(r.ReadString());
  size_t nargs = r.ReadCount();
  for (size_t i = 0; i < nargs && r.ok(); ++i) {
    ActualArg a = ReadActualArg(r);
    if (!r.ok()) break;
    Status added = d.AddArg(std::move(a));
    if (!added.ok()) r.Fail(added.message());
  }
  size_t nenv = r.ReadCount();
  for (size_t i = 0; i < nenv && r.ok(); ++i) {
    std::string key = r.ReadString();
    std::string value = r.ReadString();
    if (r.ok()) d.SetEnvOverride(std::move(key), std::move(value));
  }
  d.annotations() = ReadAttributeSet(r);
  return d;
}

void PutInvocation(Writer& w, const Invocation& inv) {
  w.PutString(inv.id);
  w.PutString(inv.derivation);
  w.PutString(inv.context.site);
  w.PutString(inv.context.host);
  w.PutString(inv.context.os);
  w.PutString(inv.context.architecture);
  w.PutDouble(inv.start_time);
  w.PutDouble(inv.duration_s);
  w.PutDouble(inv.cpu_seconds);
  w.PutI64(inv.peak_memory_bytes);
  w.PutU32(static_cast<uint32_t>(inv.exit_code));
  w.PutBool(inv.succeeded);
  PutStringVec(w, inv.consumed_replicas);
  PutStringVec(w, inv.produced_replicas);
  PutAttributeSet(w, inv.annotations);
}

Invocation ReadInvocation(Reader& r) {
  Invocation inv;
  inv.id = r.ReadString();
  inv.derivation = r.ReadString();
  inv.context.site = r.ReadString();
  inv.context.host = r.ReadString();
  inv.context.os = r.ReadString();
  inv.context.architecture = r.ReadString();
  inv.start_time = r.ReadDouble();
  inv.duration_s = r.ReadDouble();
  inv.cpu_seconds = r.ReadDouble();
  inv.peak_memory_bytes = r.ReadI64();
  inv.exit_code = static_cast<int>(static_cast<int32_t>(r.ReadU32()));
  inv.succeeded = r.ReadBool();
  inv.consumed_replicas = ReadStringVec(r);
  inv.produced_replicas = ReadStringVec(r);
  inv.annotations = ReadAttributeSet(r);
  return inv;
}

void PutCatalogChange(Writer& w, const CatalogChange& c) {
  w.PutU64(c.version);
  w.PutU8(static_cast<uint8_t>(c.op));
  w.PutString(c.kind);
  w.PutString(c.name);
}

CatalogChange ReadCatalogChange(Reader& r) {
  CatalogChange c;
  c.version = r.ReadU64();
  c.op = static_cast<char>(r.ReadU8());
  c.kind = r.ReadString();
  c.name = r.ReadString();
  return c;
}

}  // namespace objcodec
}  // namespace vdg
