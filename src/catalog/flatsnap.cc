#include "catalog/flatsnap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/posting.h"
#include "catalog/snapshot.h"
#include "common/hash.h"
#include "schema/attribute.h"
#include "schema/dataset.h"
#include "schema/derivation.h"
#include "schema/transformation.h"
#include "types/type_system.h"

namespace vdg {
namespace flatsnap {

Result<std::shared_ptr<MappedFile>> MappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open snapshot file '" + path + "'");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("cannot stat snapshot file '" + path + "'");
  }
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->size_ = static_cast<size_t>(st.st_size);
  if (file->size_ > 0) {
    void* base = ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      file->map_base_ = base;
      file->data_ = static_cast<const uint8_t*>(base);
      file->mapped_ = true;
    } else {
      file->heap_.resize(file->size_);
      size_t off = 0;
      while (off < file->size_) {
        ssize_t n = ::read(fd, file->heap_.data() + off, file->size_ - off);
        if (n <= 0) {
          ::close(fd);
          return Status::IoError("short read of snapshot file '" + path + "'");
        }
        off += static_cast<size_t>(n);
      }
      file->data_ = file->heap_.data();
    }
  }
  ::close(fd);
  return file;
}

MappedFile::~MappedFile() {
  if (mapped_) ::munmap(map_base_, size_);
}

}  // namespace flatsnap

namespace {

using PostingListPtr = CatalogSnapshot::PostingList;

// ---------------------------------------------------------------------
// Little-endian primitive writers
// ---------------------------------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutOptStr(std::string* out, const std::optional<std::string>& s) {
  PutU8(out, s.has_value() ? 1 : 0);
  if (s.has_value()) PutStr(out, *s);
}

void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

// ---------------------------------------------------------------------
// Bounded payload reader: every accessor checks remaining bytes and
// latches `ok = false` on the first violation, so decode loops simply
// run `while (... && r.ok)` and the caller checks once at the end.
// ---------------------------------------------------------------------

struct Reader {
  const uint8_t* p = nullptr;
  size_t n = 0;
  size_t pos = 0;
  bool ok = true;

  bool Need(size_t k) {
    if (!ok || n - pos < k) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return p[pos++];
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = LoadU32(p + pos);
    pos += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = LoadU64(p + pos);
    pos += 8;
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double Double() {
    uint64_t bits = U64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t len = U32();
    if (!Need(len)) return {};
    std::string s(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
    return s;
  }
  void Align8() {
    size_t target = (pos + 7) & ~static_cast<size_t>(7);
    if (target > n) {
      ok = false;
    } else {
      pos = target;
    }
  }
};

// ---------------------------------------------------------------------
// Schema-object codec. The encoders walk the public accessors; the
// decoders rebuild through the public mutators so every class invariant
// (tag validity, one-value-per-arg) is re-checked on the way in.
// ---------------------------------------------------------------------

void PutValue(std::string* out, const AttributeValue& v) {
  PutU8(out, static_cast<uint8_t>(v.TypeTag()));
  PutStr(out, v.ToWireString());
}

AttributeValue GetValue(Reader& r) {
  char tag = static_cast<char>(r.U8());
  std::string wire = r.Str();
  if (!r.ok) return AttributeValue();
  Result<AttributeValue> v = AttributeValue::FromTagged(tag, wire);
  if (!v.ok()) {
    r.ok = false;
    return AttributeValue();
  }
  return std::move(v).value();
}

void PutAttrs(std::string* out, const AttributeSet& attrs) {
  PutU32(out, static_cast<uint32_t>(attrs.size()));
  for (const auto& [key, value] : attrs) {
    PutStr(out, key);
    PutValue(out, value);
  }
}

AttributeSet GetAttrs(Reader& r) {
  AttributeSet attrs;
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok; ++i) {
    std::string key = r.Str();
    AttributeValue value = GetValue(r);
    if (r.ok) attrs.Set(key, std::move(value));
  }
  return attrs;
}

void PutDatasetType(std::string* out, const DatasetType& t) {
  PutStr(out, t.content);
  PutStr(out, t.format);
  PutStr(out, t.encoding);
}

DatasetType GetDatasetType(Reader& r) {
  DatasetType t;
  t.content = r.Str();
  t.format = r.Str();
  t.encoding = r.Str();
  return t;
}

void PutDataset(std::string* out, const Dataset& d) {
  PutStr(out, d.name);
  PutDatasetType(out, d.type);
  PutStr(out, d.descriptor.schema);
  PutAttrs(out, d.descriptor.fields);
  PutI64(out, d.size_bytes);
  PutStr(out, d.producer);
  PutAttrs(out, d.annotations);
}

Dataset GetDataset(Reader& r) {
  Dataset d;
  d.name = r.Str();
  d.type = GetDatasetType(r);
  d.descriptor.schema = r.Str();
  d.descriptor.fields = GetAttrs(r);
  d.size_bytes = r.I64();
  d.producer = r.Str();
  d.annotations = GetAttrs(r);
  return d;
}

void PutReplica(std::string* out, const Replica& rp) {
  PutStr(out, rp.id);
  PutStr(out, rp.dataset);
  PutStr(out, rp.site);
  PutStr(out, rp.storage_element);
  PutStr(out, rp.physical_path);
  PutI64(out, rp.size_bytes);
  PutDouble(out, rp.created_at);
  PutU8(out, rp.valid ? 1 : 0);
  PutAttrs(out, rp.annotations);
}

Replica GetReplica(Reader& r) {
  Replica rp;
  rp.id = r.Str();
  rp.dataset = r.Str();
  rp.site = r.Str();
  rp.storage_element = r.Str();
  rp.physical_path = r.Str();
  rp.size_bytes = r.I64();
  rp.created_at = r.Double();
  rp.valid = r.U8() != 0;
  rp.annotations = GetAttrs(r);
  return rp;
}

void PutTemplatePiece(std::string* out, const TemplatePiece& piece) {
  PutU8(out, static_cast<uint8_t>(piece.kind));
  PutStr(out, piece.text);
  PutU8(out, piece.ref_direction.has_value() ? 1 : 0);
  if (piece.ref_direction.has_value()) {
    PutU8(out, static_cast<uint8_t>(*piece.ref_direction));
  }
}

TemplatePiece GetTemplatePiece(Reader& r) {
  TemplatePiece piece;
  uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(TemplatePiece::Kind::kArgRef)) r.ok = false;
  piece.kind = static_cast<TemplatePiece::Kind>(kind);
  piece.text = r.Str();
  if (r.U8() != 0) {
    uint8_t dir = r.U8();
    if (dir > static_cast<uint8_t>(ArgDirection::kNone)) r.ok = false;
    piece.ref_direction = static_cast<ArgDirection>(dir);
  }
  return piece;
}

void PutTemplateExpr(std::string* out, const TemplateExpr& expr) {
  PutU32(out, static_cast<uint32_t>(expr.size()));
  for (const TemplatePiece& piece : expr) PutTemplatePiece(out, piece);
}

TemplateExpr GetTemplateExpr(Reader& r) {
  TemplateExpr expr;
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok; ++i) {
    expr.push_back(GetTemplatePiece(r));
  }
  return expr;
}

void PutFormalArg(std::string* out, const FormalArg& arg) {
  PutStr(out, arg.name);
  PutU8(out, static_cast<uint8_t>(arg.direction));
  PutU32(out, static_cast<uint32_t>(arg.types.size()));
  for (const DatasetType& t : arg.types) PutDatasetType(out, t);
  PutOptStr(out, arg.default_string);
  PutOptStr(out, arg.default_dataset);
}

FormalArg GetFormalArg(Reader& r) {
  FormalArg arg;
  arg.name = r.Str();
  uint8_t dir = r.U8();
  if (dir > static_cast<uint8_t>(ArgDirection::kNone)) r.ok = false;
  arg.direction = static_cast<ArgDirection>(dir);
  uint32_t ntypes = r.U32();
  for (uint32_t i = 0; i < ntypes && r.ok; ++i) {
    arg.types.push_back(GetDatasetType(r));
  }
  if (r.U8() != 0) arg.default_string = r.Str();
  if (r.U8() != 0) arg.default_dataset = r.Str();
  return arg;
}

void PutTransformation(std::string* out, const Transformation& t) {
  PutStr(out, t.name());
  PutU8(out, static_cast<uint8_t>(t.kind()));
  PutStr(out, t.version());
  PutU32(out, static_cast<uint32_t>(t.args().size()));
  for (const FormalArg& arg : t.args()) PutFormalArg(out, arg);
  PutStr(out, t.executable());
  PutU32(out, static_cast<uint32_t>(t.argument_templates().size()));
  for (const ArgumentTemplate& at : t.argument_templates()) {
    PutStr(out, at.name);
    PutTemplateExpr(out, at.expr);
  }
  PutU32(out, static_cast<uint32_t>(t.env().size()));
  for (const auto& [name, expr] : t.env()) {
    PutStr(out, name);
    PutTemplateExpr(out, expr);
  }
  PutU32(out, static_cast<uint32_t>(t.profile().size()));
  for (const auto& [key, expr] : t.profile()) {
    PutStr(out, key);
    PutTemplateExpr(out, expr);
  }
  PutU32(out, static_cast<uint32_t>(t.calls().size()));
  for (const CompoundCall& call : t.calls()) {
    PutStr(out, call.callee);
    PutU32(out, static_cast<uint32_t>(call.bindings.size()));
    for (const auto& [formal, piece] : call.bindings) {
      PutStr(out, formal);
      PutTemplatePiece(out, piece);
    }
  }
  PutAttrs(out, t.annotations());
}

Transformation GetTransformation(Reader& r) {
  Transformation t;
  t.set_name(r.Str());
  uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(Transformation::Kind::kCompound)) {
    r.ok = false;
  }
  t.set_kind(static_cast<Transformation::Kind>(kind));
  t.set_version(r.Str());
  uint32_t nargs = r.U32();
  for (uint32_t i = 0; i < nargs && r.ok; ++i) {
    t.mutable_args().push_back(GetFormalArg(r));
  }
  t.set_executable(r.Str());
  uint32_t ntemplates = r.U32();
  for (uint32_t i = 0; i < ntemplates && r.ok; ++i) {
    ArgumentTemplate at;
    at.name = r.Str();
    at.expr = GetTemplateExpr(r);
    if (r.ok) t.AddArgumentTemplate(std::move(at));
  }
  uint32_t nenv = r.U32();
  for (uint32_t i = 0; i < nenv && r.ok; ++i) {
    std::string name = r.Str();
    TemplateExpr expr = GetTemplateExpr(r);
    if (r.ok) t.SetEnv(std::move(name), std::move(expr));
  }
  uint32_t nprofile = r.U32();
  for (uint32_t i = 0; i < nprofile && r.ok; ++i) {
    std::string key = r.Str();
    TemplateExpr expr = GetTemplateExpr(r);
    if (r.ok) t.SetProfile(std::move(key), std::move(expr));
  }
  uint32_t ncalls = r.U32();
  for (uint32_t i = 0; i < ncalls && r.ok; ++i) {
    CompoundCall call;
    call.callee = r.Str();
    uint32_t nbindings = r.U32();
    for (uint32_t j = 0; j < nbindings && r.ok; ++j) {
      std::string formal = r.Str();
      TemplatePiece piece = GetTemplatePiece(r);
      if (r.ok) call.bindings.emplace_back(std::move(formal), std::move(piece));
    }
    if (r.ok) t.AddCall(std::move(call));
  }
  t.annotations() = GetAttrs(r);
  return t;
}

void PutActualArg(std::string* out, const ActualArg& arg) {
  PutStr(out, arg.formal);
  PutOptStr(out, arg.string_value);
  PutOptStr(out, arg.dataset);
  PutU8(out, arg.direction.has_value() ? 1 : 0);
  if (arg.direction.has_value()) {
    PutU8(out, static_cast<uint8_t>(*arg.direction));
  }
}

ActualArg GetActualArg(Reader& r) {
  ActualArg arg;
  arg.formal = r.Str();
  if (r.U8() != 0) arg.string_value = r.Str();
  if (r.U8() != 0) arg.dataset = r.Str();
  if (r.U8() != 0) {
    uint8_t dir = r.U8();
    if (dir > static_cast<uint8_t>(ArgDirection::kNone)) r.ok = false;
    arg.direction = static_cast<ArgDirection>(dir);
  }
  return arg;
}

void PutDerivation(std::string* out, const Derivation& d) {
  PutStr(out, d.name());
  PutStr(out, d.transformation_namespace());
  PutStr(out, d.transformation());
  PutU32(out, static_cast<uint32_t>(d.args().size()));
  for (const ActualArg& arg : d.args()) PutActualArg(out, arg);
  PutU32(out, static_cast<uint32_t>(d.env_overrides().size()));
  for (const auto& [name, value] : d.env_overrides()) {
    PutStr(out, name);
    PutStr(out, value);
  }
  PutAttrs(out, d.annotations());
}

Derivation GetDerivation(Reader& r) {
  Derivation d;
  d.set_name(r.Str());
  d.set_transformation_namespace(r.Str());
  d.set_transformation(r.Str());
  uint32_t nargs = r.U32();
  for (uint32_t i = 0; i < nargs && r.ok; ++i) {
    ActualArg arg = GetActualArg(r);
    if (r.ok && !d.AddArg(std::move(arg)).ok()) r.ok = false;
  }
  uint32_t nenv = r.U32();
  for (uint32_t i = 0; i < nenv && r.ok; ++i) {
    std::string name = r.Str();
    std::string value = r.Str();
    if (r.ok) d.SetEnvOverride(std::move(name), std::move(value));
  }
  d.annotations() = GetAttrs(r);
  return d;
}

void PutInvocation(std::string* out, const Invocation& iv) {
  PutStr(out, iv.id);
  PutStr(out, iv.derivation);
  PutStr(out, iv.context.site);
  PutStr(out, iv.context.host);
  PutStr(out, iv.context.os);
  PutStr(out, iv.context.architecture);
  PutDouble(out, iv.start_time);
  PutDouble(out, iv.duration_s);
  PutDouble(out, iv.cpu_seconds);
  PutI64(out, iv.peak_memory_bytes);
  PutI64(out, iv.exit_code);
  PutU8(out, iv.succeeded ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(iv.consumed_replicas.size()));
  for (const std::string& id : iv.consumed_replicas) PutStr(out, id);
  PutU32(out, static_cast<uint32_t>(iv.produced_replicas.size()));
  for (const std::string& id : iv.produced_replicas) PutStr(out, id);
  PutAttrs(out, iv.annotations);
}

Invocation GetInvocation(Reader& r) {
  Invocation iv;
  iv.id = r.Str();
  iv.derivation = r.Str();
  iv.context.site = r.Str();
  iv.context.host = r.Str();
  iv.context.os = r.Str();
  iv.context.architecture = r.Str();
  iv.start_time = r.Double();
  iv.duration_s = r.Double();
  iv.cpu_seconds = r.Double();
  iv.peak_memory_bytes = r.I64();
  iv.exit_code = static_cast<int>(r.I64());
  iv.succeeded = r.U8() != 0;
  uint32_t nconsumed = r.U32();
  for (uint32_t i = 0; i < nconsumed && r.ok; ++i) {
    iv.consumed_replicas.push_back(r.Str());
  }
  uint32_t nproduced = r.U32();
  for (uint32_t i = 0; i < nproduced && r.ok; ++i) {
    iv.produced_replicas.push_back(r.Str());
  }
  iv.annotations = GetAttrs(r);
  return iv;
}

// ---------------------------------------------------------------------
// Posting blobs. The writer pads to an 8-byte payload offset before
// each blob; the header is 72 bytes (a multiple of 8), so payload
// alignment equals file alignment and — the mapping being page-aligned
// — absolute pointer alignment, which is what PostingBlocks::Parse
// checks before borrowing.
// ---------------------------------------------------------------------

void PutPosting(std::string* out, const PostingBlocks& list) {
  PadTo8(out);
  list.AppendSerialized(out);
}

PostingListPtr GetPosting(Reader& r,
                          const std::shared_ptr<const void>& keepalive) {
  r.Align8();
  if (!r.ok) return nullptr;
  size_t consumed = 0;
  Result<PostingBlocks> parsed =
      PostingBlocks::Parse(r.p + r.pos, r.n - r.pos, &consumed, keepalive);
  if (!parsed.ok()) {
    r.ok = false;
    return nullptr;
  }
  r.pos += consumed;
  return std::make_shared<const PostingBlocks>(std::move(parsed).value());
}

// ---------------------------------------------------------------------
// Whole-image parse target. Everything is decoded and validated into
// this staging struct before one byte of catalog state is touched, so
// a rejected snapshot leaves the catalog pristine for the replay
// fallback.
// ---------------------------------------------------------------------

struct FlatImage {
  using IdPostings = std::vector<std::pair<SymbolTable::Id, PostingListPtr>>;
  struct AttrEntry {
    SymbolTable::Id key = 0;
    std::string tagged_value;
    PostingListPtr list;
  };
  std::vector<std::string> symbols;  // names in id order
  TypeRegistry types;
  std::vector<Dataset> datasets;
  std::vector<Transformation> transformations;
  std::vector<Derivation> derivations;
  std::vector<Replica> replicas;
  std::vector<Invocation> invocations;
  std::vector<AttrEntry> attr_index;
  std::vector<std::pair<uint64_t, PostingListPtr>> type_index;
  IdPostings consumers;
  IdPostings producers;
  IdPostings by_transformation;
  IdPostings by_bare_transformation;
  PostingListPtr materialized;
  std::vector<CatalogChange> changelog;
};

Status ParseFlatImage(const uint8_t* payload, size_t size,
                      const std::shared_ptr<const void>& keepalive,
                      FlatImage* out) {
  Reader r{payload, size};

  uint32_t nsym = r.U32();
  for (uint32_t i = 0; i < nsym && r.ok; ++i) {
    out->symbols.push_back(r.Str());
  }
  if (!r.ok) return Status::ParseError("snapshot symbol table is malformed");
  std::set<std::string_view> known(out->symbols.begin(), out->symbols.end());

  for (int d = 0; d < kNumTypeDimensions && r.ok; ++d) {
    uint32_t ntypes = r.U32();
    for (uint32_t i = 0; i < ntypes && r.ok; ++i) {
      std::string name = r.Str();
      std::string parent = r.Str();
      if (!r.ok) break;
      // Entries were saved parents-first (sorted by depth), so Define
      // re-grows the hierarchy exactly; a failure means the section is
      // inconsistent, not just reordered.
      if (!out->types.Define(static_cast<TypeDimension>(d), name, parent)
               .ok()) {
        r.ok = false;
      }
    }
  }
  if (!r.ok) return Status::ParseError("snapshot type section is malformed");

  // Interned-object classes must resolve their names against the
  // symbol list — posting lists speak symbol ids, so an unresolvable
  // name would leave dangling ids after install.
  uint32_t nds = r.U32();
  for (uint32_t i = 0; i < nds && r.ok; ++i) {
    Dataset d = GetDataset(r);
    if (r.ok && known.count(d.name) == 0) r.ok = false;
    if (r.ok) out->datasets.push_back(std::move(d));
  }
  if (!r.ok) return Status::ParseError("snapshot dataset section is malformed");

  uint32_t ntr = r.U32();
  for (uint32_t i = 0; i < ntr && r.ok; ++i) {
    Transformation t = GetTransformation(r);
    if (r.ok && known.count(t.name()) == 0) r.ok = false;
    if (r.ok) out->transformations.push_back(std::move(t));
  }
  if (!r.ok) {
    return Status::ParseError("snapshot transformation section is malformed");
  }

  uint32_t ndv = r.U32();
  for (uint32_t i = 0; i < ndv && r.ok; ++i) {
    Derivation d = GetDerivation(r);
    if (r.ok && known.count(d.name()) == 0) r.ok = false;
    if (r.ok) out->derivations.push_back(std::move(d));
  }
  if (!r.ok) {
    return Status::ParseError("snapshot derivation section is malformed");
  }

  uint32_t nrp = r.U32();
  for (uint32_t i = 0; i < nrp && r.ok; ++i) {
    Replica rp = GetReplica(r);
    if (r.ok) out->replicas.push_back(std::move(rp));
  }
  if (!r.ok) return Status::ParseError("snapshot replica section is malformed");

  uint32_t niv = r.U32();
  for (uint32_t i = 0; i < niv && r.ok; ++i) {
    Invocation iv = GetInvocation(r);
    if (r.ok) out->invocations.push_back(std::move(iv));
  }
  if (!r.ok) {
    return Status::ParseError("snapshot invocation section is malformed");
  }

  uint32_t nattr = r.U32();
  for (uint32_t i = 0; i < nattr && r.ok; ++i) {
    uint32_t key_id = r.U32();
    std::string tagged = r.Str();
    if (r.ok && key_id >= nsym) r.ok = false;
    PostingListPtr list = GetPosting(r, keepalive);
    if (r.ok) {
      out->attr_index.push_back({key_id, std::move(tagged), std::move(list)});
    }
  }
  uint32_t ntypeidx = r.U32();
  for (uint32_t i = 0; i < ntypeidx && r.ok; ++i) {
    uint64_t key = r.U64();
    if (r.ok && static_cast<uint32_t>(key & 0xffffffffu) >= nsym) r.ok = false;
    PostingListPtr list = GetPosting(r, keepalive);
    if (r.ok) {
      if ((key >> 32) >= static_cast<uint64_t>(kNumTypeDimensions)) {
        r.ok = false;
      } else {
        out->type_index.emplace_back(key, std::move(list));
      }
    }
  }
  FlatImage::IdPostings* id_maps[] = {&out->consumers, &out->producers,
                                      &out->by_transformation,
                                      &out->by_bare_transformation};
  for (auto* map : id_maps) {
    uint32_t count = r.U32();
    for (uint32_t i = 0; i < count && r.ok; ++i) {
      uint32_t id = r.U32();
      if (r.ok && id >= nsym) r.ok = false;
      PostingListPtr list = GetPosting(r, keepalive);
      if (r.ok) map->emplace_back(id, std::move(list));
    }
  }
  out->materialized = GetPosting(r, keepalive);
  if (!r.ok) return Status::ParseError("snapshot index section is malformed");

  uint32_t nchanges = r.U32();
  for (uint32_t i = 0; i < nchanges && r.ok; ++i) {
    CatalogChange change;
    change.version = r.U64();
    change.op = static_cast<char>(r.U8());
    change.kind = r.Str();
    change.name = r.Str();
    if (r.ok) out->changelog.push_back(std::move(change));
  }
  if (!r.ok) {
    return Status::ParseError("snapshot changelog section is malformed");
  }
  if (r.pos != r.n) {
    return Status::ParseError("snapshot payload has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------
// VirtualDataCatalog persistence entry points
// ---------------------------------------------------------------------

Status VirtualDataCatalog::SaveSnapshotFile(const std::string& path) const {
  std::shared_lock lock(mu_);

  std::string payload;
  payload.reserve(1 << 16);

  // Symbols, in id order: re-interning them in this order on load
  // reproduces the exact same ids, which is what keeps the serialized
  // posting lists valid without any id remapping.
  PutU32(&payload, static_cast<uint32_t>(symbols_.size()));
  for (SymbolTable::Id id = 0; id < symbols_.size(); ++id) {
    PutStr(&payload, symbols_.NameOf(id));
  }

  // Type universe, parents-first per dimension so Define replays.
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    const TypeHierarchy& hierarchy =
        types_->dimension(static_cast<TypeDimension>(d));
    std::vector<std::pair<int, std::string>> ordered;
    for (std::string_view name : hierarchy.AllTypes()) {
      Result<int> depth = hierarchy.DepthOf(name);
      ordered.emplace_back(depth.ok() ? *depth : 0, std::string(name));
    }
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    PutU32(&payload, static_cast<uint32_t>(ordered.size()));
    for (const auto& [depth, name] : ordered) {
      (void)depth;
      Result<std::string> parent = hierarchy.ParentOf(name);
      PutStr(&payload, name);
      PutStr(&payload,
             parent.ok() ? *parent : std::string(hierarchy.base_name()));
    }
  }

  // Rows in name order.
  auto put_rows = [&payload](const auto& table, auto put) {
    PutU32(&payload, static_cast<uint32_t>(table.size()));
    table.ScanFrom({}, [&](const auto& row) {
      put(&payload, *row.object);
      return true;
    });
  };
  put_rows(next_.datasets, PutDataset);
  put_rows(next_.transformations, PutTransformation);
  put_rows(next_.derivations, PutDerivation);
  PutU32(&payload, static_cast<uint32_t>(replicas_.size()));
  for (const auto& [id, replica] : replicas_) {
    (void)id;
    PutReplica(&payload, replica);
  }
  PutU32(&payload, static_cast<uint32_t>(invocations_.size()));
  for (const auto& [id, invocation] : invocations_) {
    (void)id;
    PutInvocation(&payload, invocation);
  }

  // Index sections: the non-empty lists of each map, counted first.
  std::vector<std::pair<Id, const PostingSlot*>> values;
  std::vector<std::pair<Id, std::vector<std::pair<Id, const PostingSlot*>>>>
      attr;
  size_t attr_entries = 0;
  auto collect = [](const PostingMap& map,
                    std::vector<std::pair<Id, const PostingSlot*>>* out) {
    out->clear();
    map.ForEach([out](Id id, const PostingSlot& slot) {
      if (!slot.empty()) out->emplace_back(id, &slot);
    });
  };
  next_.attr_index.ForEach([&](Id key, const PostingMap& by_value) {
    collect(by_value, &values);
    attr_entries += values.size();
    if (!values.empty()) attr.emplace_back(key, std::move(values));
  });
  PutU32(&payload, static_cast<uint32_t>(attr_entries));
  for (const auto& [key, lists] : attr) {
    for (const auto& [value, slot] : lists) {
      PutU32(&payload, key);
      PutStr(&payload, symbols_.NameOf(value));
      PutPosting(&payload, *slot->list);
    }
  }
  std::vector<std::pair<uint64_t, const PostingSlot*>> typed;
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    collect(next_.type_index[d], &values);
    for (const auto& [type_id, slot] : values) {
      typed.emplace_back(
          snapshot_internal::PackTypeKey(static_cast<TypeDimension>(d),
                                         type_id),
          slot);
    }
  }
  PutU32(&payload, static_cast<uint32_t>(typed.size()));
  for (const auto& [key, slot] : typed) {
    PutU64(&payload, key);
    PutPosting(&payload, *slot->list);
  }
  const PostingMap* id_maps[] = {&next_.consumers, &next_.producers,
                                 &next_.by_transformation,
                                 &next_.by_bare_transformation};
  for (const PostingMap* map : id_maps) {
    collect(*map, &values);
    PutU32(&payload, static_cast<uint32_t>(values.size()));
    for (const auto& [id, slot] : values) {
      PutU32(&payload, id);
      PutPosting(&payload, *slot->list);
    }
  }
  const PostingBlocks no_list;
  PutPosting(&payload, next_.materialized.list != nullptr
                           ? *next_.materialized.list
                           : no_list);

  const ChangeWindow<CatalogChange>& log = next_.changelog;
  PutU32(&payload, static_cast<uint32_t>(log.size()));
  for (size_t i = 0; i < log.size(); ++i) {
    const CatalogChange& change = log.at(i);
    PutU64(&payload, change.version);
    PutU8(&payload, static_cast<uint8_t>(change.op));
    PutStr(&payload, change.kind);
    PutStr(&payload, change.name);
  }

  std::string header;
  header.reserve(flatsnap::kHeaderSize);
  header.append(flatsnap::kMagic, sizeof(flatsnap::kMagic));
  PutU32(&header, flatsnap::kFormatVersion);
  PutU32(&header, flatsnap::kEndianCheck);
  PutU64(&header, payload.size());
  PutU32(&header, Crc32(payload));
  PutU32(&header, 0);  // header_crc, patched below
  PutU64(&header, version_seq_);
  PutU64(&header, next_replica_id_);
  PutU64(&header, next_invocation_id_);
  PutU64(&header, journal_records_);
  PutU32(&header, journal_chain_crc_);
  PutU32(&header, 0);  // reserved
  uint32_t header_crc = Crc32(header);
  std::string crc_bytes;
  PutU32(&crc_bytes, header_crc);
  header.replace(flatsnap::kOffHeaderCrc, 4, crc_bytes);

  std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create snapshot temp file '" + tmp + "'");
  }
  bool wrote =
      std::fwrite(header.data(), 1, header.size(), file) == header.size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), file) ==
           payload.size()) &&
      std::fflush(file) == 0;
  std::fclose(file);
  if (!wrote) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to snapshot temp file '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename snapshot into place at '" + path +
                           "'");
  }
  return Status::OK();
}

Status VirtualDataCatalog::OpenFromSnapshot(const std::string& path) {
  std::unique_lock lock(mu_);
  if (opened_) return Status::OK();
  opened_ = true;

  SnapshotLoadReport report;
  report.attempted = true;

  VDG_ASSIGN_OR_RETURN(std::vector<std::string> records, journal_->ReadAll());
  const bool durable = journal_->persistent();

  // All validation — header, checksums, journal anchor, full payload
  // parse — happens before `installed` flips, so a rejected snapshot
  // falls back to plain replay from pristine state. After the flip the
  // only fallible step left is tail replay, which is a real error (the
  // same journal damage would fail Open() too).
  bool installed = false;
  Status flat = [&]() -> Status {
    Result<std::shared_ptr<flatsnap::MappedFile>> mapped =
        flatsnap::MappedFile::Open(path);
    if (!mapped.ok()) return mapped.status();
    std::shared_ptr<flatsnap::MappedFile> file = *mapped;
    const uint8_t* data = file->data();
    const size_t size = file->size();

    if (size < flatsnap::kHeaderSize) {
      return Status::ParseError("snapshot file is truncated (no header)");
    }
    if (std::memcmp(data, flatsnap::kMagic, sizeof(flatsnap::kMagic)) != 0) {
      return Status::ParseError("bad snapshot magic");
    }
    uint32_t format = LoadU32(data + flatsnap::kOffFormatVersion);
    if (format != flatsnap::kFormatVersion) {
      return Status::FailedPrecondition("unsupported snapshot format version " +
                                        std::to_string(format));
    }
    if (LoadU32(data + flatsnap::kOffEndianCheck) != flatsnap::kEndianCheck) {
      return Status::FailedPrecondition("snapshot endianness mismatch");
    }
    char header_copy[flatsnap::kHeaderSize];
    std::memcpy(header_copy, data, flatsnap::kHeaderSize);
    std::memset(header_copy + flatsnap::kOffHeaderCrc, 0, 4);
    if (Crc32(std::string_view(header_copy, flatsnap::kHeaderSize)) !=
        LoadU32(data + flatsnap::kOffHeaderCrc)) {
      return Status::ParseError("snapshot header checksum mismatch");
    }
    uint64_t payload_size = LoadU64(data + flatsnap::kOffPayloadSize);
    if (payload_size != size - flatsnap::kHeaderSize) {
      return Status::ParseError("snapshot payload size mismatch");
    }
    std::string_view payload_view(
        reinterpret_cast<const char*>(data) + flatsnap::kHeaderSize,
        payload_size);
    if (Crc32(payload_view) != LoadU32(data + flatsnap::kOffPayloadCrc)) {
      return Status::ParseError("snapshot payload checksum mismatch");
    }

    // Journal anchor: the snapshot is usable only when the live journal
    // still begins with the exact record chain the image reflects.
    const uint64_t anchor_records =
        LoadU64(data + flatsnap::kOffJournalRecords);
    const uint32_t anchor_crc = LoadU32(data + flatsnap::kOffJournalChainCrc);
    if (!durable && anchor_records > 0) {
      return Status::FailedPrecondition(
          "snapshot is anchored to a journal but none is attached");
    }
    if (durable) {
      if (records.size() < anchor_records) {
        return Status::FailedPrecondition(
            "journal is shorter than the snapshot anchor (compacted or "
            "replaced)");
      }
      uint32_t chain = 0;
      for (uint64_t i = 0; i < anchor_records; ++i) {
        chain = Crc32Extend(chain, records[i]);
      }
      if (chain != anchor_crc) {
        return Status::FailedPrecondition(
            "journal does not extend the snapshot's record chain");
      }
    }

    FlatImage image;
    VDG_RETURN_IF_ERROR(ParseFlatImage(
        data + flatsnap::kHeaderSize, payload_size, file, &image));

    // ---- install (infallible from here) ----
    installed = true;
    for (const std::string& symbol : image.symbols) {
      symbols_.Intern(symbol);
    }
    MutableTypes() = std::move(image.types);
    // Rows arrive in name order, so every Put appends to the last chunk.
    for (Dataset& d : image.datasets) {
      const Id id = symbols_.Find(d.name);
      next_.datasets.Put(id, symbols_.NameOf(id),
                         std::make_shared<const Dataset>(std::move(d)), gen_);
    }
    for (Transformation& t : image.transformations) {
      const Id id = symbols_.Find(t.name());
      next_.transformations.Put(
          id, symbols_.NameOf(id),
          std::make_shared<const Transformation>(std::move(t)), gen_);
    }
    for (Derivation& d : image.derivations) {
      const Id id = symbols_.Find(d.name());
      derivations_by_signature_.emplace(d.Signature(), d.name());
      next_.derivations.Put(id, symbols_.NameOf(id),
                            std::make_shared<const Derivation>(std::move(d)),
                            gen_);
    }
    for (Replica& rp : image.replicas) {
      replicas_by_dataset_.emplace(rp.dataset, rp.id);
      if (rp.valid) ++valid_replicas_by_dataset_[rp.dataset];
      std::string key = rp.id;
      replicas_.emplace(std::move(key), std::move(rp));
    }
    for (Invocation& iv : image.invocations) {
      invocations_by_derivation_.emplace(iv.derivation, iv.id);
      std::string key = iv.id;
      invocations_.emplace(std::move(key), std::move(iv));
    }
    // Posting lists install with generation 0: they are borrowed from
    // the mapping, so the first edit of each clones it.
    for (FlatImage::AttrEntry& entry : image.attr_index) {
      const Id value = symbols_.Intern(entry.tagged_value);
      next_.attr_index.Mutable(entry.key, gen_).Mutable(value, gen_) =
          PostingSlot{std::move(entry.list), 0};
    }
    for (auto& [key, list] : image.type_index) {
      next_.type_index[key >> 32].Mutable(
          static_cast<Id>(key & 0xffffffffu), gen_) =
          PostingSlot{std::move(list), 0};
    }
    std::pair<FlatImage::IdPostings*, PostingMap*> id_maps[] = {
        {&image.consumers, &next_.consumers},
        {&image.producers, &next_.producers},
        {&image.by_transformation, &next_.by_transformation},
        {&image.by_bare_transformation, &next_.by_bare_transformation}};
    for (auto& [from, to] : id_maps) {
      for (auto& [id, list] : *from) {
        to->Mutable(id, gen_) = PostingSlot{std::move(list), 0};
      }
    }
    next_.materialized = PostingSlot{std::move(image.materialized), 0};
    for (CatalogChange& change : image.changelog) {
      next_.changelog.PushBack(std::move(change), gen_);
    }
    version_seq_ = LoadU64(data + flatsnap::kOffVersionSeq);
    next_replica_id_ = LoadU64(data + flatsnap::kOffNextReplicaId);
    next_invocation_id_ = LoadU64(data + flatsnap::kOffNextInvocationId);
    journal_records_ = durable ? anchor_records : 0;
    journal_chain_crc_ = durable ? anchor_crc : 0;
    report.snapshot_version = version_seq_;

    // ---- journal-tail replay: only what the image has not seen ----
    replaying_ = true;
    for (size_t i = anchor_records; i < records.size(); ++i) {
      Status applied = ApplyRecord(records[i]);
      if (!applied.ok()) {
        replaying_ = false;
        return Status::IoError("journal replay failed on record '" +
                               records[i] + "': " + applied.ToString());
      }
      ++journal_records_;
      journal_chain_crc_ = Crc32Extend(journal_chain_crc_, records[i]);
      ++report.tail_records_replayed;
    }
    replaying_ = false;
    report.total_records_replayed = report.tail_records_replayed;
    report.used = true;
    return Status::OK();
  }();

  if (flat.ok() || installed) {
    // Either a clean flat-snapshot load, or tail replay failed on
    // installed state (publish what applied, mirroring Open()).
    PublishSnapshotLocked();
    last_snapshot_load_ = report;
    return flat;
  }

  // Fallback: the snapshot was rejected before any state was installed;
  // recover exactly as Open() would, remembering why.
  report.used = false;
  report.snapshot_version = 0;
  report.fallback_reason = flat.ToString();
  replaying_ = true;
  for (const std::string& record : records) {
    Status applied = ApplyRecord(record);
    if (!applied.ok()) {
      replaying_ = false;
      PublishSnapshotLocked();
      last_snapshot_load_ = report;
      return Status::IoError("journal replay failed on record '" + record +
                             "': " + applied.ToString());
    }
    ++journal_records_;
    journal_chain_crc_ = Crc32Extend(journal_chain_crc_, record);
    ++report.total_records_replayed;
  }
  replaying_ = false;
  PublishSnapshotLocked();
  last_snapshot_load_ = report;
  return Status::OK();
}

VirtualDataCatalog::SnapshotLoadReport VirtualDataCatalog::last_snapshot_load()
    const {
  std::shared_lock lock(mu_);
  return last_snapshot_load_;
}

}  // namespace vdg
