#include "catalog/flatsnap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/objcodec.h"
#include "catalog/posting.h"
#include "catalog/snapshot.h"
#include "common/hash.h"
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
using objcodec::Reader;
using objcodec::Writer;

// ---------------------------------------------------------------------
// Posting blobs. The writer pads to an 8-byte payload offset before
// each blob; the header is 72 bytes (a multiple of 8), so payload
// alignment equals file alignment and — the mapping being page-aligned
// — absolute pointer alignment, which is what PostingBlocks::Parse
// checks before borrowing.
// ---------------------------------------------------------------------

void PutPosting(std::string* out, const PostingBlocks& list) {
  while (out->size() % 8 != 0) out->push_back('\0');
  list.AppendSerialized(out);
}

PostingListPtr ReadPosting(Reader& r,
                           const std::shared_ptr<const void>& keepalive) {
  r.Skip((8 - r.pos() % 8) % 8);
  if (!r.ok()) return nullptr;
  const std::string_view rest = r.rest();
  size_t consumed = 0;
  Result<PostingBlocks> parsed =
      PostingBlocks::Parse(reinterpret_cast<const uint8_t*>(rest.data()),
                           rest.size(), &consumed, keepalive);
  if (!parsed.ok()) {
    r.Fail("posting list: " + parsed.status().message());
    return nullptr;
  }
  r.Skip(consumed);
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

/// Reads a count-prefixed section of objects.
template <typename T, typename ReadFn>
void ReadSection(Reader& r, std::vector<T>* out, ReadFn read) {
  const size_t n = r.ReadCount();
  out->reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) out->push_back(read(r));
}

Status ParseFlatImage(std::string_view payload,
                      const std::shared_ptr<const void>& keepalive,
                      FlatImage* out) {
  Reader r(payload);
  auto malformed = [&r](const char* section) {
    return Status::ParseError(std::string("snapshot ") + section +
                              " section is malformed: " +
                              r.status().message());
  };

  ReadSection(r, &out->symbols, [](Reader& r) { return r.ReadString(); });
  const size_t nsym = out->symbols.size();
  std::set<std::string_view> known(out->symbols.begin(), out->symbols.end());
  // Re-interning a repeated name would shift every later id.
  if (known.size() != nsym) r.Fail("a name appears twice");
  if (!r.ok()) return malformed("symbol table");

  for (int d = 0; d < kNumTypeDimensions && r.ok(); ++d) {
    const size_t ntypes = r.ReadCount();
    for (size_t i = 0; i < ntypes && r.ok(); ++i) {
      std::string name = r.ReadString();
      std::string parent = r.ReadString();
      if (!r.ok()) break;
      // Entries were saved parents-first (sorted by depth), so Define
      // re-grows the hierarchy exactly; a failure means the section is
      // inconsistent, not just reordered.
      Status defined =
          out->types.Define(static_cast<TypeDimension>(d), name, parent);
      if (!defined.ok()) r.Fail(defined.message());
    }
  }
  if (!r.ok()) return malformed("type");

  // Interned-object classes must resolve their names against the
  // symbol list — posting lists speak symbol ids, so an unresolvable
  // name would leave dangling ids after install.
  auto require_symbol = [&r, &known](std::string_view name) {
    if (known.count(name) == 0) r.Fail("name is not in the symbol table");
  };
  ReadSection(r, &out->datasets, objcodec::ReadDataset);
  for (const Dataset& d : out->datasets) require_symbol(d.name);
  if (!r.ok()) return malformed("dataset");
  ReadSection(r, &out->transformations, objcodec::ReadTransformation);
  for (const Transformation& t : out->transformations) require_symbol(t.name());
  if (!r.ok()) return malformed("transformation");
  ReadSection(r, &out->derivations, objcodec::ReadDerivation);
  for (const Derivation& d : out->derivations) require_symbol(d.name());
  if (!r.ok()) return malformed("derivation");
  ReadSection(r, &out->replicas, objcodec::ReadReplica);
  if (!r.ok()) return malformed("replica");
  ReadSection(r, &out->invocations, objcodec::ReadInvocation);
  if (!r.ok()) return malformed("invocation");

  const size_t nattr = r.ReadCount();
  for (size_t i = 0; i < nattr && r.ok(); ++i) {
    uint32_t key_id = r.ReadU32();
    std::string tagged = r.ReadString();
    if (key_id >= nsym) r.Fail("attribute key id out of range");
    PostingListPtr list = ReadPosting(r, keepalive);
    if (r.ok()) {
      out->attr_index.push_back({key_id, std::move(tagged), std::move(list)});
    }
  }
  const size_t ntypeidx = r.ReadCount();
  for (size_t i = 0; i < ntypeidx && r.ok(); ++i) {
    uint64_t key = r.ReadU64();
    if (static_cast<uint32_t>(key & 0xffffffffu) >= nsym ||
        (key >> 32) >= static_cast<uint64_t>(kNumTypeDimensions)) {
      r.Fail("type index key out of range");
    }
    PostingListPtr list = ReadPosting(r, keepalive);
    if (r.ok()) out->type_index.emplace_back(key, std::move(list));
  }
  FlatImage::IdPostings* id_maps[] = {&out->consumers, &out->producers,
                                      &out->by_transformation,
                                      &out->by_bare_transformation};
  for (auto* map : id_maps) {
    const size_t count = r.ReadCount();
    for (size_t i = 0; i < count && r.ok(); ++i) {
      uint32_t id = r.ReadU32();
      if (id >= nsym) r.Fail("index id out of range");
      PostingListPtr list = ReadPosting(r, keepalive);
      if (r.ok()) map->emplace_back(id, std::move(list));
    }
  }
  out->materialized = ReadPosting(r, keepalive);
  if (!r.ok()) return malformed("index");

  ReadSection(r, &out->changelog, objcodec::ReadCatalogChange);
  if (!r.ok()) return malformed("changelog");
  if (!r.AtEnd()) {
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
  Writer w(&payload);

  // Symbols, in id order: re-interning them in this order on load
  // reproduces the exact same ids, which is what keeps the serialized
  // posting lists valid without any id remapping.
  w.PutCount(symbols_.size());
  for (SymbolTable::Id id = 0; id < symbols_.size(); ++id) {
    w.PutString(symbols_.NameOf(id));
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
    w.PutCount(ordered.size());
    for (const auto& [depth, name] : ordered) {
      (void)depth;
      Result<std::string> parent = hierarchy.ParentOf(name);
      w.PutString(name);
      w.PutString(parent.ok() ? *parent
                              : std::string(hierarchy.base_name()));
    }
  }

  // Object rows (name order) through the shared object codec.
  auto put_rows = [&w](const auto& table, auto put) {
    w.PutCount(table.size());
    table.ScanFrom({}, [&](const auto& row) {
      put(w, *row.object);
      return true;
    });
  };
  put_rows(next_.datasets, objcodec::PutDataset);
  put_rows(next_.transformations, objcodec::PutTransformation);
  put_rows(next_.derivations, objcodec::PutDerivation);
  w.PutCount(replicas_.size());
  for (const auto& [id, replica] : replicas_) {
    (void)id;
    objcodec::PutReplica(w, replica);
  }
  w.PutCount(invocations_.size());
  for (const auto& [id, invocation] : invocations_) {
    (void)id;
    objcodec::PutInvocation(w, invocation);
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
  w.PutCount(attr_entries);
  for (const auto& [key, lists] : attr) {
    for (const auto& [value, slot] : lists) {
      w.PutU32(key);
      w.PutString(symbols_.NameOf(value));
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
  w.PutCount(typed.size());
  for (const auto& [key, slot] : typed) {
    w.PutU64(key);
    PutPosting(&payload, *slot->list);
  }
  const PostingMap* id_maps[] = {&next_.consumers, &next_.producers,
                                 &next_.by_transformation,
                                 &next_.by_bare_transformation};
  for (const PostingMap* map : id_maps) {
    collect(*map, &values);
    w.PutCount(values.size());
    for (const auto& [id, slot] : values) {
      w.PutU32(id);
      PutPosting(&payload, *slot->list);
    }
  }
  const PostingBlocks no_list;
  PutPosting(&payload, next_.materialized.list != nullptr
                           ? *next_.materialized.list
                           : no_list);

  const ChangeWindow<CatalogChange>& log = next_.changelog;
  w.PutCount(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    objcodec::PutCatalogChange(w, log.at(i));
  }

  std::string header(flatsnap::kMagic, sizeof(flatsnap::kMagic));
  Writer h(&header);
  h.PutU32(flatsnap::kFormatVersion);
  h.PutU32(flatsnap::kEndianCheck);
  h.PutU64(payload.size());
  h.PutU32(Crc32(payload));
  h.PutU32(0);  // header_crc, patched below
  h.PutU64(version_seq_);
  h.PutU64(next_replica_id_);
  h.PutU64(next_invocation_id_);
  h.PutU64(journal_records_);
  h.PutU32(journal_chain_crc_);
  h.PutU32(0);  // reserved
  std::string header_crc;
  Writer(&header_crc).PutU32(Crc32(header));
  header.replace(flatsnap::kOffHeaderCrc, 4, header_crc);

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
    const std::string_view bytes(reinterpret_cast<const char*>(data), size);
    auto u32_at = [bytes](size_t offset) {
      return Reader(bytes.substr(offset, 4)).ReadU32();
    };
    auto u64_at = [bytes](size_t offset) {
      return Reader(bytes.substr(offset, 8)).ReadU64();
    };
    // A format-1 file (tagged-text attribute values) lands here too: no
    // reader is kept for it, so it falls back to full replay.
    uint32_t format = u32_at(flatsnap::kOffFormatVersion);
    if (format != flatsnap::kFormatVersion) {
      return Status::FailedPrecondition("unsupported snapshot format version " +
                                        std::to_string(format));
    }
    if (u32_at(flatsnap::kOffEndianCheck) != flatsnap::kEndianCheck) {
      return Status::FailedPrecondition("snapshot endianness mismatch");
    }
    std::string header_copy(bytes.substr(0, flatsnap::kHeaderSize));
    header_copy.replace(flatsnap::kOffHeaderCrc, 4, 4, '\0');
    if (Crc32(header_copy) != u32_at(flatsnap::kOffHeaderCrc)) {
      return Status::ParseError("snapshot header checksum mismatch");
    }
    if (u64_at(flatsnap::kOffPayloadSize) != size - flatsnap::kHeaderSize) {
      return Status::ParseError("snapshot payload size mismatch");
    }
    const std::string_view payload_view = bytes.substr(flatsnap::kHeaderSize);
    if (Crc32(payload_view) != u32_at(flatsnap::kOffPayloadCrc)) {
      return Status::ParseError("snapshot payload checksum mismatch");
    }

    // Journal anchor: the snapshot is usable only when the live journal
    // still begins with the exact record chain the image reflects.
    const uint64_t anchor_records = u64_at(flatsnap::kOffJournalRecords);
    const uint32_t anchor_crc = u32_at(flatsnap::kOffJournalChainCrc);
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
    VDG_RETURN_IF_ERROR(ParseFlatImage(payload_view, file, &image));

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
    version_seq_ = u64_at(flatsnap::kOffVersionSeq);
    next_replica_id_ = u64_at(flatsnap::kOffNextReplicaId);
    next_invocation_id_ = u64_at(flatsnap::kOffNextInvocationId);
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
