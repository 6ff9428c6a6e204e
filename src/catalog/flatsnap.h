#ifndef VDG_CATALOG_FLATSNAP_H_
#define VDG_CATALOG_FLATSNAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace vdg {
namespace flatsnap {

/// On-disk format of a catalog flat snapshot: one relocatable buffer,
/// mmap-ed on load. All integers are little-endian; posting-list
/// payloads are 8-byte aligned relative to the file start so the
/// mmap-ed bytes can be borrowed in place (see PostingBlocks::Parse).
///
/// File layout:
///   [72-byte header][payload]
/// The header carries two CRCs: `header_crc` over the header bytes
/// (with the field itself zeroed) and `payload_crc` over the payload.
/// `journal_records`/`journal_chain_crc` anchor the snapshot to a
/// prefix of the durable journal: a loader accepts the snapshot only
/// when the live journal still starts with that exact record chain,
/// and then replays just the records past the anchor.
///
/// Payload sections, in order: symbol table (names in id order), type
/// universe (parents first, per dimension), datasets, transformations,
/// derivations (each in name order), replicas, invocations (each in
/// first-commit order), the posting indexes (attribute, type,
/// consumer/producer/transformation edges, materialized set), and the
/// changelog window. The replica and invocation indexes are rebuilt
/// from the object sections on load. Objects and changelog entries use
/// the shared object codec (objcodec.h), the same bytes the wire
/// protocol carries.
///
/// Format 2 introduced that shared codec (format 1 stored attribute
/// values as tagged text). No format-1 reader is kept: a snapshot is
/// an accelerator, so an older file is rejected as an unsupported
/// version and the catalog falls back to full journal replay.
inline constexpr char kMagic[8] = {'V', 'D', 'G', 'F', 'S', 'N', 'A', 'P'};
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr uint32_t kEndianCheck = 0x01020304u;
inline constexpr size_t kHeaderSize = 72;

// Header field offsets (bytes from file start), for tests that poke
// specific fields.
inline constexpr size_t kOffMagic = 0;
inline constexpr size_t kOffFormatVersion = 8;
inline constexpr size_t kOffEndianCheck = 12;
inline constexpr size_t kOffPayloadSize = 16;
inline constexpr size_t kOffPayloadCrc = 24;
inline constexpr size_t kOffHeaderCrc = 28;
inline constexpr size_t kOffVersionSeq = 32;
inline constexpr size_t kOffNextReplicaId = 40;
inline constexpr size_t kOffNextInvocationId = 48;
inline constexpr size_t kOffJournalRecords = 56;
inline constexpr size_t kOffJournalChainCrc = 64;
inline constexpr size_t kOffReserved = 68;

/// Read-only mapping of a snapshot file. Prefers mmap (the zero-copy
/// cold-start path); falls back to a heap read when mmap is
/// unavailable. Either way `data()` stays valid for the object's
/// lifetime, so a shared_ptr<MappedFile> serves as the keepalive for
/// borrowed posting payloads.
class MappedFile {
 public:
  static Result<std::shared_ptr<MappedFile>> Open(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  /// True when the bytes are a real mmap (not the heap fallback).
  bool mmapped() const { return mapped_; }

 private:
  MappedFile() = default;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  void* map_base_ = nullptr;  // munmap handle when mapped_
  std::vector<uint8_t> heap_;
};

}  // namespace flatsnap
}  // namespace vdg

#endif  // VDG_CATALOG_FLATSNAP_H_
