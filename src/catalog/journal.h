#ifndef VDG_CATALOG_JOURNAL_H_
#define VDG_CATALOG_JOURNAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace vdg {

/// Durability backend for a Virtual Data Catalog. The paper allows a
/// VDC to be "variously a relational database, OO database, XML
/// repository, or even a ... file system"; we implement the catalog as
/// an in-memory object graph whose mutations stream through one of
/// these journals. Replaying the journal reconstructs the catalog.
class CatalogJournal {
 public:
  virtual ~CatalogJournal() = default;

  /// Appends one record: a single logical mutation, any bytes (the
  /// catalog writes journal_record.h's binary layout). Backends may
  /// buffer the record in memory until the next Flush/Sync — the
  /// group-commit protocol: a batch of N mutations appends N records
  /// and pays one Flush at commit.
  virtual Status Append(const std::string& record) = 0;

  /// Hands every buffered record to the backing store. The commit
  /// point for group commit; a no-op for unbuffered backends. For a
  /// file this means the OS (fflush), not stable storage: nothing here
  /// calls fsync yet (ROADMAP.md, the durability item).
  virtual Status Flush() { return Status::OK(); }

  /// Reads every record previously appended, in order (flushing any
  /// buffered ones first).
  virtual Result<std::vector<std::string>> ReadAll() = 0;  // result-api-ok: journal records

  /// Hands buffered records to the OS, like Flush. Despite the name it
  /// does not fsync, so records are not yet on stable storage
  /// (ROADMAP.md, the durability item).
  virtual Status Sync() = 0;

  /// Atomically replaces the journal's contents with `records` (log
  /// compaction). Backends without rewrite support may return
  /// FailedPrecondition.
  virtual Status Rewrite(const std::vector<std::string>& records) {
    (void)records;
    return Status::FailedPrecondition("journal does not support rewrite");
  }

  /// True when appended records survive to a later ReadAll. The
  /// catalog only anchors flat-snapshot tail replay (record counting,
  /// chain CRC) on persistent journals.
  virtual bool persistent() const { return true; }
};

/// No durability: Append discards, ReadAll is empty. The memory-only
/// catalog configuration.
class NullJournal final : public CatalogJournal {
 public:
  Status Append(const std::string& record) override {
    (void)record;
    return Status::OK();
  }
  Result<std::vector<std::string>> ReadAll() override {  // result-api-ok: journal records
    return std::vector<std::string>{};  // result-api-ok: journal records
  }
  Status Sync() override { return Status::OK(); }
  bool persistent() const override { return false; }
};

/// What FileJournal::ReadAll did about a damaged log: how many records
/// survived, how many corrupt mid-file records were passed over, and
/// how many trailing bytes were cut away because the tail no longer
/// checksummed (a torn write or bit rot in the final record).
struct JournalTailRecovery {
  bool truncated = false;
  size_t records_recovered = 0;
  size_t records_skipped = 0;    // corrupt mid-file records passed over
  uint64_t valid_bytes = 0;      // file size kept after recovery
  uint64_t truncated_bytes = 0;  // corrupt tail bytes discarded
  std::string reason;            // human-readable cause, empty when clean
};

/// Append-only log file, one record per line. Reopening a catalog on
/// the same path replays the log (crash recovery = replay). Records
/// are arbitrary bytes: Append and Rewrite escape '\\' and '\n' in the
/// stored line, and ReadAll undoes it.
///
/// Crash safety: every appended line carries a CRC-32 of its payload
/// ("~xxxxxxxx|payload"). On replay, checksum damage at the tail — a
/// torn append, or rot in the final record — truncates the file back
/// to the last good record so future appends extend a clean log; a
/// corrupt record in the middle of the file is skipped so the
/// committed records after it survive. Either way the damage is
/// reported through last_recovery() instead of failing the whole
/// catalog open. Checksum-less lines from older journals are still
/// read (backward compatible with seed logs).
class FileJournal final : public CatalogJournal {
 public:
  explicit FileJournal(std::string path) : path_(std::move(path)) {}
  ~FileJournal() override;

  /// Buffers the escaped, checksummed line in memory; Flush/Sync
  /// writes it out.
  Status Append(const std::string& record) override;
  /// One fwrite + fflush for everything appended since the last Flush.
  Status Flush() override;
  Result<std::vector<std::string>> ReadAll() override;  // result-api-ok: journal records
  Status Sync() override;
  /// Writes `records` to `<path>.compact` then renames over the live
  /// file — crash-safe compaction.
  Status Rewrite(const std::vector<std::string>& records) override;

  const std::string& path() const { return path_; }

  /// Outcome of the most recent ReadAll (tail truncation report).
  const JournalTailRecovery& last_recovery() const { return last_recovery_; }

 private:
  Status EnsureOpen();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string pending_;  // appended-but-unflushed lines (group commit)
  JournalTailRecovery last_recovery_;
};

/// In-memory journal retaining records; used by tests to verify replay
/// and by the federation layer to ship catalog diffs.
class VectorJournal final : public CatalogJournal {
 public:
  Status Append(const std::string& record) override {
    records_.push_back(record);
    return Status::OK();
  }
  Result<std::vector<std::string>> ReadAll() override { return records_; }  // result-api-ok: journal records
  Status Sync() override { return Status::OK(); }
  Status Rewrite(const std::vector<std::string>& records) override {
    records_ = records;
    return Status::OK();
  }

  const std::vector<std::string>& records() const { return records_; }  // result-api-ok: journal records

 private:
  std::vector<std::string> records_;  // result-api-ok: journal records
};

}  // namespace vdg

#endif  // VDG_CATALOG_JOURNAL_H_
