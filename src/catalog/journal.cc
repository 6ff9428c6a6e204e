#include "catalog/journal.h"

#include <cstdio>
#include <filesystem>

#include "common/hash.h"

namespace vdg {

namespace {

// A checksummed line is "~" + 8 lowercase hex digits + "|" + payload.
// The payload is the record with '\\' and '\n' escaped, so a record
// may hold any bytes; the CRC covers the payload as stored. Every line
// this build writes is checksummed, so legacy checksum-less lines
// parse unambiguously.
constexpr char kCrcMarker = '~';
constexpr size_t kCrcPrefixLen = 10;  // '~' + 8 hex + '|'

std::string Escape(std::string_view record) {
  std::string out;
  out.reserve(record.size() + 8);
  size_t pos = 0;
  size_t hit;
  while ((hit = record.find_first_of("\\\n", pos)) != std::string_view::npos) {
    out.append(record.substr(pos, hit - pos));
    out += record[hit] == '\n' ? "\\n" : "\\\\";
    pos = hit + 1;
  }
  out.append(record.substr(pos));
  return out;
}

/// Undoes Escape. Any other backslash pair is kept as stored: only an
/// older build writes one, and its CRC-valid line must reach the caller
/// intact.
std::string Unescape(std::string_view payload) {
  std::string out;
  out.reserve(payload.size());
  size_t pos = 0;
  size_t hit;
  while ((hit = payload.find('\\', pos)) != std::string_view::npos &&
         hit + 1 < payload.size()) {
    const char next = payload[hit + 1];
    if (next != 'n' && next != '\\') {
      out.append(payload.substr(pos, hit + 1 - pos));
      pos = hit + 1;
      continue;
    }
    out.append(payload.substr(pos, hit - pos));
    out.push_back(next == 'n' ? '\n' : '\\');
    pos = hit + 2;
  }
  out.append(payload.substr(pos));
  return out;
}

std::string WithChecksum(const std::string& record) {
  const std::string payload = Escape(record);
  char prefix[kCrcPrefixLen + 1];
  std::snprintf(prefix, sizeof(prefix), "%c%08x|", kCrcMarker,
                Crc32(payload));
  return std::string(prefix, kCrcPrefixLen) + payload;
}

bool IsHex(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

/// Validates one checksummed line and extracts its payload. Returns
/// false when the prefix is malformed or the CRC does not match.
bool CheckLine(std::string_view line, std::string_view* payload) {
  if (line.size() < kCrcPrefixLen || line[0] != kCrcMarker ||
      line[kCrcPrefixLen - 1] != '|') {
    return false;
  }
  uint32_t stored = 0;
  for (size_t i = 1; i < kCrcPrefixLen - 1; ++i) {
    if (!IsHex(line[i])) return false;
    char c = line[i];
    stored = stored * 16 +
             static_cast<uint32_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  std::string_view body = line.substr(kCrcPrefixLen);
  if (Crc32(body) != stored) return false;
  *payload = body;
  return true;
}

}  // namespace

FileJournal::~FileJournal() {
  // Best effort: hand any buffered group-commit records to the OS so a
  // clean shutdown loses nothing even if the owner forgot to Flush.
  Status flushed = Flush();
  (void)flushed;
  if (file_ != nullptr) std::fclose(file_);
}

Status FileJournal::EnsureOpen() {
  if (file_ != nullptr) return Status::OK();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open journal for append: " + path_);
  }
  return Status::OK();
}

Status FileJournal::Append(const std::string& record) {
  // Surface open errors at append time, but buffer the line itself:
  // the write happens at Flush, so a batch of N appends costs one
  // fwrite+fflush instead of N. Flush hands the records to the OS; it
  // does not fsync (ROADMAP.md, the durability item).
  VDG_RETURN_IF_ERROR(EnsureOpen());
  pending_ += WithChecksum(record);
  pending_ += '\n';
  return Status::OK();
}

Status FileJournal::Flush() {
  if (pending_.empty()) return Status::OK();
  VDG_RETURN_IF_ERROR(EnsureOpen());
  if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
      pending_.size()) {
    return Status::IoError("short write to journal: " + path_);
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("fflush failed: " + path_);
  }
  pending_.clear();
  return Status::OK();
}

Result<std::vector<std::string>> FileJournal::ReadAll() {
  last_recovery_ = JournalTailRecovery{};
  // Flush pending appends so we read our own writes.
  VDG_RETURN_IF_ERROR(Flush());
  if (file_ != nullptr) std::fflush(file_);
  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) {
    // A missing file is an empty journal (fresh catalog).
    return std::vector<std::string>{};
  }
  std::string content;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    content.append(buf, n);
  }
  std::fclose(in);

  std::vector<std::string> records;
  size_t pos = 0;            // start of the current line
  size_t valid_end = 0;      // byte offset just past the last good line
  std::string bad_reason;
  while (pos < content.size()) {
    size_t nl = content.find('\n', pos);
    bool complete = nl != std::string::npos;
    std::string_view line(content.data() + pos,
                          (complete ? nl : content.size()) - pos);
    if (!line.empty() && line[0] == kCrcMarker) {
      std::string_view payload;
      if (!CheckLine(line, &payload)) {
        if (!complete || nl + 1 >= content.size()) {
          // Damage at the very tail (torn append, or rot in the final
          // record): nothing committed lies beyond it, so truncating
          // back to the last good record is lossless.
          bad_reason = complete ? "checksum mismatch in final journal record"
                                : "torn checksummed record at journal tail";
          break;
        }
        // Mid-file corruption with committed records after it: losing
        // those to a tail truncation would destroy good data. Skip
        // just the bad record and keep replaying.
        ++last_recovery_.records_skipped;
        last_recovery_.reason =
            "checksum mismatch in journal record (skipped)";
        pos = nl + 1;
        valid_end = pos;
        continue;
      }
      records.push_back(Unescape(payload));
    } else if (!line.empty()) {
      // Legacy checksum-less record (seed journals): accepted,
      // including a newline-less tail (indistinguishable from torn).
      records.push_back(Unescape(line));
    }
    pos = complete ? nl + 1 : content.size();
    valid_end = pos;
  }

  last_recovery_.records_recovered = records.size();
  last_recovery_.valid_bytes = valid_end;
  if (!bad_reason.empty() && valid_end < content.size()) {
    // Corrupt tail: keep the valid prefix, physically truncate the
    // rest so future appends extend a clean log.
    last_recovery_.truncated = true;
    last_recovery_.truncated_bytes = content.size() - valid_end;
    last_recovery_.reason = bad_reason;
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
    std::error_code ec;
    std::filesystem::resize_file(path_, valid_end, ec);
    if (ec) {
      return Status::IoError("cannot truncate corrupt journal tail of " +
                             path_ + ": " + ec.message());
    }
  }
  return records;
}

Status FileJournal::Sync() {
  VDG_RETURN_IF_ERROR(Flush());
  if (file_ == nullptr) return Status::OK();
  if (std::fflush(file_) != 0) {
    return Status::IoError("fflush failed: " + path_);
  }
  return Status::OK();
}

Status FileJournal::Rewrite(const std::vector<std::string>& records) {
  // Buffered appends are subsumed by the compacted state snapshot the
  // caller passes in; writing them first would only duplicate them.
  pending_.clear();
  std::string temp_path = path_ + ".compact";
  std::FILE* out = std::fopen(temp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IoError("cannot open " + temp_path + " for compaction");
  }
  for (const std::string& record : records) {
    std::string line = WithChecksum(record);
    if (std::fwrite(line.data(), 1, line.size(), out) != line.size() ||
        std::fputc('\n', out) == EOF) {
      std::fclose(out);
      std::remove(temp_path.c_str());
      return Status::IoError("short write during compaction: " + temp_path);
    }
  }
  if (std::fflush(out) != 0 || std::fclose(out) != 0) {
    std::remove(temp_path.c_str());
    return Status::IoError("cannot finalize compacted journal");
  }
  // Close the live handle before replacing the file underneath it.
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (std::rename(temp_path.c_str(), path_.c_str()) != 0) {
    return Status::IoError("cannot replace journal with compacted copy");
  }
  return Status::OK();
}

}  // namespace vdg
