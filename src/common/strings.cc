#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace vdg {

std::vector<std::string> StrSplit(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> StrSplitTrimmed(std::string_view input, char sep) {
  std::vector<std::string> out;
  for (const std::string& piece : StrSplit(input, sep)) {
    std::string_view trimmed = StrTrim(piece);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string_view StrTrim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool IsValidIdentifier(std::string_view s) {
  if (s.empty()) return false;
  unsigned char first = static_cast<unsigned char>(s[0]);
  if (!std::isalpha(first) && s[0] != '_') return false;
  for (char c : s.substr(1)) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (!std::isalnum(uc) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::string StrReplaceAll(std::string_view s, std::string_view from,
                          std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string FormatDoubleRoundTrip(double value) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {  // cannot happen with a 64-byte buffer
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  return std::string(buf, ptr);
}

namespace {
constexpr size_t kInitialLookupSlots = 1024;
constexpr size_t kInitialSpineChunks = 16;
}  // namespace

SymbolTable::SymbolTable()
    : spine_(std::make_shared<Spine>(kInitialSpineChunks)),
      lookup_(std::make_shared<Lookup>(kInitialLookupSlots)) {}

SymbolTable::Id SymbolTable::Probe(const Lookup& lookup, size_t count,
                                   std::string_view name,
                                   size_t* empty_slot) {
  // Relaxed loads suffice: an id below `count` was stored before the
  // publication that handed out `count`, and the slot's name fields and
  // the string itself are ordered by the same edge; ids at or above
  // `count` are skipped before their name fields are read.
  for (size_t i = std::hash<std::string_view>{}(name) & lookup.mask;;
       i = (i + 1) & lookup.mask) {
    const Slot& slot = lookup.slots[i];
    const Id id = slot.id.load(std::memory_order_relaxed);
    if (id == kNoSymbol) {
      if (empty_slot != nullptr) *empty_slot = i;
      return kNoSymbol;
    }
    if (id < count && std::string_view(slot.data, slot.size) == name) {
      return id;
    }
  }
}

void SymbolTable::FillSlot(Lookup* lookup, size_t slot, Id id,
                           std::string_view name) {
  Slot& s = lookup->slots[slot];
  s.data = name.data();
  s.size = static_cast<uint32_t>(name.size());
  s.id.store(id, std::memory_order_relaxed);
}

SymbolTable::Id SymbolTable::View::FindId(std::string_view name) const {
  if (lookup_ == nullptr) return kNoSymbol;
  return Probe(*lookup_, count_, name, nullptr);
}

SymbolTable::Id SymbolTable::Intern(std::string_view name) {
  size_t empty = 0;
  const Id found = Probe(*lookup_, count_, name, &empty);
  if (found != kNoSymbol) return found;
  const Id id = static_cast<Id>(count_);
  const size_t slot = count_ % kChunkCapacity;
  if (slot == 0) {
    const size_t chunk_no = count_ / kChunkCapacity;
    if (chunk_no == spine_->capacity) {
      auto grown = std::make_shared<Spine>(spine_->capacity * 2);
      for (size_t c = 0; c < chunk_no; ++c) {
        grown->chunks[c] = spine_->chunks[c];
      }
      spine_ = std::move(grown);
    }
    // Pre-size the chunk so the vector's metadata and element array
    // never change after creation: the writer assigns into slots the
    // published count has not reached, readers index below it.
    spine_->chunks[chunk_no] = std::make_shared<Chunk>(kChunkCapacity);
  }
  (*spine_->chunks[count_ / kChunkCapacity])[slot] = std::string(name);
  ++count_;
  if (2 * count_ > lookup_->mask + 1) {
    // Rehash into a table twice the size; Views published earlier keep
    // probing the old one, which is never written again.
    auto grown = std::make_shared<Lookup>(2 * (lookup_->mask + 1));
    for (Id old = 0; old < count_; ++old) {
      const std::string_view stored = NameIn(*spine_, old);
      size_t i = std::hash<std::string_view>{}(stored) & grown->mask;
      while (grown->slots[i].id.load(std::memory_order_relaxed) !=
             kNoSymbol) {
        i = (i + 1) & grown->mask;
      }
      FillSlot(grown.get(), i, old, stored);
    }
    lookup_ = std::move(grown);
  } else {
    FillSlot(lookup_.get(), empty, id, NameIn(*spine_, id));
  }
  return id;
}

SymbolTable::Id SymbolTable::Find(std::string_view name) const {
  return Probe(*lookup_, count_, name, nullptr);
}

SymbolTable::View SymbolTable::Publish() {
  published_count_ = count_;
  View view;
  view.spine_ = spine_;
  view.lookup_ = lookup_;
  view.count_ = count_;
  return view;
}

}  // namespace vdg
