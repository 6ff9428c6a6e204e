#ifndef VDG_COMMON_STRINGS_H_
#define VDG_COMMON_STRINGS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace vdg {

/// Splits `input` on every occurrence of `sep`. Adjacent separators
/// produce empty pieces; an empty input yields one empty piece.
std::vector<std::string> StrSplit(std::string_view input, char sep);

/// Splits and drops empty pieces and surrounding whitespace.
std::vector<std::string> StrSplitTrimmed(std::string_view input, char sep);

/// Joins `pieces` with `sep` between each pair.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Lower-cases ASCII characters only.
std::string AsciiToLower(std::string_view s);

/// True when `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_.-]*.
/// This is the lexical rule for VDG object names (transformations,
/// derivations, type names).
bool IsValidIdentifier(std::string_view s);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string StrReplaceAll(std::string_view s, std::string_view from,
                          std::string_view to);

/// Formats a double without trailing zero noise ("3.5", "2", "0.125").
/// Truncates to 6 significant digits — display only, NOT round-trip
/// safe. Persistence paths must use FormatDoubleRoundTrip.
std::string FormatDouble(double value);

/// Shortest decimal form that parses back (strtod) to the exact same
/// bits. Used by every text serialization path (XML) so double-valued
/// attributes survive export→import unchanged.
std::string FormatDoubleRoundTrip(double value);

/// Append-only string interner mapping names to dense 32-bit ids.
///
/// Built for a single-writer / many-reader regime: all mutation
/// (Intern) happens under the owner's exclusive lock, while readers
/// work off an immutable View captured at a publication point. Interned
/// strings live in fixed-capacity chunks whose slots are never moved or
/// freed, so a string_view handed out for an id stays valid for the
/// table's lifetime; a View only resolves ids below its published
/// count, so the writer may keep filling later slots concurrently.
///
/// Ids are assigned in interning order, NOT name order. Reverse lookups
/// go through one append-only open-addressing table of ids shared by
/// the writer and every View: the writer only ever fills empty slots,
/// and a View skips ids at or above its count, so it never resolves a
/// name interned after it was published. Growing past half load
/// rehashes into a fresh table; older Views keep theirs alive. Publish
/// is therefore O(1).
class SymbolTable {
 public:
  using Id = uint32_t;
  static constexpr Id kNoSymbol = 0xffffffffu;

 private:
  using Chunk = std::vector<std::string>;
  static constexpr size_t kChunkCapacity = 1024;

  /// Chunk pointers by chunk number, in a fixed-capacity array: the
  /// writer appends past every published count, and outgrowing it
  /// copies the pointers into a larger Spine (older Views keep theirs).
  struct Spine {
    explicit Spine(size_t cap)
        : capacity(cap), chunks(new std::shared_ptr<Chunk>[cap]) {}
    size_t capacity;
    std::unique_ptr<std::shared_ptr<Chunk>[]> chunks;
  };
  /// One id-table slot. The name's bytes ride along so a probe
  /// compares without walking to the chunk; they are written before the
  /// id and read only for ids below a published count.
  struct Slot {
    const char* data = nullptr;
    uint32_t size = 0;
    std::atomic<Id> id{kNoSymbol};
  };
  /// Linear-probing id table (id kNoSymbol = empty), at most half full.
  struct Lookup {
    explicit Lookup(size_t cap) : mask(cap - 1), slots(new Slot[cap]) {}
    size_t mask;
    std::unique_ptr<Slot[]> slots;
  };

  static std::string_view NameIn(const Spine& spine, Id id) {
    return (*spine.chunks[id / kChunkCapacity])[id % kChunkCapacity];
  }
  static Id Probe(const Lookup& lookup, size_t count, std::string_view name,
                  size_t* empty_slot);
  /// Fills an empty slot of `lookup` with `id` and its name.
  static void FillSlot(Lookup* lookup, size_t slot, Id id,
                       std::string_view name);

 public:
  /// Immutable reader-side handle: resolves ids and names against the
  /// table as of the Publish() that produced it. Copyable, cheap, and
  /// safe to use concurrently with writer-side Intern calls.
  class View {
   public:
    View() = default;

    /// Name for `id`, or empty view when `id` was not yet published.
    std::string_view NameOf(Id id) const {
      return id < count_ ? NameIn(*spine_, id) : std::string_view();
    }

    /// Id for `name`, or kNoSymbol when it was not yet published.
    Id FindId(std::string_view name) const;

    size_t size() const { return count_; }

   private:
    friend class SymbolTable;
    std::shared_ptr<const Spine> spine_;
    std::shared_ptr<const Lookup> lookup_;
    size_t count_ = 0;
  };

  SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id for `name`, interning it if new. Writer-only; the
  /// caller must hold its exclusive lock.
  Id Intern(std::string_view name);

  /// Writer-side lookup without interning; kNoSymbol when absent.
  Id Find(std::string_view name) const;

  /// Writer-side resolve. `id` must be < size().
  std::string_view NameOf(Id id) const {
    return id < count_ ? NameIn(*spine_, id) : std::string_view();
  }

  size_t size() const { return count_; }

  /// True when symbols were interned since the last Publish().
  bool dirty() const { return count_ != published_count_; }

  /// Captures an immutable View of the table: three pointer copies.
  View Publish();

 private:
  std::shared_ptr<Spine> spine_;
  std::shared_ptr<Lookup> lookup_;
  size_t count_ = 0;
  size_t published_count_ = 0;
};

}  // namespace vdg

#endif  // VDG_COMMON_STRINGS_H_
