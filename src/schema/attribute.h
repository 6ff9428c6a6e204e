#ifndef VDG_SCHEMA_ATTRIBUTE_H_
#define VDG_SCHEMA_ATTRIBUTE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace vdg {

/// A single metadata value. The paper requires every schema object to
/// carry "arbitrary additional attributes" beyond its required fields;
/// we support the four scalar kinds needed by the annotation and
/// discovery mechanisms.
class AttributeValue {
 public:
  AttributeValue() : value_(std::string()) {}
  AttributeValue(std::string v) : value_(std::move(v)) {}      // NOLINT
  AttributeValue(const char* v) : value_(std::string(v)) {}    // NOLINT
  AttributeValue(int64_t v) : value_(v) {}                     // NOLINT
  AttributeValue(int v) : value_(static_cast<int64_t>(v)) {}   // NOLINT
  AttributeValue(double v) : value_(v) {}                      // NOLINT
  AttributeValue(bool v) : value_(v) {}                        // NOLINT

  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_int() const { return std::holds_alternative<int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }

  const std::string& AsString() const { return std::get<std::string>(value_); }
  int64_t AsInt() const { return std::get<int64_t>(value_); }
  double AsDouble() const { return std::get<double>(value_); }
  bool AsBool() const { return std::get<bool>(value_); }

  /// Numeric view: ints and doubles coerce; others return nullopt.
  std::optional<double> AsNumber() const;

  /// Canonical text rendering (used for signatures and display).
  /// Doubles are truncated to 6 significant digits — human-facing
  /// only; persistence must use ToWireString().
  std::string ToString() const;
  /// Round-trip-exact rendering: identical to ToString() except that
  /// doubles use shortest-exact formatting, so
  /// FromTagged(TypeTag(), ToWireString()) reproduces the value
  /// bit-for-bit. This is what XML export writes.
  std::string ToWireString() const;
  /// Type tag: "s", "i", "d", or "b" (used by the wire encoding).
  char TypeTag() const;

  /// Inverse of ToWireString()+TypeTag(). Rejects out-of-range
  /// integers and non-finite doubles (nan/inf break the attribute
  /// index's equality normalization) with ParseError.
  static Result<AttributeValue> FromTagged(char tag, std::string_view text);

  bool operator==(const AttributeValue& other) const {
    return value_ == other.value_;
  }

 private:
  std::variant<std::string, int64_t, double, bool> value_;
};

/// An ordered set of named attributes. Ordering is lexicographic so
/// serialized forms (and signature hashes) are canonical.
class AttributeSet {
 public:
  void Set(std::string_view key, AttributeValue value);
  bool Has(std::string_view key) const;
  /// Removes `key`; returns true if it was present.
  bool Erase(std::string_view key);

  const AttributeValue* Find(std::string_view key) const;

  /// Typed getters returning nullopt on absence or kind mismatch.
  std::optional<std::string> GetString(std::string_view key) const;
  std::optional<int64_t> GetInt(std::string_view key) const;
  std::optional<double> GetDouble(std::string_view key) const;
  std::optional<bool> GetBool(std::string_view key) const;

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  auto begin() const { return values_.begin(); }
  auto end() const { return values_.end(); }

  /// Canonical one-line rendering "k1=v1;k2=v2" for hashing/logging.
  std::string ToString() const;

  bool operator==(const AttributeSet& other) const {
    return values_ == other.values_;
  }

 private:
  std::map<std::string, AttributeValue, std::less<>> values_;
};

/// Comparison operators usable in attribute queries (discovery).
enum class PredicateOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains, kExists };

/// One condition on an attribute; a query is a conjunction of these.
struct AttributePredicate {
  std::string key;
  PredicateOp op = PredicateOp::kExists;
  AttributeValue operand;

  /// Evaluates this predicate against `attrs`. String comparisons are
  /// lexicographic; numeric comparisons coerce int/double. kContains
  /// does substring matching on the string rendering.
  bool Matches(const AttributeSet& attrs) const;
};

/// True when every predicate in `conjunction` matches.
bool MatchesAll(const AttributeSet& attrs,
                const std::vector<AttributePredicate>& conjunction);

}  // namespace vdg

#endif  // VDG_SCHEMA_ATTRIBUTE_H_
