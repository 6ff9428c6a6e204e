#ifndef VDG_TYPES_TYPE_SYSTEM_H_
#define VDG_TYPES_TYPE_SYSTEM_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/name_list.h"
#include "common/status.h"

namespace vdg {

/// The three orthogonal dimensions of a dataset type (Section 3.1).
/// A fully specified type names one node in each dimension's hierarchy;
/// "multiple inheritance" in the paper's sense arises from combining
/// the dimensions.
enum class TypeDimension { kContent = 0, kFormat = 1, kEncoding = 2 };

/// Number of dimensions; handy for iteration.
inline constexpr int kNumTypeDimensions = 3;

/// Dimension base-type names as defined by the paper: a formal argument
/// typed at the base of every dimension is "essentially untyped".
std::string_view TypeDimensionBaseName(TypeDimension dim);
std::string_view TypeDimensionName(TypeDimension dim);

/// A single dimension's subtype forest. Every defined name has exactly
/// one parent; the dimension base name is the implicit root.
class TypeHierarchy {
 public:
  explicit TypeHierarchy(TypeDimension dimension);

  TypeDimension dimension() const { return dimension_; }
  std::string_view base_name() const { return base_name_; }

  /// Defines `name` as a direct subtype of `parent`. The parent must
  /// already exist (or be the base name). Fails with AlreadyExists on
  /// redefinition and InvalidArgument on bad identifiers.
  Status Define(std::string_view name, std::string_view parent);

  /// Defines `name` directly under the dimension base.
  Status DefineTopLevel(std::string_view name) {
    return Define(name, base_name_);
  }

  bool Contains(std::string_view name) const;

  /// Parent of `name`; the base name has no parent (NotFound).
  Result<std::string> ParentOf(std::string_view name) const;

  /// Reflexive, transitive subtype test. Every defined name (and the
  /// base itself) is a subtype of the base name. Unknown names are
  /// never subtypes of anything.
  bool IsSubtypeOf(std::string_view name, std::string_view ancestor) const;

  /// Path from `name` up to (and including) the base name. Fails if
  /// `name` is unknown.
  Result<std::vector<std::string>> AncestryOf(std::string_view name) const;

  /// Direct children of `name` (sorted). `name` may be the base name.
  std::vector<std::string> ChildrenOf(std::string_view name) const;

  /// All defined names (sorted), excluding the base name — a
  /// self-owning NameList, the same result-plane list type the catalog
  /// returns (DESIGN.md §15), so the type layer has no private copying
  /// result path.
  NameList AllTypes() const;

  /// Distance from the base name (base = 0). Unknown names: NotFound.
  Result<int> DepthOf(std::string_view name) const;

  /// Every (name, parent) edge, parents first (by depth, then name), so
  /// defining them in order rebuilds the hierarchy.
  std::vector<std::pair<std::string, std::string>> EdgesParentsFirst() const;

  size_t size() const { return parent_.size(); }

 private:
  TypeDimension dimension_;
  std::string base_name_;
  std::map<std::string, std::string, std::less<>> parent_;
};

/// A (possibly partially specified) dataset type: one name per
/// dimension. An empty component means "the dimension base", i.e.
/// unconstrained in that dimension.
struct DatasetType {
  std::string content;   // e.g. "CMS" / "SDSS" / "Simulation"
  std::string format;    // e.g. "Fileset" / "Relation"
  std::string encoding;  // e.g. "Text" / "HDF-file"

  /// The fully unconstrained type, the paper's "Dataset" synonym.
  static DatasetType Any() { return DatasetType{}; }

  /// True when all three components are unconstrained.
  bool IsAny() const {
    return content.empty() && format.empty() && encoding.empty();
  }

  const std::string& component(TypeDimension dim) const;
  std::string& component(TypeDimension dim);

  /// Canonical rendering "content/format/encoding" with "*" for
  /// unconstrained components, e.g. "SDSS/Fileset/*".
  std::string ToString() const;

  /// Parses the ToString() form. Bare "Dataset" parses to Any().
  static Result<DatasetType> Parse(std::string_view text);

  bool operator==(const DatasetType& other) const {
    return content == other.content && format == other.format &&
           encoding == other.encoding;
  }
  bool operator<(const DatasetType& other) const {
    if (content != other.content) return content < other.content;
    if (format != other.format) return format < other.format;
    return encoding < other.encoding;
  }
};

/// Owns the three dimension hierarchies and implements the paper's
/// conformance rule: a dataset of type A may bind to a formal argument
/// of type F iff, in every dimension, A's component is a (reflexive)
/// subtype of F's component. Formal arguments may also be typed as a
/// *list* of dataset types (a union); conformance then requires
/// matching at least one list element.
class TypeRegistry {
 public:
  TypeRegistry();

  TypeHierarchy& dimension(TypeDimension dim) {
    return hierarchies_[static_cast<int>(dim)];
  }
  const TypeHierarchy& dimension(TypeDimension dim) const {
    return hierarchies_[static_cast<int>(dim)];
  }

  /// Defines a type name under `parent` in the given dimension.
  Status Define(TypeDimension dim, std::string_view name,
                std::string_view parent);

  /// Checks that every non-empty component of `type` is defined.
  Status Validate(const DatasetType& type) const;

  /// Single-type conformance (see class comment).
  bool Conforms(const DatasetType& actual, const DatasetType& formal) const;

  /// Union-type conformance: true when `formal_union` is empty (an
  /// untyped argument accepts anything) or `actual` conforms to at
  /// least one element.
  bool ConformsToAny(const DatasetType& actual,
                     const std::vector<DatasetType>& formal_union) const;

  /// Most-derived common supertype of `a` and `b`, per dimension.
  DatasetType CommonSupertype(const DatasetType& a,
                              const DatasetType& b) const;

  /// Installs the Appendix-C example hierarchy (Fileset/Spreadsheet/
  /// Relation formats; Text/Table/HDF/SPSS/SAS encodings; UChicago/
  /// CMS/SDSS content trees). Idempotent on a fresh registry.
  Status LoadAppendixCPreset();

  /// Total number of type names across all dimensions.
  size_t size() const;

 private:
  std::vector<TypeHierarchy> hierarchies_;
};

}  // namespace vdg

#endif  // VDG_TYPES_TYPE_SYSTEM_H_
