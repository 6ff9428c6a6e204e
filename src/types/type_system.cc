#include "types/type_system.h"

#include <algorithm>
#include <tuple>

#include "common/strings.h"

namespace vdg {

std::string_view TypeDimensionBaseName(TypeDimension dim) {
  switch (dim) {
    case TypeDimension::kContent:
      return "Dataset-content";
    case TypeDimension::kFormat:
      return "Dataset-format";
    case TypeDimension::kEncoding:
      return "Dataset-encoding";
  }
  return "Dataset";
}

std::string_view TypeDimensionName(TypeDimension dim) {
  switch (dim) {
    case TypeDimension::kContent:
      return "content";
    case TypeDimension::kFormat:
      return "format";
    case TypeDimension::kEncoding:
      return "encoding";
  }
  return "?";
}

TypeHierarchy::TypeHierarchy(TypeDimension dimension)
    : dimension_(dimension), base_name_(TypeDimensionBaseName(dimension)) {}

Status TypeHierarchy::Define(std::string_view name, std::string_view parent) {
  if (!IsValidIdentifier(name)) {
    return Status::InvalidArgument("invalid type name: " + std::string(name));
  }
  if (name == base_name_) {
    return Status::InvalidArgument("cannot redefine dimension base " +
                                   base_name_);
  }
  if (parent != base_name_ && !Contains(parent)) {
    return Status::NotFound("parent type not defined: " + std::string(parent));
  }
  auto [it, inserted] =
      parent_.emplace(std::string(name), std::string(parent));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("type already defined: " + std::string(name));
  }
  return Status::OK();
}

bool TypeHierarchy::Contains(std::string_view name) const {
  return parent_.find(name) != parent_.end();
}

Result<std::string> TypeHierarchy::ParentOf(std::string_view name) const {
  auto it = parent_.find(name);
  if (it == parent_.end()) {
    return Status::NotFound("type not defined: " + std::string(name));
  }
  return it->second;
}

bool TypeHierarchy::IsSubtypeOf(std::string_view name,
                                std::string_view ancestor) const {
  if (name == ancestor) return name == base_name_ || Contains(name);
  if (!Contains(name)) return false;
  std::string_view cur = name;
  while (true) {
    auto it = parent_.find(cur);
    if (it == parent_.end()) return false;  // walked past a defined chain
    if (it->second == ancestor) return true;
    if (it->second == base_name_) return ancestor == base_name_;
    cur = it->second;
  }
}

Result<std::vector<std::string>> TypeHierarchy::AncestryOf(
    std::string_view name) const {
  if (name == base_name_) return std::vector<std::string>{base_name_};
  if (!Contains(name)) {
    return Status::NotFound("type not defined: " + std::string(name));
  }
  std::vector<std::string> out;
  std::string cur(name);
  out.push_back(cur);
  while (cur != base_name_) {
    auto it = parent_.find(cur);
    if (it == parent_.end()) break;
    cur = it->second;
    out.push_back(cur);
  }
  return out;
}

std::vector<std::string> TypeHierarchy::ChildrenOf(
    std::string_view name) const {
  std::vector<std::string> out;
  for (const auto& [child, parent] : parent_) {
    if (parent == name) out.push_back(child);
  }
  return out;  // map iteration order is already sorted
}

NameList TypeHierarchy::AllTypes() const {
  std::vector<std::string> out;
  out.reserve(parent_.size());
  for (const auto& [name, parent] : parent_) {
    (void)parent;
    out.push_back(name);
  }
  return NameList::FromStrings(std::move(out));
}

Result<int> TypeHierarchy::DepthOf(std::string_view name) const {
  VDG_ASSIGN_OR_RETURN(std::vector<std::string> chain, AncestryOf(name));
  return static_cast<int>(chain.size()) - 1;
}

std::vector<std::pair<std::string, std::string>>
TypeHierarchy::EdgesParentsFirst() const {
  std::vector<std::tuple<int, std::string, std::string>> by_depth;
  for (const auto& [name, parent] : parent_) {
    Result<int> depth = DepthOf(name);
    by_depth.emplace_back(depth.ok() ? *depth : 0, name, parent);
  }
  std::sort(by_depth.begin(), by_depth.end());
  std::vector<std::pair<std::string, std::string>> edges;
  edges.reserve(by_depth.size());
  for (auto& [depth, name, parent] : by_depth) {
    edges.emplace_back(std::move(name), std::move(parent));
  }
  return edges;
}

const std::string& DatasetType::component(TypeDimension dim) const {
  switch (dim) {
    case TypeDimension::kContent:
      return content;
    case TypeDimension::kFormat:
      return format;
    case TypeDimension::kEncoding:
      return encoding;
  }
  return content;
}

std::string& DatasetType::component(TypeDimension dim) {
  switch (dim) {
    case TypeDimension::kContent:
      return content;
    case TypeDimension::kFormat:
      return format;
    case TypeDimension::kEncoding:
      return encoding;
  }
  return content;
}

std::string DatasetType::ToString() const {
  auto piece = [](const std::string& s) { return s.empty() ? "*" : s.c_str(); };
  std::string out;
  out += piece(content);
  out += "/";
  out += piece(format);
  out += "/";
  out += piece(encoding);
  return out;
}

Result<DatasetType> DatasetType::Parse(std::string_view text) {
  std::string_view trimmed = StrTrim(text);
  if (trimmed == "Dataset" || trimmed == "*" || trimmed.empty()) {
    return DatasetType::Any();
  }
  std::vector<std::string> parts = StrSplit(trimmed, '/');
  if (parts.size() > 3) {
    return Status::ParseError("dataset type has more than 3 components: " +
                              std::string(text));
  }
  DatasetType out;
  for (int i = 0; i < static_cast<int>(parts.size()); ++i) {
    std::string_view p = StrTrim(parts[i]);
    if (p == "*" || p.empty()) continue;
    if (!IsValidIdentifier(p)) {
      return Status::ParseError("invalid type component: " + std::string(p));
    }
    out.component(static_cast<TypeDimension>(i)) = std::string(p);
  }
  return out;
}

TypeRegistry::TypeRegistry() {
  hierarchies_.reserve(kNumTypeDimensions);
  for (int i = 0; i < kNumTypeDimensions; ++i) {
    hierarchies_.emplace_back(static_cast<TypeDimension>(i));
  }
}

Status TypeRegistry::Define(TypeDimension dim, std::string_view name,
                            std::string_view parent) {
  return dimension(dim).Define(name, parent);
}

Status TypeRegistry::Validate(const DatasetType& type) const {
  for (int i = 0; i < kNumTypeDimensions; ++i) {
    auto dim = static_cast<TypeDimension>(i);
    const std::string& comp = type.component(dim);
    if (comp.empty()) continue;
    const TypeHierarchy& h = dimension(dim);
    if (comp != h.base_name() && !h.Contains(comp)) {
      return Status::TypeError("unknown " +
                               std::string(TypeDimensionName(dim)) +
                               " type: " + comp);
    }
  }
  return Status::OK();
}

bool TypeRegistry::Conforms(const DatasetType& actual,
                            const DatasetType& formal) const {
  for (int i = 0; i < kNumTypeDimensions; ++i) {
    auto dim = static_cast<TypeDimension>(i);
    const std::string& want = formal.component(dim);
    if (want.empty()) continue;  // unconstrained dimension
    const TypeHierarchy& h = dimension(dim);
    std::string_view have = actual.component(dim);
    if (have.empty()) have = h.base_name();
    std::string_view want_name =
        want == h.base_name() ? h.base_name() : std::string_view(want);
    if (want_name == h.base_name()) continue;  // base accepts anything
    if (!h.IsSubtypeOf(have, want_name)) return false;
  }
  return true;
}

bool TypeRegistry::ConformsToAny(
    const DatasetType& actual,
    const std::vector<DatasetType>& formal_union) const {
  if (formal_union.empty()) return true;
  for (const DatasetType& formal : formal_union) {
    if (Conforms(actual, formal)) return true;
  }
  return false;
}

DatasetType TypeRegistry::CommonSupertype(const DatasetType& a,
                                          const DatasetType& b) const {
  DatasetType out;
  for (int i = 0; i < kNumTypeDimensions; ++i) {
    auto dim = static_cast<TypeDimension>(i);
    const TypeHierarchy& h = dimension(dim);
    const std::string& ca = a.component(dim);
    const std::string& cb = b.component(dim);
    if (ca.empty() || cb.empty()) continue;  // base dominates
    auto chain_a = h.AncestryOf(ca);
    auto chain_b = h.AncestryOf(cb);
    if (!chain_a.ok() || !chain_b.ok()) continue;
    // Find the deepest name present in both ancestry chains.
    for (const std::string& anc : *chain_a) {
      if (std::find(chain_b->begin(), chain_b->end(), anc) !=
          chain_b->end()) {
        if (anc != h.base_name()) out.component(dim) = anc;
        break;
      }
    }
  }
  return out;
}

Status TypeRegistry::LoadAppendixCPreset() {
  struct Entry {
    TypeDimension dim;
    const char* name;
    const char* parent;  // nullptr => dimension base
  };
  static const Entry kEntries[] = {
      // Dimension: Dataset-format
      {TypeDimension::kFormat, "Fileset", nullptr},
      {TypeDimension::kFormat, "Simple", "Fileset"},
      {TypeDimension::kFormat, "Multi-file-list", "Fileset"},
      {TypeDimension::kFormat, "Tar-archive", "Fileset"},
      {TypeDimension::kFormat, "Zip-archive", "Fileset"},
      {TypeDimension::kFormat, "Spreadsheet", nullptr},
      {TypeDimension::kFormat, "Excel-95", "Spreadsheet"},
      {TypeDimension::kFormat, "Excel-2000", "Spreadsheet"},
      {TypeDimension::kFormat, "Relation", nullptr},
      {TypeDimension::kFormat, "SQL-table", "Relation"},
      {TypeDimension::kFormat, "SQL-table-set", "Relation"},
      {TypeDimension::kFormat, "SQL-table-keyrange", "Relation"},
      // Dimension: Dataset-encoding
      {TypeDimension::kEncoding, "Text", nullptr},
      {TypeDimension::kEncoding, "ASCII", "Text"},
      {TypeDimension::kEncoding, "DOS-text", "ASCII"},
      {TypeDimension::kEncoding, "UNIX-text", "ASCII"},
      {TypeDimension::kEncoding, "EBCDIC", "Text"},
      {TypeDimension::kEncoding, "MVS-Text", "EBCDIC"},
      {TypeDimension::kEncoding, "Unicode", "Text"},
      {TypeDimension::kEncoding, "Table", nullptr},
      {TypeDimension::kEncoding, "Tab-separated-table", "Table"},
      {TypeDimension::kEncoding, "Comma-separated-table", "Table"},
      {TypeDimension::kEncoding, "HDF-file", nullptr},
      {TypeDimension::kEncoding, "HDF-4-file", "HDF-file"},
      {TypeDimension::kEncoding, "HDF-5-file", "HDF-file"},
      {TypeDimension::kEncoding, "SPSS", nullptr},
      {TypeDimension::kEncoding, "SPSS-portable", "SPSS"},
      {TypeDimension::kEncoding, "SPSS-native", "SPSS"},
      {TypeDimension::kEncoding, "SAS", nullptr},
      {TypeDimension::kEncoding, "SAS-transport", "SAS"},
      {TypeDimension::kEncoding, "SAS-native", "SAS"},
      // Dimension: Dataset-content
      {TypeDimension::kContent, "UChicago", nullptr},
      {TypeDimension::kContent, "UChicago-student-record", "UChicago"},
      {TypeDimension::kContent, "UChicago-class-record", "UChicago"},
      {TypeDimension::kContent, "CMS", nullptr},
      {TypeDimension::kContent, "Simulation", "CMS"},
      {TypeDimension::kContent, "Zebra-file", "Simulation"},
      {TypeDimension::kContent, "Geant-4-file", "Simulation"},
      {TypeDimension::kContent, "Analysis", "CMS"},
      {TypeDimension::kContent, "ROOT-IO-file", "Analysis"},
      {TypeDimension::kContent, "PAW-ntuple-file", "Analysis"},
      {TypeDimension::kContent, "SDSS", nullptr},
      {TypeDimension::kContent, "FITS-file", "SDSS"},
      {TypeDimension::kContent, "Object-map", "SDSS"},
      {TypeDimension::kContent, "Spectrometry-raw", "SDSS"},
      {TypeDimension::kContent, "Image-raw", "SDSS"},
  };
  for (const Entry& e : kEntries) {
    std::string_view parent =
        e.parent != nullptr ? std::string_view(e.parent)
                            : TypeDimensionBaseName(e.dim);
    VDG_RETURN_IF_ERROR(Define(e.dim, e.name, parent));
  }
  return Status::OK();
}

size_t TypeRegistry::size() const {
  size_t total = 0;
  for (const TypeHierarchy& h : hierarchies_) total += h.size();
  return total;
}

}  // namespace vdg
