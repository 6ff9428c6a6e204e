#ifndef VDG_VERSIONING_VERSIONS_H_
#define VDG_VERSIONING_VERSIONS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/client.h"
#include "common/status.h"

namespace vdg {

/// Structured transformation versioning (Section 8: "it is important
/// that we be able not only to track precisely what version of a
/// transformation was executed ... but also to express 'equivalence'
/// among different versions").
///
/// Versions are registered as an ordered chain per logical
/// transformation name; *compatibility assertions* declare that two
/// concrete transformation names produce equivalent results, merging
/// their equivalence classes (union-find). The dedup machinery can
/// then recognize a derivation as already-computed even when it names
/// a different-but-asserted-equivalent version.
class TransformationVersionGraph {
 public:
  /// Registers `version_name` (a concrete catalog transformation name,
  /// e.g. "maxBcg-v2") as a version of logical `family` following any
  /// previously registered versions of that family.
  Status RegisterVersion(std::string_view family,
                         std::string_view version_name);

  /// Versions of `family`, oldest first.
  std::vector<std::string> VersionsOf(std::string_view family) const;
  /// The most recently registered version; NotFound for unknown
  /// families.
  Result<std::string> LatestOf(std::string_view family) const;
  /// The family a version belongs to; NotFound if unregistered.
  Result<std::string> FamilyOf(std::string_view version_name) const;

  /// Asserts that results of `a` and `b` are interchangeable. Both
  /// sides are auto-registered as singleton versions if unknown.
  /// Symmetric and transitive (classes merge).
  Status AssertEquivalent(std::string_view a, std::string_view b);

  /// True when an equivalence chain connects `a` and `b` (reflexive).
  bool AreEquivalent(std::string_view a, std::string_view b) const;
  /// Every name asserted equivalent to `name` (including itself).
  std::vector<std::string> EquivalenceClassOf(std::string_view name) const;

  size_t version_count() const { return parent_.size(); }

 private:
  /// Union-find root, path-halving. Unknown names are their own root.
  std::string Find(std::string name) const;

  mutable std::map<std::string, std::string, std::less<>> parent_;
  std::map<std::string, std::vector<std::string>, std::less<>> families_;
  std::map<std::string, std::string, std::less<>> family_of_;
};

/// Version-aware dedup: like CatalogClient::FindEquivalentDerivation
/// but also matching derivations whose transformation is a different,
/// asserted-equivalent version. Returns the matched derivation name;
/// NotFound when nothing matches, and a failed catalog read as itself.
Result<std::string> FindEquivalentDerivationModuloVersion(
    CatalogClient& client, const TransformationVersionGraph& versions,
    const Derivation& derivation);

/// Version-aware "has this been computed?": true when some equivalent
/// (modulo version) derivation exists with all outputs materialized.
/// A failed catalog read answers false.
bool HasBeenComputedModuloVersion(CatalogClient& client,
                                  const TransformationVersionGraph& versions,
                                  const Derivation& derivation);

/// One entry of a dataset's update log (Section 8: "dealing with
/// 'update' as an operation a proc can perform on a DS; this maintains
/// provenance but loses re-createability unless there is a transaction
/// log for some type of undo operation").
struct UpdateRecord {
  uint64_t sequence = 0;       // 1-based position in the dataset's log
  std::string dataset;
  std::string derivation;      // the updating derivation
  SimTime updated_at = 0;
  int64_t size_before = 0;
  int64_t size_after = 0;
  std::string note;            // free-form description of the change
};

/// Transaction log for in-place dataset updates, restoring
/// re-createability: an updated dataset's state is
/// (producing derivation) + (the ordered update suffix), and Undo
/// rolls the suffix back.
class DatasetUpdateLog {
 public:
  /// Appends an update performed by `derivation` on `dataset`,
  /// recording the new size and update count through `client`.
  Result<UpdateRecord> RecordUpdate(CatalogClient* client,
                                    std::string_view dataset,
                                    std::string_view derivation,
                                    int64_t size_after, SimTime now,
                                    std::string note = "");

  /// The dataset's updates, oldest first.
  std::vector<UpdateRecord> HistoryOf(std::string_view dataset) const;
  /// Number of updates applied to `dataset`.
  uint64_t UpdateCountOf(std::string_view dataset) const;

  /// Rolls back the most recent update: restores the catalog's
  /// recorded size and pops the log entry. FailedPrecondition when no
  /// updates remain.
  Result<UpdateRecord> UndoLastUpdate(CatalogClient* client,
                                      std::string_view dataset);

  /// True when the dataset's current state is reproducible from its
  /// derivation alone (i.e. the update log is empty).
  bool IsPristine(std::string_view dataset) const {
    return UpdateCountOf(dataset) == 0;
  }

 private:
  std::map<std::string, std::vector<UpdateRecord>, std::less<>> logs_;
};

}  // namespace vdg

#endif  // VDG_VERSIONING_VERSIONS_H_
