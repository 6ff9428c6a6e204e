#ifndef VDG_CATALOG_BATCH_H_
#define VDG_CATALOG_BATCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "schema/dataset.h"
#include "schema/derivation.h"
#include "schema/transformation.h"

namespace vdg {

/// One mutation inside an ApplyBatch call. Mirrors the catalog's
/// single-mutation vocabulary; a batch of N of these commits under one
/// lock acquisition, one version bump, and one journal flush.
///
/// Ops later in a batch may reference ids assigned to earlier ops:
/// RecordInvocationOp::produced_from_ops names earlier AddReplicaOp
/// positions whose assigned replica ids are appended to
/// produced_replicas, and AnnotateOp::name_from_op redirects the
/// target name to an earlier op's assigned id. This is what lets an
/// executor ship its whole provenance write-back — replicas, the
/// invocation consuming them, and annotations on that invocation — as
/// one batch even though the ids do not exist until the batch runs.
///
/// Ownership of define payloads: the three Define*Op payloads are
/// immutable objects, allocated once (by the factory below or by the
/// wire decoder) and shared from then on. Copying a mutation — into a
/// request body, a retry stamp, or a shard's sub-batch — bumps a
/// reference count; a transformation broadcast to every shard is one
/// object on all of them. A catalog that applies the op adopts the
/// object itself as its row, so a define costs no copy of the payload
/// between the caller and the snapshot. Nothing mutates a payload
/// after construction: the catalog replaces rows rather than editing
/// them.
struct CatalogMutation {
  struct DefineDatasetOp {
    std::shared_ptr<const Dataset> dataset;
  };
  struct DefineTransformationOp {
    std::shared_ptr<const Transformation> transformation;
  };
  struct DefineDerivationOp {
    std::shared_ptr<const Derivation> derivation;
  };
  struct AnnotateOp {
    std::string kind;
    std::string name;
    std::string key;
    AttributeValue value;
    /// When set, `name` is replaced by the id assigned to the batch op
    /// at this position (which must precede this op and have assigned
    /// an id).
    std::optional<size_t> name_from_op;
  };
  struct AddReplicaOp {
    Replica replica;
  };
  struct RecordInvocationOp {
    Invocation invocation;
    /// Positions of earlier AddReplicaOp entries whose assigned ids
    /// are appended to invocation.produced_replicas.
    std::vector<size_t> produced_from_ops;
  };
  struct SetDatasetSizeOp {
    std::string name;
    int64_t size_bytes = 0;
  };
  struct InvalidateReplicaOp {
    std::string id;
  };

  std::variant<DefineDatasetOp, DefineTransformationOp, DefineDerivationOp,
               AnnotateOp, AddReplicaOp, RecordInvocationOp, SetDatasetSizeOp,
               InvalidateReplicaOp>
      op;

  // Convenience factories so call sites read like the single-op API.
  static CatalogMutation DefineDataset(Dataset dataset) {
    return {
        DefineDatasetOp{std::make_shared<const Dataset>(std::move(dataset))}};
  }
  static CatalogMutation DefineTransformation(Transformation transformation) {
    return {DefineTransformationOp{
        std::make_shared<const Transformation>(std::move(transformation))}};
  }
  static CatalogMutation DefineDerivation(Derivation derivation) {
    return {DefineDerivationOp{
        std::make_shared<const Derivation>(std::move(derivation))}};
  }
  static CatalogMutation Annotate(std::string kind, std::string name,
                                  std::string key, AttributeValue value) {
    return {AnnotateOp{std::move(kind), std::move(name), std::move(key),
                       std::move(value), std::nullopt}};
  }
  static CatalogMutation AnnotateAssigned(std::string kind, size_t from_op,
                                          std::string key,
                                          AttributeValue value) {
    return {AnnotateOp{std::move(kind), std::string(), std::move(key),
                       std::move(value), from_op}};
  }
  static CatalogMutation AddReplica(Replica replica) {
    return {AddReplicaOp{std::move(replica)}};
  }
  static CatalogMutation RecordInvocation(Invocation invocation,
                                          std::vector<size_t> produced_from_ops = {}) {
    return {RecordInvocationOp{std::move(invocation),
                               std::move(produced_from_ops)}};
  }
  static CatalogMutation SetDatasetSize(std::string name, int64_t size_bytes) {
    return {SetDatasetSizeOp{std::move(name), size_bytes}};
  }
  static CatalogMutation InvalidateReplica(std::string id) {
    return {InvalidateReplicaOp{std::move(id)}};
  }
};

struct BatchOptions {
  /// When true, the first failing op aborts the rest of the batch
  /// (skipped ops report FailedPrecondition). When false — the
  /// default, matching
  /// what N independent single-op calls would do — each op runs
  /// regardless of earlier failures.
  bool stop_on_error = false;

  /// Client-supplied idempotency key. Empty (the default) means the
  /// batch has at-most-once semantics only as far as the transport
  /// guarantees them. When non-empty, a `CatalogServer` records the
  /// batch's outcome in a bounded dedup window keyed by this token:
  /// a retried batch with the same token returns the recorded
  /// `BatchResult` (including assigned ids) instead of re-applying the
  /// mutations, making ApplyBatch safe to retry across lost replies
  /// and replica failover. Tokens must be unique per logical batch;
  /// `ResilientCatalogClient` generates one automatically when the
  /// caller left it empty. The in-process catalog ignores the field.
  std::string idempotency_token;
};

/// Per-op outcome of an ApplyBatch call. The batch commits whatever
/// subset of ops succeeded under ONE version bump: `version` is the
/// catalog version after the batch (unchanged when nothing applied),
/// and every changelog entry the batch produced carries that single
/// version, so ChangesSince delivers a batch all-or-nothing.
struct BatchResult {
  std::vector<Status> statuses;       // one per op, in order
  std::vector<std::string> assigned_ids;  // result-api-ok: per op; empty
                                          // unless the op assigned one
                                          // (replica / invocation ids)
  size_t applied = 0;                 // ops that succeeded
  uint64_t version = 0;               // catalog version after commit
  Status first_error = Status::OK();  // first failing op's status
};

}  // namespace vdg

#endif  // VDG_CATALOG_BATCH_H_
