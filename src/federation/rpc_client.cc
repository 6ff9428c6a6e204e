#include "federation/rpc_client.h"

#include <utility>

namespace vdg {

SimulatedRpcCatalogClient::SimulatedRpcCatalogClient(
    std::shared_ptr<CatalogClient> backend, GridSimulator* grid,
    RpcConfig config)
    : backend_(std::move(backend)),
      grid_(grid),
      config_(std::move(config)),
      authority_(backend_->authority()),
      rng_(config_.seed) {}

Status SimulatedRpcCatalogClient::Transport(bool idempotent) {
  for (int attempt = 1;; ++attempt) {
    // The request occupies the wire for the full latency either way —
    // lost responses and rejections are only discovered at timeout.
    // RunUntil (not a bare clock bump) lets scheduled events fire:
    // an outage window ending mid-backoff restores the site and the
    // next attempt goes through.
    grid_->events().RunUntil(grid_->now() + config_.latency_s);
    if (!config_.site.empty() && !grid_->IsSiteServing(config_.site)) {
      // A crashed site rejects before accepting the request, so even a
      // mutation is safe to re-send.
      ++stats_.outage_rejections;
    } else if (config_.loss_rate > 0 && rng_.Chance(config_.loss_rate)) {
      ++stats_.lost_calls;
      if (!idempotent) {
        // Lost in transit is ambiguous: the request — or only its
        // response — may have vanished. Re-sending could double-apply,
        // so surface the ambiguity instead of retrying.
        ++stats_.mutation_fail_fast;
        ++stats_.failures;
        return Status::UnavailableRetryUnsafe(
            "catalog endpoint " + authority_ +
            " lost a mutation in transit (may have been applied)");
      }
    } else {
      ++stats_.round_trips;
      return Status::OK();
    }
    if (attempt >= config_.max_attempts) {
      ++stats_.failures;
      return Status::Unavailable(
          "catalog endpoint " + authority_ + " unreachable after " +
          std::to_string(attempt) + " attempts");
    }
    ++stats_.retries;
    double backoff = config_.backoff_base_s;
    for (int i = 1; i < attempt; ++i) backoff *= config_.backoff_multiplier;
    grid_->events().RunUntil(grid_->now() + backoff);
  }
}

Result<wire::Response> SimulatedRpcCatalogClient::Forward(
    const wire::Request& request) {
  // A token-bearing batch is deduplicated server-side, making the whole
  // group idempotent and therefore safe to auto-retry on loss.
  const auto* batch = request.kind == wire::MsgKind::kApplyBatch
                          ? std::get_if<wire::ApplyBatchReq>(&request.body)
                          : nullptr;
  const bool idempotent =
      !wire::IsMutation(request.kind) ||
      (batch != nullptr && !batch->options.idempotency_token.empty());
  VDG_RETURN_IF_ERROR(Transport(idempotent));
  return backend_->Call(request);
}

namespace {

/// The four point lookups a provenance hop is made of, each through
/// `hop` (one round trip apiece).
Result<ProvenanceStep> PointwiseStep(CatalogClient& hop,
                                     std::string_view dataset) {
  ProvenanceStep step;
  step.dataset = std::string(dataset);
  VDG_ASSIGN_OR_RETURN(step.exists, hop.HasDataset(dataset));
  if (!step.exists) return step;
  Result<std::string> producer = hop.ProducerOf(dataset);
  if (!producer.ok()) {
    if (producer.status().IsNotFound()) return step;  // raw input
    return producer.status();
  }
  step.producer = *producer;
  Result<Derivation> derivation = hop.GetDerivation(step.producer);
  if (derivation.ok()) {
    step.derivation = *std::move(derivation);
    VDG_ASSIGN_OR_RETURN(step.invocations, hop.InvocationsOf(step.producer));
  } else if (!derivation.status().IsNotFound()) {
    return derivation.status();
  }
  return step;
}

}  // namespace

Result<wire::Response> SimulatedRpcCatalogClient::Call(
    const wire::Request& request) {
  using wire::MsgKind;
  const auto* keys = request.kind == MsgKind::kBatchGet
                         ? std::get_if<wire::BatchGetReq>(&request.body)
                         : nullptr;
  const auto* step = request.kind == MsgKind::kGetProvenanceStep
                         ? std::get_if<wire::NameReq>(&request.body)
                         : nullptr;
  const auto* batch = request.kind == MsgKind::kApplyBatch
                          ? std::get_if<wire::ApplyBatchReq>(&request.body)
                          : nullptr;
  if (config_.enable_batching || (!keys && !step && !batch)) {
    if (keys != nullptr) stats_.batched_lookups += keys->keys.size();
    if (batch != nullptr) stats_.batched_lookups += batch->mutations.size();
    return Forward(request);
  }
  // Naive mode: a compound call decomposes into its point calls through
  // hop_, one round trip apiece.
  wire::Response response;
  response.kind = request.kind;
  if (keys != nullptr) {
    std::vector<ObjectRecord> records;
    records.reserve(keys->keys.size());
    for (const ObjectKey& key : keys->keys) {
      VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> one,
                           hop_.BatchGet({key}));
      records.push_back(std::move(one.front()));
    }
    response.body = wire::RecordsResp{std::move(records)};
  } else if (step != nullptr) {
    VDG_ASSIGN_OR_RETURN(ProvenanceStep answer,
                         PointwiseStep(hop_, step->name));
    response.body = wire::StepResp{std::move(answer)};
  } else {
    // The base-class decomposition: each op is its own call, plus one
    // for the final version read.
    VDG_ASSIGN_OR_RETURN(
        BatchResult result,
        hop_.CatalogClient::ApplyBatch(batch->mutations, batch->options));
    response.body = wire::BatchResultResp{std::move(result)};
  }
  return response;
}

}  // namespace vdg
