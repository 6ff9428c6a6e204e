#include "federation/resilient_client.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "catalog/wire.h"

namespace vdg {

namespace {

/// Formats a 64-bit value as fixed-width hex for token uniqueness.
std::string Hex64(uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

ResilientCatalogClient::ResilientCatalogClient(
    std::vector<ResilientEndpoint> endpoints, ResilientOptions options)
    : options_(options), rng_(options.seed) {
  endpoints_.reserve(endpoints.size());
  for (auto& e : endpoints) endpoints_.push_back(Endpoint{std::move(e)});
  token_prefix_ = rng_.engine()();
  // Best-effort eager dial so authority()/read_only() are stable
  // before concurrent calls start; a fully-down fleet just leaves the
  // identity to be learned on the first successful call.
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    if (EnsureConnected(i).ok()) break;
  }
}

const std::string& ResilientCatalogClient::authority() const {
  std::lock_guard<std::mutex> lock(mu_);
  return authority_;
}

bool ResilientCatalogClient::read_only() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_only_;
}

ResilientStats ResilientCatalogClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

BreakerState ResilientCatalogClient::breaker_state(
    size_t endpoint_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return endpoints_.at(endpoint_index).breaker;
}

bool ResilientCatalogClient::IsTransportError(const Status& s) {
  // Unavailable: connection refused/broken or server draining.
  // DeadlineExceeded: the per-request deadline expired.
  // ResourceExhausted: bounced at admission (client or server) —
  // never executed, so always safe to try elsewhere.
  return s.IsUnavailable() || s.IsDeadlineExceeded() ||
         s.IsResourceExhausted();
}

int ResilientCatalogClient::PickEndpointLocked(int avoid) {
  const auto now = std::chrono::steady_clock::now();
  const int n = static_cast<int>(endpoints_.size());
  if (n == 0) return -1;
  // Stick to the endpoint we last used (connection affinity); rotate
  // away from `avoid` — the endpoint that just failed this call.
  const int start = last_endpoint_ >= 0 ? last_endpoint_ : 0;
  int fallback = -1;
  for (int k = 0; k < n; ++k) {
    const int i = (start + k) % n;
    Endpoint& e = endpoints_[static_cast<size_t>(i)];
    if (e.breaker == BreakerState::kOpen) {
      if (now >= e.open_until) {
        e.breaker = BreakerState::kHalfOpen;  // one probe allowed
      } else {
        stats_.breaker_short_circuits++;
        continue;
      }
    }
    if (i == avoid && n > 1) {
      if (fallback < 0) fallback = i;  // usable, but prefer a peer
      continue;
    }
    return i;
  }
  return fallback;
}

Result<std::shared_ptr<CatalogClient>> ResilientCatalogClient::EnsureConnected(
    size_t i) {
  std::function<Result<std::shared_ptr<CatalogClient>>()> dial;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Endpoint& e = endpoints_[i];
    if (e.client != nullptr) return e.client;
    dial = e.config.connect;
  }
  // Dial outside the lock: connects block (handshake round trip) and
  // other threads may be mid-call on healthy endpoints.
  Result<std::shared_ptr<CatalogClient>> client = dial();
  std::lock_guard<std::mutex> lock(mu_);
  Endpoint& e = endpoints_[i];
  if (!client.ok()) return client.status();
  if (e.client != nullptr) return e.client;  // raced; keep the first
  e.client = *client;
  if (e.ever_connected) stats_.reconnects++;
  e.ever_connected = true;
  if (authority_.empty()) {
    authority_ = e.client->authority();
    read_only_ = e.client->read_only();
  }
  return e.client;
}

void ResilientCatalogClient::RecordSuccess(size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  Endpoint& e = endpoints_[i];
  e.consecutive_failures = 0;
  e.breaker = BreakerState::kClosed;
}

void ResilientCatalogClient::RecordFailure(size_t i, bool drop_connection) {
  std::lock_guard<std::mutex> lock(mu_);
  Endpoint& e = endpoints_[i];
  e.consecutive_failures++;
  if (drop_connection) e.client.reset();
  // A failed half-open probe re-opens immediately; a closed breaker
  // opens after `breaker_threshold` consecutive failures.
  if (e.breaker == BreakerState::kHalfOpen ||
      e.consecutive_failures >= options_.breaker_threshold) {
    if (e.breaker != BreakerState::kOpen) stats_.breaker_opens++;
    e.breaker = BreakerState::kOpen;
    e.open_until =
        std::chrono::steady_clock::now() + options_.breaker_cooldown;
  }
}

Result<wire::Response> ResilientCatalogClient::Call(
    const wire::Request& request) {
  // Retry safety comes from the kind (see "Retry discipline" in the
  // header). A tokenized batch is exactly-once through the server's
  // dedup window, so it retries like a read.
  bool idempotent = !wire::IsMutation(request.kind);
  const wire::Request* send = &request;
  wire::Request tokenized;
  if (request.kind == wire::MsgKind::kApplyBatch) {
    idempotent = true;
    const auto* batch = std::get_if<wire::ApplyBatchReq>(&request.body);
    if (batch != nullptr && batch->options.idempotency_token.empty()) {
      tokenized = request;
      std::get<wire::ApplyBatchReq>(tokenized.body)
          .options.idempotency_token = GenerateToken();
      send = &tokenized;
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + options_.retry_budget;
  Status last_error = Status::Unavailable("no catalog endpoints configured");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with seeded jitter, capped by the budget.
      double scale = 1.0;
      for (int k = 1; k < attempt; ++k) scale *= options_.backoff_multiplier;
      auto delay = std::chrono::duration_cast<std::chrono::microseconds>(
          options_.backoff_base * scale);
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.retries++;
        delay += std::chrono::duration_cast<std::chrono::microseconds>(
            delay * options_.jitter_fraction * rng_.Uniform(0.0, 1.0));
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(deadline -
                                                                now);
      std::this_thread::sleep_for(std::min(delay, remaining));
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
    int idx;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const int avoid = attempt > 0 ? last_endpoint_ : -1;
      idx = PickEndpointLocked(avoid);
      if (idx >= 0) {
        if (last_endpoint_ >= 0 && idx != last_endpoint_) stats_.failovers++;
        last_endpoint_ = idx;
      }
    }
    if (idx < 0) {
      // Every breaker is open and in cooldown: wait for the earliest
      // half-open probe window instead of burning attempts.
      last_error = Status::Unavailable("all catalog endpoints circuit-open");
      std::this_thread::sleep_for(std::min(
          std::chrono::duration_cast<std::chrono::microseconds>(
              options_.breaker_cooldown),
          std::chrono::duration_cast<std::chrono::microseconds>(
              options_.backoff_base)));
      continue;
    }
    Result<std::shared_ptr<CatalogClient>> client =
        EnsureConnected(static_cast<size_t>(idx));
    if (!client.ok()) {
      last_error = client.status();
      RecordFailure(static_cast<size_t>(idx), /*drop_connection=*/true);
      continue;  // a failed dial never executed anything: always retry
    }
    Result<wire::Response> r = (*client)->Call(*send);
    if (r.ok() || !IsTransportError(r.status())) {
      // Either success or a real catalog answer (NotFound, TypeError,
      // ...): the endpoint is healthy.
      RecordSuccess(static_cast<size_t>(idx));
      return r;
    }
    last_error = r.status();
    // Unavailable means the connection is gone. DeadlineExceeded drops
    // it too: a request that timed out leaves the byte stream in an
    // unknown state (e.g. a corrupted length prefix has the server
    // waiting on a phantom frame forever) — reconnecting is the only
    // way back to a stream both sides agree on. Only ResourceExhausted
    // (bounced at admission, stream untouched) keeps the connection.
    RecordFailure(static_cast<size_t>(idx),
                  /*drop_connection=*/!last_error.IsResourceExhausted());
    if (!idempotent && !last_error.retry_safe()) {
      // The request reached an established connection and may have
      // executed even though the reply is lost: surface it rather
      // than risk double-applying a mutation.
      std::lock_guard<std::mutex> lock(mu_);
      stats_.mutation_fail_fast++;
      return last_error;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.exhausted_calls++;
  return last_error;
}

std::string ResilientCatalogClient::GenerateToken() {
  std::lock_guard<std::mutex> lock(mu_);
  return "rcc-" + Hex64(token_prefix_) + "-" + std::to_string(next_token_++);
}

}  // namespace vdg
