#ifndef VDG_FEDERATION_RESILIENT_CLIENT_H_
#define VDG_FEDERATION_RESILIENT_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/client.h"
#include "common/rng.h"

namespace vdg {

// -----------------------------------------------------------------------
// ResilientCatalogClient — the availability layer of the wire
// federation path. It owns a list of replica endpoints (each a factory
// that dials one server — typically WireCatalogClient::Connect, or
// ConnectFaulty under test) and turns their transient transport
// failures into, at worst, latency:
//
//  - Reconnect: a broken connection is dropped and re-dialed with
//    exponential backoff + seeded jitter, capped by the per-call
//    retry budget.
//  - Failover: each retry rotates to the next healthy replica, so a
//    draining or dead server only costs one attempt.
//  - Circuit breaking: an endpoint that fails `breaker_threshold`
//    consecutive attempts is OPEN — skipped by rotation — until its
//    cooldown elapses, when one probe (HALF-OPEN) either closes the
//    breaker or re-opens it. Healthy endpoints never pay for a dead
//    peer.
//  - Retry discipline (read from wire::IsRetrySafe, for the one
//    request every typed method becomes — this is a RequestClient):
//    idempotent reads retry freely inside the budget. Single
//    mutations are issued at most once on an
//    established connection — a transport failure afterwards returns
//    Unavailable marked retry-unsafe (Status::retry_safe() == false)
//    because the server may already have applied the work. ApplyBatch
//    is the exception: the client stamps an idempotency token into
//    BatchOptions so the server-side dedup window makes retries
//    exactly-once, and then retries it like a read.
//
// Thread-safe: calls may be issued concurrently; endpoint state is
// guarded by one mutex that is never held across a blocking call.
// -----------------------------------------------------------------------

/// One replica of the catalog service.
struct ResilientEndpoint {
  std::string name;  // diagnostics only
  /// Dials the endpoint and performs the handshake. Invoked on first
  /// use and after every broken connection.
  std::function<Result<std::shared_ptr<CatalogClient>>()> connect;
};

struct ResilientOptions {
  /// Transport attempts per logical call (connect failures included).
  int max_attempts = 8;
  /// Wall-clock retry budget per logical call; once spent, the last
  /// transport error is returned.
  std::chrono::milliseconds retry_budget{2000};
  /// Backoff before attempt k (0-based): base * multiplier^(k-1),
  /// plus up to jitter_fraction of itself, seeded.
  std::chrono::milliseconds backoff_base{2};
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.5;
  uint64_t seed = 0x5eed;
  /// Consecutive failures that open an endpoint's breaker.
  int breaker_threshold = 3;
  /// How long an open breaker rejects attempts before allowing a
  /// half-open probe.
  std::chrono::milliseconds breaker_cooldown{100};
};

struct ResilientStats {
  uint64_t retries = 0;             // attempts beyond the first, per call
  uint64_t reconnects = 0;          // successful re-dials
  uint64_t failovers = 0;           // attempts served by a different
                                    // endpoint than the previous one
  uint64_t breaker_opens = 0;
  uint64_t breaker_short_circuits = 0;  // attempts skipped on open breakers
  uint64_t exhausted_calls = 0;     // calls that ran out of budget/attempts
  uint64_t mutation_fail_fast = 0;  // mutations surfaced retry-unsafe
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

class ResilientCatalogClient : public RequestClient {
 public:
  explicit ResilientCatalogClient(std::vector<ResilientEndpoint> endpoints,
                                  ResilientOptions options = {});

  const std::string& authority() const override;
  bool read_only() const override;

  ResilientStats stats() const;
  BreakerState breaker_state(size_t endpoint_index) const;

  /// Runs the request on a live endpoint with retry/failover/backoff
  /// per the retry discipline above.
  Result<wire::Response> Call(const wire::Request& request) override;

 private:
  struct Endpoint {
    ResilientEndpoint config;
    std::shared_ptr<CatalogClient> client;  // null until dialed
    bool ever_connected = false;
    int consecutive_failures = 0;
    BreakerState breaker = BreakerState::kClosed;
    std::chrono::steady_clock::time_point open_until{};
  };

  /// True for errors that mean "the transport failed", not "the
  /// catalog answered no": these are the retryable/failover class.
  static bool IsTransportError(const Status& s);

  /// Picks the next endpoint to try, honouring breakers. Returns the
  /// endpoint index, or -1 if every breaker is open and none is due a
  /// half-open probe (the caller then waits for the earliest cooldown).
  int PickEndpointLocked(int avoid);

  /// Ensures endpoints_[i] has a live client, dialing if needed.
  /// Returns the client or the connect error.
  Result<std::shared_ptr<CatalogClient>> EnsureConnected(size_t i);

  void RecordSuccess(size_t i);
  void RecordFailure(size_t i, bool drop_connection);

  std::string GenerateToken();

  ResilientOptions options_;
  mutable std::mutex mu_;  // guards endpoints_, stats_, rng_, authority_
  std::vector<Endpoint> endpoints_;
  int last_endpoint_ = -1;  // last endpoint an attempt ran on
  ResilientStats stats_;
  Rng rng_;
  uint64_t token_prefix_ = 0;  // random per-client ApplyBatch token space
  uint64_t next_token_ = 1;
  std::string authority_;  // learned from the first successful connect
  bool read_only_ = false;
};

}  // namespace vdg

#endif  // VDG_FEDERATION_RESILIENT_CLIENT_H_
