#ifndef VDG_FEDERATION_RPC_CLIENT_H_
#define VDG_FEDERATION_RPC_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "catalog/client.h"
#include "catalog/wire.h"
#include "common/rng.h"
#include "grid/simulator.h"

namespace vdg {

/// Transport parameters for one simulated catalog endpoint.
struct RpcConfig {
  /// Simulated wall time one round trip occupies (request + response).
  double latency_s = 0.05;
  /// Probability that one attempt is lost in transit (response never
  /// arrives; the client times out and retries).
  double loss_rate = 0.0;
  /// Attempts per logical call before giving up with Unavailable.
  int max_attempts = 4;
  /// Exponential backoff between attempts, in simulated seconds.
  double backoff_base_s = 0.5;
  double backoff_multiplier = 2.0;
  /// Grid site hosting the catalog server. When set, the endpoint is
  /// coupled to the simulator's fault model: a crashed site rejects
  /// calls until restored (maintenance offline keeps serving, matching
  /// storage semantics). Empty = never down.
  std::string site;
  /// When false, compound calls (BatchGet, GetProvenanceStep) are
  /// decomposed into one round trip per underlying point lookup — the
  /// naive-RPC baseline the batching layer is measured against.
  bool enable_batching = true;
  /// Seed for the loss draw (independent of the grid's own Rng so
  /// transport noise never perturbs job/transfer outcomes).
  uint64_t seed = 0x5eed;
};

/// Transport-level counters, the measurable cost of federation.
struct RpcStats {
  uint64_t round_trips = 0;        // completed request/response pairs
  uint64_t lost_calls = 0;         // attempts lost in transit
  uint64_t outage_rejections = 0;  // attempts against a crashed site
  uint64_t retries = 0;            // re-attempts after loss/outage
  uint64_t batched_lookups = 0;    // point lookups coalesced into batches
  uint64_t failures = 0;           // logical calls that exhausted retries
  uint64_t mutation_fail_fast = 0;  // mutations surfaced retry-unsafe on loss
};

/// CatalogClient over the grid simulator's event queue: every call
/// advances simulated time by the configured latency, can be lost,
/// and can find the server's site crashed — in which case the client
/// backs off (in simulated time, letting scheduled outage windows end
/// and restore the site) and retries up to max_attempts before
/// surfacing Unavailable. At zero fault rates the results are
/// bit-for-bit those of the wrapped backend; only time passes.
///
/// NOT thread-safe, and must never be invoked from inside an event
/// callback: each call drives the event queue (RunUntil), and the
/// queue is single-threaded and non-reentrant. Use it from the
/// simulation's driving thread only.
class SimulatedRpcCatalogClient : public RequestClient {
 public:
  /// `backend` is the server-side implementation (normally an
  /// InProcessCatalogClient for the target catalog); `grid` supplies
  /// the clock, event queue, and fault model. Both must outlive this.
  SimulatedRpcCatalogClient(std::shared_ptr<CatalogClient> backend,
                            GridSimulator* grid, RpcConfig config = {});
  // hop_ points back at this object.
  SimulatedRpcCatalogClient(const SimulatedRpcCatalogClient&) = delete;
  SimulatedRpcCatalogClient& operator=(const SimulatedRpcCatalogClient&) =
      delete;

  const std::string& authority() const override { return authority_; }
  bool read_only() const override { return backend_->read_only(); }

  const RpcStats& stats() const { return stats_; }
  void reset_stats() { stats_ = RpcStats{}; }
  const RpcConfig& config() const { return config_; }

  /// One logical RPC, then execution by the backend. With batching
  /// enabled every request — a whole ApplyBatch group included, which
  /// the server commits as one group commit — is one round trip. In
  /// naive mode BatchGet, GetProvenanceStep and ApplyBatch decompose
  /// into their point calls, one round trip apiece (ApplyBatch pays one
  /// more for the final version read) — the baseline the batched path
  /// is measured against.
  Result<wire::Response> Call(const wire::Request& request) override;

 private:
  /// The typed face of Forward(): naive mode decomposes a compound call
  /// through it, so each piece is one round trip and the decomposition
  /// never re-enters this client's own Call().
  class Hop : public RequestClient {
   public:
    explicit Hop(SimulatedRpcCatalogClient* owner) : owner_(owner) {}
    const std::string& authority() const override {
      return owner_->authority();
    }
    bool read_only() const override { return owner_->read_only(); }
    Result<wire::Response> Call(const wire::Request& request) override {
      return owner_->Forward(request);
    }

   private:
    SimulatedRpcCatalogClient* owner_;
  };

  /// One logical RPC: repeats {advance the clock by the latency, check
  /// the site, roll for loss} with exponential backoff until an
  /// attempt completes or the budget runs out. Outage rejections are
  /// retried for every call — the crashed site never accepted the
  /// request. A *lost* call is ambiguous (the server may have executed
  /// it and only the response vanished), so for non-idempotent calls
  /// loss fails fast with a retry-unsafe Unavailable instead of
  /// blindly re-sending.
  Status Transport(bool idempotent);

  /// Transport, then the backend executes `request`. Retry safety comes
  /// from wire::IsRetrySafe: reads (and a token-bearing ApplyBatch) are
  /// auto-retried on loss and outage alike; other mutations retry only
  /// outages and surface loss as retry-unsafe.
  Result<wire::Response> Forward(const wire::Request& request);

  std::shared_ptr<CatalogClient> backend_;
  GridSimulator* grid_;
  RpcConfig config_;
  std::string authority_;
  Rng rng_;
  RpcStats stats_;
  Hop hop_{this};
};

}  // namespace vdg

#endif  // VDG_FEDERATION_RPC_CLIENT_H_
