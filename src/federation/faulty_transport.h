#ifndef VDG_FEDERATION_FAULTY_TRANSPORT_H_
#define VDG_FEDERATION_FAULTY_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "federation/server.h"

namespace vdg {

// -----------------------------------------------------------------------
// Deterministic transport fault injection for the wire federation
// path. A FaultyChannel wraps any ClientChannel (it sits above the
// transport) and, driven by one seeded FaultInjector shared across the
// reconnect attempts of an endpoint, perturbs the byte stream the ways
// real networks do:
//
//   refuse     Connect-time refusal: the endpoint rejects the dial.
//   reset      The connection drops before the frame is sent.
//   truncate   A prefix of the frame is delivered, then the
//              connection drops — the server sees a mid-frame EOF.
//   corrupt    One byte of the frame is flipped in flight; the
//              server's CRC check rejects the frame and closes the
//              stream (framing cannot be resynchronized).
//   short      Only a prefix is accepted per Send call — benign, but
//              only if the client loops until the frame is flushed.
//   stall      The send blocks for a fixed delay, exercising
//              per-request deadlines.
//   recv-*     The same corruption/reset faults on the response path,
//              drawn once per chunk of response bytes received (a
//              Receive that times out or is interrupted draws nothing).
//
// Every draw flows through one seeded Rng, so a given
// (seed, workload) pair replays the identical fault schedule —
// failures found in CI's multi-seed chaos lane reproduce locally by
// exporting the same VDG_FAULT_SEED.
// -----------------------------------------------------------------------

struct FaultProfile {
  double refuse_connect_rate = 0.0;  // per Connect attempt
  double reset_rate = 0.0;           // per Send: drop before delivery
  double truncate_rate = 0.0;        // per Send: deliver prefix, then drop
  double corrupt_rate = 0.0;         // per Send: flip one byte
  double short_write_rate = 0.0;     // per Send: accept only a prefix
  double stall_rate = 0.0;           // per Send: sleep `stall`
  double recv_corrupt_rate = 0.0;    // per chunk: flip one byte
  double recv_reset_rate = 0.0;      // per chunk: EOF instead of bytes
  std::chrono::microseconds stall{2000};
};

/// Counters for every fault actually fired (atomics: Send and Receive
/// run on different threads).
struct FaultStats {
  std::atomic<uint64_t> connects_refused{0};
  std::atomic<uint64_t> resets{0};
  std::atomic<uint64_t> truncations{0};
  std::atomic<uint64_t> corruptions{0};
  std::atomic<uint64_t> short_writes{0};
  std::atomic<uint64_t> stalls{0};
  std::atomic<uint64_t> recv_corruptions{0};
  std::atomic<uint64_t> recv_resets{0};

  uint64_t total() const {
    return connects_refused.load() + resets.load() + truncations.load() +
           corruptions.load() + short_writes.load() + stalls.load() +
           recv_corruptions.load() + recv_resets.load();
  }
};

/// One seeded fault source, shared by every FaultyChannel of an
/// endpoint so the schedule spans reconnects deterministically.
/// Thread-safe.
class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, uint64_t seed)
      : profile_(profile), rng_(seed) {}

  const FaultProfile& profile() const { return profile_; }
  const FaultStats& stats() const { return stats_; }
  FaultStats& stats() { return stats_; }

  /// True when a Connect attempt should be refused.
  bool RollConnectRefusal();

  /// Bernoulli draw under the injector lock.
  bool Roll(double p);

  /// Random index in [0, n) under the injector lock. Requires n > 0.
  size_t Pick(size_t n);

 private:
  FaultProfile profile_;
  std::mutex mu_;
  Rng rng_;
  FaultStats stats_;
};

/// The shim itself: a ClientChannel that perturbs bytes on their way
/// to/from the wrapped channel per the injector's profile.
class FaultyChannel : public ClientChannel {
 public:
  FaultyChannel(std::shared_ptr<ClientChannel> inner,
                std::shared_ptr<FaultInjector> injector)
      : inner_(std::move(inner)), injector_(std::move(injector)) {}

  ptrdiff_t Send(std::string_view bytes) override;
  RecvResult Receive(std::string* out,
                     std::chrono::steady_clock::time_point deadline) override;
  void Interrupt() override { inner_->Interrupt(); }
  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }

 private:
  std::shared_ptr<ClientChannel> inner_;
  std::shared_ptr<FaultInjector> injector_;
};

/// Dials `server` through the fault shim: rolls an accept-time
/// refusal, then hands a FaultyChannel-wrapped connection to the
/// normal WireCatalogClient handshake. The natural `connect` callback
/// for a ResilientEndpoint under test.
Result<std::shared_ptr<WireCatalogClient>> ConnectFaulty(
    CatalogServer* server, std::shared_ptr<FaultInjector> injector,
    WireClientOptions options = {});

}  // namespace vdg

#endif  // VDG_FEDERATION_FAULTY_TRANSPORT_H_
