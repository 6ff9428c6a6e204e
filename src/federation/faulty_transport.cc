#include "federation/faulty_transport.h"

#include <thread>
#include <utility>

namespace vdg {

bool FaultInjector::RollConnectRefusal() {
  if (!Roll(profile_.refuse_connect_rate)) return false;
  stats_.connects_refused.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::Roll(double p) {
  if (p <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.Chance(p);
}

size_t FaultInjector::Pick(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.Index(n);
}

ptrdiff_t FaultyChannel::Send(std::string_view bytes) {
  FaultStats& stats = injector_->stats();
  const FaultProfile& profile = injector_->profile();
  if (injector_->Roll(profile.stall_rate)) {
    stats.stalls.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(profile.stall);
  }
  if (injector_->Roll(profile.reset_rate)) {
    stats.resets.fetch_add(1, std::memory_order_relaxed);
    inner_->Close();
    return -1;
  }
  if (!bytes.empty() && injector_->Roll(profile.truncate_rate)) {
    // Deliver a strict prefix, then drop the link: the server sees a
    // mid-frame EOF and must discard the partial frame.
    stats.truncations.fetch_add(1, std::memory_order_relaxed);
    size_t keep = injector_->Pick(bytes.size());
    if (keep > 0) inner_->Send(bytes.substr(0, keep));
    inner_->Close();
    return -1;
  }
  if (!bytes.empty() && injector_->Roll(profile.corrupt_rate)) {
    stats.corruptions.fetch_add(1, std::memory_order_relaxed);
    std::string mangled(bytes);
    mangled[injector_->Pick(mangled.size())] ^= 0x40;
    // Forward the whole mangled buffer; the server's CRC/framing
    // validation is what turns this into a visible fault.
    return inner_->Send(mangled);
  }
  if (bytes.size() > 1 && injector_->Roll(profile.short_write_rate)) {
    // Accept only a prefix. Correct callers loop; the pre-fix client
    // treated this as success and dropped the frame's tail.
    stats.short_writes.fetch_add(1, std::memory_order_relaxed);
    size_t keep = 1 + injector_->Pick(bytes.size() - 1);
    return inner_->Send(bytes.substr(0, keep));
  }
  return inner_->Send(bytes);
}

ClientChannel::RecvResult FaultyChannel::Receive(
    std::string* out, std::chrono::steady_clock::time_point deadline) {
  std::string chunk;
  RecvResult got = inner_->Receive(&chunk, deadline);
  if (got != RecvResult::kData) return got;
  FaultStats& stats = injector_->stats();
  const FaultProfile& profile = injector_->profile();
  if (injector_->Roll(profile.recv_reset_rate)) {
    stats.recv_resets.fetch_add(1, std::memory_order_relaxed);
    inner_->Close();
    return RecvResult::kClosed;
  }
  if (!chunk.empty() && injector_->Roll(profile.recv_corrupt_rate)) {
    stats.recv_corruptions.fetch_add(1, std::memory_order_relaxed);
    chunk[injector_->Pick(chunk.size())] ^= 0x40;
  }
  out->append(chunk);
  return RecvResult::kData;
}

Result<std::shared_ptr<WireCatalogClient>> ConnectFaulty(
    CatalogServer* server, std::shared_ptr<FaultInjector> injector,
    WireClientOptions options, bool use_socket) {
  if (injector->RollConnectRefusal()) {
    return Status::Unavailable("endpoint refused the connection (injected)");
  }
  auto channel = std::make_shared<FaultyChannel>(server->Connect(use_socket),
                                                 std::move(injector));
  return WireCatalogClient::ConnectChannel(std::move(channel), options);
}

}  // namespace vdg
