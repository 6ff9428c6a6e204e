#include "federation/server.h"

#include <algorithm>
#include <utility>

namespace vdg {

namespace {

using Clock = std::chrono::steady_clock;

/// Waits awake for `ready` until `until`, yielding the CPU between
/// looks so a thread woken onto this CPU is not kept waiting by the
/// wait itself.
template <typename Ready>
void WaitAwake(Clock::time_point until, Ready ready) {
  while (!ready() && Clock::now() < until) std::this_thread::yield();
}

}  // namespace

// -----------------------------------------------------------------------
// BatchDedupRegistry
// -----------------------------------------------------------------------

BatchDedupRegistry::BatchDedupRegistry(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::optional<wire::Response> BatchDedupRegistry::BeginOrAwait(
    const std::string& token) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(token);
  if (it == entries_.end()) {
    entries_.emplace(token, Entry{});  // claim: caller executes
    return std::nullopt;
  }
  // Another claimant exists. Wait for its outcome; the claimant always
  // reaches Complete() because workers finish the item they are
  // executing before honouring a stop.
  cv_.wait(lock, [&] {
    auto e = entries_.find(token);
    return e == entries_.end() || e->second.done;
  });
  auto e = entries_.find(token);
  if (e == entries_.end()) {
    // Evicted between completion and wake-up: the window is too small
    // for the retry horizon. Re-claim and execute again — the caller
    // accepts at-least-once in this (configurable) corner.
    entries_.emplace(token, Entry{});
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return e->second.response;
}

void BatchDedupRegistry::Complete(const std::string& token,
                                  wire::Response response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(token);
    if (it == entries_.end()) return;
    it->second.done = true;
    it->second.response = std::move(response);
    completed_order_.push_back(token);
    while (completed_order_.size() > capacity_) {
      auto old = entries_.find(completed_order_.front());
      if (old != entries_.end() && old->second.done) entries_.erase(old);
      completed_order_.pop_front();
    }
  }
  cv_.notify_all();
}

size_t BatchDedupRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// -----------------------------------------------------------------------
// ServerConnection
// -----------------------------------------------------------------------

ptrdiff_t ServerConnection::Send(std::string_view bytes) {
  std::lock_guard<std::mutex> parse(parse_mu_);
  if (closed()) return -1;
  parse_buffer_.append(bytes);
  // An open connection is always listed by the server, so it has an
  // owner here; see CatalogServer::Connect for why that owner outlives
  // this call.
  server_->DrainConnection(shared_from_this());
  return static_cast<ptrdiff_t>(bytes.size());
}

ClientChannel::RecvResult ServerConnection::Receive(
    std::string* out, Clock::time_point deadline) {
  if (reply_soon_.exchange(false, std::memory_order_relaxed)) {
    // A worker was awake to take the request, so its reply is likely
    // microseconds away: wait for it without parking.
    WaitAwake(std::min(deadline, Clock::now() + CatalogServer::kHandoffWait),
              [this] { return readable_.load(std::memory_order_relaxed); });
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto ready = [this] {
    return !outbound_.empty() || closed_ || interrupted_;
  };
  if (deadline == Clock::time_point::max()) {
    outbound_cv_.wait(lock, ready);
  } else {
    outbound_cv_.wait_until(lock, deadline, ready);
  }
  interrupted_ = false;
  readable_.store(closed_, std::memory_order_relaxed);
  if (!outbound_.empty()) {
    out->append(outbound_);
    outbound_.clear();
    return RecvResult::kData;
  }
  return closed_ ? RecvResult::kClosed : RecvResult::kTimeout;
}

void ServerConnection::Interrupt() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    interrupted_ = true;
    readable_.store(true, std::memory_order_relaxed);
  }
  outbound_cv_.notify_all();
}

void ServerConnection::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
    readable_.store(true, std::memory_order_relaxed);
  }
  outbound_cv_.notify_all();
}

bool ServerConnection::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void ServerConnection::ServerWrite(std::string_view frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    outbound_.append(frame);
    readable_.store(true, std::memory_order_relaxed);
  }
  outbound_cv_.notify_all();
}

// -----------------------------------------------------------------------
// CatalogServer
// -----------------------------------------------------------------------

CatalogServer::CatalogServer(std::shared_ptr<CatalogClient> backend,
                             ServerOptions options)
    : backend_(std::move(backend)), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  dedup_ = options_.batch_dedup != nullptr
               ? options_.batch_dedup
               : std::make_shared<BatchDedupRegistry>();
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CatalogServer::~CatalogServer() { Shutdown(); }

std::shared_ptr<ServerConnection> CatalogServer::Connect() {
  std::shared_ptr<ServerConnection> conn(new ServerConnection(this));
  std::vector<std::shared_ptr<ServerConnection>> pruned;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || draining_) {
      rejected = true;
    } else {
      // Prune connections both sides are done with.
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->closed()) {
          pruned.push_back(std::move(*it));
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      connections_.push_back(conn);
      stats_.connections_opened.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // A client thread may still be finishing a Send on a pruned
  // connection. Wait it out before dropping the server's reference, so
  // no Send that began while the connection was listed outlives it.
  for (const auto& closed : pruned) {
    std::lock_guard<std::mutex> barrier(closed->parse_mu_);
  }
  if (rejected) conn->Close();
  return conn;
}

bool CatalogServer::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void CatalogServer::Shutdown(std::chrono::milliseconds drain_timeout) {
  if (drain_timeout.count() > 0) {
    // Drain phase: refuse new connections and bounce fresh frames
    // (DrainConnection answers them Unavailable) while the workers keep
    // running, then wait for admitted work to finish.
    std::unique_lock<std::mutex> lock(mu_);
    if (!stopping_) {
      draining_ = true;
      drain_cv_.wait_for(lock, drain_timeout, [this] {
        return queue_.empty() && active_workers_ == 0;
      });
    }
  }
  std::vector<std::shared_ptr<ServerConnection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    conns = connections_;
  }
  worker_cv_.notify_all();
  // Close connections first: a Send that takes the parse mutex after
  // the close returns without touching the server. Once each parse
  // mutex has been taken after the close, no client thread is inside
  // DrainConnection and none will enter it again.
  for (auto& conn : conns) conn->Close();
  for (auto& conn : conns) {
    std::lock_guard<std::mutex> barrier(conn->parse_mu_);
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  connections_.clear();
  queue_.clear();
  queued_.store(0, std::memory_order_relaxed);
}

void CatalogServer::DrainConnection(
    const std::shared_ptr<ServerConnection>& conn) {
  std::string& buffer = conn->parse_buffer_;
  size_t consumed = 0;
  while (consumed < buffer.size()) {
    std::string_view rest(buffer.data() + consumed, buffer.size() - consumed);
    Result<size_t> size = wire::FrameSize(rest);
    if (!size.ok()) {
      if (size.status().IsNotFound()) break;  // need more bytes
      // Corrupt framing: the stream cannot be resynchronized.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      stats_.connection_resets.fetch_add(1, std::memory_order_relaxed);
      buffer.clear();
      conn->Close();
      return;
    }
    if (rest.size() < *size) break;  // incomplete frame
    Result<wire::Frame> frame = wire::DecodeFrame(rest.substr(0, *size));
    if (!frame.ok() || frame->is_response) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      stats_.connection_resets.fetch_add(1, std::memory_order_relaxed);
      buffer.clear();
      conn->Close();
      return;
    }
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_in.fetch_add(*size, std::memory_order_relaxed);
    WorkItem item;
    item.conn = conn;
    item.request_id = frame->request_id;
    item.kind = frame->kind;
    item.payload.assign(frame->payload);
    consumed += *size;
    bool admitted = false;
    bool draining = false;
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining = draining_;
      if (!stopping_ && !draining_ &&
          queue_.size() < options_.queue_capacity) {
        queue_.push_back(std::move(item));
        queued_.store(queue_.size(), std::memory_order_relaxed);
        admitted = true;
        // Each awake worker takes a queued item before it may park, so
        // while the queue holds no more items than there are awake
        // workers, none needs waking.
        wake = queue_.size() > waiting_workers_;
      }
    }
    if (draining) {
      // Drain phase: already-admitted work keeps executing, but every
      // fresh frame is answered with a retryable Unavailable so a
      // resilient client fails over instead of hanging on a dying
      // server.
      stats_.drain_rejections.fetch_add(1, std::memory_order_relaxed);
      wire::Response bounced;
      bounced.kind = item.kind;
      bounced.status = Status::Unavailable("catalog server is draining");
      Reply(conn, item.request_id, bounced);
      continue;
    }
    if (admitted) {
      // Only a reply from an awake worker is worth waiting for awake.
      conn->reply_soon_.store(!wake, std::memory_order_relaxed);
      if (wake) {
        worker_cv_.notify_one();
      } else {
        stats_.awake_handoffs.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      // Admission control: reject at the door, before any worker is
      // occupied, so overload degrades to fast-failing calls instead
      // of unbounded queueing.
      stats_.queue_rejections.fetch_add(1, std::memory_order_relaxed);
      wire::Response rejected;
      rejected.kind = item.kind;
      rejected.status =
          Status::ResourceExhausted("catalog server work queue is full");
      Reply(conn, item.request_id, rejected);
    }
  }
  buffer.erase(0, consumed);
}

bool CatalogServer::NextItem(std::unique_lock<std::mutex>& lock, bool awake,
                             WorkItem* item) {
  if (awake && queue_.empty() && !stopping_) {
    // A caller's next request usually follows its reply sooner than a
    // park and wake would take: wait for it awake first.
    ++waiting_workers_;
    lock.unlock();
    WaitAwake(Clock::now() + kHandoffWait, [this] {
      return queued_.load(std::memory_order_relaxed) > 0;
    });
    lock.lock();
    --waiting_workers_;
  }
  worker_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  if (stopping_) return false;
  *item = std::move(queue_.front());
  queue_.pop_front();
  queued_.store(queue_.size(), std::memory_order_relaxed);
  return true;
}

void CatalogServer::WorkerLoop() {
  for (bool awake = false;; awake = true) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!NextItem(lock, awake, &item)) return;
      ++active_workers_;
    }
    int64_t delay_us = handler_delay_us_.load(std::memory_order_relaxed);
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    wire::Response response;
    Result<wire::Request> request =
        wire::DecodeRequest(item.kind, item.payload);
    if (!request.ok()) {
      response.kind = item.kind;
      response.status = request.status();
    } else {
      response = Execute(*request);
    }
    stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
    Reply(item.conn, item.request_id, response);
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
      drained = queue_.empty() && active_workers_ == 0;
    }
    if (drained) drain_cv_.notify_all();
  }
}

wire::Response CatalogServer::Execute(const wire::Request& request) {
  const std::string token(wire::IdempotencyToken(request));
  if (!token.empty()) {
    // Tokenized batch: consult the idempotency window first so a retry
    // (lost reply / replica failover) replays the recorded outcome —
    // assigned ids included — instead of applying twice.
    if (std::optional<wire::Response> recorded = dedup_->BeginOrAwait(token)) {
      stats_.batch_dedup_hits.fetch_add(1, std::memory_order_relaxed);
      return std::move(*recorded);
    }
  }
  Result<wire::Response> answer = backend_->Call(request);
  wire::Response response;
  if (answer.ok()) {
    response = std::move(answer).value();
  } else {
    response.kind = request.kind;
    response.status = answer.status();
  }
  if (!token.empty()) dedup_->Complete(token, response);
  return response;
}

void CatalogServer::Reply(const std::shared_ptr<ServerConnection>& conn,
                          uint64_t request_id,
                          const wire::Response& response) {
  std::string frame = wire::EncodeResponseFrame(request_id, response);
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
  conn->ServerWrite(frame);
}

// -----------------------------------------------------------------------
// WireCatalogClient
// -----------------------------------------------------------------------

Result<std::shared_ptr<WireCatalogClient>> WireCatalogClient::Connect(
    CatalogServer* server, WireClientOptions options) {
  return ConnectChannel(server->Connect(), options);
}

Result<std::shared_ptr<WireCatalogClient>> WireCatalogClient::ConnectChannel(
    std::shared_ptr<ClientChannel> channel, WireClientOptions options) {
  if (channel == nullptr || channel->closed()) {
    return Status::Unavailable("catalog server refused the connection");
  }
  std::shared_ptr<WireCatalogClient> client(
      new WireCatalogClient(std::move(channel), options));
  VDG_ASSIGN_OR_RETURN(
      wire::Response resp,
      client->Call({wire::MsgKind::kHandshake, wire::EmptyReq{}}));
  const auto* body = std::get_if<wire::HandshakeResp>(&resp.body);
  if (body == nullptr) {
    return Status::Internal("wire: handshake response carried no body");
  }
  client->authority_ = body->authority;
  client->read_only_ = body->read_only;
  return client;
}

WireCatalogClient::WireCatalogClient(std::shared_ptr<ClientChannel> conn,
                                     WireClientOptions options)
    : conn_(std::move(conn)), options_(options) {}

WireCatalogClient::~WireCatalogClient() { Disconnect(); }

WireClientStats WireCatalogClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WireCatalogClient::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = WireClientStats{};
}

void WireCatalogClient::CancelPending() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, slot] : pending_) {
      if (slot->done) continue;
      slot->done = true;
      slot->error = Status::Cancelled("call cancelled by CancelPending");
      stats_.cancellations++;
      slot->cv.notify_all();
    }
  }
  // A cancelled caller may hold the reader role, blocked in Receive.
  conn_->Interrupt();
}

void WireCatalogClient::Disconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) return;
  broken_ = true;
  conn_->Close();  // wakes a reader blocked in Receive with EOF
  // Pending requests were already sent: they may execute server-side
  // even though their replies are lost, so carriers must not blindly
  // re-issue mutations among them.
  FailAllPendingLocked(
      Status::UnavailableRetryUnsafe("wire client disconnected"));
}

void WireCatalogClient::FailAllPendingLocked(const Status& error) {
  for (auto& [id, slot] : pending_) {
    if (slot->done) continue;
    slot->done = true;
    slot->error = error;
    slot->cv.notify_all();
  }
}

bool WireCatalogClient::SendFrame(std::string_view frame) {
  // One frame = one logical send, serialized so concurrent callers
  // can't interleave partial frames, looping because a channel (or a
  // fault shim under it) may accept fewer bytes than offered.
  std::lock_guard<std::mutex> lock(send_mu_);
  size_t off = 0;
  while (off < frame.size()) {
    ptrdiff_t n = conn_->Send(frame.substr(off));
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

void WireCatalogClient::ReadOnce(
    std::unique_lock<std::mutex>& lock,
    std::chrono::steady_clock::time_point deadline) {
  lock.unlock();
  // The role makes this caller the only one touching recv_buffer_.
  const ClientChannel::RecvResult got =
      conn_->Receive(&recv_buffer_, deadline);
  lock.lock();
  Status stream_error = Status::OK();
  if (got == ClientChannel::RecvResult::kClosed) {
    // Lost replies: the in-flight requests may have executed.
    stream_error =
        Status::UnavailableRetryUnsafe("wire connection closed by server");
  }
  size_t consumed = 0;
  while (got == ClientChannel::RecvResult::kData &&
         consumed < recv_buffer_.size()) {
    std::string_view rest(recv_buffer_.data() + consumed,
                          recv_buffer_.size() - consumed);
    Result<size_t> size = wire::FrameSize(rest);
    if (!size.ok()) {
      if (size.status().IsNotFound()) break;  // need more bytes
      stream_error = Status::UnavailableRetryUnsafe(
          "wire response stream is corrupt: " + size.status().message());
      break;
    }
    if (rest.size() < *size) break;
    Result<wire::Frame> frame = wire::DecodeFrame(rest.substr(0, *size));
    if (!frame.ok() || !frame->is_response) {
      stream_error =
          Status::UnavailableRetryUnsafe("wire response stream is corrupt");
      break;
    }
    stats_.bytes_received += *size;
    consumed += *size;
    auto it = pending_.find(frame->request_id);
    if (it != pending_.end() && !it->second->done) {
      // Deposit raw payload bytes; each caller decodes on its own
      // thread.
      it->second->payload.assign(frame->payload);
      it->second->done = true;
      it->second->cv.notify_all();
    }
    // else: response to an abandoned (deadline-expired/cancelled) or
    // unknown request — discarded by design.
  }
  recv_buffer_.erase(0, consumed);
  if (!stream_error.ok()) {
    recv_buffer_.clear();
    broken_ = true;
    conn_->Close();
    FailAllPendingLocked(stream_error);
  }
}

void WireCatalogClient::HandOffReaderLocked() {
  if (reading_) return;
  for (auto& [id, slot] : pending_) {
    if (!slot->done) {
      slot->cv.notify_all();
      return;
    }
  }
}

Result<wire::Response> WireCatalogClient::Call(const wire::Request& request) {
  // A malformed request is the caller's error: answer it here, before
  // the server would drop the connection over it.
  VDG_RETURN_IF_ERROR(wire::CheckRequest(request));
  std::shared_ptr<PendingSlot> slot;
  uint64_t request_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) {
      stats_.failures++;
      return Status::Unavailable("wire client is disconnected");
    }
    if (pending_.size() >= options_.max_in_flight) {
      stats_.admission_rejections++;
      return Status::ResourceExhausted(
          "wire client in-flight limit reached");
    }
    request_id = next_request_id_++;
    slot = std::make_shared<PendingSlot>();
    pending_.emplace(request_id, slot);
  }
  std::string frame = wire::EncodeRequestFrame(request_id, request);
  if (!SendFrame(frame)) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(request_id);
    stats_.failures++;
    // A partial frame can never be executed (the server drops
    // incomplete framing), so a send failure is retry-safe.
    return Status::Unavailable("wire connection closed");
  }
  const bool has_deadline = options_.default_deadline.count() > 0;
  const Clock::time_point deadline =
      has_deadline ? Clock::now() + options_.default_deadline
                   : Clock::time_point::max();
  std::unique_lock<std::mutex> lock(mu_);
  stats_.bytes_sent += frame.size();
  while (!slot->done) {
    if (has_deadline && Clock::now() >= deadline) {
      // Abandon the slot: the request may still execute server-side,
      // but its response is discarded on arrival.
      pending_.erase(request_id);
      stats_.deadline_expiries++;
      HandOffReaderLocked();
      // The request is still queued or executing server-side:
      // re-issuing a mutation after an expiry can double-apply it.
      return Status::MarkRetryUnsafe(Status::DeadlineExceeded(
          "wire call deadline expired: " +
          std::string(wire::MsgKindName(request.kind))));
    }
    if (!reading_) {
      reading_ = true;
      ReadOnce(lock, deadline);
      reading_ = false;
    } else if (has_deadline) {
      slot->cv.wait_until(lock, deadline);
    } else {
      slot->cv.wait(lock);
    }
  }
  pending_.erase(request_id);
  HandOffReaderLocked();
  if (!slot->error.ok()) {
    if (!slot->error.IsCancelled()) stats_.failures++;
    return slot->error;
  }
  stats_.round_trips++;
  std::string payload = std::move(slot->payload);
  lock.unlock();
  // Decode on the calling thread, outside the client lock.
  Result<wire::Response> response = wire::DecodeResponse(request.kind, payload);
  if (response.ok() && !response->status.ok()) return response->status;
  return response;
}

}  // namespace vdg
