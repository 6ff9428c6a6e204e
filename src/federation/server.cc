#include "federation/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace vdg {

namespace {

/// Whole-buffer send loop; false on a broken socket.
bool SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
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

ServerConnection::ServerConnection(CatalogServer* server, int client_fd,
                                   int server_fd, int interrupt_fd)
    : server_(server),
      client_fd_(client_fd),
      server_fd_(server_fd),
      interrupt_fd_(interrupt_fd) {}

ServerConnection::~ServerConnection() {
  Close();
  if (pump_.joinable()) pump_.join();
  if (client_fd_ >= 0) ::close(client_fd_);
  if (server_fd_ >= 0) ::close(server_fd_);
  if (interrupt_fd_ >= 0) ::close(interrupt_fd_);
}

bool ServerConnection::ClientSend(std::string_view bytes) {
  if (client_fd_ >= 0) {
    std::lock_guard<std::mutex> lock(client_write_mu_);
    if (closed()) return false;
    return SendAll(client_fd_, bytes);
  }
  return Ingest(bytes);
}

bool ServerConnection::Ingest(std::string_view bytes) {
  std::lock_guard<std::mutex> parse(parse_mu_);
  if (closed()) return false;
  parse_buffer_.append(bytes);
  // An open connection is always listed by the server, so it has an
  // owner here; see CatalogServer::Connect for why that owner outlives
  // this call.
  server_->DrainConnection(shared_from_this());
  return true;
}

ClientChannel::RecvResult ServerConnection::Receive(
    std::string* out, std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  if (client_fd_ >= 0) {
    pollfd fds[2] = {{client_fd_, POLLIN, 0}, {interrupt_fd_, POLLIN, 0}};
    for (;;) {
      int timeout_ms = -1;
      if (deadline != Clock::time_point::max()) {
        const auto left = deadline - Clock::now();
        if (left <= Clock::duration::zero()) return RecvResult::kTimeout;
        // Round up: waking before the deadline would only spin.
        timeout_ms = static_cast<int>(
            std::chrono::ceil<std::chrono::milliseconds>(left).count());
      }
      int n = ::poll(fds, 2, timeout_ms);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return RecvResult::kClosed;
      if (n == 0) return RecvResult::kTimeout;
      if (fds[1].revents & POLLIN) {
        uint64_t count = 0;
        (void)::read(interrupt_fd_, &count, sizeof(count));
        return RecvResult::kTimeout;
      }
      char buf[16384];
      ssize_t got = ::recv(client_fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (got <= 0) return RecvResult::kClosed;
      out->append(buf, static_cast<size_t>(got));
      return RecvResult::kData;
    }
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
  if (!outbound_.empty()) {
    out->append(outbound_);
    outbound_.clear();
    return RecvResult::kData;
  }
  return closed_ ? RecvResult::kClosed : RecvResult::kTimeout;
}

void ServerConnection::Interrupt() {
  if (interrupt_fd_ >= 0) {
    const uint64_t one = 1;
    (void)::write(interrupt_fd_, &one, sizeof(one));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    interrupted_ = true;
  }
  outbound_cv_.notify_all();
}

void ServerConnection::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  // Unblock any recv()/poll() in the pump thread / client reader.
  if (client_fd_ >= 0) ::shutdown(client_fd_, SHUT_RDWR);
  if (server_fd_ >= 0) ::shutdown(server_fd_, SHUT_RDWR);
  outbound_cv_.notify_all();
}

bool ServerConnection::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void ServerConnection::ServerWrite(std::string_view frame) {
  if (server_fd_ >= 0) {
    std::lock_guard<std::mutex> lock(server_write_mu_);
    SendAll(server_fd_, frame);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    outbound_.append(frame);
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
  handler_delay_us_.store(options_.handler_delay.count(),
                          std::memory_order_relaxed);
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CatalogServer::~CatalogServer() { Shutdown(); }

std::shared_ptr<ServerConnection> CatalogServer::Connect(bool use_socket) {
  int client_fd = -1;
  int server_fd = -1;
  int interrupt_fd = -1;
  if (use_socket) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      interrupt_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (interrupt_fd >= 0) {
        client_fd = fds[0];
        server_fd = fds[1];
      } else {
        ::close(fds[0]);
        ::close(fds[1]);
      }
    }
    // On failure fall back to the in-memory pipe: same protocol, no fds.
  }
  std::shared_ptr<ServerConnection> conn(
      new ServerConnection(this, client_fd, server_fd, interrupt_fd));
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
  // A delivering thread may still be finishing an Ingest on a pruned
  // connection. Wait it out before dropping the server's reference, so
  // that thread never holds the last one (a pump thread cannot run its
  // own connection's destructor, which joins it).
  for (const auto& closed : pruned) {
    std::lock_guard<std::mutex> barrier(closed->parse_mu_);
  }
  if (rejected) {
    conn->Close();
    return conn;
  }
  if (server_fd >= 0) {
    // Socket mode: a pump thread moves kernel bytes into Ingest, the
    // same admission path the in-memory pipe runs on the sender.
    ServerConnection* raw = conn.get();
    raw->pump_ = std::thread([raw] {
      char buf[16384];
      for (;;) {
        ssize_t n = ::recv(raw->server_fd_, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0 ||
            !raw->Ingest(std::string_view(buf, static_cast<size_t>(n)))) {
          break;
        }
      }
      raw->Close();
    });
  }
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
  // Close connections before joining: a worker blocked writing to a
  // full socket unblocks once the peer is shut down.
  for (auto& conn : conns) conn->Close();
  // Once each parse mutex has been taken after the close, no delivering
  // thread is inside DrainConnection and none will enter it again.
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
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining = draining_;
      if (!stopping_ && !draining_ &&
          queue_.size() < options_.queue_capacity) {
        queue_.push_back(std::move(item));
        admitted = true;
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
      worker_cv_.notify_one();
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

void CatalogServer::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      worker_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      item = std::move(queue_.front());
      queue_.pop_front();
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
  const auto* batch = request.kind == wire::MsgKind::kApplyBatch
                          ? std::get_if<wire::ApplyBatchReq>(&request.body)
                          : nullptr;
  const std::string token =
      batch != nullptr ? batch->options.idempotency_token : std::string();
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
    CatalogServer* server, WireClientOptions options, bool use_socket) {
  return ConnectChannel(server->Connect(use_socket), options);
}

Result<std::shared_ptr<WireCatalogClient>> WireCatalogClient::ConnectChannel(
    std::shared_ptr<ClientChannel> channel, WireClientOptions options) {
  if (channel == nullptr || channel->closed()) {
    return Status::Unavailable("catalog server refused the connection");
  }
  std::shared_ptr<WireCatalogClient> client(
      new WireCatalogClient(std::move(channel), options));
  wire::Request handshake;
  handshake.kind = wire::MsgKind::kHandshake;
  handshake.body = wire::EmptyReq{};
  VDG_ASSIGN_OR_RETURN(wire::Response resp, client->Call(handshake));
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
  using Clock = std::chrono::steady_clock;
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
