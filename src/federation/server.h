#ifndef VDG_FEDERATION_SERVER_H_
#define VDG_FEDERATION_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/client.h"
#include "catalog/wire.h"

namespace vdg {

// -----------------------------------------------------------------------
// CatalogServer — a real service runtime in front of a CatalogClient
// backend: requests arrive as wire-codec frames on duplex byte
// channels, are validated and admitted by whichever thread delivered
// them, and a stateless worker pool decodes, executes, and replies.
// Every byte is genuinely serialized, checksummed, and dispatched
// across real threads — RPC cost is measured, not modeled.
//
// Threading model (a round trip crosses two thread handoffs: caller ->
// worker -> caller):
//  - Frame extraction runs on the client's own thread inside Send,
//    under a per-connection parse mutex. It splits the stream into
//    frames, validates header + CRC, and pushes complete frames onto a
//    bounded work queue. A malformed frame closes its connection
//    (stream framing cannot be resynchronized after corruption). A full
//    work queue answers immediately with ResourceExhausted — admission
//    control happens before a worker is ever occupied.
//  - N stateless workers pop frames, decode the request, execute it
//    against the backend, and write the response frame atomically to
//    the connection. Workers keep no per-connection state, so any
//    worker can serve any request and a slow call never wedges the
//    pool. The backend must be thread-safe (InProcessCatalogClient
//    over VirtualDataCatalog is).
//  - Neither side of a handoff parks while the other is awake. After
//    replying, a worker watches the queued-item count, yielding the
//    CPU between looks, for up to kHandoffWait before it parks on the
//    worker condvar; admission hands a frame to such a waiting worker
//    without a wake-up. Only then does the caller's Receive watch the
//    connection's "something to read" word the same way (until the
//    reply, Close, Interrupt, the bound or its deadline) before it
//    parks; a caller whose frame had to wake a parked worker parks at
//    once. A park and wake costs ~20 us per handoff on a 4-vCPU host,
//    so a request answered within the bound skips both, and the
//    yielding lets a woken thread run on a waiting thread's CPU.
//  - Connections are in-memory duplex pipes: hermetic, no fds, no
//    extra thread. Other transports plug in under the client through
//    ClientChannel (WireCatalogClient::ConnectChannel).
//  - The client has no thread of its own: a caller waiting for its
//    reply reads the connection itself (WireCatalogClient below).
// -----------------------------------------------------------------------

class BatchDedupRegistry;

struct ServerOptions {
  /// Worker threads executing requests against the backend.
  size_t workers = 4;
  /// Bounded work-queue depth; frames beyond this are rejected with
  /// ResourceExhausted at admission (backpressure, not buffering).
  size_t queue_capacity = 128;
  /// ApplyBatch idempotency window. When null the server creates a
  /// private registry; replica servers fronting the SAME backend
  /// catalog must share one registry so a batch retried across
  /// failover still dedups (the window models storage-level dedup in a
  /// replicated service, so it lives with the storage, not the node).
  std::shared_ptr<BatchDedupRegistry> batch_dedup;
};

/// Aggregate server counters (atomics: touched by sending client
/// threads and workers concurrently).
struct ServerStats {
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> frames_out{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> requests_served{0};   // executed by a worker
  std::atomic<uint64_t> queue_rejections{0};  // admission-control bounces
  std::atomic<uint64_t> protocol_errors{0};   // malformed frames (closes conn)
  std::atomic<uint64_t> connections_opened{0};
  std::atomic<uint64_t> connection_resets{0};  // conns closed on a
                                               // malformed/corrupt stream
  std::atomic<uint64_t> drain_rejections{0};   // frames bounced with
                                               // Unavailable during drain
  std::atomic<uint64_t> batch_dedup_hits{0};   // ApplyBatch retries answered
                                               // from the idempotency window
  std::atomic<uint64_t> awake_handoffs{0};     // frames admitted to a worker
                                               // waiting awake (no wake-up)
};

/// Bounded idempotency window for ApplyBatch. Keyed by the client's
/// `BatchOptions::idempotency_token`, it records each tokenized
/// batch's wire response so a retry (lost reply, failover to a replica
/// server sharing the registry) returns the original outcome —
/// assigned ids included — instead of applying the mutations twice.
/// Thread-safe; a concurrent duplicate blocks until the first
/// execution completes rather than racing it.
class BatchDedupRegistry {
 public:
  explicit BatchDedupRegistry(size_t capacity = 1024);

  /// Claims `token` for execution. Returns nullopt when the caller is
  /// the first claimant and must execute the batch, then call
  /// Complete(). Returns the recorded response when the token already
  /// completed (a dedup hit); blocks when another thread is mid-
  /// execution and then returns its result.
  std::optional<wire::Response> BeginOrAwait(const std::string& token);

  /// Records the outcome of a claimed token and wakes any waiters.
  /// Evicts the oldest completed entries beyond `capacity`.
  void Complete(const std::string& token, wire::Response response);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t size() const;

 private:
  struct Entry {
    bool done = false;
    wire::Response response;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t capacity_;
  std::unordered_map<std::string, Entry> entries_;
  std::deque<std::string> completed_order_;  // FIFO eviction of done entries
  std::atomic<uint64_t> hits_{0};
};

class CatalogServer;

/// Client-side view of a duplex byte channel. WireCatalogClient talks
/// to this interface rather than to ServerConnection directly so a
/// fault-injection shim (FaultyChannel in faulty_transport.h) can wrap
/// the real transport and corrupt/short/drop the byte stream under it.
class ClientChannel {
 public:
  virtual ~ClientChannel() = default;

  /// Attempts to write `bytes` toward the server. Returns the number
  /// of bytes accepted — possibly FEWER than requested (a short
  /// write): the caller must loop until the whole frame is flushed.
  /// Returns -1 once the channel is broken.
  virtual ptrdiff_t Send(std::string_view bytes) = 0;

  enum class RecvResult {
    kData,     // response bytes were appended to `*out`
    kTimeout,  // the deadline passed or Interrupt() woke the call
    kClosed,   // the channel closed with nothing pending (EOF)
  };

  /// Blocks until response bytes arrive, `deadline` passes, Interrupt()
  /// is called, or the channel closes with nothing pending.
  /// `time_point::max()` waits without a deadline.
  virtual RecvResult Receive(std::string* out,
                             std::chrono::steady_clock::time_point deadline) = 0;

  /// Wakes a blocked Receive (which returns kTimeout). When no Receive
  /// is blocked, the next one returns kTimeout at once.
  virtual void Interrupt() = 0;

  /// Closes both directions; blocked receivers wake with EOF.
  virtual void Close() = 0;

  virtual bool closed() const = 0;
};

/// One duplex byte channel between a client and the server. The client
/// half writes request bytes and blocks reading response bytes; the
/// server half is driven by the delivering thread (admission) and the
/// workers (replies). Created only by CatalogServer::Connect().
class ServerConnection : public ClientChannel,
                         public std::enable_shared_from_this<ServerConnection> {
 public:
  /// ClientChannel: appends `bytes` to the request stream and admits
  /// every complete frame, on the calling thread under parse_mu_. Never
  /// short-writes: accepts the whole buffer, or returns -1 once the
  /// connection is closed.
  ptrdiff_t Send(std::string_view bytes) override;
  RecvResult Receive(std::string* out,
                     std::chrono::steady_clock::time_point deadline) override;
  void Interrupt() override;

  /// Closes both directions; blocked receivers wake with EOF. Safe to
  /// call from either side, multiple times.
  void Close() override;

  bool closed() const override;

 private:
  friend class CatalogServer;
  explicit ServerConnection(CatalogServer* server) : server_(server) {}

  /// Server-side: appends response bytes (one whole frame per call,
  /// under mu_, so concurrent workers never interleave frames) and
  /// wakes the client reader.
  void ServerWrite(std::string_view frame);

  CatalogServer* server_;

  mutable std::mutex mu_;
  std::condition_variable outbound_cv_;
  std::string outbound_;      // server -> client, drained by Receive
  bool closed_ = false;
  bool interrupted_ = false;  // Interrupt() pending
  /// The "something to read" word: set with outbound_, closed_ or
  /// interrupted_ under mu_, so a reader can watch it without the lock.
  std::atomic<bool> readable_{false};
  /// Set at admission when a worker was awake to take the frame: the
  /// next Receive waits awake for the reply before it parks.
  std::atomic<bool> reply_soon_{false};

  /// Reassembly buffer for partially received request frames, guarded
  /// by parse_mu_, which is held for the whole of Send.
  std::mutex parse_mu_;
  std::string parse_buffer_;
};

class CatalogServer {
 public:
  /// `backend` executes decoded requests; it must be thread-safe and
  /// outlive the server. Workers start immediately.
  CatalogServer(std::shared_ptr<CatalogClient> backend,
                ServerOptions options = {});
  ~CatalogServer();

  CatalogServer(const CatalogServer&) = delete;
  CatalogServer& operator=(const CatalogServer&) = delete;

  /// Opens a new in-memory duplex channel. After Shutdown (or during a
  /// drain) the channel comes back already closed.
  std::shared_ptr<ServerConnection> Connect();

  /// Stops the server. With `drain_timeout == 0` (the default and what
  /// the destructor uses) the stop is abrupt: queued but unexecuted
  /// requests are dropped; their clients see EOF and fail pending
  /// calls with Unavailable. With a positive `drain_timeout` the
  /// server drains first: new connections are refused, freshly
  /// arriving frames are answered with a retryable Unavailable
  /// (counted in stats().drain_rejections), and already-admitted
  /// requests keep executing until the queue and workers are idle or
  /// the timeout elapses — only then does the hard stop run.
  /// Idempotent.
  void Shutdown(std::chrono::milliseconds drain_timeout =
                    std::chrono::milliseconds(0));

  /// True from the moment a draining Shutdown begins; Connect refuses
  /// and new frames bounce while set.
  bool draining() const;

  /// The ApplyBatch idempotency window this server consults (shared
  /// across replicas when ServerOptions::batch_dedup was supplied).
  const std::shared_ptr<BatchDedupRegistry>& batch_dedup() const {
    return dedup_;
  }

  const ServerStats& stats() const { return stats_; }
  const ServerOptions& options() const { return options_; }

  /// How long a worker that just replied, and a caller whose frame it
  /// took, wait awake (yielding) for the other side before parking.
  /// 2.5x the ~20 us park-plus-wake cost of one handoff on a 4-vCPU
  /// host, so a request that follows its reply within it pays no
  /// wake-up.
  static constexpr std::chrono::microseconds kHandoffWait{50};

  /// Test hook: workers sleep this long before each request (slow
  /// handlers for deadline/backpressure tests); settable at any time.
  void set_handler_delay(std::chrono::microseconds delay) {
    handler_delay_us_.store(delay.count(), std::memory_order_relaxed);
  }

 private:
  friend class ServerConnection;

  struct WorkItem {
    std::shared_ptr<ServerConnection> conn;
    uint64_t request_id = 0;
    wire::MsgKind kind = wire::MsgKind::kVersion;
    std::string payload;  // request payload bytes (already CRC-checked)
  };

  void WorkerLoop();

  /// A worker's wait for its next item: watches queued_ for up to
  /// kHandoffWait when `awake` (it just replied), then parks on
  /// worker_cv_. Called and returns with `lock` held on mu_; false
  /// once the server is stopping.
  bool NextItem(std::unique_lock<std::mutex>& lock, bool awake,
                WorkItem* item);

  /// Splits every complete frame out of `conn`'s parse buffer,
  /// admitting each to the work queue or rejecting/closing per policy.
  /// Runs on the delivering thread with conn->parse_mu_ held.
  void DrainConnection(const std::shared_ptr<ServerConnection>& conn);

  /// Executes one decoded request against the backend
  /// (`backend_->Call`), replaying a tokenized ApplyBatch from the
  /// idempotency window. Errors travel in the response's status.
  wire::Response Execute(const wire::Request& request);

  void Reply(const std::shared_ptr<ServerConnection>& conn,
             uint64_t request_id, const wire::Response& response);

  std::shared_ptr<CatalogClient> backend_;
  ServerOptions options_;
  std::atomic<int64_t> handler_delay_us_{0};
  ServerStats stats_;

  std::shared_ptr<BatchDedupRegistry> dedup_;

  // guards connections_, queue_, stopping_, draining_, active_workers_,
  // waiting_workers_
  mutable std::mutex mu_;
  std::condition_variable worker_cv_;
  std::condition_variable drain_cv_;  // queue empty && no active workers
  std::vector<std::shared_ptr<ServerConnection>> connections_;
  std::deque<WorkItem> queue_;
  bool stopping_ = false;
  bool draining_ = false;
  size_t active_workers_ = 0;  // items popped but not yet replied
  /// Workers watching queued_ before they park. Admission skips the
  /// wake-up while every queued item has one of them to take it.
  size_t waiting_workers_ = 0;
  std::atomic<size_t> queued_{0};  // queue_.size(), readable without mu_

  std::vector<std::thread> workers_;
};

// -----------------------------------------------------------------------
// WireCatalogClient — the CatalogClient that actually speaks the wire
// protocol: a RequestClient whose Call() encodes the request as one
// frame, ships it through a ServerConnection, and blocks until the
// matching response frame returns or the per-request deadline expires.
// Each typed method is one such call. Thread-safe: any number
// of threads may issue calls concurrently. The client owns no thread:
// callers share the reading by leader/follower. A waiting caller that
// finds no reader becomes the reader, does one Receive, routes every
// complete response frame to its request's slot, then hands the role to
// a remaining waiter; the others sleep on their own slots.
// -----------------------------------------------------------------------

struct WireClientOptions {
  /// Per-request deadline. A request still unanswered when it expires
  /// fails with DeadlineExceeded; the late response (if any) is
  /// discarded on arrival. zero() disables the deadline.
  std::chrono::milliseconds default_deadline{5000};
  /// Admission bound: calls beyond this many in flight fail immediately
  /// with ResourceExhausted instead of queueing client-side.
  size_t max_in_flight = 64;
};

/// Client-side transport counters.
struct WireClientStats {
  uint64_t round_trips = 0;           // completed request/response pairs
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t deadline_expiries = 0;
  uint64_t admission_rejections = 0;  // max_in_flight bounces
  uint64_t cancellations = 0;         // calls failed by CancelPending
  uint64_t failures = 0;              // transport-level failures (EOF etc.)
};

class WireCatalogClient : public RequestClient {
 public:
  /// Connects to `server` and performs the handshake (one round trip)
  /// to learn the authority and read-only bit. Fails if the server is
  /// already shut down.
  static Result<std::shared_ptr<WireCatalogClient>> Connect(
      CatalogServer* server, WireClientOptions options = {});

  /// Same handshake over a caller-supplied channel — the hook
  /// FaultyChannel and future transports (TCP) plug into.
  static Result<std::shared_ptr<WireCatalogClient>> ConnectChannel(
      std::shared_ptr<ClientChannel> channel, WireClientOptions options = {});

  ~WireCatalogClient() override;

  const std::string& authority() const override { return authority_; }
  bool read_only() const override { return read_only_; }

  WireClientStats stats() const;
  void reset_stats();

  /// Fails every in-flight call with Cancelled, interrupting a caller
  /// blocked reading the channel. The connection stays usable for new
  /// calls; late responses to cancelled requests are discarded.
  void CancelPending();

  /// Closes the connection; all pending and future calls fail with
  /// Unavailable.
  void Disconnect();

  /// One round trip: admission check, encode+send, wait for the
  /// response (or deadline) — reading the channel itself when no other
  /// caller is — and decode on the calling thread. The server's
  /// admission and drain bounces come back as the Result's status.
  Result<wire::Response> Call(const wire::Request& request) override;

 private:
  /// One in-flight call. Its caller sleeps on `cv` unless it holds the
  /// reader role.
  struct PendingSlot {
    bool done = false;
    Status error = Status::OK();  // transport failure (EOF, cancel, ...)
    std::string payload;          // raw response payload bytes
    std::condition_variable cv;
  };

  WireCatalogClient(std::shared_ptr<ClientChannel> conn,
                    WireClientOptions options);

  /// The reader role's work: one Receive, then routes every complete
  /// frame to its slot. Called with `lock` held on mu_ and reading_
  /// set; returns with both still so.
  void ReadOnce(std::unique_lock<std::mutex>& lock,
                std::chrono::steady_clock::time_point deadline);

  /// Wakes one caller still waiting so it can take the free reader
  /// role. Requires mu_.
  void HandOffReaderLocked();

  /// Flushes the whole frame through the channel, looping on short
  /// writes, under send_mu_ so concurrent callers never interleave
  /// partial frames. Returns false once the channel is broken.
  bool SendFrame(std::string_view frame);

  /// Fails every pending slot with `error` (EOF / disconnect path).
  /// Requires mu_.
  void FailAllPendingLocked(const Status& error);

  std::shared_ptr<ClientChannel> conn_;
  WireClientOptions options_;
  std::string authority_;
  bool read_only_ = false;

  std::mutex send_mu_;  // serializes whole-frame sends (short-write loop)
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingSlot>> pending_;
  uint64_t next_request_id_ = 1;
  bool broken_ = false;  // connection failed; all calls -> Unavailable
  bool reading_ = false;  // a caller holds the reader role
  WireClientStats stats_;

  /// Reassembly buffer for partial response frames; touched only by the
  /// reader-role holder (the role changes hands under mu_).
  std::string recv_buffer_;
};

}  // namespace vdg

#endif  // VDG_FEDERATION_SERVER_H_
