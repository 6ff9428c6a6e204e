// Service-runtime tests: the CatalogServer worker pool and the
// WireCatalogClient speaking the binary codec over real byte channels.
// The through-line: at zero faults every call returns bit-identical
// results to InProcessCatalogClient; deadlines, backpressure, and
// cancellation produce their typed errors without wedging the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/client.h"
#include "catalog/sharding.h"
#include "executor/executor.h"
#include "federation/remote_cache.h"
#include "federation/resilient_client.h"
#include "federation/server.h"
#include "planner/planner.h"
#include "workload/canonical.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

constexpr const char* kStepTr = R"(
TR step( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/step";
}
)";

/// d0 -> d1 -> ... -> dN linear chain (d0 raw), the Figure 3 shape.
std::unique_ptr<VirtualDataCatalog> ChainCatalog(int links) {
  auto catalog = std::make_unique<VirtualDataCatalog>("chain.org");
  EXPECT_TRUE(catalog->Open().ok());
  EXPECT_TRUE(catalog->ImportVdl(kStepTr).ok());
  EXPECT_TRUE(catalog->ImportVdl("DS d0 : Dataset size=\"1024\";").ok());
  for (int i = 0; i < links; ++i) {
    std::string vdl = "DV l" + std::to_string(i + 1) +
                      "->step( out=@{output:\"d" + std::to_string(i + 1) +
                      "\"}, in=@{input:\"d" + std::to_string(i) + "\"} );";
    EXPECT_TRUE(catalog->ImportVdl(vdl).ok());
  }
  return catalog;
}

class CatalogServerTest : public ::testing::TestWithParam<bool> {
 protected:
  CatalogServerTest() : catalog_(ChainCatalog(8)) {}

  std::shared_ptr<CatalogClient> Backend(bool read_only = false) {
    return std::make_shared<InProcessCatalogClient>(catalog_.get(), read_only);
  }

  bool UseSocket() const { return GetParam(); }

  std::unique_ptr<VirtualDataCatalog> catalog_;
};

INSTANTIATE_TEST_SUITE_P(Transports, CatalogServerTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Socket" : "Pipe";
                         });

// ----------------------- parity with in-process ----------------------

TEST_P(CatalogServerTest, HandshakeLearnsAuthorityAndMutability) {
  CatalogServer server(Backend());
  auto client = WireCatalogClient::Connect(&server, {}, UseSocket());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_EQ((*client)->authority(), "chain.org");
  EXPECT_FALSE((*client)->read_only());

  CatalogServer ro_server(Backend(/*read_only=*/true));
  auto ro = WireCatalogClient::Connect(&ro_server, {}, UseSocket());
  ASSERT_TRUE(ro.ok());
  EXPECT_TRUE((*ro)->read_only());
  EXPECT_TRUE((*ro)->DefineDataset(Dataset{}).IsPermissionDenied());
}

TEST_P(CatalogServerTest, ReadOnlyClientsRejectMutationsBeforeTheTransport) {
  CatalogServer server(Backend(/*read_only=*/true));
  auto wire_client = WireCatalogClient::Connect(&server, {}, UseSocket());
  ASSERT_TRUE(wire_client.ok()) << wire_client.status();
  WireCatalogClient& ro = **wire_client;
  ResilientEndpoint endpoint;
  endpoint.name = "ro";
  endpoint.connect = [&]() -> Result<std::shared_ptr<CatalogClient>> {
    return std::shared_ptr<CatalogClient>(*wire_client);
  };
  ResilientCatalogClient resilient({endpoint});
  ASSERT_TRUE(resilient.read_only());
  const uint64_t round_trips = ro.stats().round_trips;
  const uint64_t served = server.stats().requests_served.load();

  Dataset ds;
  ds.name = "ro-ds";
  EXPECT_TRUE(ro.DefineDataset(ds).IsPermissionDenied());
  EXPECT_TRUE(ro.ApplyBatch({CatalogMutation::DefineDataset(ds)})
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(resilient.DefineDataset(ds).IsPermissionDenied());
  EXPECT_TRUE(resilient.SetDatasetSize("d1", 1).IsPermissionDenied());

  EXPECT_EQ(ro.stats().round_trips, round_trips);
  EXPECT_EQ(server.stats().requests_served.load(), served);
  EXPECT_FALSE(catalog_->HasDataset("ro-ds"));
}

TEST_P(CatalogServerTest, EveryReadMatchesInProcessBitForBit) {
  CatalogServer server(Backend());
  auto wire_client = WireCatalogClient::Connect(&server, {}, UseSocket());
  ASSERT_TRUE(wire_client.ok()) << wire_client.status();
  WireCatalogClient& remote = **wire_client;
  InProcessCatalogClient local(catalog_.get());

  EXPECT_EQ(*remote.Version(), *local.Version());

  // Point reads across every object class.
  Result<Dataset> rd = remote.GetDataset("d3");
  Result<Dataset> ld = local.GetDataset("d3");
  ASSERT_TRUE(rd.ok() && ld.ok());
  EXPECT_EQ(rd->name, ld->name);
  EXPECT_EQ(rd->producer, ld->producer);
  EXPECT_EQ(rd->size_bytes, ld->size_bytes);
  EXPECT_EQ(rd->type, ld->type);
  EXPECT_EQ(rd->descriptor, ld->descriptor);
  EXPECT_EQ(rd->annotations, ld->annotations);

  Result<Transformation> rt = remote.GetTransformation("step");
  Result<Transformation> lt = local.GetTransformation("step");
  ASSERT_TRUE(rt.ok() && lt.ok());
  EXPECT_EQ(rt->TypeSignature(), lt->TypeSignature());
  EXPECT_EQ(rt->executable(), lt->executable());

  Result<Derivation> rv = remote.GetDerivation("l2");
  Result<Derivation> lv = local.GetDerivation("l2");
  ASSERT_TRUE(rv.ok() && lv.ok());
  EXPECT_EQ(rv->Signature(), lv->Signature());

  EXPECT_EQ(*remote.HasDataset("d1"), *local.HasDataset("d1"));
  EXPECT_EQ(*remote.HasDataset("missing"), *local.HasDataset("missing"));
  EXPECT_EQ(*remote.IsMaterialized("d5"), *local.IsMaterialized("d5"));
  EXPECT_EQ(*remote.ProducerOf("d4"), *local.ProducerOf("d4"));
  EXPECT_EQ(remote.InvocationsOf("l1")->size(),
            local.InvocationsOf("l1")->size());

  // Error statuses travel as typed codes, not stringly-typed blobs.
  Result<Dataset> missing = remote.GetDataset("missing");
  EXPECT_TRUE(missing.status().IsNotFound());
  EXPECT_EQ(missing.status().code(), local.GetDataset("missing").status().code());

  // Discovery.
  DatasetQuery dq;
  dq.name_prefix = "d";
  EXPECT_EQ(*remote.FindDatasets(dq), *local.FindDatasets(dq));
  TransformationQuery tq;
  EXPECT_EQ(*remote.FindTransformations(tq), *local.FindTransformations(tq));
  DerivationQuery vq;
  vq.reads_dataset = "d3";
  EXPECT_EQ(*remote.FindDerivations(vq), *local.FindDerivations(vq));
  EXPECT_EQ(*remote.AllNames("dataset"), *local.AllNames("dataset"));
  EXPECT_EQ(*remote.AllNames("derivation"), *local.AllNames("derivation"));

  DatasetType any;
  DatasetType sdss;
  sdss.content = "SDSS";
  EXPECT_EQ(*remote.TypeConforms(sdss, any), *local.TypeConforms(sdss, any));

  // Compound reads.
  std::vector<ObjectKey> keys = {{"dataset", "d1"},
                                 {"transformation", "step"},
                                 {"derivation", "l3"},
                                 {"dataset", "missing"}};
  Result<std::vector<ObjectRecord>> rrecs = remote.BatchGet(keys);
  Result<std::vector<ObjectRecord>> lrecs = local.BatchGet(keys);
  ASSERT_TRUE(rrecs.ok() && lrecs.ok());
  ASSERT_EQ(rrecs->size(), lrecs->size());
  for (size_t i = 0; i < rrecs->size(); ++i) {
    EXPECT_EQ((*rrecs)[i].kind, (*lrecs)[i].kind);
    EXPECT_EQ((*rrecs)[i].name, (*lrecs)[i].name);
    EXPECT_EQ((*rrecs)[i].status.code(), (*lrecs)[i].status.code());
    EXPECT_EQ((*rrecs)[i].dataset.has_value(), (*lrecs)[i].dataset.has_value());
    EXPECT_EQ((*rrecs)[i].materialized, (*lrecs)[i].materialized);
  }
}

TEST_P(CatalogServerTest, ProvenanceChainWalkIsIdenticalOverTheWire) {
  CatalogServer server(Backend());
  auto wire_client = WireCatalogClient::Connect(&server, {}, UseSocket());
  ASSERT_TRUE(wire_client.ok());
  WireCatalogClient& remote = **wire_client;
  InProcessCatalogClient local(catalog_.get());

  // Walk d8 back to the raw input one GetProvenanceStep at a time —
  // the federation lineage loop — comparing each hop bit for bit.
  std::string cursor = "d8";
  int hops = 0;
  while (!cursor.empty()) {
    Result<ProvenanceStep> rstep = remote.GetProvenanceStep(cursor);
    Result<ProvenanceStep> lstep = local.GetProvenanceStep(cursor);
    ASSERT_TRUE(rstep.ok()) << rstep.status();
    ASSERT_TRUE(lstep.ok());
    EXPECT_EQ(rstep->dataset, lstep->dataset);
    EXPECT_EQ(rstep->exists, lstep->exists);
    EXPECT_EQ(rstep->producer, lstep->producer);
    ASSERT_EQ(rstep->derivation.has_value(), lstep->derivation.has_value());
    if (rstep->derivation.has_value()) {
      EXPECT_EQ(rstep->derivation->Signature(),
                lstep->derivation->Signature());
      EXPECT_EQ(rstep->derivation->name(), lstep->derivation->name());
    }
    EXPECT_EQ(rstep->invocations.size(), lstep->invocations.size());
    if (rstep->producer.empty()) break;
    ASSERT_TRUE(rstep->derivation.has_value());
    std::vector<std::string> inputs = rstep->derivation->InputDatasets();
    ASSERT_FALSE(inputs.empty());
    cursor = inputs.front();
    ++hops;
    ASSERT_LT(hops, 32) << "cycle in chain walk";
  }
  EXPECT_EQ(hops, 8);
  // Handshake + one GetProvenanceStep per chain node (d8..d0).
  EXPECT_GE(server.stats().requests_served.load(), 10u);
}

TEST_P(CatalogServerTest, MutationsThroughTheWireLandInTheCatalog) {
  CatalogServer server(Backend());
  auto wire_client = WireCatalogClient::Connect(&server, {}, UseSocket());
  ASSERT_TRUE(wire_client.ok());
  WireCatalogClient& remote = **wire_client;

  Dataset ds;
  ds.name = "wire-ds";
  ds.size_bytes = 4096;
  ASSERT_TRUE(remote.DefineDataset(ds).ok());
  EXPECT_TRUE(catalog_->HasDataset("wire-ds"));

  ASSERT_TRUE(remote.Annotate("dataset", "wire-ds", "quality", "gold").ok());
  EXPECT_EQ(
      catalog_->GetDataset("wire-ds")->annotations.GetString("quality"),
      "gold");

  Replica rep;
  rep.dataset = "wire-ds";
  rep.site = "east";
  rep.size_bytes = 4096;
  Result<std::string> replica_id = remote.AddReplica(rep);
  ASSERT_TRUE(replica_id.ok()) << replica_id.status();
  EXPECT_FALSE(replica_id->empty());
  EXPECT_TRUE(*remote.IsMaterialized("wire-ds"));

  ASSERT_TRUE(remote.SetDatasetSize("wire-ds", 8192).ok());
  EXPECT_EQ(catalog_->GetDataset("wire-ds")->size_bytes, 8192);

  ASSERT_TRUE(remote.InvalidateReplica(*replica_id).ok());
  EXPECT_FALSE(*remote.IsMaterialized("wire-ds"));

  Invocation inv;
  inv.derivation = "l1";
  inv.context.site = "east";
  inv.duration_s = 2.5;
  Result<std::string> inv_id = remote.RecordInvocation(inv);
  ASSERT_TRUE(inv_id.ok());
  EXPECT_EQ(catalog_->InvocationsOf("l1").size(), 1u);
}

TEST_P(CatalogServerTest, ApplyBatchShipsAsOneFrameWithCrossOpIds) {
  CatalogServer server(Backend());
  auto wire_client = WireCatalogClient::Connect(&server, {}, UseSocket());
  ASSERT_TRUE(wire_client.ok());
  WireCatalogClient& remote = **wire_client;
  uint64_t before = remote.stats().round_trips;

  // The executor's provenance write-back shape: a replica, an
  // invocation consuming it via a cross-op reference, an annotation on
  // the assigned invocation id.
  Replica rep;
  rep.dataset = "d1";
  rep.site = "west";
  rep.size_bytes = 1024;
  Invocation inv;
  inv.derivation = "l1";
  inv.context.site = "west";
  std::vector<CatalogMutation> batch;
  batch.push_back(CatalogMutation::AddReplica(rep));
  batch.push_back(CatalogMutation::RecordInvocation(inv, {0}));
  batch.push_back(
      CatalogMutation::AnnotateAssigned("invocation", 1, "note", "via-wire"));

  Result<BatchResult> result = remote.ApplyBatch(batch);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->applied, 3u);
  ASSERT_EQ(result->assigned_ids.size(), 3u);
  EXPECT_FALSE(result->assigned_ids[0].empty());
  EXPECT_FALSE(result->assigned_ids[1].empty());
  EXPECT_EQ(remote.stats().round_trips, before + 1);  // one frame

  std::vector<Invocation> invocations = catalog_->InvocationsOf("l1");
  ASSERT_EQ(invocations.size(), 1u);
  EXPECT_EQ(invocations[0].produced_replicas,
            std::vector<std::string>{result->assigned_ids[0]});
  EXPECT_EQ(invocations[0].annotations.GetString("note"), "via-wire");
}

// ----------------------- leader/follower receive --------------------
// WireCatalogClient has no receiver thread: a waiting caller reads the
// channel for everyone, then hands the reader role on. These run in
// both transports (the socket reader blocks in poll(), the pipe reader
// on a condvar).

TEST_P(CatalogServerTest, ReaderRoleConcurrentCallersGetTheirOwnReplies) {
  ServerOptions opts;
  opts.workers = 4;
  CatalogServer server(Backend(), opts);
  auto client = WireCatalogClient::Connect(&server, {}, UseSocket());
  ASSERT_TRUE(client.ok()) << client.status();

  constexpr int kThreads = 8;
  constexpr int kCalls = 500;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        // d0 is raw; dK is produced by derivation lK.
        const int k = (t + i) % 9;
        const std::string name = "d" + std::to_string(k);
        Result<Dataset> ds = (*client)->GetDataset(name);
        if (!ds.ok() || ds->name != name ||
            ds->producer != (k == 0 ? "" : "l" + std::to_string(k))) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ((*client)->stats().round_trips,
            static_cast<uint64_t>(kThreads * kCalls) + 1);  // + handshake
}

TEST_P(CatalogServerTest, ReaderRoleCancelInterruptsTheReader) {
  ServerOptions opts;
  opts.workers = 1;
  CatalogServer server(Backend(), opts);
  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(0);  // no deadline
  auto client = WireCatalogClient::Connect(&server, copts, UseSocket());
  ASSERT_TRUE(client.ok()) << client.status();
  (*client)->reset_stats();

  // The only caller in flight necessarily holds the reader role, so it
  // is blocked in Receive when CancelPending runs.
  server.set_handler_delay(std::chrono::microseconds(250'000));
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> cancelled_seen{false};
  Clock::time_point returned_at;
  std::thread caller([&] {
    Result<uint64_t> r = (*client)->Version();
    returned_at = Clock::now();
    cancelled_seen = !r.ok() && r.status().IsCancelled();
  });
  for (int i = 0; i < 500 && (*client)->stats().bytes_sent == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Clock::time_point cancelled_at = Clock::now();
  (*client)->CancelPending();
  caller.join();
  EXPECT_TRUE(cancelled_seen.load());
  EXPECT_LT(returned_at - cancelled_at, std::chrono::milliseconds(100));

  // The same client serves the next call (queued behind the cancelled
  // request on the single worker); the late reply is discarded.
  server.set_handler_delay(std::chrono::microseconds(0));
  Result<Dataset> next = (*client)->GetDataset("d2");
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->name, "d2");
}

TEST_P(CatalogServerTest, ReaderRoleDeadlineExpiryDiscardsLateReply) {
  // One worker serves requests in arrival order, so the expired call's
  // late reply reaches the client while the next call is waiting: the
  // reader must drop it and deliver only the next call's own reply.
  ServerOptions opts;
  opts.workers = 1;
  CatalogServer server(Backend(), opts);
  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(150);
  auto client = WireCatalogClient::Connect(&server, copts, UseSocket());
  ASSERT_TRUE(client.ok()) << client.status();

  server.set_handler_delay(std::chrono::microseconds(200'000));
  Result<uint64_t> expired = (*client)->Version();
  EXPECT_TRUE(expired.status().IsDeadlineExceeded()) << expired.status();
  EXPECT_FALSE(expired.status().retry_safe());
  server.set_handler_delay(std::chrono::microseconds(0));

  Result<Dataset> next = (*client)->GetDataset("d3");
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->name, "d3");
  EXPECT_EQ(next->producer, "l3");
  EXPECT_EQ((*client)->stats().deadline_expiries, 1u);
  // Both replies crossed the wire; only the second was delivered.
  EXPECT_EQ(server.stats().frames_out.load(), 3u);  // + handshake
  Result<uint64_t> version = (*client)->Version();
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(*version, catalog_->version());
}

namespace {

size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// The thread count once it reaches `expected`, or after a second. A
/// joined thread can stay listed in /proc for a moment after join().
size_t ThreadCountSettlingAt(size_t expected) {
  size_t n = ThreadCount();
  for (int i = 0; i < 1000 && n != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = ThreadCount();
  }
  return n;
}

}  // namespace

// A round trip crosses two thread handoffs (caller -> worker ->
// caller), so the server owns its workers and nothing else, and a
// pipe-mode client owns no thread at all.
TEST(CatalogServerRuntime, ServerAndPipeClientsAddOnlyWorkerThreads) {
  auto catalog = ChainCatalog(2);
  // A runtime may start a helper thread alongside the process's first
  // thread (ThreadSanitizer does); let that happen, and let every
  // joined thread leave /proc, before taking the baseline.
  std::thread([] {}).join();
  size_t before = ThreadCount();
  for (int stable = 0; stable < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const size_t now = ThreadCount();
    stable = now == before ? stable + 1 : 0;
    before = now;
  }
  {
    ServerOptions opts;
    opts.workers = 3;
    CatalogServer server(
        std::make_shared<InProcessCatalogClient>(catalog.get()), opts);
    std::vector<std::shared_ptr<WireCatalogClient>> clients;
    for (int c = 0; c < 4; ++c) {
      auto client = WireCatalogClient::Connect(&server);
      ASSERT_TRUE(client.ok()) << client.status();
      ASSERT_TRUE((*client)->GetDataset("d1").ok());
      clients.push_back(*client);
    }
    EXPECT_EQ(ThreadCountSettlingAt(before + opts.workers),
              before + opts.workers);
  }
  EXPECT_EQ(ThreadCountSettlingAt(before), before);
}

// ----------------------- deadlines & backpressure --------------------

TEST(CatalogServerRuntime, DeadlineExpiryReturnsTypedErrorAndPoolSurvives) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  opts.workers = 2;
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(20);
  auto client = WireCatalogClient::Connect(&server, copts);
  ASSERT_TRUE(client.ok()) << client.status();

  // Slow the handlers only after the handshake completed.
  server.set_handler_delay(std::chrono::microseconds(200'000));
  Result<uint64_t> version = (*client)->Version();
  EXPECT_TRUE(version.status().IsDeadlineExceeded())
      << version.status().ToString();
  EXPECT_EQ((*client)->stats().deadline_expiries, 1u);

  // The pool is not wedged: with the delay removed, the same
  // connection serves the next call (the late reply to the abandoned
  // request is discarded, not misdelivered).
  server.set_handler_delay(std::chrono::microseconds(0));
  Result<uint64_t> ok_version = (*client)->Version();
  ASSERT_TRUE(ok_version.ok()) << ok_version.status();
  EXPECT_EQ(*ok_version, catalog->version());
}

TEST(CatalogServerRuntime, FullWorkQueueRejectsWithResourceExhausted) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.handler_delay = std::chrono::microseconds(50'000);  // 50ms/request
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(10'000);
  copts.max_in_flight = 64;
  auto client = WireCatalogClient::Connect(&server, copts);
  ASSERT_TRUE(client.ok());

  // Flood from many threads: with one worker and a one-deep queue,
  // some calls must bounce at admission with ResourceExhausted while
  // the rest complete normally.
  constexpr int kCallers = 8;
  std::atomic<int> rejected{0};
  std::atomic<int> succeeded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      Result<uint64_t> r = (*client)->Version();
      if (r.ok()) {
        ++succeeded;
      } else if (r.status().IsResourceExhausted()) {
        ++rejected;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(succeeded.load(), 0);
  EXPECT_GT(rejected.load(), 0);
  EXPECT_EQ(server.stats().queue_rejections.load(),
            static_cast<uint64_t>(rejected.load()));

  // Not wedged: a follow-up call still completes.
  Result<uint64_t> after = (*client)->Version();
  EXPECT_TRUE(after.ok()) << after.status();
}

TEST(CatalogServerRuntime, ClientAdmissionBoundFailsFast) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  opts.workers = 1;
  opts.handler_delay = std::chrono::microseconds(100'000);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(10'000);
  copts.max_in_flight = 1;
  auto client = WireCatalogClient::Connect(&server, copts);
  ASSERT_TRUE(client.ok());
  (*client)->reset_stats();  // drop the handshake's counters

  // Hold the single in-flight slot with a slow call from one thread;
  // a second call must bounce client-side without touching the server.
  std::thread slow([&] { (void)(*client)->Version(); });
  // Wait until the slow call is actually in flight.
  for (int i = 0; i < 200; ++i) {
    if ((*client)->stats().round_trips == 0 &&
        (*client)->stats().bytes_sent > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<uint64_t> bounced = (*client)->Version();
  slow.join();
  // Either it bounced at admission or the slow call had already
  // finished; the stats disambiguate.
  if (!bounced.ok()) {
    EXPECT_TRUE(bounced.status().IsResourceExhausted());
    EXPECT_GE((*client)->stats().admission_rejections, 1u);
  }
}

TEST(CatalogServerRuntime, CancelPendingFailsInFlightCallsWithCancelled) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  opts.workers = 1;
  opts.handler_delay = std::chrono::microseconds(300'000);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(0);  // no deadline
  auto client = WireCatalogClient::Connect(&server, copts);
  ASSERT_TRUE(client.ok());
  (*client)->reset_stats();  // drop the handshake's counters

  std::atomic<bool> cancelled_seen{false};
  std::thread caller([&] {
    Result<uint64_t> r = (*client)->Version();
    cancelled_seen = !r.ok() && r.status().IsCancelled();
  });
  for (int i = 0; i < 500; ++i) {
    if ((*client)->stats().bytes_sent > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  (*client)->CancelPending();
  caller.join();
  EXPECT_TRUE(cancelled_seen.load());
  EXPECT_GE((*client)->stats().cancellations, 1u);

  // Connection stays usable after cancellation.
  Result<uint64_t> after = (*client)->Version();
  EXPECT_TRUE(after.ok()) << after.status();
}

TEST(CatalogServerRuntime, ShutdownFailsPendingCallsWithUnavailable) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  opts.workers = 1;
  opts.handler_delay = std::chrono::microseconds(300'000);
  auto server = std::make_unique<CatalogServer>(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(0);
  auto client = WireCatalogClient::Connect(server.get(), copts);
  ASSERT_TRUE(client.ok());
  (*client)->reset_stats();  // drop the handshake's counters

  std::atomic<bool> unavailable_seen{false};
  std::thread caller([&] {
    Result<uint64_t> r = (*client)->Version();
    unavailable_seen = !r.ok() && r.status().IsUnavailable();
  });
  for (int i = 0; i < 500; ++i) {
    if ((*client)->stats().bytes_sent > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->Shutdown();
  caller.join();
  EXPECT_TRUE(unavailable_seen.load());

  // New calls after shutdown fail fast, and new connections refuse.
  EXPECT_TRUE((*client)->Version().status().IsUnavailable());
  auto late = WireCatalogClient::Connect(server.get());
  EXPECT_FALSE(late.ok());
}

TEST(CatalogServerRuntime, ManyConcurrentClientsSeeConsistentAnswers) {
  auto catalog = ChainCatalog(4);
  ServerOptions opts;
  opts.workers = 4;
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  constexpr int kClients = 6;
  constexpr int kCallsEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = WireCatalogClient::Connect(&server, {}, c % 2 == 1);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        Result<Dataset> ds = (*client)->GetDataset("d" + std::to_string(i % 5));
        Result<bool> has = (*client)->HasDataset("d1");
        if (!ds.ok() || !has.ok() || !*has) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.stats().requests_served.load(),
            static_cast<uint64_t>(kClients * kCallsEach * 2));
}

// ----------------------- executor write-back -------------------------

TEST(CatalogServerRuntime, ExecutorWriteBackOverTheWireMatchesInProcess) {
  // Run the same deterministic workflow twice — once writing
  // provenance through InProcessCatalogClient, once through
  // WireCatalogClient -> pipe -> CatalogServer — and require the two
  // catalogs to end bit-identical where the writer path could have
  // diverged them.
  auto run = [](bool over_wire, VirtualDataCatalog* catalog) {
    workload::CanonicalGraphOptions options;
    options.num_derivations = 12;
    options.num_raw_inputs = 3;
    options.seed = 5;
    Result<workload::CanonicalGraph> graph =
        workload::GenerateCanonicalGraph(catalog, options);
    ASSERT_TRUE(graph.ok());
    GridSimulator grid(workload::SmallTestbed(), 5);
    for (size_t i = 0; i < graph->raw_inputs.size(); ++i) {
      const std::string site = i % 2 == 0 ? "east" : "west";
      ASSERT_TRUE(
          grid.PlaceFile(site, graph->raw_inputs[i], 1 << 20, true).ok());
      Replica r;
      r.dataset = graph->raw_inputs[i];
      r.site = site;
      r.size_bytes = 1 << 20;
      ASSERT_TRUE(catalog->AddReplica(r).ok());
    }
    CostEstimator estimator;
    RequestPlanner planner(*catalog, grid.topology(), &grid.rls(), estimator);
    PlannerOptions popts;
    popts.target_site = "east";
    Result<ExecutionPlan> plan = planner.Plan(graph->sinks.front(), popts);
    ASSERT_TRUE(plan.ok()) << plan.status();

    std::shared_ptr<CatalogClient> writer;
    std::unique_ptr<CatalogServer> server;
    std::shared_ptr<WireCatalogClient> wire_writer;
    if (over_wire) {
      server = std::make_unique<CatalogServer>(
          std::make_shared<InProcessCatalogClient>(catalog, false));
      auto connected = WireCatalogClient::Connect(server.get());
      ASSERT_TRUE(connected.ok()) << connected.status();
      wire_writer = *connected;
      writer = wire_writer;
    } else {
      writer = std::make_shared<InProcessCatalogClient>(catalog, false);
    }
    WorkflowEngine engine(&grid, catalog);
    engine.set_catalog_writer(writer);
    Result<WorkflowResult> result = engine.Execute(*plan);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->succeeded);
    if (wire_writer) {
      EXPECT_GT(wire_writer->stats().round_trips, 0u);
      EXPECT_GT(wire_writer->stats().bytes_sent, 0u);
    }
  };

  VirtualDataCatalog direct("exec.org");
  ASSERT_TRUE(direct.Open().ok());
  run(false, &direct);

  VirtualDataCatalog wired("exec.org");
  ASSERT_TRUE(wired.Open().ok());
  run(true, &wired);

  // Identical end states: same objects, same materializations, same
  // invocation records per derivation.
  EXPECT_EQ(direct.AllDatasetNames(), wired.AllDatasetNames());
  EXPECT_EQ(direct.AllDerivationNames(), wired.AllDerivationNames());
  for (std::string_view name : direct.AllDatasetNames()) {
    EXPECT_EQ(direct.IsMaterialized(name), wired.IsMaterialized(name))
        << name;
  }
  for (std::string_view name : direct.AllDerivationNames()) {
    std::vector<Invocation> a = direct.InvocationsOf(name);
    std::vector<Invocation> b = wired.InvocationsOf(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].derivation, b[i].derivation);
      EXPECT_EQ(a[i].context.site, b[i].context.site);
      EXPECT_EQ(a[i].succeeded, b[i].succeeded);
      EXPECT_EQ(a[i].consumed_replicas.size(), b[i].consumed_replicas.size());
      EXPECT_EQ(a[i].produced_replicas.size(), b[i].produced_replicas.size());
    }
  }
}

// ----------------------- graceful drain ------------------------------

TEST(CatalogServerRuntime, DrainingShutdownLetsInFlightRequestsFinish) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  opts.workers = 1;
  opts.handler_delay = std::chrono::microseconds(100'000);
  auto server = std::make_unique<CatalogServer>(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(10'000);
  auto client = WireCatalogClient::Connect(server.get(), copts);
  ASSERT_TRUE(client.ok());
  (*client)->reset_stats();  // drop the handshake's counters

  std::atomic<bool> in_flight_ok{false};
  std::thread caller([&] {
    Result<uint64_t> r = (*client)->Version();
    in_flight_ok = r.ok();
  });
  for (int i = 0; i < 500; ++i) {
    if ((*client)->stats().bytes_sent > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Unlike the abrupt Shutdown() above, a draining shutdown finishes
  // the admitted slow request before tearing anything down.
  server->Shutdown(std::chrono::milliseconds(5'000));
  caller.join();
  EXPECT_TRUE(in_flight_ok.load());
}

TEST(CatalogServerRuntime, FramesDuringDrainBounceWithRetryableUnavailable) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  opts.workers = 1;
  opts.handler_delay = std::chrono::microseconds(200'000);
  auto server = std::make_unique<CatalogServer>(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(10'000);
  auto client = WireCatalogClient::Connect(server.get(), copts);
  ASSERT_TRUE(client.ok());
  (*client)->reset_stats();

  // Occupy the single worker so the drain has something to wait for.
  std::thread slow([&] { (void)(*client)->Version(); });
  for (int i = 0; i < 500; ++i) {
    if ((*client)->stats().bytes_sent > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  std::thread drainer([&] { server->Shutdown(std::chrono::milliseconds(5'000)); });
  for (int i = 0; i < 500; ++i) {
    if (server->draining()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server->draining());

  // A fresh frame during the drain is answered — not dropped — with a
  // retryable Unavailable, the signal a resilient client fails over on.
  Result<uint64_t> bounced = (*client)->Version();
  ASSERT_FALSE(bounced.ok());
  EXPECT_TRUE(bounced.status().IsUnavailable()) << bounced.status();
  EXPECT_TRUE(bounced.status().retry_safe());
  EXPECT_GE(server->stats().drain_rejections.load(), 1u);

  slow.join();
  drainer.join();
}

TEST(CatalogServerRuntime, ConnectDuringDrainRefusesWithoutDeadlock) {
  auto catalog = ChainCatalog(2);
  ServerOptions opts;
  opts.workers = 1;
  opts.handler_delay = std::chrono::microseconds(150'000);
  auto server = std::make_unique<CatalogServer>(
      std::make_shared<InProcessCatalogClient>(catalog.get()), opts);

  WireClientOptions copts;
  copts.default_deadline = std::chrono::milliseconds(10'000);
  auto client = WireCatalogClient::Connect(server.get(), copts);
  ASSERT_TRUE(client.ok());
  (*client)->reset_stats();

  std::thread slow([&] { (void)(*client)->Version(); });
  for (int i = 0; i < 500; ++i) {
    if ((*client)->stats().bytes_sent > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread drainer([&] { server->Shutdown(std::chrono::milliseconds(5'000)); });
  for (int i = 0; i < 500; ++i) {
    if (server->draining()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Concurrent dials while the drain is in progress must fail fast —
  // not block on server teardown, not crash it.
  std::vector<std::thread> dialers;
  std::atomic<int> accepted{0};
  for (int i = 0; i < 4; ++i) {
    dialers.emplace_back([&] {
      auto late = WireCatalogClient::Connect(server.get());
      if (late.ok()) ++accepted;
    });
  }
  for (std::thread& t : dialers) t.join();
  EXPECT_EQ(accepted.load(), 0);

  slow.join();
  drainer.join();
}

// A caching client stacked on the wire transport: the full ladder.
TEST(CatalogServerRuntime, CachingClientOverWireServesRepeatsLocally) {
  auto catalog = ChainCatalog(4);
  CatalogServer server(
      std::make_shared<InProcessCatalogClient>(catalog.get()));
  auto wire_client = WireCatalogClient::Connect(&server);
  ASSERT_TRUE(wire_client.ok());
  CachingCatalogClient cache(*wire_client);

  ASSERT_TRUE(cache.GetDataset("d1").ok());
  uint64_t served_after_fill = server.stats().requests_served.load();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache.GetDataset("d1").ok());
  }
  // Repeats never reached the server.
  EXPECT_EQ(server.stats().requests_served.load(), served_after_fill);
  EXPECT_EQ(cache.stats().hits, 10u);
}

// The full cached ladder over a sharded backend. The composite version
// a sharded catalog reports is not delta-addressable, and the answer
// saying so is a catalog answer (FailedPrecondition), not an admission
// bounce: the resilient layer passes it straight up and the cache
// resyncs, with no retry loop in between.
TEST(CatalogServerRuntime, CachedLadderOverShardsRevalidatesWithoutRetrying) {
  std::vector<std::unique_ptr<VirtualDataCatalog>> catalogs;
  std::vector<std::shared_ptr<CatalogClient>> shards;
  for (int k = 0; k < 2; ++k) {
    auto catalog =
        std::make_unique<VirtualDataCatalog>("shard" + std::to_string(k));
    catalog->set_partition_mode(true);
    ASSERT_TRUE(catalog->Open().ok());
    shards.push_back(std::make_shared<InProcessCatalogClient>(catalog.get()));
    catalogs.push_back(std::move(catalog));
  }
  auto sharded = std::make_shared<ShardedCatalogClient>(shards);
  for (const char* name : {"a", "b", "c"}) {
    Dataset ds;
    ds.name = name;
    ASSERT_TRUE(sharded->DefineDataset(ds).ok());
  }
  CatalogServer server(sharded);
  ResilientEndpoint endpoint;
  endpoint.name = "server";
  endpoint.connect = [&]() -> Result<std::shared_ptr<CatalogClient>> {
    VDG_ASSIGN_OR_RETURN(std::shared_ptr<WireCatalogClient> wire,
                         WireCatalogClient::Connect(&server));
    return std::shared_ptr<CatalogClient>(std::move(wire));
  };
  auto resilient = std::make_shared<ResilientCatalogClient>(
      std::vector<ResilientEndpoint>{endpoint});
  CachingCatalogClient cache(resilient);
  ASSERT_TRUE(cache.Revalidate().ok());
  ASSERT_TRUE(cache.GetDataset("a").ok());

  Dataset fresh;
  fresh.name = "d";
  ASSERT_TRUE(sharded->DefineDataset(fresh).ok());
  ASSERT_TRUE(sharded->SetDatasetSize("a", 77).ok());

  ASSERT_TRUE(cache.Revalidate().ok());
  EXPECT_EQ(resilient->stats().retries, 0u);
  EXPECT_EQ(resilient->stats().exhausted_calls, 0u);
  // The resync dropped the stale entry.
  Result<Dataset> a = cache.GetDataset("a");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->size_bytes, 77);
  EXPECT_TRUE(cache.GetDataset("d").ok());
}

// ------------------------ request-shaped path ------------------------

/// A RequestClient that records every request kind it forwards.
class RecordingClient : public RequestClient {
 public:
  explicit RecordingClient(std::shared_ptr<CatalogClient> inner)
      : inner_(std::move(inner)) {}

  const std::string& authority() const override {
    return inner_->authority();
  }
  bool read_only() const override { return inner_->read_only(); }

  Result<wire::Response> Call(const wire::Request& request) override {
    kinds.push_back(request.kind);
    return inner_->Call(request);
  }

  std::vector<wire::MsgKind> kinds;

 private:
  std::shared_ptr<CatalogClient> inner_;
};

/// One call's outcome as comparable bytes: the error, or the value
/// encoded as a response frame of `kind`.
template <typename Body, typename T>
std::string Outcome(wire::MsgKind kind, const Result<T>& result) {
  if (!result.ok()) return result.status().ToString();
  wire::Response response;
  response.kind = kind;
  response.body = Body{*result};
  return wire::EncodeResponseFrame(0, response);
}

std::string Outcome(const Status& status) { return status.ToString(); }

/// Calls each of the 25 typed methods once, in MsgKind order, and
/// returns their outcomes.
std::vector<std::string> CallEveryMethod(CatalogClient& client) {
  using K = wire::MsgKind;
  std::vector<std::string> out;
  out.push_back(Outcome<wire::VersionResp>(K::kVersion, client.Version()));
  out.push_back(
      Outcome<wire::ChangesResp>(K::kChangesSince, client.ChangesSince(0)));
  out.push_back(
      Outcome<wire::DatasetResp>(K::kGetDataset, client.GetDataset("d3")));
  out.push_back(Outcome<wire::TransformationResp>(
      K::kGetTransformation, client.GetTransformation("step")));
  out.push_back(Outcome<wire::DerivationResp>(K::kGetDerivation,
                                              client.GetDerivation("l2")));
  out.push_back(
      Outcome<wire::BoolResp>(K::kHasDataset, client.HasDataset("d1")));
  out.push_back(Outcome<wire::BoolResp>(K::kIsMaterialized,
                                        client.IsMaterialized("d1")));
  out.push_back(
      Outcome<wire::StringResp>(K::kProducerOf, client.ProducerOf("d4")));
  out.push_back(Outcome<wire::InvocationsResp>(K::kInvocationsOf,
                                               client.InvocationsOf("l1")));
  out.push_back(Outcome<wire::NamesResp>(K::kFindDatasets,
                                         client.FindDatasets({})));
  out.push_back(Outcome<wire::NamesResp>(K::kFindTransformations,
                                         client.FindTransformations({})));
  out.push_back(Outcome<wire::NamesResp>(K::kFindDerivations,
                                         client.FindDerivations({})));
  out.push_back(
      Outcome<wire::NamesResp>(K::kAllNames, client.AllNames("dataset")));
  DatasetType sdss;
  sdss.content = "SDSS";
  out.push_back(Outcome<wire::BoolResp>(
      K::kTypeConforms, client.TypeConforms(sdss, DatasetType{})));
  out.push_back(Outcome<wire::RecordsResp>(
      K::kBatchGet, client.BatchGet({{"dataset", "d1"},
                                     {"transformation", "step"},
                                     {"derivation", "nope"}})));
  out.push_back(Outcome<wire::StepResp>(K::kGetProvenanceStep,
                                        client.GetProvenanceStep("d5")));

  Dataset ds;
  ds.name = "req-ds";
  out.push_back(Outcome(client.DefineDataset(ds)));
  Transformation tr("req-tr", Transformation::Kind::kSimple);
  tr.set_executable("/bin/req");
  out.push_back(Outcome(client.DefineTransformation(tr)));
  Derivation dv("req-dv", "step");
  EXPECT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("out", "req-out", ArgDirection::kOut))
          .ok());
  EXPECT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("in", "d8", ArgDirection::kIn)).ok());
  out.push_back(Outcome(client.DefineDerivation(dv)));
  out.push_back(Outcome(client.Annotate("dataset", "req-ds", "k", 7)));
  Replica rep;
  rep.dataset = "req-ds";
  rep.site = "east";
  Result<std::string> replica_id = client.AddReplica(rep);
  out.push_back(Outcome<wire::StringResp>(K::kAddReplica, replica_id));
  Invocation inv;
  inv.derivation = "req-dv";
  out.push_back(Outcome<wire::StringResp>(K::kRecordInvocation,
                                          client.RecordInvocation(inv)));
  out.push_back(Outcome(client.SetDatasetSize("req-ds", 2048)));
  out.push_back(
      Outcome(client.InvalidateReplica(replica_id.value_or("missing"))));
  Dataset batched;
  batched.name = "req-batched";
  out.push_back(Outcome<wire::BatchResultResp>(
      K::kApplyBatch,
      client.ApplyBatch({CatalogMutation::DefineDataset(batched),
                         CatalogMutation::SetDatasetSize("req-ds", 1)})));
  return out;
}

TEST(RequestPath, EveryTypedMethodIsOneRequestOfItsOwnKind) {
  auto recorded_catalog = ChainCatalog(8);
  auto direct_catalog = ChainCatalog(8);
  RecordingClient recording(
      std::make_shared<InProcessCatalogClient>(recorded_catalog.get()));
  InProcessCatalogClient direct(direct_catalog.get());

  const std::vector<std::string> via_requests = CallEveryMethod(recording);
  const std::vector<std::string> via_typed = CallEveryMethod(direct);
  ASSERT_EQ(via_requests.size(), 25u);
  for (size_t i = 0; i < via_requests.size(); ++i) {
    EXPECT_EQ(via_requests[i], via_typed[i])
        << wire::MsgKindName(static_cast<wire::MsgKind>(i + 2));
  }
  // The single-status mutations all applied (an all-error run would
  // compare equal too).
  for (size_t i : {16, 17, 18, 19, 22, 23}) {
    EXPECT_EQ(via_typed[i], Status::OK().ToString()) << i;
  }
  // Kinds 2..26, each exactly once: no typed method is left out of the
  // request path, and none is served by another method's request.
  ASSERT_EQ(recording.kinds.size(), 25u);
  for (size_t i = 0; i < recording.kinds.size(); ++i) {
    EXPECT_EQ(static_cast<int>(recording.kinds[i]), static_cast<int>(i + 2));
  }
}

TEST(RequestPath, MismatchedBodyIsInvalidArgument) {
  auto catalog = ChainCatalog(2);
  InProcessCatalogClient client(catalog.get());
  wire::Request request;
  request.kind = wire::MsgKind::kGetDataset;
  request.body = wire::ChangesSinceReq{0};
  EXPECT_TRUE(client.Call(request).status().IsInvalidArgument());
  request.kind = wire::MsgKind::kApplyBatch;
  request.body = wire::NameReq{"d1"};
  EXPECT_TRUE(client.Call(request).status().IsInvalidArgument());
  request.kind = wire::MsgKind::kVersion;
  request.body = wire::NameReq{"d1"};
  EXPECT_TRUE(client.Call(request).status().IsInvalidArgument());
  // A matching body answers.
  request.body = wire::EmptyReq{};
  EXPECT_TRUE(client.Call(request).ok());
}

}  // namespace
}  // namespace vdg
