// campaign: write-heavy, closed loop. Each writer behaves like an
// executor: it ships one provenance write-back per finished job and
// waits for the reply before the next. One write-back is an ApplyBatch
// of DefineDerivation (a new output from an existing input),
// AddReplica, RecordInvocation and Annotate; the resilient client
// stamps its idempotency token and the sharded client splits it into
// per-shard sub-batches. The shards open from a flat snapshot plus a
// FileJournal tail. It loads the commit path, the journal and the batch
// split; the query planner is idle.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <thread>

#include "internal.h"

namespace vdcbench {
namespace {

constexpr char kFlushPolicy[] =
    "one Flush per commit (fwrite + fflush, no fsync)";
/// Write-backs a world completes per second of the run's gated time:
/// within this ladder's throughput on the 4-vCPU machine the benchmark
/// was tuned on (300 to 600 write-backs/s). Every world does the same
/// count from the same starting state, so a faster commit path is not
/// charged for the larger catalog it would reach in a fixed time.
constexpr double kWriteBacksPerSecond = 450;
/// A world that takes longer than this many times its share of the run
/// stops early; its write-backs so far still count.
constexpr double kOverrunFactor = 4;

struct Ack {
  std::string derivation;
  std::string output;
  std::string input;
  int64_t tag = 0;
  std::string replica_id;
  std::string invocation_id;
};

std::vector<vdg::CatalogMutation> WriteBack(const Ack& job) {
  vdg::Replica replica;
  replica.dataset = job.output;
  replica.site = "site-a";
  replica.storage_element = "se0";
  replica.physical_path = "/campaign/" + job.output;
  replica.size_bytes = 1 << 20;
  vdg::Invocation invocation;
  invocation.derivation = job.derivation;
  invocation.context.site = "site-a";
  invocation.context.host = "wn01";
  invocation.duration_s = 12.5;
  invocation.cpu_seconds = 11.0;
  return {
      vdg::CatalogMutation::DefineDerivation(
          MakeDerivation(job.derivation, job.input, job.output)),
      vdg::CatalogMutation::AddReplica(std::move(replica)),
      vdg::CatalogMutation::RecordInvocation(std::move(invocation), {1}),
      vdg::CatalogMutation::Annotate("dataset", job.output, "campaign",
                                     vdg::AttributeValue(job.tag)),
  };
}

/// Every acknowledged write-back must be readable; returns mismatches.
uint64_t Verify(vdg::CatalogClient& c, const std::vector<Ack>& acks) {
  uint64_t mismatches = 0;
  for (const Ack& ack : acks) {
    bool good = false;
    vdg::Result<vdg::Derivation> dv = c.GetDerivation(ack.derivation);
    if (dv.ok()) {
      const vdg::ActualArg* in = dv->FindArg("in");
      good = in != nullptr && in->dataset == ack.input;
    }
    vdg::Result<vdg::Dataset> ds = c.GetDataset(ack.output);
    good = good && ds.ok() &&
           ds->annotations.GetInt("campaign") == std::optional<int64_t>(ack.tag);
    vdg::Result<bool> materialized = c.IsMaterialized(ack.output);
    good = good && materialized.ok() && *materialized;
    vdg::Result<std::vector<vdg::Invocation>> invs =
        c.InvocationsOf(ack.derivation);
    good = good && invs.ok() && invs->size() == 1 &&
           invs->front().id == ack.invocation_id &&
           std::find(invs->front().produced_replicas.begin(),
                     invs->front().produced_replicas.end(),
                     ack.replica_id) != invs->front().produced_replicas.end();
    if (!good) ++mismatches;
  }
  return mismatches;
}

/// Builds the on-disk starting state: the corpus in per-shard
/// FileJournals, a flat snapshot of each shard, then a journal tail
/// written after the snapshot.
vdg::Status Prepare(const Corpus& corpus, const std::string& dir) {
  Service prep;
  for (uint32_t k = 0; k < corpus.spec.shards; ++k) {
    const std::string base = dir + "/shard-" + std::to_string(k);
    auto catalog = std::make_unique<vdg::VirtualDataCatalog>(
        "vdcbench-s" + std::to_string(k) + ".org",
        std::make_unique<vdg::FileJournal>(base + ".journal"));
    catalog->set_partition_mode(true);
    VDG_RETURN_IF_ERROR(catalog->Open());
    prep.catalogs.push_back(std::move(catalog));
  }
  prep.Route("prep");
  VDG_RETURN_IF_ERROR(LoadCorpus(prep.sharded.get(), corpus));
  for (uint32_t k = 0; k < corpus.spec.shards; ++k) {
    VDG_RETURN_IF_ERROR(prep.catalogs[k]->SaveSnapshotFile(
        dir + "/shard-" + std::to_string(k) + ".snap"));
  }
  std::vector<vdg::CatalogMutation> tail;
  for (size_t i = 0; i < 2000; ++i) {
    tail.push_back(vdg::CatalogMutation::Annotate(
        "dataset", corpus.base_names[(i * 7919) % corpus.base_names.size()],
        "curated", vdg::AttributeValue(static_cast<int64_t>(i))));
  }
  for (size_t i = 0; i < 200; ++i) {
    tail.push_back(vdg::CatalogMutation::DefineDerivation(MakeDerivation(
        "tail-dv-" + std::to_string(i),
        corpus.base_names[(i * 104729) % corpus.base_names.size()],
        "tail-out-" + std::to_string(i))));
  }
  VDG_ASSIGN_OR_RETURN(vdg::BatchResult result,
                       prep.sharded->ApplyBatch(tail));
  return result.first_error;
}

/// Gives a world its own copy of the prepared journals; the snapshots
/// are only read, so they are hard-linked.
bool CopyPrepared(const std::string& from, const std::string& to,
                  uint32_t shards, std::error_code* ec) {
  namespace fs = std::filesystem;
  if (!fs::create_directories(to, *ec)) return false;
  for (uint32_t k = 0; k < shards; ++k) {
    const std::string name = "/shard-" + std::to_string(k);
    if (!fs::copy_file(from + name + ".journal", to + name + ".journal",
                       *ec)) {
      return false;
    }
    fs::create_hard_link(from + name + ".snap", to + name + ".snap", *ec);
    if (*ec) return false;
  }
  return true;
}

uint64_t JournalBytes(const std::string& dir, uint32_t shards) {
  uint64_t total = 0;
  for (uint32_t k = 0; k < shards; ++k) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        dir + "/shard-" + std::to_string(k) + ".journal", ec);
    if (!ec) total += size;
  }
  return total;
}

/// Closed loop: the writers take the round's `count` write-backs in
/// order, each issuing its next one when the reply to its last arrives,
/// until all are done or `deadline_s` has passed.
Phase RunWriters(World& world, const Corpus& corpus, uint64_t seed,
                 size_t count, double deadline_s, uint64_t round,
                 std::vector<Ack>* acks) {
  // The round's inputs depend on the seed only, not on which writer
  // takes which job.
  std::vector<uint32_t> inputs(count);
  std::mt19937_64 rng(SubSeed(seed, 200 + round));
  for (uint32_t& input : inputs) {
    input = static_cast<uint32_t>(rng() % corpus.base_names.size());
  }
  std::mutex mu;
  std::atomic<size_t> next{0};
  Phase phase;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(deadline_s));
  std::vector<std::thread> writers;
  for (size_t w = 0; w < world.stacks.size(); ++w) {
    writers.emplace_back([&, w] {
      vdg::CatalogClient& client = *world.stacks[w].entry;
      std::vector<double> latency;
      std::vector<Ack> mine;
      uint64_t attempted = 0, failed = 0;
      for (;;) {
        const size_t seq = next.fetch_add(1);
        if (seq >= count || Clock::now() >= stop) break;
        Ack job;
        const std::string id =
            std::to_string(round) + "-" + std::to_string(seq);
        job.derivation = "cdv-" + id;
        job.output = "cout-" + id;
        job.input = corpus.base_names[inputs[seq]];
        job.tag = static_cast<int64_t>((round << 32) | seq);
        const std::vector<vdg::CatalogMutation> batch = WriteBack(job);
        const Clock::time_point start = Clock::now();
        vdg::Result<vdg::BatchResult> result = [&] {
          ScopedSpan span(Layer::kOp, kKindWriteBack);
          return client.ApplyBatch(batch);
        }();
        const Clock::time_point end = Clock::now();
        ++attempted;
        if (!result.ok() || !result->first_error.ok() ||
            result->applied != batch.size()) {
          ++failed;
          continue;
        }
        job.replica_id = result->assigned_ids[1];
        job.invocation_id = result->assigned_ids[2];
        latency.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
        mine.push_back(std::move(job));
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.latency_ms.insert(phase.latency_ms.end(), latency.begin(),
                              latency.end());
      phase.attempted += attempted;
      phase.failed += failed;
      acks->insert(acks->end(), std::make_move_iterator(mine.begin()),
                   std::make_move_iterator(mine.end()));
    });
  }
  for (std::thread& t : writers) t.join();
  phase.elapsed_s = SecondsBetween(t0, Clock::now());
  return phase;
}

}  // namespace

bool RunCampaign(const Options& options, Outcome* out, std::string* error) {
  const Budget budget = GetBudget();
  const size_t writers = std::max(1u, budget.threads / 2);
  const size_t workers = std::max<size_t>(1, budget.threads - writers);
  const CorpusSpec spec;
  const Corpus corpus = MakeCorpus(spec, options.seed);
  StampContext(options, budget, spec, workers, writers, kFlushPolicy, out);

  const std::string dir = options.scratch + "/campaign";
  const std::string base = dir + "/base";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(base, ec);
  if (ec) {
    *error = "cannot create " + base + ": " + ec.message();
    return false;
  }
  const Clock::time_point prep_start = Clock::now();
  vdg::Status status = Prepare(corpus, base);
  if (!status.ok()) {
    *error = "prepare: " + status.ToString();
    return false;
  }
  const double prep_s = SecondsBetween(prep_start, Clock::now());

  // Each world opens its own copy of the prepared files and runs a fixed
  // count of write-backs sized to its share of the gated time (in a
  // traced run, half of it); the last world then runs a traced round
  // (traced run only).
  const double run_s = options.seconds * (options.trace ? 0.5 : 1.0) /
                       kSetupRepetitions;
  const size_t count = static_cast<size_t>(
      std::max(1.0, std::round(run_s * kWriteBacksPerSecond)));
  const double deadline_s = run_s * kOverrunFactor;
  out->context.Add("write_backs_per_world", static_cast<uint64_t>(count));
  std::unique_ptr<World> world;
  std::vector<double> setup_times, open_times, world_mb;
  std::vector<Phase> gated;
  std::vector<std::vector<Ack>> acks(kSetupRepetitions);
  std::string fallback;
  uint64_t live_mismatches = 0, journal_bytes = 0;
  uint64_t journal_appends = 0, journal_flushes = 0;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const std::string rep = dir + "/world-" + std::to_string(r);
    if (!CopyPrepared(base, rep, spec.shards, &ec)) {
      *error = "cannot copy " + base + ": " + ec.message();
      return false;
    }
    if (world) {
      live_mismatches += Verify(*world->service.sharded, acks[r - 1]);
      world.reset();
    }
    WorldMemory memory;
    if (!memory.Start()) {
      *error = "cannot reset the resident high-water mark";
      return false;
    }
    const Clock::time_point start = Clock::now();
    world = std::make_unique<World>();
    double open_s = 0;
    status = OpenSnapshotShards(&world->service, spec.shards, rep, &open_s,
                                &fallback);
    if (!status.ok()) {
      *error = "open from snapshot: " + status.ToString();
      return false;
    }
    world->service.Route("cmp");
    world->service.Serve(workers);
    ConnectStacks(world.get(), writers, options.seed, 0);
    for (ClientStack& stack : world->stacks) {
      for (size_t i = 0; i < 32; ++i) {
        if (!stack.entry->GetDataset(corpus.base_names[i * 97]).ok()) {
          *error = "warm-up read failed";
          return false;
        }
      }
    }
    setup_times.push_back(SecondsBetween(start, Clock::now()));
    open_times.push_back(open_s);

    const uint64_t bytes_before = JournalBytes(rep, spec.shards);
    const Counters before = ReadCounters(*world);
    gated.push_back(RunWriters(*world, corpus, options.seed, count,
                               deadline_s, r, &acks[r]));
    world_mb.push_back(memory.PeakMb());
    const Counters delta = ReadCounters(*world) - before;
    journal_appends += delta.journal_appends;
    journal_flushes += delta.journal_flushes;
    journal_bytes += JournalBytes(rep, spec.shards) - bytes_before;
    out->attempted += gated.back().attempted;
    out->failed += gated.back().failed;
  }
  const double setup_s = Median(setup_times);

  Phase traced;
  TraceInputs trace_in;
  if (options.trace) {
    const Counters before = ReadCounters(*world);
    const size_t acked_before = acks.back().size();
    Tracer::SetEnabled(true);
    traced = RunWriters(*world, corpus, options.seed, count, deadline_s,
                        kSetupRepetitions, &acks.back());
    Tracer::SetEnabled(false);
    trace_in.spans = Tracer::Drain();
    trace_in.delta = ReadCounters(*world) - before;
    trace_in.ops = acks.back().size() - acked_before;
    trace_in.codec_us = world->sampler.ReplayMicros();
    out->attempted += traced.attempted;
    out->failed += traced.failed;
  }

  // Oracle: every acknowledged write-back is readable on its live world,
  // and again after reopening that world's files.
  live_mismatches += Verify(*world->service.sharded, acks.back());
  world.reset();
  uint64_t reopen_mismatches = 0;
  size_t acked = 0;
  std::vector<double> reopen_times;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    acked += acks[r].size();
    const Clock::time_point reopen_start = Clock::now();
    Service reopened;
    double open_s = 0;
    std::string reopen_fallback;
    status = OpenSnapshotShards(&reopened, spec.shards,
                                dir + "/world-" + std::to_string(r), &open_s,
                                &reopen_fallback);
    reopen_times.push_back(SecondsBetween(reopen_start, Clock::now()));
    if (!status.ok()) {
      reopen_mismatches += acks[r].size();
      continue;
    }
    reopened.Route("verify");
    reopen_mismatches += Verify(*reopened.sharded, acks[r]);
  }
  std::filesystem::remove_all(dir, ec);
  const uint64_t mismatches = live_mismatches + reopen_mismatches;
  out->correct = mismatches == 0;
  out->failed += mismatches;

  size_t gated_acks = 0, short_worlds = 0;
  for (const Phase& p : gated) {
    gated_acks += p.latency_ms.size();
    if (p.attempted < count) ++short_worlds;
  }
  const double per_op = static_cast<double>(std::max<size_t>(gated_acks, 1));
  auto& lines = out->lines;
  lines.push_back("campaign: closed loop, " + std::to_string(writers) +
                  " writers, " + std::to_string(workers) +
                  " server workers, " + std::to_string(count) +
                  " write-backs per world; flush policy: " + kFlushPolicy);
  lines.push_back(Line("prep_s (corpus, snapshot, journal tail)", prep_s,
                       "s"));
  if (short_worlds > 0) {
    lines.push_back(Line("worlds stopped early (over the time limit)",
                         static_cast<double>(short_worlds), "count"));
  }
  lines.push_back(Line("flatsnap open (4 shards)", Median(open_times), "s",
                       fallback.empty() ? "snapshot used"
                                        : "FELL BACK: " + fallback));
  lines.push_back(Line("journal_bytes_per_op",
                       static_cast<double>(journal_bytes) / per_op, "bytes"));
  lines.push_back(Line("journal records per op",
                       static_cast<double>(journal_appends) / per_op,
                       "count"));
  lines.push_back(Line("journal flushes per op",
                       static_cast<double>(journal_flushes) / per_op,
                       "count"));
  lines.push_back(Line("error_rate",
                       out->attempted ? static_cast<double>(out->failed) /
                                            static_cast<double>(out->attempted)
                                      : 0,
                       "ratio", std::to_string(out->failed) + " of " +
                                    std::to_string(out->attempted)));
  lines.push_back(Line("reopen from snapshot + journal", Median(reopen_times),
                       "s", "median over worlds"));
  lines.push_back("oracle: " + std::to_string(acked) +
                  " acknowledged write-backs; " +
                  std::to_string(live_mismatches) + " unreadable live, " +
                  std::to_string(reopen_mismatches) +
                  " unreadable after reopen");

  if (!options.trace) {
    AddEndToEnd(setup_s, gated, world_mb, out);
    return true;
  }
  AnalyzeLayers(trace_in, {{"flatsnap.open_s", Median(open_times), "s"}},
                gated.back(), traced, out);
  WriteSpans(options.trace_out, trace_in.spans);
  return true;
}

}  // namespace vdcbench
