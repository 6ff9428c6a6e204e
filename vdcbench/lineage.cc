// lineage: closed-loop provenance walkers beside one low-rate writer.
//
// Each walker (an analyst with its own client and cache) revalidates
// its cache, then walks one provenance chain from its tip to its raw
// input, hop by hop, with GetProvenanceStep. Walk targets are Zipf
// over chains whose steps total about twice the cache capacity, so the
// cache serves both hits and misses. The writer annotates chain
// datasets at a fixed rate and now and then records an invocation,
// which drops every cached provenance step. Many small round trips make
// per-call ladder overhead (cache, resilient, wire, server) and the hit
// ratio dominate.
//
// The gated phase runs the walkers alone; a second phase adds the
// writer. Behind this ladder any write makes the walkers' next
// Revalidate stall: the sharded backend answers ChangesSince with
// ResourceExhausted (its composite version is not delta-addressable),
// which ResilientCatalogClient retries with backoff as if it were an
// admission bounce, until the cache gives up and flushes. Whether a
// walk lands in a stall depends on where the write falls, so the
// writer phase is reported, not gated.

#include <algorithm>
#include <mutex>
#include <numeric>
#include <thread>

#include "internal.h"

namespace vdcbench {
namespace {

/// The writer's fixed rate (writes/s) and how often a write is an
/// invocation rather than an annotation.
constexpr double kWriteRate = 100;
constexpr uint64_t kInvocationEvery = 25;
constexpr double kZipfExponent = 1.0;
/// Share of the run length the gated walkers-alone phase gets; the
/// writer phase gets the rest.
constexpr double kGatedShare = 0.85;

/// Walks `chain` from its tip; false on a transport failure. A walk that
/// disagrees with the generated chain counts in `*mismatches`.
bool Walk(ClientStack& stack, size_t chain, size_t depth,
          uint64_t* mismatches) {
  ScopedSpan op(Layer::kOp, kKindWalk);
  {
    ScopedSpan span(Layer::kCache, kKindRevalidate);
    if (!stack.cache->Revalidate().ok()) return false;
  }
  std::string name = ChainDataset(chain, depth);
  for (size_t d = depth;; --d) {
    vdg::Result<vdg::ProvenanceStep> step =
        stack.entry->GetProvenanceStep(name);
    if (!step.ok()) return false;
    bool match = step->exists && step->dataset == name;
    if (d == 0) {
      if (!match || !step->producer.empty()) ++*mismatches;
      return true;
    }
    const vdg::ActualArg* in = nullptr;
    if (match && step->producer == ChainDerivation(chain, d) &&
        step->derivation.has_value()) {
      in = step->derivation->FindArg("in");
    }
    if (in == nullptr || in->dataset != ChainDataset(chain, d - 1)) {
      ++*mismatches;
      return true;
    }
    name = *in->dataset;
  }
}

struct Round {
  Phase walks;
  Phase writes;
  uint64_t mismatches = 0;
};

Round RunRound(World& world, size_t walkers, const CorpusSpec& spec,
               const std::vector<size_t>& popularity, uint64_t seed,
               double seconds, uint64_t round, bool with_writer) {
  Round result;
  std::mutex mu;
  const Zipf zipf(popularity.size(), kZipfExponent);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < walkers; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(SubSeed(seed, 300 + 16 * round + w));
      std::vector<double> latency;
      uint64_t attempted = 0, failed = 0, mismatches = 0;
      while (Clock::now() < stop) {
        const size_t chain = popularity[zipf.Sample(rng)];
        const Clock::time_point start = Clock::now();
        const bool ok =
            Walk(world.stacks[w], chain, spec.chain_depth, &mismatches);
        const Clock::time_point end = Clock::now();
        ++attempted;
        if (!ok) {
          ++failed;
          continue;
        }
        latency.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
      }
      std::lock_guard<std::mutex> lock(mu);
      result.walks.latency_ms.insert(result.walks.latency_ms.end(),
                                     latency.begin(), latency.end());
      result.walks.attempted += attempted;
      result.walks.failed += failed;
      result.mismatches += mismatches;
    });
  }
  // The writer runs on a fixed schedule; each write is timed from when
  // it was due.
  if (with_writer) threads.emplace_back([&] {
    std::mt19937_64 rng(SubSeed(seed, 290 + round));
    vdg::CatalogClient& client = *world.stacks[walkers].entry;
    for (uint64_t i = 0;; ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(i / kWriteRate));
      if (due >= stop) break;
      std::this_thread::sleep_until(due);
      const size_t chain = rng() % spec.chains;
      bool ok;
      {
        ScopedSpan span(Layer::kOp, kKindWrite);
        if (i % kInvocationEvery == kInvocationEvery - 1) {
          vdg::Invocation invocation;
          invocation.derivation =
              ChainDerivation(chain, 1 + rng() % spec.chain_depth);
          invocation.context.site = "site-b";
          ok = client.RecordInvocation(std::move(invocation)).ok();
        } else {
          ok = client
                   .Annotate("dataset",
                             ChainDataset(chain, rng() % (spec.chain_depth + 1)),
                             "note", static_cast<int64_t>(i))
                   .ok();
        }
      }
      const Clock::time_point end = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      ++result.writes.attempted;
      if (!ok) {
        ++result.writes.failed;
        continue;
      }
      result.writes.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(end - due).count());
    }
  });
  for (std::thread& t : threads) t.join();
  result.walks.elapsed_s = SecondsBetween(t0, Clock::now());
  result.writes.elapsed_s = result.walks.elapsed_s;
  return result;
}

}  // namespace

bool RunLineage(const Options& options, Outcome* out, std::string* error) {
  const Budget budget = GetBudget();
  const size_t walkers = std::max(1u, budget.threads / 2);
  const size_t workers =
      std::max<size_t>(1, budget.threads - walkers - 1);  // 1: the writer
  const CorpusSpec spec;
  const Corpus corpus = MakeCorpus(spec, options.seed);
  StampContext(options, budget, spec, workers, walkers + 1,
               "none (in-memory shards, no journal)", out);
  out->context.Add("cache_capacity", static_cast<uint64_t>(kCacheCapacity))
      .Add("chain_steps",
           static_cast<uint64_t>(spec.chains * (spec.chain_depth + 1)))
      .Add("write_rate_per_s", kWriteRate);

  // Which chains are popular is part of the seeded input.
  std::vector<size_t> popularity(spec.chains);
  std::iota(popularity.begin(), popularity.end(), 0);
  std::shuffle(popularity.begin(), popularity.end(),
               std::mt19937_64(SubSeed(options.seed, 5)));

  // Each of the set-up worlds first runs the walkers alone for its
  // share of the gated time (in a traced run, half of it). The last
  // world then runs a traced round (traced run only) and the walkers
  // beside the writer.
  const double walk_s = options.seconds * kGatedShare *
                        (options.trace ? 0.5 : 1.0) / kSetupRepetitions;
  const double mixed_s = options.seconds * (1 - kGatedShare);
  std::unique_ptr<World> world;
  std::vector<double> setup_times, world_mb;
  std::vector<Phase> gated;
  Round walks;  // the last world's walkers-alone round
  uint64_t mismatches = 0;
  size_t walks_checked = 0;  // completed walks, each compared hop by hop
  Counters before, after_walks;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    world.reset();
    WorldMemory memory;
    if (!memory.Start()) {
      *error = "cannot reset the resident high-water mark";
      return false;
    }
    const Clock::time_point start = Clock::now();
    world = std::make_unique<World>();
    vdg::Status status = OpenMemoryShards(&world->service, spec.shards);
    if (status.ok()) {
      world->service.Route("lin");
      status = LoadCorpus(world->service.sharded.get(), corpus);
    }
    if (!status.ok()) {
      *error = "corpus load: " + status.ToString();
      return false;
    }
    world->service.Serve(workers);
    ConnectStacks(world.get(), walkers, options.seed, kCacheCapacity);
    world->stacks.push_back(ConnectStack(world->service.server.get(),
                                         SubSeed(options.seed, 150), 0,
                                         &world->sampler));
    uint64_t warm_mismatches = 0;
    for (size_t w = 0; w < walkers; ++w) {
      for (size_t i = 0; i < 4; ++i) {
        if (!Walk(world->stacks[w], popularity[i], spec.chain_depth,
                  &warm_mismatches)) {
          *error = "warm-up walk failed";
          return false;
        }
      }
    }
    if (warm_mismatches > 0) {
      *error = "warm-up walk disagrees with the generated chain";
      return false;
    }
    setup_times.push_back(SecondsBetween(start, Clock::now()));

    before = ReadCounters(*world);
    walks = RunRound(*world, walkers, spec, popularity, options.seed, walk_s,
                     r, false);
    after_walks = ReadCounters(*world);
    world_mb.push_back(memory.PeakMb());
    gated.push_back(walks.walks);
    mismatches += walks.mismatches;
    walks_checked += walks.walks.latency_ms.size();
    out->attempted += walks.walks.attempted;
    out->failed += walks.walks.failed;
  }
  const double setup_s = Median(setup_times);

  Round traced;
  TraceInputs trace_in;
  if (options.trace) {
    Tracer::SetEnabled(true);
    traced = RunRound(*world, walkers, spec, popularity, options.seed, walk_s,
                      kSetupRepetitions, false);
  }
  const Counters before_mixed = ReadCounters(*world);
  Round mixed = RunRound(*world, walkers, spec, popularity, options.seed,
                         mixed_s, kSetupRepetitions + 1, true);
  const Counters after_mixed = ReadCounters(*world);
  if (options.trace) {
    Tracer::SetEnabled(false);
    trace_in.spans = Tracer::Drain();
    trace_in.delta = after_mixed - after_walks;
    trace_in.ops = traced.walks.attempted + mixed.walks.attempted;
    trace_in.codec_us = world->sampler.ReplayMicros();
  }

  mismatches += traced.mismatches + mixed.mismatches;
  walks_checked +=
      traced.walks.latency_ms.size() + mixed.walks.latency_ms.size();
  out->correct = mismatches == 0;
  for (const Round* r : {&traced, &mixed}) {
    out->attempted += r->walks.attempted + r->writes.attempted;
    out->failed += r->walks.failed + r->writes.failed;
  }
  out->failed += mismatches;

  auto& lines = out->lines;
  lines.push_back("lineage: closed loop, " + std::to_string(walkers) +
                  " walkers (own cache each), " + std::to_string(workers) +
                  " server workers; then the same beside 1 writer at " +
                  FormatNumber(kWriteRate) + " writes/s");
  lines.push_back(Line("setup_s", setup_s, "s",
                       "median of " + std::to_string(kSetupRepetitions)));
  const auto cache_line = [&](const Counters& d) {
    const uint64_t lookups = d.cache_hits + d.cache_misses;
    return Line("  cache hit ratio",
                lookups ? static_cast<double>(d.cache_hits) /
                              static_cast<double>(lookups)
                        : 0,
                "ratio",
                "of " + std::to_string(lookups) + " lookups, " +
                    std::to_string(d.cache_flushes) + " flushes");
  };
  lines.push_back("walkers alone, last world:");
  lines.push_back(LatencyLine("  walk latency", Summarize(walks.walks.latency_ms)));
  lines.push_back(Line("  walks per second", walks.walks.ops_per_s(), "ops/s",
                       "walks of " + std::to_string(spec.chain_depth + 1) +
                           " steps"));
  lines.push_back(cache_line(after_walks - before));
  const Summary writes = Summarize(mixed.writes.latency_ms);
  lines.push_back("walkers beside the writer:");
  lines.push_back(LatencyLine("  walk latency", Summarize(mixed.walks.latency_ms)));
  lines.push_back(Line("  walks per second", mixed.walks.ops_per_s(), "ops/s"));
  lines.push_back(cache_line(after_mixed - before_mixed));
  lines.push_back(LatencyLine("  writer latency (from due time)", writes));
  lines.push_back(Line("  write_p99_ms", writes.tail, "ms",
                       TailLabel(writes.tail_q) + ", n=" +
                           std::to_string(writes.n)));
  lines.push_back(Line("  resilient retries",
                       static_cast<double>((after_mixed - before_mixed).retries),
                       "count", "ChangesSince bounced as ResourceExhausted"));
  lines.push_back(Line("error_rate",
                       out->attempted ? static_cast<double>(out->failed) /
                                            static_cast<double>(out->attempted)
                                      : 0,
                       "ratio", std::to_string(out->failed) + " of " +
                                    std::to_string(out->attempted)));
  lines.push_back("oracle: " +
                  std::to_string(walks_checked) +
                  " walks compared hop by hop with the generated chains, " +
                  std::to_string(mismatches) + " mismatches");

  if (!options.trace) {
    AddEndToEnd(setup_s, gated, world_mb, out);
    return true;
  }
  AnalyzeLayers(trace_in, {}, walks.walks, traced.walks, out);
  WriteSpans(options.trace_out, trace_in.spans);
  return true;
}

}  // namespace vdcbench
