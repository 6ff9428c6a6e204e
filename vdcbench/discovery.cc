// discovery: read-only, open-loop traffic of independent users.
//
// Poisson arrivals at fixed offered rates; every request is timed from
// its due time, so a stalled sender charges the wait to the requests
// behind it. The mix spans selectivities: broad prefix-bucket scans
// (~2250 names), prefix plus residual predicate, selective attribute
// conjunctions, FindDerivations by input, and GetDataset point reads.
// It loads the planner, the posting lists, the scatter/gather merge and
// the codec on large name lists; the commit path is idle.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <optional>
#include <thread>

#include "internal.h"

namespace vdcbench {
namespace {

/// Offered rate of the gated phase, well below this host's capacity.
constexpr double kNominalRate = 500;
/// Share of the run length the gated phase gets; the ladder gets the
/// rest.
constexpr double kGatedShare = 0.85;
/// The fixed geometric ladder of offered rates (ops/s).
constexpr double kLadder[] = {1000, 2000, 4000, 8000, 16000};
/// Latency limit on the ladder's tail percentile.
constexpr double kLatencyLimitMs = 10;
/// Every n-th answer of the gated phase is kept for the oracle.
constexpr size_t kOracleEvery = 16;

enum class QueryKind {
  kPrefixScan,    // name_prefix = one bucket: ~2250 names
  kPrefixTier,    // bucket prefix + tier: residual filter, ~280 names
  kTierOwner,     // tier AND owner: ~140 names
  kBinRun,        // bin AND run: ~4 names
  kTriple,        // owner AND run AND tier: usually empty
  kDerivByInput,  // FindDerivations(reads_dataset)
  kGetDataset,    // point read
};

constexpr QueryKind kQueryKinds[] = {
    QueryKind::kPrefixScan, QueryKind::kPrefixTier,   QueryKind::kTierOwner,
    QueryKind::kBinRun,     QueryKind::kTriple,       QueryKind::kDerivByInput,
    QueryKind::kGetDataset,
};

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPrefixScan: return "prefix scan";
    case QueryKind::kPrefixTier: return "prefix + tier";
    case QueryKind::kTierOwner: return "tier AND owner";
    case QueryKind::kBinRun: return "bin AND run";
    case QueryKind::kTriple: return "owner AND run AND tier";
    case QueryKind::kDerivByInput: return "FindDerivations by input";
    case QueryKind::kGetDataset: return "GetDataset";
  }
  return "?";
}

struct DiscoveryOp {
  QueryKind kind = QueryKind::kGetDataset;
  uint32_t a = 0, b = 0, c = 0;
  std::string name;
};

/// Draws `n` requests. The class shares (10% prefix scans, 10% prefix +
/// tier, 15% tier AND owner, 15% bin AND run, 5% triples, 15%
/// FindDerivations, 30% GetDataset) are an assumption, not taken from a
/// trace of real users; the report gives each class's measured share
/// and latency.
std::vector<DiscoveryOp> MakeOps(const Corpus& corpus, uint64_t seed,
                                 size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<DiscoveryOp> ops(n);
  for (DiscoveryOp& op : ops) {
    const uint32_t pick = static_cast<uint32_t>(rng() % 100);
    op.a = static_cast<uint32_t>(rng());
    op.b = static_cast<uint32_t>(rng());
    op.c = static_cast<uint32_t>(rng());
    if (pick < 10) {
      op.kind = QueryKind::kPrefixScan;
    } else if (pick < 20) {
      op.kind = QueryKind::kPrefixTier;
    } else if (pick < 35) {
      op.kind = QueryKind::kTierOwner;
    } else if (pick < 50) {
      op.kind = QueryKind::kBinRun;
    } else if (pick < 55) {
      op.kind = QueryKind::kTriple;
    } else if (pick < 70) {
      op.kind = QueryKind::kDerivByInput;
      // Mostly inputs that have consumers; some that have none.
      op.name = rng() % 4 != 0
                    ? corpus.derivation_inputs[rng() %
                                               corpus.derivation_inputs.size()]
                    : corpus.base_names[rng() % corpus.base_names.size()];
    } else {
      op.kind = QueryKind::kGetDataset;
      op.name = corpus.base_names[rng() % corpus.base_names.size()];
    }
  }
  return ops;
}

vdg::DatasetQuery DatasetQueryOf(const DiscoveryOp& op, uint32_t buckets) {
  using vdg::AttributePredicate;
  using vdg::PredicateOp;
  vdg::DatasetQuery q;
  const auto eq = [](const char* key, vdg::AttributeValue v) {
    return AttributePredicate{key, PredicateOp::kEq, std::move(v)};
  };
  const std::string tier = TierName(op.b % kTiers);
  const std::string owner = OwnerName(op.c % kOwners);
  const int64_t run = static_cast<int64_t>(op.c % kRuns);
  switch (op.kind) {
    case QueryKind::kPrefixScan:
      q.name_prefix = BucketPrefix(op.a % buckets);
      break;
    case QueryKind::kPrefixTier:
      q.name_prefix = BucketPrefix(op.a % buckets);
      q.predicates = {eq("tier", tier)};
      break;
    case QueryKind::kTierOwner:
      q.predicates = {eq("tier", tier), eq("owner", owner)};
      break;
    case QueryKind::kBinRun:
      q.predicates = {eq("bin", static_cast<int64_t>(op.a % buckets)),
                      eq("run", run)};
      break;
    case QueryKind::kTriple:
      q.predicates = {eq("owner", OwnerName(op.a % kOwners)), eq("run", run),
                      eq("tier", tier)};
      break;
    default:
      break;
  }
  return q;
}

bool IsDatasetQuery(QueryKind kind) {
  return kind != QueryKind::kDerivByInput && kind != QueryKind::kGetDataset;
}

struct Answer {
  std::optional<vdg::NameList> names;
  std::optional<vdg::Dataset> dataset;
};

bool Execute(vdg::CatalogClient& client, const DiscoveryOp& op,
             uint32_t buckets, Answer* keep) {
  if (op.kind == QueryKind::kGetDataset) {
    vdg::Result<vdg::Dataset> r = client.GetDataset(op.name);
    if (!r.ok()) return false;
    if (keep) keep->dataset = *std::move(r);
    return true;
  }
  vdg::Result<vdg::NameList> r = [&] {
    if (op.kind != QueryKind::kDerivByInput) {
      return client.FindDatasets(DatasetQueryOf(op, buckets));
    }
    vdg::DerivationQuery q;
    q.reads_dataset = op.name;
    return client.FindDerivations(q);
  }();
  if (!r.ok()) return false;
  if (keep) keep->names = *std::move(r);
  return true;
}

/// Compares kept answers with the unsharded reference catalog; returns
/// the number of mismatches.
uint64_t CheckAnswers(const std::vector<DiscoveryOp>& ops,
                      const std::vector<Answer>& answers,
                      vdg::VirtualDataCatalog& reference, uint32_t buckets,
                      uint64_t* checked) {
  uint64_t mismatches = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    if (!a.names && !a.dataset) continue;
    ++*checked;
    const DiscoveryOp& op = ops[i];
    bool same = false;
    if (op.kind == QueryKind::kGetDataset) {
      vdg::Result<vdg::Dataset> want = reference.GetDataset(op.name);
      same = want.ok() && a.dataset && want->name == a.dataset->name &&
             want->size_bytes == a.dataset->size_bytes &&
             want->annotations == a.dataset->annotations &&
             want->descriptor == a.dataset->descriptor;
    } else if (op.kind == QueryKind::kDerivByInput) {
      vdg::DerivationQuery q;
      q.reads_dataset = op.name;
      same = a.names && reference.FindDerivations(q) == *a.names;
    } else {
      same = a.names &&
             reference.FindDatasets(DatasetQueryOf(op, buckets)) == *a.names;
    }
    if (!same) ++mismatches;
  }
  return mismatches;
}

struct Step {
  double rate = 0;
  Phase phase;
  std::vector<QueryKind> kinds;  // of each latency_ms sample
  std::vector<double> lag_ms;
  size_t scheduled = 0;
  size_t backlog = 0;    // due before the schedule ended, not yet started
  size_t abandoned = 0;  // never started
  bool saturated = false;
};

/// Plays one Poisson schedule against the world's client stacks, one
/// sender thread per stack.
Step RunOpenLoop(World& world, const Corpus& corpus, uint64_t seed,
                 double rate, double duration, std::vector<DiscoveryOp>* ops,
                 std::vector<Answer>* answers) {
  const std::vector<double> due = PoissonArrivals(seed, rate, duration);
  *ops = MakeOps(corpus, SubSeed(seed, 7), due.size());
  const size_t n = due.size();
  if (answers) answers->assign(n, Answer{});
  std::vector<int64_t> start_ns(n, -1), latency_ns(n, -1);
  std::vector<char> ok(n, 0);
  std::vector<double> lag_ms(n, -1);
  std::atomic<size_t> next{0};
  const uint32_t buckets = corpus.spec.buckets;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto to_tp = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  // Past this point no new request starts: the step is saturated.
  const Clock::time_point give_up = to_tp(duration * 1.25 + 0.2);

  std::vector<std::thread> senders;
  for (size_t t = 0; t < world.stacks.size(); ++t) {
    senders.emplace_back([&, t] {
      // Wake as close to each due time as the kernel allows (the
      // default timer slack is 50us). Busy-waiting instead would take
      // the CPU from server threads woken onto the same core.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      vdg::CatalogClient& client = *world.stacks[t].entry;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        const Clock::time_point due_tp = to_tp(due[i]);
        const Clock::time_point pick = Clock::now();
        if (pick >= give_up) {
          next.store(n);
          return;
        }
        if (pick < due_tp) std::this_thread::sleep_until(due_tp);
        const Clock::time_point start = Clock::now();
        lag_ms[i] = std::chrono::duration<double, std::milli>(
                        start - std::max(due_tp, pick))
                        .count();
        Answer* keep = answers && i % kOracleEvery == 0 ? &(*answers)[i]
                                                         : nullptr;
        bool good;
        {
          ScopedSpan span(Layer::kOp, kKindQuery);
          good = Execute(client, (*ops)[i], buckets, keep);
        }
        const Clock::time_point end = Clock::now();
        start_ns[i] = (start - t0).count();
        latency_ns[i] = (end - due_tp).count();
        ok[i] = good;
      }
    });
  }
  for (std::thread& s : senders) s.join();

  Step step;
  step.rate = rate;
  step.scheduled = n;
  const int64_t schedule_end =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(duration))
          .count();
  double last_end_s = duration;
  for (size_t i = 0; i < n; ++i) {
    if (start_ns[i] < 0) {
      ++step.abandoned;
      ++step.backlog;
      continue;
    }
    if (start_ns[i] > schedule_end) ++step.backlog;
    ++step.phase.attempted;
    if (!ok[i]) {
      ++step.phase.failed;
      continue;
    }
    const double latency_ms = static_cast<double>(latency_ns[i]) / 1e6;
    step.phase.latency_ms.push_back(latency_ms);
    step.kinds.push_back((*ops)[i].kind);
    step.lag_ms.push_back(lag_ms[i]);
    last_end_s = std::max(last_end_s, due[i] + latency_ms / 1e3);
  }
  step.phase.elapsed_s = last_end_s;
  step.saturated = step.abandoned > 0 ||
                   step.backlog > std::max<size_t>(20, n / 50);
  return step;
}

std::string StepLine(const Step& step) {
  const Summary s = Summarize(step.phase.latency_ms);
  const char* verdict = step.saturated       ? "saturated"
                        : step.phase.failed  ? "errors"
                        : s.tail > kLatencyLimitMs ? "over limit"
                                                   : "meets limit";
  char buf[300];
  if (step.saturated) {
    std::snprintf(buf, sizeof(buf),
                  "  offered %7.0f ops/s: completed %8.1f ops/s, backlog %zu "
                  "of %zu, abandoned %zu -> %s",
                  step.rate, step.phase.ops_per_s(), step.backlog,
                  step.scheduled, step.abandoned, verdict);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "  offered %7.0f ops/s: completed %8.1f ops/s, p50 %.4f ms,"
                  " %s %.4f ms, n=%zu, backlog %zu -> %s",
                  step.rate, step.phase.ops_per_s(), s.p50,
                  TailLabel(s.tail_q).c_str(), s.tail, s.n, step.backlog,
                  verdict);
  }
  return buf;
}

}  // namespace

bool RunDiscovery(const Options& options, Outcome* out, std::string* error) {
  const Budget budget = GetBudget();
  const size_t senders = std::max(1u, budget.threads / 2);
  const size_t workers = std::max<size_t>(1, budget.threads - senders);
  const CorpusSpec spec;
  const Corpus corpus = MakeCorpus(spec, options.seed);
  StampContext(options, budget, spec, workers, senders,
               "none (in-memory shards, no journal)", out);
  out->context.Add("offered_rate_ops_s", kNominalRate)
      .Add("latency_limit_ms", kLatencyLimitMs);

  // Each world runs the nominal rate for its share of the gated time
  // (in a traced run, half of it); the last world then runs a traced
  // share (traced run only) and the ladder.
  const double nominal_s = options.seconds * kGatedShare *
                           (options.trace ? 0.5 : 1.0) / kSetupRepetitions;
  std::unique_ptr<World> world;
  std::vector<double> setup_times, world_mb;
  std::vector<Step> nominal;
  std::vector<std::vector<DiscoveryOp>> ops(kSetupRepetitions + 1);
  std::vector<std::vector<Answer>> answers(kSetupRepetitions + 1);
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
      world->service.Route("dsc");
      status = LoadCorpus(world->service.sharded.get(), corpus);
    }
    if (!status.ok()) {
      *error = "corpus load: " + status.ToString();
      return false;
    }
    world->service.Serve(workers);
    ConnectStacks(world.get(), senders, options.seed, 0);
    const std::vector<DiscoveryOp> warm =
        MakeOps(corpus, SubSeed(options.seed, 3), 64);
    for (ClientStack& stack : world->stacks) {
      for (const DiscoveryOp& op : warm) {
        if (!Execute(*stack.entry, op, spec.buckets, nullptr)) {
          *error = "warm-up request failed";
          return false;
        }
      }
    }
    setup_times.push_back(SecondsBetween(start, Clock::now()));
    nominal.push_back(RunOpenLoop(*world, corpus, SubSeed(options.seed, 10 + r),
                                  kNominalRate, nominal_s, &ops[r],
                                  &answers[r]));
    world_mb.push_back(memory.PeakMb());
  }
  const double setup_s = Median(setup_times);

  std::vector<DiscoveryOp>& traced_ops = ops.back();
  std::vector<Answer>& traced_answers = answers.back();
  Step traced;
  TraceInputs trace_in;
  if (options.trace) {
    const Counters before = ReadCounters(*world);
    Tracer::SetEnabled(true);
    traced = RunOpenLoop(*world, corpus, SubSeed(options.seed, 20),
                         kNominalRate, nominal_s, &traced_ops,
                         &traced_answers);
    Tracer::SetEnabled(false);
    trace_in.spans = Tracer::Drain();
    trace_in.delta = ReadCounters(*world) - before;
    trace_in.ops = traced.phase.attempted;
    trace_in.codec_us = world->sampler.ReplayMicros();
  }

  // The ladder: climb until a step misses the limit or saturates.
  const double step_s = options.seconds * (1 - kGatedShare) /
                        static_cast<double>(std::size(kLadder));
  std::vector<Step> ladder;
  double slo_rate = 0;
  const Counters ladder_before = ReadCounters(*world);
  for (size_t k = 0; k < std::size(kLadder); ++k) {
    std::vector<DiscoveryOp> step_ops;
    ladder.push_back(RunOpenLoop(*world, corpus,
                                 SubSeed(options.seed, 40 + k), kLadder[k],
                                 step_s, &step_ops, nullptr));
    const Step& step = ladder.back();
    const bool meets = !step.saturated && step.phase.failed == 0 &&
                       Summarize(step.phase.latency_ms).tail <=
                           kLatencyLimitMs;
    if (!meets) break;
    slo_rate = kLadder[k];
  }
  const Counters ladder_delta = ReadCounters(*world) - ladder_before;

  // The oracle: one unsharded catalog loaded with the same corpus, built
  // after the worlds so that it is not resident while they are measured.
  const Clock::time_point prep = Clock::now();
  vdg::VirtualDataCatalog reference("vdcbench-reference.org");
  vdg::Status status = reference.Open();
  if (status.ok()) {
    vdg::InProcessCatalogClient loader(&reference);
    status = LoadCorpus(&loader, corpus);
  }
  if (!status.ok()) {
    *error = "reference catalog: " + status.ToString();
    return false;
  }
  const double prep_s = SecondsBetween(prep, Clock::now());
  uint64_t checked = 0, mismatches = 0;
  for (size_t r = 0; r < ops.size(); ++r) {
    mismatches +=
        CheckAnswers(ops[r], answers[r], reference, spec.buckets, &checked);
  }
  out->correct = mismatches == 0;

  uint64_t attempted = traced.phase.attempted;
  uint64_t failed = traced.phase.failed + mismatches;
  std::vector<Phase> gated;
  std::vector<double> lags;
  for (const Step& step : nominal) {
    gated.push_back(step.phase);
    attempted += step.phase.attempted;
    failed += step.phase.failed;
    lags.insert(lags.end(), step.lag_ms.begin(), step.lag_ms.end());
  }
  for (const Step& step : ladder) {
    attempted += step.phase.attempted;
    failed += step.phase.failed;
  }
  out->attempted = attempted;
  out->failed = failed;

  auto& lines = out->lines;
  lines.push_back("discovery: open loop, Poisson arrivals, " +
                  std::to_string(senders) + " sender threads, " +
                  std::to_string(workers) + " server workers");
  lines.push_back(Line("prep_s (reference catalog)", prep_s, "s"));
  lines.push_back(Line("setup_s", setup_s, "s",
                       "median of " + std::to_string(kSetupRepetitions)));
  lines.push_back("offered " + FormatNumber(kNominalRate) +
                  " ops/s on each world:");
  for (const Step& step : nominal) lines.push_back(StepLine(step));
  // The mix is assumed, not taken from a trace of real users, so each
  // class's share and latency is reported for judging a change by class.
  size_t completed = 0;
  for (const Step& step : nominal) completed += step.kinds.size();
  lines.push_back("query classes over those worlds (an assumed mix):");
  for (QueryKind kind : kQueryKinds) {
    std::vector<double> latency;
    for (const Step& step : nominal) {
      for (size_t i = 0; i < step.kinds.size(); ++i) {
        if (step.kinds[i] == kind) latency.push_back(step.phase.latency_ms[i]);
      }
    }
    const Summary s = Summarize(std::move(latency));
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  %-26s share %.3f, p50 %.4f ms, %s %.4f ms, n=%zu",
                  QueryKindName(kind),
                  static_cast<double>(s.n) /
                      static_cast<double>(std::max<size_t>(completed, 1)),
                  s.p50, TailLabel(s.tail_q).c_str(), s.tail, s.n);
    lines.push_back(buf);
  }
  const Summary lag = Summarize(lags);
  lines.push_back(Line("generator lag " + TailLabel(lag.tail_q), lag.tail,
                       "ms", "p50 " + FormatNumber(lag.p50) + " ms"));
  lines.push_back("ladder (limit: tail <= " + FormatNumber(kLatencyLimitMs) +
                  " ms, no growing backlog):");
  for (const Step& step : ladder) lines.push_back(StepLine(step));
  lines.push_back(Line("slo_rate_ops_s", slo_rate, "ops/s",
                       "0 = even the lowest step missed"));
  lines.push_back(Line("server queue rejections over the ladder",
                       static_cast<double>(ladder_delta.queue_rejections),
                       "count"));
  lines.push_back(Line("error_rate",
                       attempted ? static_cast<double>(failed) /
                                       static_cast<double>(attempted)
                                 : 0,
                       "ratio", std::to_string(failed) + " of " +
                                    std::to_string(attempted)));
  lines.push_back("oracle: " + std::to_string(checked) +
                  " sampled answers vs unsharded reference, " +
                  std::to_string(mismatches) + " mismatches");

  if (!options.trace) {
    AddEndToEnd(setup_s, gated, world_mb, out);
    return true;
  }

  // Candidates examined per result, from the planner's own account of
  // the sampled queries that an index drove.
  double candidates = 0, results = 0;
  for (size_t i = 0; i < traced_ops.size(); ++i) {
    const DiscoveryOp& op = traced_ops[i];
    if (!IsDatasetQuery(op.kind) || !traced_answers[i].names) continue;
    const vdg::DatasetQuery q = DatasetQueryOf(op, spec.buckets);
    bool indexed = true;
    double cand = 0;
    for (const auto& catalog : world->service.catalogs) {
      const vdg::QueryPlan plan = catalog->ExplainFindDatasets(q);
      if (plan.path != vdg::AccessPath::kAttributeIndex &&
          plan.path != vdg::AccessPath::kTypeIndex &&
          plan.path != vdg::AccessPath::kMaterializedSet) {
        indexed = false;
        break;
      }
      cand += static_cast<double>(plan.actual_candidates);
    }
    if (!indexed) continue;
    candidates += cand;
    results += static_cast<double>(traced_answers[i].names->size());
  }
  const Summary traced_lag = Summarize(traced.lag_ms);
  AnalyzeLayers(trace_in,
                {{"catalog.candidates_per_result",
                  candidates / std::max(1.0, results), "ratio"},
                 {"loadgen.lag_p99_ms", traced_lag.tail, "ms"},
                 {"server.queue_rejections",
                  static_cast<double>(trace_in.delta.queue_rejections +
                                      ladder_delta.queue_rejections),
                  "count"}},
                nominal.back().phase, traced.phase, out);
  lines.push_back(Line("candidates per result base (results)", results,
                       "count", "indexed sampled queries only"));
  WriteSpans(options.trace_out, trace_in.spans);
  return true;
}

}  // namespace vdcbench
