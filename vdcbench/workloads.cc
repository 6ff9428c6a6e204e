#include "workloads.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "internal.h"

namespace vdcbench {

bool RunWorkload(const Options& options, Outcome* outcome,
                 std::string* error) {
  if (options.workload == "discovery") {
    return RunDiscovery(options, outcome, error);
  }
  if (options.workload == "campaign") {
    return RunCampaign(options, outcome, error);
  }
  if (options.workload == "lineage") {
    return RunLineage(options, outcome, error);
  }
  *error = "unknown workload '" + options.workload + "'";
  return false;
}

Budget GetBudget() {
  Budget budget;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int usable = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                         ? CPU_COUNT(&cpus)
                         : static_cast<int>(std::thread::hardware_concurrency());
  budget.nproc = static_cast<unsigned>(std::max(1, usable));
  budget.threads = std::min(budget.nproc, 4u);
  return budget;
}

Counters ReadCounters(const World& world) {
  Counters c;
  for (const ClientStack& stack : world.stacks) {
    const vdg::WireClientStats wire = stack.wires->Total();
    c.round_trips += wire.round_trips;
    c.wire_bytes += wire.bytes_sent + wire.bytes_received;
    const vdg::ResilientStats resilient = stack.resilient->stats();
    c.retries += resilient.retries;
    c.exhausted += resilient.exhausted_calls;
    if (stack.cache) {
      const vdg::CacheStats cache = stack.cache->stats();
      c.cache_hits += cache.hits;
      c.cache_misses += cache.misses;
      c.cache_evictions += cache.evictions;
      c.cache_flushes += cache.flushes;
    }
  }
  if (world.service.server) {
    c.queue_rejections = world.service.server->stats().queue_rejections.load();
  }
  for (const CountingJournal* journal : world.service.journals) {
    c.journal_appends += journal->appends();
    c.journal_flushes += journal->flushes();
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.round_trips = a.round_trips - b.round_trips;
  d.wire_bytes = a.wire_bytes - b.wire_bytes;
  d.retries = a.retries - b.retries;
  d.exhausted = a.exhausted - b.exhausted;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.cache_evictions = a.cache_evictions - b.cache_evictions;
  d.cache_flushes = a.cache_flushes - b.cache_flushes;
  d.queue_rejections = a.queue_rejections - b.queue_rejections;
  d.journal_appends = a.journal_appends - b.journal_appends;
  d.journal_flushes = a.journal_flushes - b.journal_flushes;
  return d;
}

std::string Line(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  std::string line = "  " + name + " = " + FormatNumber(value) + " " + unit;
  if (!note.empty()) line += "  (" + note + ")";
  return line;
}

std::string LatencyLine(const std::string& name, const Summary& s,
                        const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %s: p50 %.4f %s, %s %.4f %s, n=%zu",
                name.c_str(), s.p50, unit, TailLabel(s.tail_q).c_str(),
                s.tail, unit, s.n);
  return buf;
}

namespace {

/// A "Vm...:  <n> kB" field of /proc/self/status, in kB (-1 if absent).
double StatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  double kb = -1;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

bool WorldMemory::Start() {
  malloc_trim(0);
  // "5" resets the peak resident set size to the current one.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool reset = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !reset) return false;
  baseline_kb_ = StatusKb("VmRSS");
  return baseline_kb_ >= 0 && StatusKb("VmHWM") >= 0;
}

double WorldMemory::PeakMb() const {
  return std::max(0.0, StatusKb("VmHWM") - baseline_kb_) / 1024.0;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "id,parent,thread,layer,kind,shard,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%u,%s,%s,%u,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 LayerName(s.layer), KindName(s.kind).c_str(),
                 static_cast<unsigned>(s.shard),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

void ConnectStacks(World* world, size_t count, uint64_t seed,
                   size_t cache_capacity) {
  for (size_t i = 0; i < count; ++i) {
    world->stacks.push_back(ConnectStack(world->service.server.get(),
                                         SubSeed(seed, 100 + i),
                                         cache_capacity, &world->sampler));
  }
}

void StampContext(const Options& options, const Budget& budget,
                  const CorpusSpec& spec, size_t workers, size_t clients,
                  const std::string& flush_policy, Outcome* out) {
  JsonObject corpus;
  corpus.Add("datasets", static_cast<uint64_t>(spec.total_datasets()))
      .Add("derivations", static_cast<uint64_t>(spec.total_derivations()))
      .Add("prefix_buckets", static_cast<uint64_t>(spec.buckets))
      .Add("chains", static_cast<uint64_t>(spec.chains))
      .Add("chain_depth", static_cast<uint64_t>(spec.chain_depth));
  out->context.Add("workload", options.workload)
      .Add("seed", options.seed)
      .Add("run_seconds", options.seconds)
      .Add("trace", options.trace)
      .Add("nproc", static_cast<uint64_t>(budget.nproc))
      .Add("thread_budget", static_cast<uint64_t>(budget.threads))
      .Add("compiler", std::string("gcc ") + __VERSION__)
      .Add("build", "release")
      .Add("shards", static_cast<uint64_t>(spec.shards))
      .Add("corpus", corpus)
      .Add("server_workers", static_cast<uint64_t>(workers))
      .Add("client_threads", static_cast<uint64_t>(clients))
      .Add("transport", "in-memory duplex pipe")
      .Add("fanout", "sequential")
      .Add("flush_policy", flush_policy)
      .Add("setup_repetitions", kSetupRepetitions);
}

void AddEndToEnd(double setup_s, const std::vector<Phase>& runs,
                 const std::vector<double>& world_mb, Outcome* out) {
  std::vector<double> rates, p50s, tails;
  for (size_t r = 0; r < runs.size(); ++r) {
    const Summary s = Summarize(runs[r].latency_ms);
    rates.push_back(runs[r].ops_per_s());
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "  world %zu: %.1f ops/s, p50 %.4f ms, %s %.4f ms, n=%zu, "
                  "peak +%.1f MB",
                  r + 1, rates.back(), s.p50, TailLabel(s.tail_q).c_str(),
                  s.tail, s.n, r < world_mb.size() ? world_mb[r] : 0.0);
    out->lines.push_back(buf);
  }
  // The tail is reported, not gated: on a shared virtual machine it is
  // set by how often the host deschedules a vCPU (see README.md).
  std::vector<double> pooled;
  for (const Phase& run : runs) {
    pooled.insert(pooled.end(), run.latency_ms.begin(), run.latency_ms.end());
  }
  const Summary all = Summarize(std::move(pooled));
  out->lines.push_back(Line("p99_ms", all.tail, "ms",
                            TailLabel(all.tail_q) + " of all " +
                                std::to_string(all.n) +
                                " samples; median of per-world tails " +
                                FormatNumber(Median(tails)) + " ms"));
  out->lines.push_back("gated values (median over the " +
                       std::to_string(runs.size()) + " worlds):");
  out->metrics.push_back({"setup_s", setup_s, "s"});
  out->metrics.push_back({"ops_per_s", Median(rates), "ops/s"});
  out->metrics.push_back({"p50_ms", Median(p50s), "ms"});
  out->metrics.push_back({"peak_rss_mb", Median(world_mb), "MB"});
  for (size_t i = out->metrics.size() - 4; i < out->metrics.size(); ++i) {
    const Metric& m = out->metrics[i];
    out->lines.push_back(Line(m.name, m.value, m.unit));
  }
}

namespace {

bool IsCommitKind(uint16_t kind) {
  using vdg::wire::MsgKind;
  if (kind >= 100) return false;
  switch (static_cast<MsgKind>(kind)) {
    case MsgKind::kDefineDataset:
    case MsgKind::kDefineTransformation:
    case MsgKind::kDefineDerivation:
    case MsgKind::kAnnotate:
    case MsgKind::kAddReplica:
    case MsgKind::kRecordInvocation:
    case MsgKind::kSetDatasetSize:
    case MsgKind::kInvalidateReplica:
    case MsgKind::kApplyBatch:
      return true;
    default:
      return false;
  }
}

uint16_t K(vdg::wire::MsgKind kind) { return static_cast<uint16_t>(kind); }

/// Largest share of a root span by which its tree's self times may
/// exceed it.
constexpr double kNestingTolerance = 0.01;

std::string SpanLine(const std::string& name, const std::vector<double>& us) {
  const Summary s = Summarize(us);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %-22s n=%-8zu p50 %9.2f us  %s %9.2f us  max %9.2f us"
                "  busy %.4f s",
                name.c_str(), s.n, s.p50, TailLabel(s.tail_q).c_str(), s.tail,
                s.max, s.sum / 1e6);
  return buf;
}

}  // namespace

void AnalyzeLayers(const TraceInputs& in, const std::vector<Metric>& extra,
                   const Phase& untraced, const Phase& traced, Outcome* out) {
  const std::vector<Span>& spans = in.spans;
  const std::vector<int64_t> self = SelfTimes(spans);
  const NestingCheck nesting = CheckNesting(spans, self);
  const double ops = static_cast<double>(std::max<uint64_t>(in.ops, 1));

  std::vector<double> layer_self[kLayerCount];
  std::vector<double> cache_step_self, revalidate_us, find_us, commit_us,
      step_us;
  std::map<uint16_t, std::pair<double, uint64_t>> wire_by_kind, backend_by_kind;
  std::map<uint8_t, double> shard_busy;
  uint64_t legs = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur_us = static_cast<double>(s.duration_ns()) / 1e3;
    const double self_us = static_cast<double>(self[i]) / 1e3;
    layer_self[static_cast<int>(s.layer)].push_back(self_us);
    switch (s.layer) {
      case Layer::kCache:
        if (s.kind == kKindRevalidate) revalidate_us.push_back(dur_us);
        if (s.kind == K(vdg::wire::MsgKind::kGetProvenanceStep)) {
          cache_step_self.push_back(self_us);
        }
        break;
      case Layer::kWire:
        wire_by_kind[s.kind].first += dur_us;
        ++wire_by_kind[s.kind].second;
        break;
      case Layer::kBackend:
        backend_by_kind[s.kind].first += dur_us;
        ++backend_by_kind[s.kind].second;
        break;
      case Layer::kShard:
        ++legs;
        shard_busy[s.shard] += dur_us;
        if (s.kind == K(vdg::wire::MsgKind::kFindDatasets) ||
            s.kind == K(vdg::wire::MsgKind::kFindDerivations)) {
          find_us.push_back(dur_us);
        } else if (s.kind == K(vdg::wire::MsgKind::kGetProvenanceStep)) {
          step_us.push_back(dur_us);
        } else if (IsCommitKind(s.kind)) {
          commit_us.push_back(dur_us);
        }
        break;
      default:
        break;
    }
  }

  // Client and server spans are linked in aggregate: per message kind,
  // the mean wire call minus the mean backend call is what the codec,
  // transport, dispatch and server queue added.
  double overhead_weighted = 0;
  uint64_t overhead_calls = 0;
  std::vector<std::string> overhead_lines;
  for (const auto& [kind, wire] : wire_by_kind) {
    auto it = backend_by_kind.find(kind);
    if (it == backend_by_kind.end() || wire.second == 0 ||
        it->second.second == 0) {
      continue;
    }
    const double wire_mean = wire.first / static_cast<double>(wire.second);
    const double backend_mean =
        it->second.first / static_cast<double>(it->second.second);
    overhead_weighted +=
        (wire_mean - backend_mean) * static_cast<double>(wire.second);
    overhead_calls += wire.second;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  server overhead %-18s wire %8.2f us - backend %8.2f us"
                  " = %8.2f us  (wire n=%llu, backend n=%llu)",
                  KindName(kind).c_str(), wire_mean, backend_mean,
                  wire_mean - backend_mean,
                  static_cast<unsigned long long>(wire.second),
                  static_cast<unsigned long long>(it->second.second));
    overhead_lines.push_back(buf);
  }

  double imbalance = 0;
  if (!shard_busy.empty()) {
    double max_busy = 0, total = 0;
    for (const auto& [shard, busy] : shard_busy) {
      max_busy = std::max(max_busy, busy);
      total += busy;
    }
    const double mean = total / static_cast<double>(shard_busy.size());
    if (mean > 0) imbalance = max_busy / mean;
  }

  const Counters& d = in.delta;
  const uint64_t lookups = d.cache_hits + d.cache_misses;
  const Summary codec = Summarize(in.codec_us);
  const Summary t_lat = Summarize(traced.latency_ms);
  const Summary u_lat = Summarize(untraced.latency_ms);

  std::vector<Metric> metrics = {
      {"cache.hit_ratio",
       lookups ? static_cast<double>(d.cache_hits) / static_cast<double>(lookups)
               : 0,
       "ratio"},
      {"cache.evictions_per_op",
       static_cast<double>(d.cache_evictions) / ops, "count"},
      {"cache.self_us", Summarize(cache_step_self).p50, "us"},
      {"cache.revalidate_us", Summarize(revalidate_us).p50, "us"},
      {"resilient.self_us",
       Summarize(layer_self[static_cast<int>(Layer::kResilient)]).p50, "us"},
      {"resilient.retries_per_op", static_cast<double>(d.retries) / ops,
       "count"},
      {"resilient.exhausted_calls", static_cast<double>(d.exhausted), "count"},
      {"server.overhead_us",
       overhead_calls ? overhead_weighted / static_cast<double>(overhead_calls)
                      : 0,
       "us"},
      {"server.round_trips_per_op", static_cast<double>(d.round_trips) / ops,
       "count"},
      {"server.queue_rejections", static_cast<double>(d.queue_rejections),
       "count"},
      {"wire.bytes_per_op", static_cast<double>(d.wire_bytes) / ops, "bytes"},
      {"wire.codec_us", codec.p50, "us"},
      {"sharding.self_us",
       Summarize(layer_self[static_cast<int>(Layer::kBackend)]).p50, "us"},
      {"sharding.legs_per_op", static_cast<double>(legs) / ops, "count"},
      {"sharding.imbalance", imbalance, "ratio"},
      {"catalog.find_us", Summarize(find_us).p50, "us"},
      {"catalog.candidates_per_result", 0, "ratio"},
      {"catalog.commit_us", Summarize(commit_us).p50, "us"},
      {"catalog.step_us", Summarize(step_us).p50, "us"},
      {"journal.flushes_per_op", static_cast<double>(d.journal_flushes) / ops,
       "count"},
      {"journal.records_per_op", static_cast<double>(d.journal_appends) / ops,
       "count"},
      {"flatsnap.open_s", 0, "s"},
      {"loadgen.lag_p99_ms", 0, "ms"},
      {"trace.overhead_ops_per_s", traced.ops_per_s() - untraced.ops_per_s(),
       "ops/s"},
      {"trace.overhead_p50_ms", t_lat.p50 - u_lat.p50, "ms"},
      {"trace.overhead_p99_ms", t_lat.tail - u_lat.tail, "ms"},
      {"trace.nesting_excess", nesting.max_excess, "ratio"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
  };
  for (const Metric& e : extra) {
    for (Metric& m : metrics) {
      if (m.name == e.name) m.value = e.value;
    }
  }
  out->metrics = metrics;

  auto& lines = out->lines;
  lines.push_back("per-layer spans (self time; busy = summed duration):");
  for (int l = 0; l < kLayerCount; ++l) {
    if (layer_self[l].empty()) continue;
    lines.push_back(SpanLine(std::string(LayerName(static_cast<Layer>(l))) +
                                 " self",
                             layer_self[l]));
  }
  if (!cache_step_self.empty()) {
    lines.push_back(SpanLine("cache step self", cache_step_self));
  }
  if (!revalidate_us.empty()) {
    lines.push_back(SpanLine("cache revalidate", revalidate_us));
  }
  if (!find_us.empty()) lines.push_back(SpanLine("catalog find leg", find_us));
  if (!commit_us.empty()) {
    lines.push_back(SpanLine("catalog commit", commit_us));
  }
  if (!step_us.empty()) lines.push_back(SpanLine("catalog step leg", step_us));
  for (const std::string& l : overhead_lines) lines.push_back(l);
  if (!in.codec_us.empty()) {
    lines.push_back(LatencyLine("wire codec replay", codec, "us"));
  }
  lines.push_back(Line("cache lookups (hit-ratio base)",
                       static_cast<double>(lookups), "count"));
  lines.push_back(Line("cache flushes", static_cast<double>(d.cache_flushes),
                       "count"));
  lines.push_back(Line("traced ops (per-op base)", static_cast<double>(in.ops),
                       "count"));
  // Spans open and close with their calls on one thread, so a tree whose
  // self times outgrow its root means the recorder lost its nesting; the
  // per-layer numbers are then wrong and the run fails.
  const bool nested = nesting.max_excess <= kNestingTolerance;
  if (!nested) {
    out->correct = false;
    ++out->failed;
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "  nesting check: %zu span trees, max self-time excess %.5f "
                "of the root (tolerance %.2f): %s",
                nesting.roots, nesting.max_excess, kNestingTolerance,
                nested ? "ok" : "EXCEEDED, run fails");
  lines.push_back(buf);
  if (Tracer::dropped() > 0) {
    lines.push_back(Line("spans dropped (buffer full)",
                         static_cast<double>(Tracer::dropped()), "count"));
  }
  lines.push_back("tracing overhead (traced half minus untraced half):");
  lines.push_back(LatencyLine("untraced", u_lat));
  lines.push_back(LatencyLine("traced", t_lat));
  lines.push_back(Line("untraced ops_per_s", untraced.ops_per_s(), "ops/s"));
  lines.push_back(Line("traced ops_per_s", traced.ops_per_s(), "ops/s"));
  lines.push_back("per-layer metrics:");
  for (const Metric& m : out->metrics) {
    lines.push_back(Line(m.name, m.value, m.unit));
  }
}

}  // namespace vdcbench
