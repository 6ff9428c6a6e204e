#ifndef VDCBENCH_INTERNAL_H_
#define VDCBENCH_INTERNAL_H_

// Shared machinery of the three workloads: the assembled world, the
// layer counters read from outside the program, span analysis, and
// the report helpers.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus.h"
#include "ladder.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace vdcbench {

/// Setup is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepetitions = 5;
/// Capacity of each client cache map (objects, steps, queries).
inline constexpr size_t kCacheCapacity = 1024;

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Threads the generator and the server may use together.
struct Budget {
  unsigned nproc = 1;
  unsigned threads = 1;  // min(nproc, 4)
};
Budget GetBudget();

/// Everything one measured configuration needs. Destruction order:
/// client stacks, then the service, then the sampler they point to.
struct World {
  CodecSampler sampler{16};
  Service service;
  std::vector<ClientStack> stacks;
};

/// Counters the layers already keep, summed over the world.
struct Counters {
  uint64_t round_trips = 0;
  uint64_t wire_bytes = 0;
  uint64_t retries = 0;
  uint64_t exhausted = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_flushes = 0;
  uint64_t queue_rejections = 0;
  uint64_t journal_appends = 0;
  uint64_t journal_flushes = 0;
};
Counters ReadCounters(const World& world);
Counters operator-(const Counters& a, const Counters& b);

/// Latency samples and failure counts of one measured phase.
struct Phase {
  std::vector<double> latency_ms;  // completed, successful ops
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;

  double ops_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(latency_ms.size()) / elapsed_s
                         : 0;
  }
};

/// The traced-run inputs the span analysis needs.
struct TraceInputs {
  std::vector<Span> spans;
  Counters delta;       // counters over the traced phase
  uint64_t ops = 0;     // end-to-end ops in the traced phase
  std::vector<double> codec_us;
};

/// Adds the per-layer metrics every workload reports to `out` (fixed
/// order, 0 where a layer is not on this workload's path) and the span
/// tables to `lines`. Workload-specific values are passed in `extra`
/// by metric name and override the defaults.
void AnalyzeLayers(const TraceInputs& in,
                   const std::vector<Metric>& extra, const Phase& untraced,
                   const Phase& traced, Outcome* out);

/// Appends the gated end-to-end metrics in BENCHMARK.json order: each
/// the median over `runs`, one measured phase per freshly set-up world,
/// with `world_mb` the WorldMemory peak of each of those worlds.
void AddEndToEnd(double setup_s, const std::vector<Phase>& runs,
                 const std::vector<double>& world_mb, Outcome* out);

/// Peak resident memory of one serving world. Start() hands freed heap
/// back to the kernel, restarts the kernel's resident high-water mark
/// (VmHWM) and notes the resident size; PeakMb() is the high-water mark
/// since then minus that size. Corpus, oracle state and whatever the
/// benchmark built before Start() are resident in both readings, so the
/// difference is what the world's set-up and measured phase added.
class WorldMemory {
 public:
  /// False when the kernel does not let the high-water mark be reset.
  bool Start();
  double PeakMb() const;

 private:
  double baseline_kb_ = 0;
};

/// "name value unit" report line.
std::string Line(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "");

/// Report line for a sample set: p50, tail with its label, and n.
std::string LatencyLine(const std::string& name, const Summary& s,
                        const char* unit = "ms");

/// Writes spans as CSV to `path` (no-op when empty).
void WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Connects `count` client stacks to the world's server.
void ConnectStacks(World* world, size_t count, uint64_t seed,
                   size_t cache_capacity);

/// Context keys every workload stamps.
void StampContext(const Options& options, const Budget& budget,
                  const CorpusSpec& spec, size_t workers, size_t clients,
                  const std::string& flush_policy, Outcome* out);

bool RunDiscovery(const Options& options, Outcome* out, std::string* error);
bool RunCampaign(const Options& options, Outcome* out, std::string* error);
bool RunLineage(const Options& options, Outcome* out, std::string* error);

}  // namespace vdcbench

#endif  // VDCBENCH_INTERNAL_H_
