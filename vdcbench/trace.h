#ifndef VDCBENCH_TRACE_H_
#define VDCBENCH_TRACE_H_

// In-memory spans recorded around the calls into each layer of the
// catalog request ladder. Spans are kept in per-thread buffers while
// the benchmark runs and collected once it has stopped.
//
// Parenting follows the calling thread: a span opened while another is
// open on the same thread is its child. Client-side spans (op, cache,
// resilient, wire) and server-side spans (backend, shard) therefore
// form separate trees; the two sides are linked in aggregate, per
// message kind, by the analysis in workloads.cc.

#include <cstdint>
#include <string>
#include <vector>

namespace vdcbench {

enum class Layer : uint8_t {
  kOp = 0,     // one end-to-end operation of a workload
  kCache,      // calls into CachingCatalogClient
  kResilient,  // calls into ResilientCatalogClient
  kWire,       // calls into WireCatalogClient
  kBackend,    // CatalogServer -> ShardedCatalogClient
  kShard,      // ShardedCatalogClient -> one shard's InProcessCatalogClient
};
inline constexpr int kLayerCount = 6;

const char* LayerName(Layer layer);

/// Span kinds: values below 100 are wire::MsgKind values; the rest name
/// calls that have no message kind.
inline constexpr uint16_t kKindRevalidate = 100;
inline constexpr uint16_t kKindShardVersions = 101;
inline constexpr uint16_t kKindShardChangesSince = 102;
inline constexpr uint16_t kKindQuery = 110;      // discovery op
inline constexpr uint16_t kKindWriteBack = 111;  // campaign op
inline constexpr uint16_t kKindWalk = 112;       // lineage walk
inline constexpr uint16_t kKindWrite = 113;      // lineage writer op

std::string KindName(uint16_t kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root on its thread
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint16_t kind = 0;
  Layer layer = Layer::kOp;
  uint8_t shard = 0;
  uint32_t thread = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Global on/off switch and collection point. Off by default; a span
/// constructed while off records nothing.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  /// Moves every recorded span out of all thread buffers. Call only
  /// when no thread is recording.
  static std::vector<Span> Drain();
  /// Spans not recorded because a thread buffer was full.
  static uint64_t dropped();
};

/// RAII span: opens on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, uint16_t kind, uint8_t shard = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

int64_t NowNanos();

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (the union of their intervals, clipped to
/// the span). Positional with `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Checks that each tree's self times add up to its root's duration.
/// Children that overlap each other or leave their parent's interval
/// make the sum exceed the root; `max_excess` is the largest such
/// excess as a share of the root duration.
struct NestingCheck {
  size_t roots = 0;
  double max_excess = 0;
};
NestingCheck CheckNesting(const std::vector<Span>& spans,
                          const std::vector<int64_t>& self);

}  // namespace vdcbench

#endif  // VDCBENCH_TRACE_H_
