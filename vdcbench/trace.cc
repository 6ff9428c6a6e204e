#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "catalog/wire.h"

namespace vdcbench {
namespace {

// A full buffer drops further spans (counted) instead of growing
// without bound.
constexpr size_t kMaxSpansPerThread = size_t{1} << 20;

struct ThreadBuffer {
  uint32_t index = 0;
  uint64_t seq = 0;
  std::vector<uint64_t> open;  // ids of open spans; owner thread only
  std::mutex mu;               // guards spans
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_dropped{0};
std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadBuffer>>* g_buffers =
    new std::vector<std::shared_ptr<ThreadBuffer>>();

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    buffer->index = static_cast<uint32_t>(g_buffers->size()) + 1;
    g_buffers->push_back(buffer);
  }
  return *buffer;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kCache: return "cache";
    case Layer::kResilient: return "resilient";
    case Layer::kWire: return "wire";
    case Layer::kBackend: return "backend";
    case Layer::kShard: return "shard";
  }
  return "?";
}

std::string KindName(uint16_t kind) {
  switch (kind) {
    case kKindRevalidate: return "Revalidate";
    case kKindShardVersions: return "ShardVersions";
    case kKindShardChangesSince: return "ShardChangesSince";
    case kKindQuery: return "query";
    case kKindWriteBack: return "write-back";
    case kKindWalk: return "walk";
    case kKindWrite: return "write";
    default: break;
  }
  if (kind < 100 && vdg::wire::IsValidMsgKind(static_cast<uint8_t>(kind))) {
    return std::string(
        vdg::wire::MsgKindName(static_cast<vdg::wire::MsgKind>(kind)));
  }
  return "kind" + std::to_string(kind);
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_release);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Drain() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const std::shared_ptr<ThreadBuffer>& buffer : *g_buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return all;
}

uint64_t Tracer::dropped() { return g_dropped.load(); }

ScopedSpan::ScopedSpan(Layer layer, uint16_t kind, uint8_t shard) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  active_ = true;
  span_.id = (static_cast<uint64_t>(buffer.index) << 40) | ++buffer.seq;
  span_.parent = buffer.open.empty() ? 0 : buffer.open.back();
  span_.layer = layer;
  span_.kind = kind;
  span_.shard = shard;
  span_.thread = buffer.index;
  buffer.open.push_back(span_.id);
  span_.start_ns = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNanos();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.spans.push_back(span_);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    auto it = index_of.find(span.parent);
    if (it == index_of.end()) continue;
    child_intervals[it->second].emplace_back(span.start_ns, span.end_ns);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& intervals = child_intervals[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;  // end of the union so far
    for (auto [start, end] : intervals) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = span.duration_ns() - covered;
  }
  return self;
}

NestingCheck CheckNesting(const std::vector<Span>& spans,
                          const std::vector<int64_t>& self) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Root of each span, found by following parent links.
  std::vector<int64_t> tree_self(spans.size(), 0);
  std::vector<char> is_root(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t at = i;
    for (;;) {
      const uint64_t parent = spans[at].parent;
      auto it = parent == 0 ? index_of.end() : index_of.find(parent);
      if (it == index_of.end()) break;
      at = it->second;
    }
    is_root[at] = 1;
    tree_self[at] += self[i];
  }

  NestingCheck check;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!is_root[i]) continue;
    ++check.roots;
    const int64_t duration = spans[i].duration_ns();
    if (duration <= 0) continue;
    const double excess =
        static_cast<double>(tree_self[i] - duration) /
        static_cast<double>(duration);
    check.max_excess = std::max(check.max_excess, excess);
  }
  return check;
}

}  // namespace vdcbench
