#ifndef VDCBENCH_WORKLOADS_H_
#define VDCBENCH_WORKLOADS_H_

// The three workloads (discovery, campaign, lineage). Each builds the
// full request ladder, measures for the requested time, checks every
// answer it can against an oracle, and reports end-to-end metrics (or,
// in a traced run, per-layer metrics).

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace vdcbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;    // directory for journals and snapshots
  std::string trace_out;  // where a traced run writes its spans ("" = no)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The gated end-to-end metrics (untraced run) or the per-layer
  /// metrics (traced run), in a fixed order.
  std::vector<Metric> metrics;
  /// Human-readable report: every metric with its unit, sample counts,
  /// per-step and per-layer detail.
  std::vector<std::string> lines;
  JsonObject context;
};

/// Runs one workload. Returns false (with `*error`) when the run could
/// not be carried out at all; oracle mismatches are reported through
/// Outcome::correct instead.
bool RunWorkload(const Options& options, Outcome* outcome,
                 std::string* error);

}  // namespace vdcbench

#endif  // VDCBENCH_WORKLOADS_H_
