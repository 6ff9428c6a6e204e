// vdcbench: drives one workload through the full catalog request
// ladder and prints a report, a context line, and as its last line one
// JSON result object. Usually started through run.py, which builds it.
//
//   vdcbench --workload discovery|campaign|lineage --seed N --seconds S
//            --trace 0|1 --scratch DIR [--trace-out FILE]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "vdcbench: %s\nusage: vdcbench --workload "
               "discovery|campaign|lineage --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "vdcbench: refusing to report numbers from a build without "
               "NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  vdcbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0) || options.seconds > 600) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");
  if (options.scratch.empty()) return Usage("--scratch is required");

  vdg::Logger::set_threshold(vdg::LogLevel::kError);
  vdcbench::Outcome outcome;
  std::string error;
  if (!vdcbench::RunWorkload(options, &outcome, &error)) {
    std::fprintf(stderr, "vdcbench: %s\n", error.c_str());
    return 1;
  }

  for (const std::string& line : outcome.lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("context: %s\n", outcome.context.str().c_str());
  vdcbench::JsonObject metrics;
  for (const vdcbench::Metric& m : outcome.metrics) {
    vdcbench::JsonObject entry;
    entry.Add("value", m.value).Add("unit", m.unit);
    metrics.Add(m.name, entry);
  }
  vdcbench::JsonObject result;
  result.Add("correct", outcome.correct)
      .Add("attempted", outcome.attempted)
      .Add("failed", outcome.failed)
      .Add("metrics", metrics);
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
