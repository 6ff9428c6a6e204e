#include "planner/plan.h"

#include "common/strings.h"

namespace vdg {

const char* ShippingPatternToString(ShippingPattern pattern) {
  switch (pattern) {
    case ShippingPattern::kCollocated:
      return "collocated";
    case ShippingPattern::kProcedureToData:
      return "procedure-to-data";
    case ShippingPattern::kDataToProcedure:
      return "data-to-procedure";
    case ShippingPattern::kShipBoth:
      return "ship-both";
  }
  return "?";
}

const char* MaterializationModeToString(MaterializationMode mode) {
  switch (mode) {
    case MaterializationMode::kAlreadyLocal:
      return "already-local";
    case MaterializationMode::kFetch:
      return "fetch";
    case MaterializationMode::kRerun:
      return "rerun";
  }
  return "?";
}

std::string ExecutionPlan::ToString() const {
  std::string out = "plan: materialize " + target_dataset + " at " +
                    target_site + " via " +
                    MaterializationModeToString(mode) + "\n";
  for (const TransferPlan& fetch : fetches) {
    out += "  fetch " + fetch.dataset + " " + fetch.from_site + " -> " +
           fetch.to_site + " (" + std::to_string(fetch.bytes) + " bytes, ~" +
           FormatDouble(fetch.est_seconds) + "s)\n";
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& node = nodes[i];
    out += "  [" + std::to_string(i) + "] " + node.derivation.name() + " (" +
           node.transformation + ") @ " + node.site + " ~" +
           FormatDouble(node.est_runtime_s) + "s " +
           ShippingPatternToString(node.pattern);
    if (!node.deps.empty()) {
      out += " deps:";
      // Appended piece by piece: GCC 12 at -O3 misreports -Wrestrict
      // inside " " + std::string&&.
      for (size_t dep : node.deps) {
        out += ' ';
        out += std::to_string(dep);
      }
    }
    for (const TransferPlan& stage : node.staging) {
      out += "\n      stage " + stage.dataset + " " + stage.from_site +
             " -> " + stage.to_site;
    }
    out += "\n";
  }
  out += "  est: compute=" + FormatDouble(est_compute_s) +
         "s transfer=" + FormatDouble(est_transfer_s) +
         "s makespan=" + FormatDouble(est_makespan_s) + "s\n";
  return out;
}

}  // namespace vdg
