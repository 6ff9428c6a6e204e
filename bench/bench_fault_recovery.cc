// EXP-FAULT — the fault-tolerance experiment: canonical derivation
// DAGs executed on the GriPhyN testbed under injected faults (random
// job/transfer failures plus a mid-run site crash that destroys
// unpinned replicas), driven by the recovery engine's backoff,
// failover, and lost-input re-derivation machinery.
//
// Headline counter: `success_rate` — the fraction of workflows that
// complete despite the faults. With 10% job + 10% transfer failure
// rates and a mid-run crash, the retry budget must carry >= 99% of
// workflows to completion (tools/run_bench.sh asserts this into
// BENCH_fault.json).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "executor/executor.h"
#include "grid/simulator.h"
#include "planner/planner.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

constexpr const char* kSites[] = {"uchicago", "wisconsin", "fermilab",
                                  "caltech"};

struct RunOutcome {
  WorkflowResult result;
  bool ok = false;
};

// One full workflow under faults: a fresh catalog + grid (seeded), a
// canonical DAG with raw inputs pinned at every site, and the
// recovery-enabled engine executing the first sink.
RunOutcome RunFaultyWorkflow(uint64_t seed, double job_rate,
                             double transfer_rate, bool crash_mid_run) {
  Logger::set_threshold(LogLevel::kError);
  RunOutcome out;
  VirtualDataCatalog catalog("fault-" + std::to_string(seed));
  if (!catalog.Open().ok()) return out;
  workload::CanonicalGraphOptions options;
  options.num_derivations = 24;
  options.num_raw_inputs = 6;
  options.seed = seed;
  Result<workload::CanonicalGraph> graph =
      workload::GenerateCanonicalGraph(&catalog, options);
  if (!graph.ok() || graph->sinks.empty()) return out;

  GridSimulator grid(workload::GriphynTestbed(), seed);
  grid.set_job_failure_rate(job_rate);
  grid.set_transfer_failure_rate(transfer_rate);
  for (const std::string& raw : graph->raw_inputs) {
    for (const char* site : kSites) {
      if (!grid.PlaceFile(site, raw, 1 << 20, true).ok()) return out;
      Replica replica;
      replica.dataset = raw;
      replica.site = site;
      replica.size_bytes = 1 << 20;
      if (!catalog.AddReplica(std::move(replica)).ok()) return out;
    }
  }
  if (crash_mid_run) {
    // wisconsin crashes early in the run and is gone for 60 simulated
    // seconds: running jobs die, unpinned intermediates are wiped.
    if (!grid.ScheduleOutage("wisconsin", 6.0, 60.0, /*crash=*/true)
             .ok()) {
      return out;
    }
  }

  CostEstimator estimator;
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
  PlannerOptions popt;
  popt.target_site = "uchicago";
  if (crash_mid_run) {
    // Spread nodes across all four sites so the crashed one actually
    // holds running jobs and freshly materialized replicas.
    popt.site_policy = SiteSelectionPolicy::kRoundRobin;
  }
  Result<ExecutionPlan> plan = planner.Plan(graph->sinks.front(), popt);
  if (!plan.ok()) return out;

  ExecutorOptions eopt;
  eopt.max_retries = 10;
  eopt.faults.backoff_base_s = 2.0;
  eopt.faults.rederive_lost_inputs = true;
  WorkflowEngine engine(&grid, client, eopt);
  Result<WorkflowResult> result = engine.Execute(*plan);
  if (!result.ok()) return out;
  out.result = *result;
  out.ok = true;
  return out;
}

void AccumulateCounters(benchmark::State& state, uint64_t runs,
                        uint64_t successes, const RecoveryStats& total,
                        double makespan_total) {
  double n = runs > 0 ? static_cast<double>(runs) : 1.0;
  state.counters["runs"] = static_cast<double>(runs);
  state.counters["success_rate"] =
      runs > 0 ? static_cast<double>(successes) / n : 0.0;
  state.counters["job_failures_per_run"] =
      static_cast<double>(total.job_failures) / n;
  state.counters["transfer_failures_per_run"] =
      static_cast<double>(total.transfer_failures) / n;
  state.counters["submit_rejections_per_run"] =
      static_cast<double>(total.submit_rejections) / n;
  state.counters["backoff_s_per_run"] = total.total_backoff_s / n;
  state.counters["failovers_per_run"] =
      static_cast<double>(total.failovers) / n;
  state.counters["rederivations_per_run"] =
      static_cast<double>(total.rederivations) / n;
  state.counters["replicas_lost_per_run"] =
      static_cast<double>(total.replicas_lost_detected) / n;
  state.counters["sim_makespan_s_avg"] = makespan_total / n;
}

void Accumulate(RecoveryStats* total, const RecoveryStats& r) {
  total->job_attempts += r.job_attempts;
  total->job_failures += r.job_failures;
  total->transfer_attempts += r.transfer_attempts;
  total->transfer_failures += r.transfer_failures;
  total->submit_rejections += r.submit_rejections;
  total->backoff_waits += r.backoff_waits;
  total->total_backoff_s += r.total_backoff_s;
  total->node_timeouts += r.node_timeouts;
  total->failovers += r.failovers;
  total->sites_blacklisted += r.sites_blacklisted;
  total->replicas_lost_detected += r.replicas_lost_detected;
  total->rederivations += r.rederivations;
  total->datasets_regenerated += r.datasets_regenerated;
}

// Fault-rate matrix without a crash: args are percentages.
void BM_FaultSweep(benchmark::State& state) {
  double job_rate = static_cast<double>(state.range(0)) / 100.0;
  double transfer_rate = static_cast<double>(state.range(1)) / 100.0;
  uint64_t seed = 1;
  uint64_t runs = 0;
  uint64_t successes = 0;
  RecoveryStats total;
  double makespan_total = 0;
  for (auto _ : state) {
    RunOutcome out = RunFaultyWorkflow(seed++, job_rate, transfer_rate,
                                       /*crash_mid_run=*/false);
    if (!out.ok) std::abort();
    ++runs;
    if (out.result.succeeded) ++successes;
    Accumulate(&total, out.result.recovery);
    makespan_total += out.result.makespan_s;
  }
  state.SetItemsProcessed(static_cast<int64_t>(runs));
  state.counters["job_fail_pct"] = static_cast<double>(state.range(0));
  state.counters["transfer_fail_pct"] =
      static_cast<double>(state.range(1));
  AccumulateCounters(state, runs, successes, total, makespan_total);
}
BENCHMARK(BM_FaultSweep)
    ->Args({0, 0})
    ->Args({5, 5})
    ->Args({10, 10})
    ->Args({20, 10})
    ->Args({20, 20})
    ->Unit(benchmark::kMillisecond);

// The acceptance scenario: 10%/10% fault rates plus a mid-run crash
// of an entire site (with replica loss). success_rate must stay
// >= 0.99.
void BM_CrashRecovery(benchmark::State& state) {
  double job_rate = static_cast<double>(state.range(0)) / 100.0;
  double transfer_rate = static_cast<double>(state.range(1)) / 100.0;
  uint64_t seed = 1000;
  uint64_t runs = 0;
  uint64_t successes = 0;
  RecoveryStats total;
  double makespan_total = 0;
  for (auto _ : state) {
    RunOutcome out = RunFaultyWorkflow(seed++, job_rate, transfer_rate,
                                       /*crash_mid_run=*/true);
    if (!out.ok) std::abort();
    ++runs;
    if (out.result.succeeded) ++successes;
    Accumulate(&total, out.result.recovery);
    makespan_total += out.result.makespan_s;
  }
  state.SetItemsProcessed(static_cast<int64_t>(runs));
  state.counters["job_fail_pct"] = static_cast<double>(state.range(0));
  state.counters["transfer_fail_pct"] =
      static_cast<double>(state.range(1));
  AccumulateCounters(state, runs, successes, total, makespan_total);
}
BENCHMARK(BM_CrashRecovery)
    ->Args({10, 10})
    ->Unit(benchmark::kMillisecond);

// Cost of the virtual-data recovery promise: a consumer whose input
// replicas were silently destroyed re-derives them from the catalog's
// derivation record instead of failing.
void BM_LostInputRederivation(benchmark::State& state) {
  Logger::set_threshold(LogLevel::kError);
  uint64_t seed = 7;
  uint64_t rederivations = 0;
  uint64_t runs = 0;
  uint64_t successes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    VirtualDataCatalog catalog("rederive-" + std::to_string(seed));
    if (!catalog.Open().ok()) std::abort();
    if (!catalog
             .ImportVdl("TR conv( output out, input in ) {"
                        "  argument stdin = ${input:in};"
                        "  argument stdout = ${output:out};"
                        "  exec = \"/bin/conv\"; }"
                        "DS raw : Dataset size=\"1048576\";"
                        "DV mkMid->conv( out=@{output:\"mid\"},"
                        "               in=@{input:\"raw\"} );"
                        "DV mkOut->conv( out=@{output:\"out\"},"
                        "               in=@{input:\"mid\"} );")
             .ok()) {
      std::abort();
    }
    GridSimulator grid(workload::SmallTestbed(), seed++);
    if (!grid.PlaceFile("east", "raw", 1 << 20, true).ok()) std::abort();
    Replica replica;
    replica.dataset = "raw";
    replica.site = "east";
    replica.size_bytes = 1 << 20;
    if (!catalog.AddReplica(std::move(replica)).ok()) std::abort();

    CostEstimator estimator;
    InProcessCatalogClient client(&catalog);
    RequestPlanner planner(client, grid.topology(), &grid.rls(),
                           estimator);
    PlannerOptions popt;
    popt.target_site = "east";
    ExecutorOptions eopt;
    eopt.faults.rederive_lost_inputs = true;
    {
      // Materialize mid, then destroy its only physical copy while the
      // catalog still claims a replica.
      WorkflowEngine warm(&grid, client, eopt);
      Result<ExecutionPlan> plan = planner.Plan("mid", popt);
      if (!plan.ok() || !warm.Execute(*plan)->succeeded) std::abort();
      for (const char* site : {"east", "west"}) {
        if (grid.rls().ExistsAt("mid", site)) {
          if (!grid.EvictFile(site, "mid").ok()) std::abort();
        }
      }
    }
    Result<ExecutionPlan> plan = planner.Plan("out", popt);
    if (!plan.ok()) std::abort();
    WorkflowEngine engine(&grid, client, eopt);
    state.ResumeTiming();

    Result<WorkflowResult> result = engine.Execute(*plan);
    if (!result.ok()) std::abort();
    ++runs;
    if (result->succeeded) ++successes;
    rederivations += result->recovery.rederivations;
  }
  state.SetItemsProcessed(static_cast<int64_t>(runs));
  state.counters["runs"] = static_cast<double>(runs);
  state.counters["success_rate"] =
      runs > 0 ? static_cast<double>(successes) / runs : 0.0;
  state.counters["rederivations_per_run"] =
      runs > 0 ? static_cast<double>(rederivations) / runs : 0.0;
}
BENCHMARK(BM_LostInputRederivation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vdg
