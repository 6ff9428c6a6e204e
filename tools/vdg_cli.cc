// vdg — command-line interface to a persistent Virtual Data Catalog,
// in the spirit of Chimera's vdlt tool: define virtual data in VDL,
// query it, plan and (simulated-)run materializations, and trace
// provenance, all against a journal file on disk.
//
// Usage:
//   vdg init <catalog.vdc>
//   vdg import <catalog.vdc> <file.vdl>
//   vdg list <catalog.vdc> [datasets|transformations|derivations|
//                           replicas|invocations]
//   vdg show <catalog.vdc> <object-name>
//   vdg search <catalog.vdc> <name-prefix> [--materialized|--virtual]
//   vdg lineage <catalog.vdc> <dataset> [--fed]
//   vdg audit <catalog.vdc> <dataset>
//   vdg invalidate <catalog.vdc> <dataset>
//   vdg plan <catalog.vdc> <dataset> [--site <site>] [--dax]
//   vdg run <catalog.vdc> <dataset> [--site <site>]
//   vdg xml <catalog.vdc> <object-name>
//
// plan/run use the built-in two-site testbed (east/west); raw input
// datasets without replica records are assumed staged at the target
// site (this is a simulation tool — see README).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "federation/registry.h"
#include "planner/dax.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
#include "vdl/printer.h"
#include "vdl/xml.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "vdg: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: vdg <command> <catalog.vdc> [args]\n"
      "commands: init, import, list, show, search, lineage, audit,\n"
      "          invalidate, plan, run, xml, dump, compact\n");
  return 2;
}

Result<std::unique_ptr<VirtualDataCatalog>> OpenCatalog(
    const std::string& path) {
  auto catalog = std::make_unique<VirtualDataCatalog>(
      "local", std::make_unique<FileJournal>(path));
  VDG_RETURN_IF_ERROR(catalog->Open());
  return catalog;
}

int CmdInit(const std::string& path) {
  std::ifstream probe(path);
  if (probe.good()) {
    return Fail(Status::AlreadyExists("catalog already exists: " + path));
  }
  Result<std::unique_ptr<VirtualDataCatalog>> catalog = OpenCatalog(path);
  if (!catalog.ok()) return Fail(catalog.status());
  Status preset = (*catalog)->LoadTypePreset();
  if (!preset.ok()) return Fail(preset);
  Status synced = (*catalog)->SyncJournal();
  if (!synced.ok()) return Fail(synced);
  std::printf("initialized catalog %s (%zu preset type names)\n",
              path.c_str(), (*catalog)->TypesSnapshot().size());
  return 0;
}

int CmdImport(VirtualDataCatalog* catalog, const std::string& vdl_path) {
  std::ifstream in(vdl_path);
  if (!in.good()) {
    return Fail(Status::IoError("cannot read " + vdl_path));
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  CatalogStats before = catalog->Stats();
  Status imported = catalog->ImportVdl(buffer.str());
  if (!imported.ok()) return Fail(imported);
  Status synced = catalog->SyncJournal();
  if (!synced.ok()) return Fail(synced);
  CatalogStats after = catalog->Stats();
  std::printf("imported: +%zu datasets, +%zu transformations, "
              "+%zu derivations\n",
              after.datasets - before.datasets,
              after.transformations - before.transformations,
              after.derivations - before.derivations);
  return 0;
}

int CmdList(const VirtualDataCatalog& catalog, const std::string& kind) {
  auto print_all = [](const NameList& names, const char* label) {
    std::printf("%s (%zu):\n", label, names.size());
    for (std::string_view name : names) {
      std::printf("  %.*s\n", static_cast<int>(name.size()), name.data());
    }
  };
  if (kind.empty() || kind == "datasets") {
    print_all(catalog.AllDatasetNames(), "datasets");
  }
  if (kind.empty() || kind == "transformations") {
    print_all(catalog.AllTransformationNames(), "transformations");
  }
  if (kind.empty() || kind == "derivations") {
    print_all(catalog.AllDerivationNames(), "derivations");
  }
  if (kind == "replicas") print_all(catalog.AllReplicaIds(), "replicas");
  if (kind == "invocations") {
    print_all(catalog.AllInvocationIds(), "invocations");
  }
  return 0;
}

int CmdShow(const VirtualDataCatalog& catalog, const std::string& name) {
  if (Result<Dataset> ds = catalog.GetDataset(name); ds.ok()) {
    std::printf("%s", PrintDatasetDecl(*ds).c_str());
    std::printf("  materialized: %s\n",
                catalog.IsMaterialized(name) ? "yes" : "no (virtual)");
    for (const Replica& replica : catalog.ReplicasOf(name, false)) {
      std::printf("  replica %s at %s/%s (%lld bytes)%s\n",
                  replica.id.c_str(), replica.site.c_str(),
                  replica.storage_element.c_str(),
                  static_cast<long long>(replica.size_bytes),
                  replica.valid ? "" : " [invalid]");
    }
    if (!ds->annotations.empty()) {
      std::printf("  annotations: %s\n", ds->annotations.ToString().c_str());
    }
    return 0;
  }
  if (Result<Transformation> tr = catalog.GetTransformation(name); tr.ok()) {
    std::printf("%s", PrintTransformation(*tr).c_str());
    std::printf("  signature: %s\n", tr->TypeSignature().c_str());
    if (!tr->annotations().empty()) {
      std::printf("  annotations: %s\n",
                  tr->annotations().ToString().c_str());
    }
    return 0;
  }
  if (Result<Derivation> dv = catalog.GetDerivation(name); dv.ok()) {
    std::printf("%s", PrintDerivation(*dv).c_str());
    std::vector<Invocation> invocations = catalog.InvocationsOf(name);
    std::printf("  invocations: %zu\n", invocations.size());
    for (const Invocation& iv : invocations) {
      std::printf("    %s at %s/%s t=%.1f (%.1fs)%s\n", iv.id.c_str(),
                  iv.context.site.c_str(), iv.context.host.c_str(),
                  iv.start_time, iv.duration_s,
                  iv.succeeded ? "" : " FAILED");
    }
    return 0;
  }
  return Fail(Status::NotFound("no object named " + name));
}

// `vdg search <cat> <prefix> [--materialized|--virtual]
//              [--where key=value]...`
int CmdSearch(const VirtualDataCatalog& catalog, const std::string& prefix,
              const std::vector<std::string>& args) {
  DatasetQuery query;
  query.name_prefix = prefix == "*" ? "" : prefix;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--materialized") query.require_materialized = true;
    if (args[i] == "--virtual") query.only_virtual = true;
    if (args[i] == "--where" && i + 1 < args.size()) {
      size_t eq = args[i + 1].find('=');
      if (eq == std::string::npos) {
        return Fail(Status::InvalidArgument("--where expects key=value"));
      }
      query.predicates.push_back(
          {args[i + 1].substr(0, eq), PredicateOp::kEq,
           AttributeValue(args[i + 1].substr(eq + 1))});
      ++i;
    }
  }
  for (std::string_view name : catalog.FindDatasets(query)) {
    std::printf("%.*s%s\n", static_cast<int>(name.size()), name.data(),
                catalog.IsMaterialized(name) ? "" : "  (virtual)");
  }
  return 0;
}

int CmdLineage(VirtualDataCatalog* catalog, const std::string& dataset,
               bool federated) {
  // Federated: the same walk resolves inputs through a registry, so
  // vdp:// hyperlinks hop servers and node names are vdp:// qualified.
  CatalogRegistry registry;
  if (federated) {
    Status registered = registry.Register(catalog);
    if (!registered.ok()) return Fail(registered);
  }
  InProcessCatalogClient client(catalog);
  ProvenanceTracker tracker(client, federated ? &registry : nullptr);
  Result<LineageNode> lineage = tracker.Lineage(dataset);
  if (!lineage.ok()) return Fail(lineage.status());
  std::printf("%s", RenderLineage(*lineage).c_str());
  return 0;
}

int CmdAudit(const VirtualDataCatalog& catalog, const std::string& dataset) {
  InProcessCatalogClient client(&catalog);
  ProvenanceTracker tracker(client);
  Result<std::vector<Invocation>> trail = tracker.AuditTrail(dataset);
  if (!trail.ok()) return Fail(trail.status());
  for (const Invocation& iv : *trail) {
    std::printf("t=%-10.1f %-24s %s/%s (%.1fs)%s\n", iv.start_time,
                iv.derivation.c_str(), iv.context.site.c_str(),
                iv.context.host.c_str(), iv.duration_s,
                iv.succeeded ? "" : " FAILED");
  }
  return 0;
}

int CmdInvalidate(VirtualDataCatalog* catalog, const std::string& dataset) {
  InProcessCatalogClient client(catalog);
  ProvenanceTracker tracker(client);
  Result<InvalidationReport> report = tracker.Invalidate(dataset);
  if (!report.ok()) return Fail(report.status());
  Status synced = catalog->SyncJournal();
  if (!synced.ok()) return Fail(synced);
  std::printf("invalidated %zu replica(s) across %zu derived dataset(s); "
              "%zu derivation(s) need re-running:\n",
              report->invalidated_replicas.size(),
              report->affected_datasets.size(),
              report->derivations_to_rerun.size());
  for (const std::string& dv : report->derivations_to_rerun) {
    std::printf("  %s\n", dv.c_str());
  }
  return 0;
}

// Shared setup for plan/run: testbed + assumed staging of raw inputs.
struct Session {
  GridSimulator grid{workload::SmallTestbed(), 1};
  CostEstimator estimator;
  std::string site;
};

Status StageRawInputs(Session* session, VirtualDataCatalog* catalog,
                      const std::string& dataset) {
  InProcessCatalogClient client(catalog);
  ProvenanceTracker tracker(client);
  VDG_ASSIGN_OR_RETURN(std::set<std::string> raw,
                       tracker.RawSources(dataset));
  for (const std::string& name : raw) {
    VDG_ASSIGN_OR_RETURN(Dataset ds, catalog->GetDataset(name));
    int64_t bytes = ds.size_bytes > 0 ? ds.size_bytes : 1 << 20;
    std::vector<Replica> replicas = catalog->ReplicasOf(name);
    if (replicas.empty()) {
      std::printf("note: assuming raw input %s staged at %s\n",
                  name.c_str(), session->site.c_str());
      Replica replica;
      replica.dataset = name;
      replica.site = session->site;
      replica.size_bytes = bytes;
      VDG_RETURN_IF_ERROR(catalog->AddReplica(std::move(replica)).status());
      replicas = catalog->ReplicasOf(name);
    }
    for (const Replica& replica : replicas) {
      Status placed =
          session->grid.PlaceFile(replica.site, name, bytes, true);
      if (!placed.ok() && !placed.IsAlreadyExists()) return placed;
    }
  }
  return Status::OK();
}

int CmdPlan(VirtualDataCatalog* catalog, const std::string& dataset,
            const std::string& site, bool emit_dax) {
  Session session;
  session.site = site;
  Status staged = StageRawInputs(&session, catalog, dataset);
  if (!staged.ok()) return Fail(staged);
  InProcessCatalogClient client(catalog);
  RequestPlanner planner(client, session.grid.topology(),
                         &session.grid.rls(), session.estimator);
  PlannerOptions options;
  options.target_site = site;
  Result<ExecutionPlan> plan = planner.Plan(dataset, options);
  if (!plan.ok()) return Fail(plan.status());
  if (emit_dax) {
    std::printf("%s", PlanToDax(*plan).c_str());
  } else {
    std::printf("%s", plan->ToString().c_str());
  }
  return 0;
}

int CmdRun(VirtualDataCatalog* catalog, const std::string& dataset,
           const std::string& site) {
  Session session;
  session.site = site;
  Status staged = StageRawInputs(&session, catalog, dataset);
  if (!staged.ok()) return Fail(staged);
  InProcessCatalogClient client(catalog);
  RequestPlanner planner(client, session.grid.topology(),
                         &session.grid.rls(), session.estimator);
  PlannerOptions options;
  options.target_site = site;
  Result<ExecutionPlan> plan = planner.Plan(dataset, options);
  if (!plan.ok()) return Fail(plan.status());
  std::printf("%s", plan->ToString().c_str());
  WorkflowEngine engine(&session.grid, client);
  Result<WorkflowResult> result = engine.Execute(*plan);
  if (!result.ok()) return Fail(result.status());
  Status synced = catalog->SyncJournal();
  if (!synced.ok()) return Fail(synced);
  std::printf("%s: %zu/%zu nodes in %.1f simulated seconds\n",
              result->succeeded ? "succeeded" : "FAILED",
              result->nodes_succeeded, result->nodes_total,
              result->makespan_s);
  return result->succeeded ? 0 : 1;
}

int CmdDump(const VirtualDataCatalog& catalog, bool as_xml) {
  if (as_xml) {
    std::printf("%s", ProgramToXml(catalog.ExportProgram()).c_str());
  } else {
    std::printf("%s", catalog.ExportVdl().c_str());
  }
  return 0;
}

int CmdCompact(VirtualDataCatalog* catalog) {
  Status compacted = catalog->CompactJournal();
  if (!compacted.ok()) return Fail(compacted);
  std::printf("journal compacted to %zu records\n",
              catalog->CurrentStateRecords().size());
  return 0;
}

int CmdXml(const VirtualDataCatalog& catalog, const std::string& name) {
  if (Result<Transformation> tr = catalog.GetTransformation(name); tr.ok()) {
    std::printf("%s", TransformationToXml(*tr).c_str());
    return 0;
  }
  if (Result<Derivation> dv = catalog.GetDerivation(name); dv.ok()) {
    std::printf("%s", DerivationToXml(*dv).c_str());
    return 0;
  }
  if (Result<Dataset> ds = catalog.GetDataset(name); ds.ok()) {
    std::printf("%s", DatasetToXml(*ds).c_str());
    return 0;
  }
  return Fail(Status::NotFound("no object named " + name));
}

int Main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string command = argv[1];
  std::string path = argv[2];
  std::vector<std::string> args;
  for (int i = 3; i < argc; ++i) args.emplace_back(argv[i]);

  auto arg_or = [&args](size_t i, const char* fallback) {
    return i < args.size() ? args[i] : std::string(fallback);
  };
  auto flag_value = [&args](const char* flag,
                            const char* fallback) -> std::string {
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == flag) return args[i + 1];
    }
    return fallback;
  };
  auto has_flag = [&args](const char* flag) {
    for (const std::string& a : args) {
      if (a == flag) return true;
    }
    return false;
  };

  if (command == "init") return CmdInit(path);

  Result<std::unique_ptr<VirtualDataCatalog>> catalog = OpenCatalog(path);
  if (!catalog.ok()) return Fail(catalog.status());
  VirtualDataCatalog& cat = **catalog;

  if (command == "import") {
    if (args.empty()) return Usage();
    return CmdImport(&cat, args[0]);
  }
  if (command == "list") return CmdList(cat, arg_or(0, ""));
  if (command == "show") {
    if (args.empty()) return Usage();
    return CmdShow(cat, args[0]);
  }
  if (command == "search") {
    if (args.empty()) return Usage();
    return CmdSearch(cat, args[0],
                     std::vector<std::string>(args.begin() + 1, args.end()));
  }
  if (command == "lineage") {
    if (args.empty()) return Usage();
    return CmdLineage(&cat, args[0], has_flag("--fed"));
  }
  if (command == "audit") {
    if (args.empty()) return Usage();
    return CmdAudit(cat, args[0]);
  }
  if (command == "invalidate") {
    if (args.empty()) return Usage();
    return CmdInvalidate(&cat, args[0]);
  }
  if (command == "plan") {
    if (args.empty()) return Usage();
    return CmdPlan(&cat, args[0], flag_value("--site", "east"),
                   has_flag("--dax"));
  }
  if (command == "run") {
    if (args.empty()) return Usage();
    return CmdRun(&cat, args[0], flag_value("--site", "east"));
  }
  if (command == "xml") {
    if (args.empty()) return Usage();
    return CmdXml(cat, args[0]);
  }
  if (command == "dump") return CmdDump(cat, has_flag("--xml"));
  if (command == "compact") return CmdCompact(&cat);
  return Usage();
}

}  // namespace
}  // namespace vdg

int main(int argc, char** argv) { return vdg::Main(argc, argv); }
