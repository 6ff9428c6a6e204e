#include "workload/interactive.h"

namespace vdg {
namespace workload {

namespace {

/// `prefix` followed by `n`, appended piece by piece: GCC 12 at -O3
/// misreports -Wrestrict inside "literal" + std::string&&.
std::string Numbered(const char* prefix, int n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

}  // namespace

Result<InteractiveWorkload> GenerateInteractive(
    VirtualDataCatalog* catalog, const InteractiveOptions& options) {
  if (catalog == nullptr) return Status::InvalidArgument("null catalog");
  if (options.num_iterations <= 0 || options.cuts_per_iteration <= 0) {
    return Status::InvalidArgument("interactive workload needs iterations");
  }

  auto ensure_content = [catalog](const std::string& name) -> Status {
    if (catalog->HasType(TypeDimension::kContent, name)) {
      return Status::OK();
    }
    return catalog->DefineType(
        TypeDimension::kContent, name,
        TypeDimensionBaseName(TypeDimension::kContent));
  };
  VDG_RETURN_IF_ERROR(ensure_content("Event-store"));
  VDG_RETURN_IF_ERROR(ensure_content("Cut-set"));
  VDG_RETURN_IF_ERROR(ensure_content("Histogram"));
  VDG_RETURN_IF_ERROR(ensure_content("Physics-graph"));

  auto content_type = [](const char* name) {
    DatasetType type;
    type.content = name;
    return type;
  };

  InteractiveWorkload workload;

  // The shared event store: rows in a relational store, the paper's
  // "multi-modal" case.
  Dataset events;
  events.name = options.prefix + ".events";
  events.type = content_type("Event-store");
  events.size_bytes = 512LL * 1024 * 1024;
  events.descriptor = DatasetDescriptor::SqlRows("cms-events", "events",
                                                 "run-1000", "run-2000");
  workload.event_store = events.name;
  VDG_RETURN_IF_ERROR(catalog->DefineDataset(std::move(events)));

  // Histogram combiner (one version is enough; the *analysis* code is
  // what changes between iterations).
  {
    Transformation hist(options.prefix + "-histogram",
                        Transformation::Kind::kSimple);
    FormalArg in{.name = "cuts",
                 .direction = ArgDirection::kIn,
                 .types = {content_type("Cut-set")}};
    FormalArg out{.name = "hist",
                  .direction = ArgDirection::kOut,
                  .types = {content_type("Histogram")}};
    FormalArg variable{.name = "variable", .direction = ArgDirection::kNone};
    variable.default_string = "pt";
    FormalArg bins{.name = "bins", .direction = ArgDirection::kNone};
    bins.default_string = std::to_string(options.points_per_histogram);
    VDG_RETURN_IF_ERROR(hist.AddArg(std::move(in)));
    VDG_RETURN_IF_ERROR(hist.AddArg(std::move(out)));
    VDG_RETURN_IF_ERROR(hist.AddArg(std::move(variable)));
    VDG_RETURN_IF_ERROR(hist.AddArg(std::move(bins)));
    ArgumentTemplate arg;
    arg.name = "stdin";
    arg.expr = {TemplatePiece::Ref("cuts", ArgDirection::kIn)};
    hist.AddArgumentTemplate(std::move(arg));
    ArgumentTemplate out_arg;
    out_arg.name = "stdout";
    out_arg.expr = {TemplatePiece::Ref("hist", ArgDirection::kOut)};
    hist.AddArgumentTemplate(std::move(out_arg));
    hist.set_executable("/opt/root/bin/makehist");
    hist.annotations().Set("sim.runtime_s", options.hist_runtime_s);
    hist.annotations().Set("sim.output_mb", 0.1);
    VDG_RETURN_IF_ERROR(catalog->DefineTransformation(std::move(hist)));
  }

  // Graph combiner: variable arity over all histograms produced in
  // the session.
  int total_hists = options.num_iterations * options.cuts_per_iteration;
  {
    Transformation graph(options.prefix + "-graph",
                         Transformation::Kind::kSimple);
    for (int h = 0; h < total_hists; ++h) {
      const std::string name = Numbered("h", h);
      FormalArg in;
      in.name = name;
      in.direction = ArgDirection::kIn;
      in.types = {content_type("Histogram")};
      VDG_RETURN_IF_ERROR(graph.AddArg(std::move(in)));
      ArgumentTemplate arg;
      arg.name = name;
      arg.expr = {TemplatePiece::Literal("-h "),
                  TemplatePiece::Ref(name, ArgDirection::kIn)};
      graph.AddArgumentTemplate(std::move(arg));
    }
    FormalArg out{.name = "graph",
                  .direction = ArgDirection::kOut,
                  .types = {content_type("Physics-graph")}};
    VDG_RETURN_IF_ERROR(graph.AddArg(std::move(out)));
    ArgumentTemplate out_arg;
    out_arg.name = "stdout";
    out_arg.expr = {TemplatePiece::Ref("graph", ArgDirection::kOut)};
    graph.AddArgumentTemplate(std::move(out_arg));
    graph.set_executable("/opt/root/bin/combine");
    graph.annotations().Set("sim.runtime_s", 2.0);
    graph.annotations().Set("sim.output_mb", 0.05);
    VDG_RETURN_IF_ERROR(catalog->DefineTransformation(std::move(graph)));
  }

  // Iterations: a new version of the select code each time.
  for (int it = 0; it < options.num_iterations; ++it) {
    std::string version = Numbered("v", it + 1);
    std::string select_name = options.prefix + "-select-" + version;
    Transformation select(select_name, Transformation::Kind::kSimple);
    FormalArg in{.name = "events",
                 .direction = ArgDirection::kIn,
                 .types = {content_type("Event-store")}};
    FormalArg out{.name = "cuts",
                  .direction = ArgDirection::kOut,
                  .types = {content_type("Cut-set")}};
    FormalArg cut{.name = "cut", .direction = ArgDirection::kNone};
    VDG_RETURN_IF_ERROR(select.AddArg(std::move(in)));
    VDG_RETURN_IF_ERROR(select.AddArg(std::move(out)));
    VDG_RETURN_IF_ERROR(select.AddArg(std::move(cut)));
    ArgumentTemplate cut_arg;
    cut_arg.name = "cut";
    cut_arg.expr = {TemplatePiece::Literal("-c "),
                    TemplatePiece::Ref("cut", ArgDirection::kNone)};
    select.AddArgumentTemplate(std::move(cut_arg));
    ArgumentTemplate in_arg;
    in_arg.name = "stdin";
    in_arg.expr = {TemplatePiece::Ref("events", ArgDirection::kIn)};
    select.AddArgumentTemplate(std::move(in_arg));
    ArgumentTemplate out_arg;
    out_arg.name = "stdout";
    out_arg.expr = {TemplatePiece::Ref("cuts", ArgDirection::kOut)};
    select.AddArgumentTemplate(std::move(out_arg));
    select.set_executable("/home/phys/select-" + version);
    select.set_version(version);
    select.annotations().Set("sim.runtime_s", options.select_runtime_s);
    select.annotations().Set("sim.output_mb", 4.0);
    select.annotations().Set("code.version", version);
    VDG_RETURN_IF_ERROR(catalog->DefineTransformation(std::move(select)));
    workload.analysis_codes.push_back(select_name);

    for (int c = 0; c < options.cuts_per_iteration; ++c) {
      std::string tag =
          version + ".cut" + std::to_string(c);
      std::string cutset = options.prefix + ".cutset." + tag;
      Derivation dv(options.prefix + "-select-" + tag, select_name);
      VDG_RETURN_IF_ERROR(dv.AddArg(ActualArg::DatasetRef(
          "events", workload.event_store, ArgDirection::kIn)));
      VDG_RETURN_IF_ERROR(dv.AddArg(
          ActualArg::DatasetRef("cuts", cutset, ArgDirection::kOut)));
      VDG_RETURN_IF_ERROR(dv.AddArg(ActualArg::String(
          "cut", Numbered("pt>", 20 + 5 * c) + "GeV")));
      VDG_RETURN_IF_ERROR(catalog->DefineDerivation(std::move(dv)));
      workload.cut_sets.push_back(cutset);
      ++workload.derivation_count;

      std::string hist = options.prefix + ".hist." + tag;
      Derivation hv(options.prefix + "-hist-" + tag,
                    options.prefix + "-histogram");
      VDG_RETURN_IF_ERROR(hv.AddArg(
          ActualArg::DatasetRef("cuts", cutset, ArgDirection::kIn)));
      VDG_RETURN_IF_ERROR(
          hv.AddArg(ActualArg::DatasetRef("hist", hist, ArgDirection::kOut)));
      VDG_RETURN_IF_ERROR(catalog->DefineDerivation(std::move(hv)));
      workload.histograms.push_back(hist);
      ++workload.derivation_count;
    }
  }

  // The final graph over every histogram of the session.
  workload.final_graph = options.prefix + ".graph.final";
  Derivation graph_dv(options.prefix + "-graph-final",
                      options.prefix + "-graph");
  for (int h = 0; h < total_hists; ++h) {
    VDG_RETURN_IF_ERROR(graph_dv.AddArg(ActualArg::DatasetRef(
        Numbered("h", h), workload.histograms[static_cast<size_t>(h)],
        ArgDirection::kIn)));
  }
  VDG_RETURN_IF_ERROR(graph_dv.AddArg(ActualArg::DatasetRef(
      "graph", workload.final_graph, ArgDirection::kOut)));
  VDG_RETURN_IF_ERROR(catalog->DefineDerivation(std::move(graph_dv)));
  ++workload.derivation_count;

  return workload;
}

}  // namespace workload
}  // namespace vdg
