// FIG2 — Figure 2 depicts virtual-data hyperlinks between servers:
// transformation and derivation records referencing objects on other
// catalogs via vdp:// URIs (the Wisconsin/Illinois compound example).
// This bench measures reference resolution as the federation grows:
// local vs remote resolution cost, fetch-through, and compound
// definitions whose stages live on another server.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.h"
#include "federation/registry.h"

namespace vdg {
namespace {

struct Federation {
  std::vector<std::unique_ptr<VirtualDataCatalog>> catalogs;
  CatalogRegistry registry;
};

// N catalogs, each holding a `sim` and `cmp` transformation plus a
// compound whose stages point at the *next* catalog (a hyperlink ring).
Federation* BuildFederation(int n) {
  static std::map<int, std::unique_ptr<Federation>>* cache =
      new std::map<int, std::unique_ptr<Federation>>();
  auto it = cache->find(n);
  if (it != cache->end()) return it->second.get();

  Logger::set_threshold(LogLevel::kError);
  auto fed = std::make_unique<Federation>();
  for (int i = 0; i < n; ++i) {
    auto catalog = std::make_unique<VirtualDataCatalog>(
        "site" + std::to_string(i) + ".org");
    if (!catalog->Open().ok()) std::abort();
    if (!catalog
             ->ImportVdl("TR sim( output out, input in ) {"
                         "  argument stdin = ${input:in};"
                         "  argument stdout = ${output:out};"
                         "  exec = \"/bin/sim\"; }"
                         "TR cmp( output out, input in ) {"
                         "  argument stdin = ${input:in};"
                         "  argument stdout = ${output:out};"
                         "  exec = \"/bin/cmp\"; }")
             .ok()) {
      std::abort();
    }
    fed->catalogs.push_back(std::move(catalog));
  }
  for (int i = 0; i < n; ++i) {
    if (!fed->registry.Register(fed->catalogs[i].get()).ok()) std::abort();
  }
  // Each catalog defines "cmpsim" whose stages are hyperlinks to the
  // next server — the exact Figure 2 shape.
  for (int i = 0; i < n; ++i) {
    std::string next = "site" + std::to_string((i + 1) % n) + ".org";
    std::string vdl =
        "TR cmpsim( input a1, inout mid=@{inout:\"m\":\"\"}, output a2 ) {"
        "  \"vdp://" + next + "/sim\"( in=${input:a1}, out=${output:mid} );"
        "  \"vdp://" + next + "/cmp\"( in=${input:mid}, out=${output:a2} );"
        "}";
    if (!fed->catalogs[static_cast<size_t>(i)]->ImportVdl(vdl).ok()) {
      std::abort();
    }
  }
  Federation* raw = fed.get();
  cache->emplace(n, std::move(fed));
  return raw;
}

void BM_ResolveLocal(benchmark::State& state) {
  Federation* fed = BuildFederation(static_cast<int>(state.range(0)));
  CatalogClient* home = *fed->registry.Find(fed->catalogs[0]->name());
  for (auto _ : state) {
    Result<ResolvedRef> ref = fed->registry.Resolve(home, "sim");
    benchmark::DoNotOptimize(ref);
    if (!ref.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResolveLocal)->Arg(2)->Arg(8)->Arg(32);

void BM_ResolveRemoteVdp(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Federation* fed = BuildFederation(n);
  CatalogClient* home = *fed->registry.Find(fed->catalogs[0]->name());
  std::vector<std::string> refs;
  for (int i = 0; i < n; ++i) {
    refs.push_back("vdp://site" + std::to_string(i) + ".org/sim");
  }
  size_t i = 0;
  for (auto _ : state) {
    Result<ResolvedRef> ref =
        fed->registry.Resolve(home, refs[i++ % refs.size()]);
    benchmark::DoNotOptimize(ref);
    if (!ref.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["remote_lookups"] =
      static_cast<double>(fed->registry.remote_lookups());
}
BENCHMARK(BM_ResolveRemoteVdp)->Arg(2)->Arg(8)->Arg(32);

void BM_FetchRemoteTransformation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Federation* fed = BuildFederation(n);
  CatalogClient* home = *fed->registry.Find(fed->catalogs[0]->name());
  size_t i = 0;
  for (auto _ : state) {
    std::string ref =
        "vdp://site" + std::to_string(i++ % n) + ".org/cmpsim";
    Result<Transformation> tr =
        fed->registry.FetchTransformation(home, ref);
    benchmark::DoNotOptimize(tr);
    if (!tr.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FetchRemoteTransformation)->Arg(2)->Arg(8)->Arg(32);

void BM_ImportTransformationAcrossServers(benchmark::State& state) {
  Federation* fed = BuildFederation(4);
  CatalogClient* home = *fed->registry.Find(fed->catalogs[0]->name());
  int64_t i = 0;
  for (auto _ : state) {
    // Import under a unique name each time by round-tripping through a
    // scratch catalog.
    VirtualDataCatalog scratch("scratch" + std::to_string(i++));
    if (!scratch.Open().ok()) std::abort();
    InProcessCatalogClient destination(&scratch);
    Status s = fed->registry.ImportTransformation(
        home, "vdp://site1.org/cmpsim", &destination);
    if (!s.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImportTransformationAcrossServers);

}  // namespace
}  // namespace vdg
