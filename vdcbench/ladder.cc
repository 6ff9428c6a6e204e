#include "ladder.h"

#include <chrono>
#include <utility>

namespace vdcbench {

using vdg::wire::MsgKind;

namespace {

uint16_t K(MsgKind kind) { return static_cast<uint16_t>(kind); }

vdg::wire::Request MakeRequest(MsgKind kind, auto body) {
  vdg::wire::Request request;
  request.kind = kind;
  request.body = std::move(body);
  return request;
}

/// The response a server would send for `result`, as the codec sees it.
template <typename T, typename Wrap>
vdg::wire::Response MakeResponse(MsgKind kind, const vdg::Result<T>& result,
                                 Wrap wrap) {
  vdg::wire::Response response;
  response.kind = kind;
  if (result.ok()) {
    response.body = wrap(*result);
  } else {
    response.status = result.status();
  }
  return response;
}

}  // namespace

// ---------------------------------------------------------------------
// CodecSampler
// ---------------------------------------------------------------------

bool CodecSampler::Due() {
  if (!Tracer::enabled()) return false;
  return calls_.fetch_add(1, std::memory_order_relaxed) % every_ == 0;
}

void CodecSampler::Add(vdg::wire::Request request,
                       vdg::wire::Response response) {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() >= kMaxSamples) return;
  samples_.emplace_back(std::move(request), std::move(response));
}

std::vector<double> CodecSampler::ReplayMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> micros;
  micros.reserve(samples_.size());
  uint64_t id = 0;
  for (const auto& [request, response] : samples_) {
    const auto start = std::chrono::steady_clock::now();
    std::string req_frame = vdg::wire::EncodeRequestFrame(++id, request);
    vdg::Result<vdg::wire::Frame> req_env = vdg::wire::DecodeFrame(req_frame);
    bool ok = req_env.ok() &&
              vdg::wire::DecodeRequest(req_env->kind, req_env->payload).ok();
    std::string resp_frame = vdg::wire::EncodeResponseFrame(id, response);
    vdg::Result<vdg::wire::Frame> resp_env =
        vdg::wire::DecodeFrame(resp_frame);
    ok = ok && resp_env.ok() &&
         vdg::wire::DecodeResponse(resp_env->kind, resp_env->payload).ok();
    const auto end = std::chrono::steady_clock::now();
    if (!ok) continue;
    micros.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  return micros;
}

// ---------------------------------------------------------------------
// TracingClient
// ---------------------------------------------------------------------

vdg::Result<std::vector<uint64_t>> TracingClient::ShardVersions() {
  ScopedSpan span(layer_, kKindShardVersions, shard_);
  return inner_->ShardVersions();
}

vdg::Result<std::vector<vdg::CatalogChange>> TracingClient::ShardChangesSince(
    uint32_t shard, uint64_t since_version) {
  ScopedSpan span(layer_, kKindShardChangesSince, shard_);
  return inner_->ShardChangesSince(shard, since_version);
}

vdg::Result<uint64_t> TracingClient::Version() {
  vdg::Result<uint64_t> result = [&] {
    ScopedSpan span(layer_, K(MsgKind::kVersion), shard_);
    return inner_->Version();
  }();
  if (sampler_ && sampler_->Due()) {
    sampler_->Add(MakeRequest(MsgKind::kVersion, vdg::wire::EmptyReq{}),
                  MakeResponse(MsgKind::kVersion, result, [](uint64_t v) {
                    return vdg::wire::VersionResp{v};
                  }));
  }
  return result;
}

vdg::Result<std::vector<vdg::CatalogChange>> TracingClient::ChangesSince(
    uint64_t since_version) {
  vdg::Result<std::vector<vdg::CatalogChange>> result = [&] {
    ScopedSpan span(layer_, K(MsgKind::kChangesSince), shard_);
    return inner_->ChangesSince(since_version);
  }();
  if (sampler_ && sampler_->Due()) {
    sampler_->Add(
        MakeRequest(MsgKind::kChangesSince,
                    vdg::wire::ChangesSinceReq{since_version}),
        MakeResponse(MsgKind::kChangesSince, result,
                     [](const std::vector<vdg::CatalogChange>& changes) {
                       return vdg::wire::ChangesResp{changes};
                     }));
  }
  return result;
}

vdg::Result<vdg::Dataset> TracingClient::GetDataset(std::string_view name) {
  vdg::Result<vdg::Dataset> result = [&] {
    ScopedSpan span(layer_, K(MsgKind::kGetDataset), shard_);
    return inner_->GetDataset(name);
  }();
  if (sampler_ && sampler_->Due()) {
    sampler_->Add(
        MakeRequest(MsgKind::kGetDataset,
                    vdg::wire::NameReq{std::string(name)}),
        MakeResponse(MsgKind::kGetDataset, result,
                     [](const vdg::Dataset& d) {
                       return vdg::wire::DatasetResp{d};
                     }));
  }
  return result;
}

vdg::Result<vdg::Transformation> TracingClient::GetTransformation(
    std::string_view name) {
  ScopedSpan span(layer_, K(MsgKind::kGetTransformation), shard_);
  return inner_->GetTransformation(name);
}

vdg::Result<vdg::Derivation> TracingClient::GetDerivation(
    std::string_view name) {
  ScopedSpan span(layer_, K(MsgKind::kGetDerivation), shard_);
  return inner_->GetDerivation(name);
}

vdg::Result<bool> TracingClient::HasDataset(std::string_view name) {
  ScopedSpan span(layer_, K(MsgKind::kHasDataset), shard_);
  return inner_->HasDataset(name);
}

vdg::Result<bool> TracingClient::IsMaterialized(std::string_view dataset) {
  ScopedSpan span(layer_, K(MsgKind::kIsMaterialized), shard_);
  return inner_->IsMaterialized(dataset);
}

vdg::Result<std::string> TracingClient::ProducerOf(std::string_view dataset) {
  ScopedSpan span(layer_, K(MsgKind::kProducerOf), shard_);
  return inner_->ProducerOf(dataset);
}

vdg::Result<std::vector<vdg::Invocation>> TracingClient::InvocationsOf(
    std::string_view derivation) {
  ScopedSpan span(layer_, K(MsgKind::kInvocationsOf), shard_);
  return inner_->InvocationsOf(derivation);
}

vdg::Result<vdg::NameList> TracingClient::FindDatasets(
    const vdg::DatasetQuery& query) {
  vdg::Result<vdg::NameList> result = [&] {
    ScopedSpan span(layer_, K(MsgKind::kFindDatasets), shard_);
    return inner_->FindDatasets(query);
  }();
  if (sampler_ && sampler_->Due()) {
    sampler_->Add(
        MakeRequest(MsgKind::kFindDatasets, vdg::wire::FindDatasetsReq{query}),
        MakeResponse(MsgKind::kFindDatasets, result,
                     [](const vdg::NameList& names) {
                       return vdg::wire::NamesResp{names};
                     }));
  }
  return result;
}

vdg::Result<vdg::NameList> TracingClient::FindTransformations(
    const vdg::TransformationQuery& query) {
  ScopedSpan span(layer_, K(MsgKind::kFindTransformations), shard_);
  return inner_->FindTransformations(query);
}

vdg::Result<vdg::NameList> TracingClient::FindDerivations(
    const vdg::DerivationQuery& query) {
  vdg::Result<vdg::NameList> result = [&] {
    ScopedSpan span(layer_, K(MsgKind::kFindDerivations), shard_);
    return inner_->FindDerivations(query);
  }();
  if (sampler_ && sampler_->Due()) {
    sampler_->Add(MakeRequest(MsgKind::kFindDerivations,
                              vdg::wire::FindDerivationsReq{query}),
                  MakeResponse(MsgKind::kFindDerivations, result,
                               [](const vdg::NameList& names) {
                                 return vdg::wire::NamesResp{names};
                               }));
  }
  return result;
}

vdg::Result<vdg::NameList> TracingClient::AllNames(std::string_view kind) {
  ScopedSpan span(layer_, K(MsgKind::kAllNames), shard_);
  return inner_->AllNames(kind);
}

vdg::Result<bool> TracingClient::TypeConforms(
    const vdg::DatasetType& type, const vdg::DatasetType& against) {
  ScopedSpan span(layer_, K(MsgKind::kTypeConforms), shard_);
  return inner_->TypeConforms(type, against);
}

vdg::Result<std::vector<vdg::ObjectRecord>> TracingClient::BatchGet(
    const std::vector<vdg::ObjectKey>& keys) {
  ScopedSpan span(layer_, K(MsgKind::kBatchGet), shard_);
  return inner_->BatchGet(keys);
}

vdg::Result<vdg::ProvenanceStep> TracingClient::GetProvenanceStep(
    std::string_view dataset) {
  vdg::Result<vdg::ProvenanceStep> result = [&] {
    ScopedSpan span(layer_, K(MsgKind::kGetProvenanceStep), shard_);
    return inner_->GetProvenanceStep(dataset);
  }();
  if (sampler_ && sampler_->Due()) {
    sampler_->Add(MakeRequest(MsgKind::kGetProvenanceStep,
                              vdg::wire::NameReq{std::string(dataset)}),
                  MakeResponse(MsgKind::kGetProvenanceStep, result,
                               [](const vdg::ProvenanceStep& step) {
                                 return vdg::wire::StepResp{step};
                               }));
  }
  return result;
}

vdg::Status TracingClient::DefineDataset(vdg::Dataset dataset) {
  ScopedSpan span(layer_, K(MsgKind::kDefineDataset), shard_);
  return inner_->DefineDataset(std::move(dataset));
}

vdg::Status TracingClient::DefineTransformation(
    vdg::Transformation transformation) {
  ScopedSpan span(layer_, K(MsgKind::kDefineTransformation), shard_);
  return inner_->DefineTransformation(std::move(transformation));
}

vdg::Status TracingClient::DefineDerivation(vdg::Derivation derivation) {
  ScopedSpan span(layer_, K(MsgKind::kDefineDerivation), shard_);
  return inner_->DefineDerivation(std::move(derivation));
}

vdg::Status TracingClient::Annotate(std::string_view kind,
                                    std::string_view name,
                                    std::string_view key,
                                    vdg::AttributeValue value) {
  const bool sample = sampler_ && sampler_->Due();
  vdg::wire::Request request;
  if (sample) {
    request = MakeRequest(
        MsgKind::kAnnotate,
        vdg::wire::AnnotateReq{std::string(kind), std::string(name),
                               std::string(key), value});
  }
  vdg::Status status = [&] {
    ScopedSpan span(layer_, K(MsgKind::kAnnotate), shard_);
    return inner_->Annotate(kind, name, key, std::move(value));
  }();
  if (sample) {
    vdg::wire::Response response;
    response.kind = MsgKind::kAnnotate;
    response.status = status;
    sampler_->Add(std::move(request), std::move(response));
  }
  return status;
}

vdg::Result<std::string> TracingClient::AddReplica(vdg::Replica replica) {
  ScopedSpan span(layer_, K(MsgKind::kAddReplica), shard_);
  return inner_->AddReplica(std::move(replica));
}

vdg::Result<std::string> TracingClient::RecordInvocation(
    vdg::Invocation invocation) {
  ScopedSpan span(layer_, K(MsgKind::kRecordInvocation), shard_);
  return inner_->RecordInvocation(std::move(invocation));
}

vdg::Status TracingClient::SetDatasetSize(std::string_view name,
                                          int64_t size_bytes) {
  ScopedSpan span(layer_, K(MsgKind::kSetDatasetSize), shard_);
  return inner_->SetDatasetSize(name, size_bytes);
}

vdg::Status TracingClient::InvalidateReplica(std::string_view id) {
  ScopedSpan span(layer_, K(MsgKind::kInvalidateReplica), shard_);
  return inner_->InvalidateReplica(id);
}

vdg::Result<vdg::BatchResult> TracingClient::ApplyBatch(
    const std::vector<vdg::CatalogMutation>& mutations,
    const vdg::BatchOptions& options) {
  vdg::Result<vdg::BatchResult> result = [&] {
    ScopedSpan span(layer_, K(MsgKind::kApplyBatch), shard_);
    return inner_->ApplyBatch(mutations, options);
  }();
  if (sampler_ && sampler_->Due()) {
    sampler_->Add(MakeRequest(MsgKind::kApplyBatch,
                              vdg::wire::ApplyBatchReq{mutations, options}),
                  MakeResponse(MsgKind::kApplyBatch, result,
                               [](const vdg::BatchResult& r) {
                                 return vdg::wire::BatchResultResp{r};
                               }));
  }
  return result;
}

// ---------------------------------------------------------------------
// CountingJournal
// ---------------------------------------------------------------------

vdg::Status CountingJournal::Append(const std::string& record) {
  appends_.fetch_add(1, std::memory_order_relaxed);
  return inner_->Append(record);
}

vdg::Status CountingJournal::Flush() {
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return inner_->Flush();
}

vdg::Result<std::vector<std::string>> CountingJournal::ReadAll() {  // result-api-ok: journal records
  return inner_->ReadAll();
}

// ---------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------

void Service::Route(const std::string& id_tag) {
  shard_clients.clear();
  for (size_t k = 0; k < catalogs.size(); ++k) {
    shard_clients.push_back(std::make_shared<TracingClient>(
        std::make_shared<vdg::InProcessCatalogClient>(catalogs[k].get()),
        Layer::kShard, static_cast<uint8_t>(k)));
  }
  vdg::ShardedClientOptions options;
  options.id_tag = id_tag;
  sharded = std::make_shared<vdg::ShardedCatalogClient>(shard_clients,
                                                         options);
}

void Service::Serve(size_t workers) {
  backend = std::make_shared<TracingClient>(sharded, Layer::kBackend);
  vdg::ServerOptions options;
  options.workers = workers;
  server = std::make_unique<vdg::CatalogServer>(backend, options);
}

vdg::Status OpenMemoryShards(Service* service, uint32_t count) {
  for (uint32_t k = 0; k < count; ++k) {
    auto catalog = std::make_unique<vdg::VirtualDataCatalog>(
        "vdcbench-s" + std::to_string(k) + ".org");
    catalog->set_partition_mode(true);
    VDG_RETURN_IF_ERROR(catalog->Open());
    service->catalogs.push_back(std::move(catalog));
  }
  return vdg::Status::OK();
}

vdg::Status OpenSnapshotShards(Service* service, uint32_t count,
                               const std::string& dir, double* open_seconds,
                               std::string* fallback_reason) {
  *open_seconds = 0;
  for (uint32_t k = 0; k < count; ++k) {
    const std::string base = dir + "/shard-" + std::to_string(k);
    auto journal = std::make_unique<CountingJournal>(
        std::make_unique<vdg::FileJournal>(base + ".journal"));
    CountingJournal* counting = journal.get();
    auto catalog = std::make_unique<vdg::VirtualDataCatalog>(
        "vdcbench-s" + std::to_string(k) + ".org", std::move(journal));
    catalog->set_partition_mode(true);
    const auto start = std::chrono::steady_clock::now();
    VDG_RETURN_IF_ERROR(catalog->OpenFromSnapshot(base + ".snap"));
    *open_seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    const auto report = catalog->last_snapshot_load();
    if (!report.used && fallback_reason->empty()) {
      *fallback_reason = report.fallback_reason;
    }
    service->journals.push_back(counting);
    service->catalogs.push_back(std::move(catalog));
  }
  return vdg::Status::OK();
}

// ---------------------------------------------------------------------
// Client stacks
// ---------------------------------------------------------------------

void WireRegistry::Add(std::shared_ptr<vdg::WireCatalogClient> client) {
  std::lock_guard<std::mutex> lock(mu_);
  clients_.push_back(std::move(client));
}

vdg::WireClientStats WireRegistry::Total() const {
  std::lock_guard<std::mutex> lock(mu_);
  vdg::WireClientStats total;
  for (const auto& client : clients_) {
    const vdg::WireClientStats s = client->stats();
    total.round_trips += s.round_trips;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
    total.deadline_expiries += s.deadline_expiries;
    total.admission_rejections += s.admission_rejections;
    total.cancellations += s.cancellations;
    total.failures += s.failures;
  }
  return total;
}

ClientStack ConnectStack(vdg::CatalogServer* server, uint64_t seed,
                         size_t cache_capacity, CodecSampler* sampler) {
  ClientStack stack;
  stack.wires = std::make_shared<WireRegistry>();
  vdg::ResilientEndpoint endpoint;
  endpoint.name = "vdcbench-server";
  endpoint.connect =
      [server, wires = stack.wires,
       sampler]() -> vdg::Result<std::shared_ptr<vdg::CatalogClient>> {
    VDG_ASSIGN_OR_RETURN(std::shared_ptr<vdg::WireCatalogClient> wire,
                         vdg::WireCatalogClient::Connect(server));
    wires->Add(wire);
    return std::shared_ptr<vdg::CatalogClient>(
        std::make_shared<TracingClient>(wire, Layer::kWire, 0, sampler));
  };
  vdg::ResilientOptions options;
  options.seed = seed;
  stack.resilient = std::make_shared<vdg::ResilientCatalogClient>(
      std::vector<vdg::ResilientEndpoint>{std::move(endpoint)}, options);
  auto traced_resilient =
      std::make_shared<TracingClient>(stack.resilient, Layer::kResilient);
  if (cache_capacity == 0) {
    stack.entry = traced_resilient;
    return stack;
  }
  stack.cache = std::make_shared<vdg::CachingCatalogClient>(traced_resilient,
                                                            cache_capacity);
  stack.entry = std::make_shared<TracingClient>(stack.cache, Layer::kCache);
  return stack;
}

}  // namespace vdcbench
