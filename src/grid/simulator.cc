#include "grid/simulator.h"

#include <algorithm>

namespace vdg {

GridSimulator::GridSimulator(GridTopology topology, uint64_t seed)
    : topology_(std::move(topology)), rng_(seed) {
  for (const std::string& site_name : topology_.SiteNames()) {
    SiteConfig site = *topology_.GetSite(site_name);
    SiteState state;
    state.hosts.reserve(site.hosts.size());
    for (const HostConfig& host : site.hosts) {
      state.hosts.push_back(HostState{host, 0});
    }
    sites_.emplace(site_name, std::move(state));

    if (site.storage.empty()) {
      // Every site gets at least one (unbounded) storage element.
      storage_.emplace(
          std::make_pair(site_name, std::string("se0")),
          std::make_unique<StorageElement>(site_name, "se0", 0));
    } else {
      for (const StorageElementConfig& se : site.storage) {
        storage_.emplace(std::make_pair(site_name, se.name),
                         std::make_unique<StorageElement>(
                             site_name, se.name, se.capacity_bytes));
      }
    }
  }
}

Status GridSimulator::SetSiteOffline(std::string_view site, bool offline) {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return Status::NotFound("unknown site: " + std::string(site));
  }
  bool was_offline = it->second.offline;
  it->second.offline = offline;
  ++it->second.service_epoch;
  if (!offline) it->second.crashed = false;  // recovery clears a crash
  if (was_offline && !offline) {
    // Back in service: drain whatever queued while down.
    TryDispatch(std::string(site));
  }
  return Status::OK();
}

bool GridSimulator::IsSiteOffline(std::string_view site) const {
  auto it = sites_.find(site);
  return it != sites_.end() && it->second.offline;
}

bool GridSimulator::IsSiteCrashed(std::string_view site) const {
  auto it = sites_.find(site);
  return it != sites_.end() && it->second.crashed;
}

Result<uint64_t> GridSimulator::SubmitJob(std::string_view site,
                                          double cpu_seconds,
                                          JobCallback callback) {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return Status::NotFound("unknown site: " + std::string(site));
  }
  if (it->second.offline) {
    return Status::Unavailable("site is offline: " + std::string(site));
  }
  if (cpu_seconds < 0) {
    return Status::InvalidArgument("negative job length");
  }
  uint64_t id = next_job_id_++;
  PendingJob job{id, std::string(site), cpu_seconds, now(),
                 std::move(callback)};
  pending_jobs_.emplace(id, std::move(job));
  it->second.queue.push_back(id);
  it->second.stats.peak_queue_depth = std::max(
      it->second.stats.peak_queue_depth,
      static_cast<uint64_t>(it->second.queue.size()));
  TryDispatch(std::string(site));
  return id;
}

void GridSimulator::TryDispatch(const std::string& site) {
  auto site_it = sites_.find(site);
  if (site_it == sites_.end()) return;
  SiteState& state = site_it->second;
  if (state.offline) return;  // queue holds until the site returns

  while (!state.queue.empty()) {
    // Fastest free host wins; index breaks ties deterministically.
    HostState* best = nullptr;
    size_t best_idx = 0;
    for (size_t i = 0; i < state.hosts.size(); ++i) {
      HostState& host = state.hosts[i];
      if (host.busy_slots >= host.config.slots) continue;
      if (best == nullptr ||
          host.config.cpu_factor > best->config.cpu_factor) {
        best = &host;
        best_idx = i;
      }
    }
    if (best == nullptr) return;  // all slots busy

    uint64_t job_id = state.queue.front();
    state.queue.pop_front();
    auto job_it = pending_jobs_.find(job_id);
    if (job_it == pending_jobs_.end()) continue;  // cancelled
    PendingJob job = std::move(job_it->second);
    pending_jobs_.erase(job_it);

    double runtime = job.cpu_seconds / best->config.cpu_factor;
    if (runtime_jitter_ > 0) {
      runtime *= rng_.ClampedNormal(1.0, runtime_jitter_, 0.05);
    }

    RunningJob running;
    running.host_idx = best_idx;
    running.host = best->config.name;
    running.start = now();
    running.runtime = runtime;
    running.will_succeed =
        job_failure_rate_ <= 0 || !rng_.Chance(job_failure_rate_);
    running.job = std::move(job);

    ++best->busy_slots;
    uint64_t id = running.job.id;
    running_jobs_.emplace(id, std::move(running));
    // The completion event only carries the id: if a crash kills the
    // job first, the registry entry is gone and the event is a no-op.
    events_.ScheduleAfter(runtime, [this, id]() { CompleteJob(id); });
  }
}

void GridSimulator::CompleteJob(uint64_t job_id) {
  auto it = running_jobs_.find(job_id);
  if (it == running_jobs_.end()) return;  // killed by a crash
  RunningJob running = std::move(it->second);
  running_jobs_.erase(it);

  const std::string& site = running.job.site;
  SiteState& s = sites_.find(site)->second;
  HostState& h = s.hosts[running.host_idx];
  --h.busy_slots;
  if (running.will_succeed) {
    ++s.stats.jobs_completed;
  } else {
    ++s.stats.jobs_failed;
  }
  s.stats.busy_slot_seconds += running.runtime;

  JobResult result;
  result.job_id = running.job.id;
  result.site = site;
  result.host = running.host;
  result.submit_time = running.job.submit_time;
  result.start_time = running.start;
  result.end_time = running.start + running.runtime;
  result.cpu_seconds = running.job.cpu_seconds;
  result.succeeded = running.will_succeed;
  if (running.job.callback) running.job.callback(result);
  TryDispatch(site);
}

Status GridSimulator::CrashSite(std::string_view site) {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return Status::NotFound("unknown site: " + std::string(site));
  }
  SiteState& state = it->second;
  state.offline = true;
  state.crashed = true;
  ++state.service_epoch;
  ++state.stats.crashes;
  std::string site_name(site);

  // Kill running jobs (id order: deterministic callback sequence).
  std::vector<uint64_t> killed;
  for (const auto& [id, running] : running_jobs_) {
    if (running.job.site == site_name) killed.push_back(id);
  }
  for (uint64_t id : killed) {
    auto job_it = running_jobs_.find(id);
    if (job_it == running_jobs_.end()) continue;
    RunningJob running = std::move(job_it->second);
    running_jobs_.erase(job_it);
    HostState& h = state.hosts[running.host_idx];
    --h.busy_slots;
    ++state.stats.jobs_failed;
    ++state.stats.jobs_killed;
    state.stats.busy_slot_seconds += now() - running.start;

    JobResult result;
    result.job_id = running.job.id;
    result.site = site_name;
    result.host = running.host;
    result.submit_time = running.job.submit_time;
    result.start_time = running.start;
    result.end_time = now();
    result.cpu_seconds = running.job.cpu_seconds;
    result.succeeded = false;
    if (running.job.callback) running.job.callback(result);
  }

  // Queued jobs fail immediately (they would wait forever otherwise).
  std::deque<uint64_t> queued;
  queued.swap(state.queue);
  for (uint64_t id : queued) {
    auto job_it = pending_jobs_.find(id);
    if (job_it == pending_jobs_.end()) continue;
    PendingJob job = std::move(job_it->second);
    pending_jobs_.erase(job_it);
    ++state.stats.jobs_failed;
    JobResult result;
    result.job_id = job.id;
    result.site = site_name;
    result.submit_time = job.submit_time;
    result.start_time = now();
    result.end_time = now();
    result.cpu_seconds = job.cpu_seconds;
    result.succeeded = false;
    if (job.callback) job.callback(result);
  }

  // Abort in-flight transfers touching the crashed site.
  std::vector<uint64_t> dead_transfers;
  for (const auto& [id, transfer] : inflight_transfers_) {
    if (transfer.result.from_site == site_name ||
        transfer.result.to_site == site_name) {
      dead_transfers.push_back(id);
    }
  }
  for (uint64_t id : dead_transfers) {
    auto tr_it = inflight_transfers_.find(id);
    if (tr_it == inflight_transfers_.end()) continue;
    InFlightTransfer transfer = std::move(tr_it->second);
    inflight_transfers_.erase(tr_it);
    transfer.result.succeeded = false;
    transfer.result.end_time = now();
    FinishTransferBookkeeping(transfer);
    if (transfer.callback) transfer.callback(transfer.result);
  }

  // Unpinned replicas on local storage are gone — deregister them so
  // planners and executors see the loss (and can re-derive).
  for (StorageElement* se : StorageAt(site_name)) {
    for (const StoredFile& file : se->Files()) {
      if (file.pinned) continue;
      (void)se->Remove(file.logical_name);
      (void)rls_.Unregister(file.logical_name, site_name, se->name());
      ++state.stats.files_lost;
    }
  }
  return Status::OK();
}

Status GridSimulator::ScheduleOutage(std::string_view site, double start_in_s,
                                     double duration_s, bool crash) {
  if (sites_.find(site) == sites_.end()) {
    return Status::NotFound("unknown site: " + std::string(site));
  }
  if (start_in_s < 0 || duration_s < 0) {
    return Status::InvalidArgument("outage window must be in the future");
  }
  std::string site_name(site);
  // The start event records the epoch its state change produced; the
  // end event restores service only when the site is still in that
  // epoch. An overlapping window, a crash, or a manual offline bumps
  // the epoch and thereby owns the site — this window's end becomes a
  // stale no-op instead of yanking the site back online early.
  auto epoch = std::make_shared<uint64_t>(0);
  events_.ScheduleAfter(start_in_s, [this, site_name, crash, epoch]() {
    if (crash) {
      (void)CrashSite(site_name);
    } else {
      (void)SetSiteOffline(site_name, true);
    }
    auto it = sites_.find(site_name);
    if (it != sites_.end()) *epoch = it->second.service_epoch;
  });
  events_.ScheduleAfter(start_in_s + duration_s, [this, site_name,
                                                  epoch]() {
    auto it = sites_.find(site_name);
    if (it == sites_.end() || it->second.service_epoch != *epoch) return;
    (void)SetSiteOffline(site_name, false);
  });
  return Status::OK();
}

Result<uint64_t> GridSimulator::SubmitTransfer(std::string_view from_site,
                                               std::string_view to_site,
                                               int64_t bytes,
                                               TransferCallback callback) {
  if (!topology_.HasSite(from_site) || !topology_.HasSite(to_site)) {
    return Status::NotFound("transfer endpoints must be defined sites: " +
                            std::string(from_site) + " -> " +
                            std::string(to_site));
  }
  if (IsSiteCrashed(from_site) || IsSiteCrashed(to_site)) {
    return Status::Unavailable("transfer endpoint crashed: " +
                               std::string(from_site) + " -> " +
                               std::string(to_site));
  }
  if (bytes < 0) return Status::InvalidArgument("negative transfer size");

  uint64_t id = next_transfer_id_++;
  auto key = std::make_pair(std::string(from_site), std::string(to_site));
  int& active = active_transfers_[key];
  ++active;
  // Concurrent transfers on a site pair share the link: snapshot the
  // effective bandwidth at start (deterministic approximation of fair
  // sharing).
  double bandwidth = topology_.Bandwidth(from_site, to_site) /
                     static_cast<double>(active);
  double duration = topology_.Latency(from_site, to_site) +
                    (bytes > 0 ? static_cast<double>(bytes) / bandwidth : 0);

  InFlightTransfer transfer;
  transfer.key = key;
  transfer.callback = std::move(callback);
  transfer.result.transfer_id = id;
  transfer.result.from_site = std::string(from_site);
  transfer.result.to_site = std::string(to_site);
  transfer.result.bytes = bytes;
  transfer.result.start_time = now();
  transfer.result.end_time = now() + duration;
  transfer.result.succeeded =
      transfer_failure_rate_ <= 0 || !rng_.Chance(transfer_failure_rate_);
  inflight_transfers_.emplace(id, std::move(transfer));
  events_.ScheduleAfter(duration, [this, id]() { CompleteTransfer(id); });
  return id;
}

void GridSimulator::CompleteTransfer(uint64_t transfer_id) {
  auto it = inflight_transfers_.find(transfer_id);
  if (it == inflight_transfers_.end()) return;  // aborted by a crash
  InFlightTransfer transfer = std::move(it->second);
  inflight_transfers_.erase(it);
  FinishTransferBookkeeping(transfer);
  if (transfer.callback) transfer.callback(transfer.result);
}

void GridSimulator::FinishTransferBookkeeping(const InFlightTransfer& t) {
  auto it = active_transfers_.find(t.key);
  if (it != active_transfers_.end() && --it->second <= 0) {
    active_transfers_.erase(it);
  }
  auto site_it = sites_.find(t.result.to_site);
  if (site_it == sites_.end()) return;
  if (t.result.succeeded) {
    ++site_it->second.stats.transfers_in;
    site_it->second.stats.bytes_in += t.result.bytes;
  } else {
    ++site_it->second.stats.transfers_failed;
  }
}

std::vector<StorageElement*> GridSimulator::StorageAt(std::string_view site) {
  std::vector<StorageElement*> out;
  for (auto& [key, se] : storage_) {
    if (key.first == site) out.push_back(se.get());
  }
  return out;
}

Status GridSimulator::PlaceFile(std::string_view site,
                                std::string_view logical_name, int64_t bytes,
                                bool pinned) {
  std::vector<StorageElement*> elements = StorageAt(site);
  if (elements.empty()) {
    return Status::NotFound("site has no storage: " + std::string(site));
  }
  Status last = Status::ResourceExhausted("no storage element has room");
  for (StorageElement* se : elements) {
    if (se->Contains(logical_name)) {
      return Status::AlreadyExists("file already placed: " +
                                   std::string(logical_name) + " at " +
                                   std::string(site));
    }
    last = se->Store(logical_name, bytes, now());
    if (last.ok()) {
      if (pinned) VDG_RETURN_IF_ERROR(se->SetPinned(logical_name, true));
      PhysicalLocation loc;
      loc.site = std::string(site);
      loc.storage_element = se->name();
      loc.size_bytes = bytes;
      return rls_.Register(logical_name, std::move(loc));
    }
  }
  return last;
}

Status GridSimulator::EvictFile(std::string_view site,
                                std::string_view logical_name) {
  for (StorageElement* se : StorageAt(site)) {
    if (!se->Contains(logical_name)) continue;
    VDG_RETURN_IF_ERROR(se->Remove(logical_name));
    return rls_.Unregister(logical_name, site, se->name());
  }
  return Status::NotFound("file not stored at " + std::string(site) + ": " +
                          std::string(logical_name));
}

Result<SiteStats> GridSimulator::StatsFor(std::string_view site) const {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return Status::NotFound("unknown site: " + std::string(site));
  }
  return it->second.stats;
}

Result<double> GridSimulator::Utilization(std::string_view site) const {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return Status::NotFound("unknown site: " + std::string(site));
  }
  if (events_.now() <= 0) return 0.0;
  double slot_capacity = 0;
  for (const HostState& host : it->second.hosts) {
    slot_capacity += host.config.slots;
  }
  if (slot_capacity == 0) return 0.0;
  return it->second.stats.busy_slot_seconds /
         (slot_capacity * events_.now());
}

}  // namespace vdg
