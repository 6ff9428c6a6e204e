#ifndef VDG_GRID_SIMULATOR_H_
#define VDG_GRID_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "grid/event_queue.h"
#include "grid/rls.h"
#include "grid/storage.h"
#include "grid/topology.h"

namespace vdg {

/// Outcome of one simulated job execution.
struct JobResult {
  uint64_t job_id = 0;
  std::string site;
  std::string host;
  SimTime submit_time = 0;
  SimTime start_time = 0;
  SimTime end_time = 0;
  double cpu_seconds = 0;  // nominal work, before host speed scaling
  bool succeeded = true;
};

/// Outcome of one simulated wide-area transfer.
struct TransferResult {
  uint64_t transfer_id = 0;
  std::string from_site;
  std::string to_site;
  int64_t bytes = 0;
  SimTime start_time = 0;
  SimTime end_time = 0;
  bool succeeded = true;
};

/// Per-site execution statistics.
struct SiteStats {
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;
  double busy_slot_seconds = 0;  // sum of per-job wall occupancy
  uint64_t peak_queue_depth = 0;
  uint64_t transfers_in = 0;     // successful inbound transfers
  int64_t bytes_in = 0;
  // --- fault-injection outcomes ---
  uint64_t jobs_killed = 0;      // running jobs lost to a crash
  uint64_t transfers_failed = 0; // inbound transfers that failed
  uint64_t files_lost = 0;       // unpinned replicas wiped by a crash
  uint64_t crashes = 0;          // CrashSite invocations
};

/// The simulated Grid substrate: GRAM-style job submission against
/// per-site host pools (FIFO queue, fastest-free-host dispatch),
/// GridFTP-style transfers with shared link bandwidth, storage
/// elements, and a replica location service. Deterministic under a
/// fixed seed; all time is simulated.
class GridSimulator {
 public:
  using JobCallback = std::function<void(const JobResult&)>;
  using TransferCallback = std::function<void(const TransferResult&)>;

  GridSimulator(GridTopology topology, uint64_t seed);

  GridSimulator(const GridSimulator&) = delete;
  GridSimulator& operator=(const GridSimulator&) = delete;

  const GridTopology& topology() const { return topology_; }
  EventQueue& events() { return events_; }
  SimTime now() const { return events_.now(); }
  ReplicaLocationService& rls() { return rls_; }
  const ReplicaLocationService& rls() const { return rls_; }
  Rng& rng() { return rng_; }

  /// Fraction of jobs that fail (uniformly at random). Default 0.
  void set_job_failure_rate(double p) { job_failure_rate_ = p; }

  /// Fraction of transfers that fail (uniformly at random). A failed
  /// transfer still occupies the link for its full duration, then
  /// completes with succeeded=false. Default 0.
  void set_transfer_failure_rate(double p) { transfer_failure_rate_ = p; }

  /// Takes a site out of (or back into) service. Offline sites reject
  /// job submissions with Unavailable; queued jobs stay queued until
  /// the site returns (a maintenance window, not a crash).
  Status SetSiteOffline(std::string_view site, bool offline);
  bool IsSiteOffline(std::string_view site) const;

  /// A site *crash* — harsher than maintenance offline: running jobs
  /// are killed (callbacks fire now with succeeded=false), queued jobs
  /// fail immediately, in-flight transfers touching the site abort,
  /// and every unpinned replica on the site's storage is lost from the
  /// RLS. The site stays offline until SetSiteOffline(site, false).
  Status CrashSite(std::string_view site);
  /// True between CrashSite and the SetSiteOffline(site, false) that
  /// brings the site back.
  bool IsSiteCrashed(std::string_view site) const;

  /// Schedules a service interruption `start_in_s` from now lasting
  /// `duration_s`: a maintenance window (queued work holds) or, with
  /// `crash`, a full crash with data loss. The site returns to service
  /// automatically at the end of the window — unless a later window,
  /// a crash, or a manual SetSiteOffline/CrashSite changed the site's
  /// state in the meantime, in which case that change wins and the
  /// stale window end is a no-op.
  Status ScheduleOutage(std::string_view site, double start_in_s,
                        double duration_s, bool crash = false);
  /// Runtime noise: multiplies each job's runtime by a clamped normal
  /// with the given relative standard deviation. Default 0 (exact).
  void set_runtime_jitter(double relative_stddev) {
    runtime_jitter_ = relative_stddev;
  }

  /// Submits a job of `cpu_seconds` nominal work to `site`. The
  /// callback fires (in simulated time) when the job completes.
  Result<uint64_t> SubmitJob(std::string_view site, double cpu_seconds,
                             JobCallback callback);

  /// Submits a transfer of `bytes` between sites. Concurrent transfers
  /// on the same site pair share bandwidth (snapshot at start).
  /// Unavailable when either endpoint is *crashed* — a maintenance
  /// window (SetSiteOffline) stops compute but storage still serves.
  Result<uint64_t> SubmitTransfer(std::string_view from_site,
                                  std::string_view to_site, int64_t bytes,
                                  TransferCallback callback);

  /// Runs the event loop until no work remains. Returns final time.
  SimTime RunUntilIdle() { return events_.RunUntilEmpty(); }

  // --- Storage ---
  std::vector<StorageElement*> StorageAt(std::string_view site);

  /// Stores a logical file at `site` (first element with room) and
  /// registers it in the RLS. The workhorse for staging input data.
  Status PlaceFile(std::string_view site, std::string_view logical_name,
                   int64_t bytes, bool pinned = false);
  /// Removes the file from `site` storage and the RLS.
  Status EvictFile(std::string_view site, std::string_view logical_name);

  // --- Stats ---
  Result<SiteStats> StatsFor(std::string_view site) const;
  /// Busy slot-seconds / (slot capacity x elapsed); 0 when idle.
  Result<double> Utilization(std::string_view site) const;
  uint64_t total_jobs_submitted() const { return next_job_id_ - 1; }
  uint64_t total_transfers_submitted() const { return next_transfer_id_ - 1; }

 private:
  struct HostState {
    HostConfig config;
    int busy_slots = 0;
  };
  struct SiteState {
    std::vector<HostState> hosts;
    std::deque<uint64_t> queue;  // pending job ids
    SiteStats stats;
    bool offline = false;
    bool crashed = false;  // offline AND storage/transfers down
    /// Bumped on every service-state change (offline, restore, crash).
    /// A scheduled outage's end event only restores the site when the
    /// epoch still matches what its start event produced, so a later
    /// window, crash, or manual change supersedes the auto-restore.
    uint64_t service_epoch = 0;
  };
  struct PendingJob {
    uint64_t id;
    std::string site;
    double cpu_seconds;
    SimTime submit_time;
    JobCallback callback;
  };
  /// A dispatched job occupying a host slot. Kept in a registry (not
  /// only in the completion closure) so CrashSite can kill it early;
  /// the scheduled completion event becomes a no-op once the entry is
  /// gone.
  struct RunningJob {
    PendingJob job;
    size_t host_idx = 0;
    std::string host;
    SimTime start = 0;
    double runtime = 0;
    bool will_succeed = true;
  };
  /// An in-flight transfer, killable by a crash of either endpoint.
  struct InFlightTransfer {
    TransferResult result;
    TransferCallback callback;
    std::pair<std::string, std::string> key;
  };

  void TryDispatch(const std::string& site);
  void CompleteJob(uint64_t job_id);
  void CompleteTransfer(uint64_t transfer_id);
  void FinishTransferBookkeeping(const InFlightTransfer& t);

  GridTopology topology_;
  EventQueue events_;
  Rng rng_;
  ReplicaLocationService rls_;

  std::map<std::string, SiteState, std::less<>> sites_;
  // (site, element name) -> storage element
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<StorageElement>>
      storage_;
  std::map<uint64_t, PendingJob> pending_jobs_;
  std::map<uint64_t, RunningJob> running_jobs_;
  std::map<uint64_t, InFlightTransfer> inflight_transfers_;
  std::map<std::pair<std::string, std::string>, int> active_transfers_;

  double job_failure_rate_ = 0;
  double transfer_failure_rate_ = 0;
  double runtime_jitter_ = 0;
  uint64_t next_job_id_ = 1;
  uint64_t next_transfer_id_ = 1;
};

}  // namespace vdg

#endif  // VDG_GRID_SIMULATOR_H_
