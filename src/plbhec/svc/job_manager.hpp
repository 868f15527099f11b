#pragma once
/// \file job_manager.hpp
/// Multi-tenant scheduling service on top of the single-job runtime: jobs
/// arrive over virtual time into an admission queue (FIFO within priority
/// class), each admitted job runs its own PLB-HeC scheduler instance
/// against a *leased* subset of the cluster's processing units,
/// and the lease policy (lease.hpp) rebalances unit targets whenever the
/// active-job set changes.
///
/// Leasing protocol: schedulers are never told about tenancy — each sees a
/// dense local unit-id space the service remaps to global units.
///  - Revocation happens at a block boundary: a unit owed to another job
///    finishes its in-flight task, the owner's scheduler gets
///    on_unit_failed(local, 0) (PLB-HeC natively redistributes the load),
///    and the unit moves to the needy job.
///  - Growth drains: the job stops receiving new blocks, and once its
///    in-flight tasks complete, the service restarts a fresh scheduler
///    over the enlarged lease with the *remaining* grains as the total —
///    warm-seeded from the job's own observation log, so the restarted
///    modeling phase is one validation block per already-profiled unit.
///
/// Warm start across jobs: at admission the per-(app kind, device kind)
/// profiles loaded from the ProfileStore are handed to PLB-HeC, which
/// replaces the exponential probing schedule with a single validation
/// block when the stored fit still holds (see PlbHecOptions::warm). On
/// completion the job's samples are merged back and persisted.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "plbhec/core/plb_hec.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/workload.hpp"
#include "plbhec/sim/cluster.hpp"
#include "plbhec/svc/lease.hpp"
#include "plbhec/svc/profile_store.hpp"

namespace plbhec::svc {

/// One job submitted to the service.
struct JobSpec {
  std::string name;      ///< display name, e.g. "mm-0"
  std::string app_kind;  ///< ProfileStore key, e.g. "matmul-2048"
  PriorityClass priority = PriorityClass::kNormal;
  double arrival_time = 0.0;  ///< virtual seconds
  /// Factory for the job's workload (invoked once, at submit).
  std::function<std::unique_ptr<rt::Workload>()> make_workload;
};

/// Per-job outcome of one service run.
struct JobOutcome {
  JobId id = 0;
  std::string name;
  std::string app_kind;
  PriorityClass priority = PriorityClass::kNormal;
  double arrival = 0.0;
  double admitted = -1.0;  ///< when the job left the admission queue
  double finished = -1.0;
  std::size_t total_grains = 0;
  std::size_t tasks = 0;
  double busy_seconds = 0.0;  ///< transfer + exec over all its tasks
  std::size_t probe_blocks = 0;       ///< modeling blocks, all epochs
  std::size_t probe_blocks_saved = 0; ///< skipped via warm starts
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
  std::size_t warm_stale_skips = 0;   ///< warm seeds dropped for staleness
  std::size_t lease_restarts = 0;  ///< drain-and-regrow scheduler restarts
  std::size_t max_units_held = 0;
  bool ok = false;

  [[nodiscard]] double queue_wait() const { return admitted - arrival; }
  [[nodiscard]] double turnaround() const { return finished - arrival; }
};

struct ServiceResult {
  bool ok = false;
  std::string error;
  double makespan = 0.0;  ///< finish time of the last job (virtual seconds)
  std::vector<JobOutcome> jobs;  ///< indexed by JobId (submission order)
  std::vector<JobId> completion_order;
  double busy_unit_seconds = 0.0;
  double utilization = 0.0;  ///< busy_unit_seconds / (units * makespan)
  std::size_t leases_granted = 0;
  std::size_t leases_revoked = 0;
  std::size_t scheduler_restarts = 0;
  std::size_t probe_blocks = 0;
  std::size_t probe_blocks_saved = 0;
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
  std::size_t warm_stale_skips = 0;
  StoreLoadStatus store_status = StoreLoadStatus::kMissing;
  std::size_t fit_memo_hits = 0;    ///< model selections served by the memo
  std::size_t fit_memo_misses = 0;  ///< model selections solved afresh
};

struct ServiceOptions {
  sim::NoiseModel noise;
  std::uint64_t seed = 42;
  double max_sim_time = 1e9;            ///< watchdog (virtual seconds)
  std::size_t max_events = 50'000'000;  ///< watchdog (discrete events)
  LeasePolicyOptions lease;
  /// Base options for every per-job PLB-HeC instance; the service fills in
  /// the `warm` vector per epoch.
  core::PlbHecOptions scheduler;
  /// On-disk ProfileStore path; empty = in-memory only (still merges
  /// profiles across jobs within this service instance).
  std::string store_path;
  /// Must be 1 (checked by JobManager's constructor): the service is one
  /// discrete-event loop. The sharded coordinator was removed; the field
  /// stays only because existing callers still set it.
  std::size_t shards = 1;
  obs::EventSink* sink = nullptr;             ///< not owned; may be null
  obs::CounterRegistry* counters = nullptr;   ///< not owned; may be null
};

/// The service: submit jobs, then run the discrete-event loop to
/// completion. Deterministic for fixed (specs, seed, store image): event
/// ties break on sequence numbers and every unit draws noise from its own
/// forked RNG stream.
class JobManager {
 public:
  /// Loads the ProfileStore from options.store_path (when set); any load
  /// failure leaves the store empty — cold-start fallback, never an error.
  JobManager(const sim::SimCluster& cluster, ServiceOptions options = {});

  /// Registers a job (before run()). Returns its JobId.
  JobId submit(JobSpec spec);

  /// Runs every submitted job to completion and returns the outcomes.
  /// May be called once per JobManager instance.
  [[nodiscard]] ServiceResult run();

  [[nodiscard]] const ProfileStore& store() const { return store_; }
  [[nodiscard]] StoreLoadStatus store_status() const { return store_status_; }

 private:
  const sim::SimCluster& cluster_;
  ServiceOptions options_;
  std::vector<JobSpec> specs_;
  ProfileStore store_;
  StoreLoadStatus store_status_ = StoreLoadStatus::kMissing;
  bool ran_ = false;
};

}  // namespace plbhec::svc
