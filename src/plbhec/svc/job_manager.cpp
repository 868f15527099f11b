#include "plbhec/svc/job_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <utility>

#include "plbhec/common/contracts.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/obs/events.hpp"

namespace plbhec::svc {
namespace {

enum class EvKind { kArrival, kCompletion, kFailure };

struct Ev {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< tie-break: earlier-pushed event fires first
  EvKind kind = EvKind::kArrival;
  JobId job = 0;
  rt::UnitId unit = 0;
};

struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct InFlight {
  JobId job = 0;
  rt::UnitId local = 0;
  std::size_t grains = 0;
  double start = 0.0;
  double transfer_s = 0.0;
  double exec_s = 0.0;
};

struct UnitRt {
  bool busy = false;
  bool dead = false;
  bool leased = false;
  JobId owner = 0;
  /// Lease marked for revocation at this unit's next block boundary.
  bool revoke_pending = false;
  InFlight task;
};

enum class JobPhase : std::uint8_t {
  kPending,   ///< not yet arrived
  kQueued,    ///< in the admission queue
  kForming,   ///< admitted, assembling its unit lease
  kRunning,   ///< scheduler active
  kDraining,  ///< lease grew: no new blocks until in-flight work drains
  kDone,
};

struct JobRt {
  JobPhase phase = JobPhase::kPending;
  std::uint32_t shard = 0;  ///< owning shard loop (id % shards)
  std::unique_ptr<rt::Workload> workload;
  sim::WorkloadProfile profile;
  double bytes_per_grain = 0.0;
  std::size_t total = 0;
  std::size_t completed = 0;
  std::size_t issued = 0;
  std::size_t target = 0;  ///< lease policy's current unit entitlement
  std::vector<rt::UnitId> held;     ///< sorted global ids (incl. pending)
  std::vector<rt::UnitId> pending;  ///< granted but not yet integrated
  std::map<rt::UnitId, rt::UnitId> global_to_local;  ///< current epoch
  std::vector<rt::UnitId> local_to_global;
  std::unique_ptr<rt::Scheduler> scheduler;
  core::PlbHecScheduler* plb = nullptr;  ///< stats view; null once harvested
  std::size_t in_flight = 0;
  /// Service-side observation log in the *job* fraction domain (x =
  /// grains / total), per global unit — the warm seed for epoch restarts.
  std::vector<fit::SampleSet> exec_obs;
  std::vector<fit::SampleSet> transfer_obs;

  [[nodiscard]] std::size_t unassigned() const { return total - issued; }
};

void insert_sorted(std::vector<rt::UnitId>& v, rt::UnitId g) {
  v.insert(std::lower_bound(v.begin(), v.end(), g), g);
}

void erase_sorted(std::vector<rt::UnitId>& v, rt::UnitId g) {
  const auto it = std::lower_bound(v.begin(), v.end(), g);
  if (it != v.end() && *it == g) v.erase(it);
}

void insert_sorted_job(std::vector<JobId>& v, JobId id) {
  v.insert(std::lower_bound(v.begin(), v.end(), id), id);
}

void erase_sorted_job(std::vector<JobId>& v, JobId id) {
  const auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it != v.end() && *it == id) v.erase(it);
}

/// Admission order: priority class first, then submission id (FIFO within
/// class). Returns true when `a` should leave the queue *after* `b`, i.e.
/// the priority_queue's top() is the next job to admit.
struct AdmitLater {
  const std::vector<JobSpec>* specs = nullptr;
  bool operator()(JobId a, JobId b) const {
    const auto pa = static_cast<std::uint8_t>((*specs)[a].priority);
    const auto pb = static_cast<std::uint8_t>((*specs)[b].priority);
    if (pa != pb) return pa > pb;
    return a > b;
  }
};

/// Everything one shard loop owns. Between broker barriers a shard only
/// touches: its own ShardRt, the units it owns (owner_shard), the jobs
/// striped to it, and shared *immutable* state (cluster, specs, store
/// reads) — so windows run data-race free in parallel.
struct ShardRt {
  std::uint32_t index = 0;
  std::priority_queue<JobId, std::vector<JobId>, AdmitLater> queue;
  std::priority_queue<Ev, std::vector<Ev>, EvLater> events;
  std::uint64_t seq = 0;
  double now = 0.0;
  std::size_t processed = 0;
  /// Units this shard may hand out; set by the broker (shards > 1) or
  /// refreshed to the live count every renegotiation (single shard).
  std::size_t unit_budget = 0;
  std::vector<JobId> active;  ///< sorted; phases forming/running/draining
  std::string error;
  // Merged into ServiceResult after the run.
  std::size_t leases_granted = 0;
  std::size_t leases_revoked = 0;
  std::size_t scheduler_restarts = 0;
  double busy_unit_seconds = 0.0;
  std::vector<JobId> completion_order;
  /// shards > 1: profile-store writes deferred to the broker barrier so
  /// windows never mutate shared state.
  std::vector<ProfileEntry> store_outbox;

  explicit ShardRt(const std::vector<JobSpec>& specs)
      : queue(AdmitLater{&specs}) {}
};

/// The whole per-run state; constructed fresh inside run() so the event
/// loop's working set dies with it.
struct ServiceSim {
  const sim::SimCluster& cluster;
  const ServiceOptions& options;
  const std::vector<JobSpec>& specs;
  ProfileStore& store;

  std::size_t n = 0;
  std::size_t nshards = 1;
  std::vector<UnitRt> units;
  std::vector<std::uint32_t> owner_shard;  ///< unit -> shard, broker-mutated
  std::vector<Rng> unit_rng;
  std::vector<JobRt> jobs;
  std::vector<ShardRt> shards;
  /// Model selections of this run, shared by all its schedulers and shard
  /// loops; dies with the run, so every run starts cold.
  fit::SelectionMemo memo;
  ServiceResult res;

  ServiceSim(const sim::SimCluster& c, const ServiceOptions& o,
             const std::vector<JobSpec>& s, ProfileStore& st)
      : cluster(c), options(o), specs(s), store(st) {}

  // ---- helpers ---------------------------------------------------------

  [[nodiscard]] std::size_t alive_owned(std::uint32_t shard) const {
    std::size_t count = 0;
    for (rt::UnitId g = 0; g < n; ++g) {
      if (owner_shard[g] == shard && !units[g].dead) ++count;
    }
    return count;
  }

  [[nodiscard]] bool admission_before(JobId a, JobId b) const {
    const auto pa = static_cast<std::uint8_t>(specs[a].priority);
    const auto pb = static_cast<std::uint8_t>(specs[b].priority);
    if (pa != pb) return pa < pb;
    return a < b;  // FIFO within class (ids follow submission order)
  }

  [[nodiscard]] std::string device_kind(rt::UnitId g) const {
    return cluster.unit(g).device->description();
  }

  /// held minus the units already marked to leave at their block boundary.
  [[nodiscard]] std::size_t effective_held(const JobRt& job) const {
    std::size_t away = 0;
    for (rt::UnitId g : job.held) {
      if (units[g].revoke_pending) ++away;
    }
    return job.held.size() - away;
  }

  void fail(ShardRt& sh, std::string message) {
    if (sh.error.empty()) sh.error = std::move(message);
  }

  // ---- lease bookkeeping ----------------------------------------------

  /// Takes an *idle* unit away from `job` immediately (block boundary
  /// already reached). Notifies the job's scheduler so PLB-HeC re-solves
  /// the distribution over the survivors.
  void revoke_now(ShardRt& sh, JobId id, rt::UnitId g) {
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    PLBHEC_ASSERT(!un.busy && un.leased && un.owner == id);
    const auto it = job.global_to_local.find(g);
    if (it != job.global_to_local.end()) {
      if (job.scheduler) job.scheduler->on_unit_failed(it->second, 0, sh.now);
      job.global_to_local.erase(it);
    }
    erase_sorted(job.held, g);
    erase_sorted(job.pending, g);
    un.leased = false;
    un.revoke_pending = false;
    ++sh.leases_revoked;
    PLBHEC_OBS_RECORD(options.sink,
                      {sh.now, obs::EventKind::kLeaseRevoked,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, id,
                       job.held.size()});
  }

  void grant(ShardRt& sh, JobId id, rt::UnitId g) {
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    PLBHEC_ASSERT(!un.leased && !un.busy && !un.dead);
    PLBHEC_ASSERT(owner_shard[g] == sh.index);
    un.leased = true;
    un.owner = id;
    insert_sorted(job.held, g);
    ++sh.leases_granted;
    res.jobs[id].max_units_held =
        std::max(res.jobs[id].max_units_held, job.held.size());
    PLBHEC_OBS_RECORD(options.sink,
                      {sh.now, obs::EventKind::kLeaseGranted,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, id,
                       job.held.size()});
    if (job.phase == JobPhase::kForming) {
      if (job.target > 0 && job.held.size() >= job.target) start_epoch(sh, id);
    } else {
      // Running/draining: integrate at the drain boundary.
      insert_sorted(job.pending, g);
      if (job.phase == JobPhase::kRunning) job.phase = JobPhase::kDraining;
      if (job.in_flight == 0) start_epoch(sh, id);
    }
  }

  /// Accumulates the scheduler's warm/probing statistics into the job
  /// outcome (once per scheduler instance).
  void harvest(JobId id) {
    JobRt& job = jobs[id];
    if (job.plb == nullptr) return;
    const core::PlbHecStats& s = job.plb->stats();
    JobOutcome& out = res.jobs[id];
    out.probe_blocks += s.probe_blocks;
    out.probe_blocks_saved += s.probe_blocks_saved;
    out.warm_hits += s.warm_hits;
    out.warm_misses += s.warm_misses;
    out.warm_stale_skips += s.warm_stale_skips;
    out.drift_detections += s.drift_detections;
    out.reprobe_blocks += s.reprobe_blocks;
    out.reprobe_swaps += s.reprobe_swaps;
    job.plb = nullptr;
  }

  [[nodiscard]] rt::WarmProfile warm_for(const JobRt& job, JobId id,
                                         rt::UnitId g) {
    if (!options.warm_start) return {};
    // Prefer the job's own observations (same workload instance, same
    // unit) over the cross-job store; they exist from the second epoch on.
    if (job.exec_obs[g].size() >= 4) {
      rt::WarmProfile warm;
      warm.exec = job.exec_obs[g].items();
      warm.transfer = job.transfer_obs[g].items();
      warm.total_grains = static_cast<double>(job.total);
      warm.stored_r2 = memo.select(job.exec_obs[g], options.scheduler.fit).r2;
      warm.exec_moments = job.exec_obs[g].moments().snapshot();
      warm.transfer_moments = job.transfer_obs[g].moments().snapshot();
      warm.has_moments = true;
      return warm;
    }
    return store.warm_profile(specs[id].app_kind, device_kind(g));
  }

  /// Exec time of one step_fraction window of this job on the fastest
  /// unit of the *whole cluster* (not just the job's lease) — the
  /// yardstick for the bounded-preemption block cap. Using the cluster
  /// best means a job stranded on a slow lease keeps hitting block
  /// boundaries at the rate a good unit could serve it, so a grant or
  /// revocation never waits on one monster block. Liveness comes from the
  /// unit's static failure schedule (failed_at), never from another
  /// shard's mutable flags, so parallel shard windows stay deterministic.
  [[nodiscard]] double best_window_seconds(const JobRt& job,
                                           double at) const {
    const auto window_grains = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               options.scheduler.step_fraction *
               static_cast<double>(job.total))));
    double best = 0.0;
    for (rt::UnitId g = 0; g < n; ++g) {
      const sim::SimUnit& su = cluster.unit(g);
      if (su.failed_at(at)) continue;
      const double speed = su.speed_factor(at);
      if (speed <= 0.0) continue;
      const double s =
          su.device->execution_seconds(job.profile, window_grains) / speed;
      if (best == 0.0 || s < best) best = s;
    }
    return best;
  }

  /// (Re)starts the job's scheduler over its current lease with the
  /// remaining grains as the work total. Requires no in-flight tasks.
  void start_epoch(ShardRt& sh, JobId id) {
    JobRt& job = jobs[id];
    PLBHEC_ASSERT(job.in_flight == 0);
    PLBHEC_ASSERT(!job.held.empty());
    const bool restart = job.scheduler != nullptr;
    if (restart) {
      harvest(id);
      ++res.jobs[id].lease_restarts;
      ++sh.scheduler_restarts;
    }
    job.pending.clear();
    job.local_to_global = job.held;  // held is sorted: dense local ids
    job.global_to_local.clear();
    std::vector<rt::UnitInfo> infos;
    infos.reserve(job.held.size());
    std::vector<rt::WarmProfile> warm;
    warm.reserve(job.held.size());
    for (rt::UnitId local = 0; local < job.local_to_global.size(); ++local) {
      const rt::UnitId g = job.local_to_global[local];
      job.global_to_local[g] = local;
      const sim::SimUnit& su = cluster.unit(g);
      rt::UnitInfo info;
      info.id = local;
      info.name = su.name;
      info.kind = su.device->kind() == sim::DeviceKind::kGpu
                      ? rt::ProcKind::kGpu
                      : rt::ProcKind::kCpu;
      info.machine = su.machine_index;
      infos.push_back(std::move(info));
      warm.push_back(warm_for(job, id, g));
    }

    const std::size_t remaining = job.total - job.completed;
    PLBHEC_ASSERT(remaining > 0);
    job.issued = job.completed;  // lost in-flight grains are back in the pool
    rt::WorkInfo work;
    work.name = job.workload->name();
    work.total_grains = remaining;
    work.bytes_per_grain = job.bytes_per_grain;
    work.initial_block = std::max<std::size_t>(1, remaining / 512);

    if (options.make_scheduler) {
      job.scheduler =
          options.make_scheduler(specs[id], infos, work, std::move(warm));
      job.plb = dynamic_cast<core::PlbHecScheduler*>(job.scheduler.get());
    } else {
      core::PlbHecOptions opt = options.scheduler;
      opt.warm = std::move(warm);
      opt.fit_memo = &memo;
      if (opt.max_block_seconds <= 0.0 && options.preempt_windows > 0.0) {
        opt.max_block_seconds =
            options.preempt_windows * best_window_seconds(job, sh.now);
      }
      auto plb = std::make_unique<core::PlbHecScheduler>(std::move(opt));
      job.plb = plb.get();
      job.scheduler = std::move(plb);
    }
    job.scheduler->set_event_sink(options.sink);
    job.scheduler->start(infos, work);
    job.phase = JobPhase::kRunning;
  }

  // ---- admission & lease renegotiation --------------------------------

  /// Admits queued jobs up to the shard's concurrency cap, then recomputes
  /// every active job's unit target and moves leases toward the targets.
  /// Called whenever the shard's active-job set or unit budget changes.
  void renegotiate(ShardRt& sh) {
    if (nshards == 1) sh.unit_budget = alive_owned(0);
    const std::size_t supply = sh.unit_budget;

    std::size_t cap = options.lease.max_active_jobs == 0
                          ? supply
                          : std::min(options.lease.max_active_jobs, supply);
    while (!sh.queue.empty() && sh.active.size() < cap) {
      const JobId id = sh.queue.top();
      sh.queue.pop();
      jobs[id].phase = JobPhase::kForming;
      res.jobs[id].admitted = sh.now;
      PLBHEC_OBS_RECORD(
          options.sink,
          {sh.now, obs::EventKind::kJobAdmitted, obs::kNoUnit,
           sh.now - res.jobs[id].arrival, 0.0, id, sh.queue.size()});
      insert_sorted_job(sh.active, id);
    }
    if (sh.active.empty()) return;

    // Unit targets: the first `supply` actives in admission order share
    // the shard's budget under the fairness floor; any beyond (possible
    // only after unit deaths or a budget cut shrank supply below the
    // admitted count) wait at target 0 for capacity to free up.
    std::vector<JobId> entitled = sh.active;
    if (entitled.size() > supply) {
      std::sort(entitled.begin(), entitled.end(),
                [&](JobId a, JobId b) { return admission_before(a, b); });
      entitled.resize(supply);
      std::sort(entitled.begin(), entitled.end());
    }
    for (JobId id : sh.active) jobs[id].target = 0;
    if (!entitled.empty() && supply > 0) {
      std::vector<ActiveJobView> views;
      views.reserve(entitled.size());
      for (JobId id : entitled) {
        views.push_back({id, specs[id].priority});
      }
      const std::vector<std::size_t> targets =
          lease_targets(views, supply, options.lease);
      for (std::size_t i = 0; i < entitled.size(); ++i) {
        jobs[entitled[i]].target = targets[i];
      }
    }
    rebalance(sh);
  }

  void rebalance(ShardRt& sh) {
    // Phase A: shed surplus. Idle units are revoked at once (they are at a
    // block boundary by definition); busy units are marked and handed over
    // when their current task completes.
    for (JobId id : sh.active) {
      JobRt& job = jobs[id];
      while (effective_held(job) > job.target) {
        rt::UnitId victim = rt::UnitId(-1);
        bool victim_idle = false;
        // Prefer (highest-id): unintegrated idle, then integrated idle,
        // then busy not yet marked.
        for (auto it = job.pending.rbegin(); it != job.pending.rend(); ++it) {
          if (!units[*it].busy && !units[*it].revoke_pending) {
            victim = *it;
            victim_idle = true;
            break;
          }
        }
        if (victim == rt::UnitId(-1)) {
          for (auto it = job.held.rbegin(); it != job.held.rend(); ++it) {
            if (!units[*it].busy && !units[*it].revoke_pending) {
              victim = *it;
              victim_idle = true;
              break;
            }
          }
        }
        if (victim == rt::UnitId(-1)) {
          for (auto it = job.held.rbegin(); it != job.held.rend(); ++it) {
            if (units[*it].busy && !units[*it].revoke_pending) {
              victim = *it;
              break;
            }
          }
        }
        if (victim == rt::UnitId(-1)) break;  // nothing left to shed
        if (victim_idle) {
          revoke_now(sh, id, victim);
        } else {
          units[victim].revoke_pending = true;
        }
      }
    }

    // Phase B: grant free owned units to jobs under target,
    // neediest-priority first (admission order).
    std::vector<JobId> order = sh.active;
    std::sort(order.begin(), order.end(),
              [&](JobId a, JobId b) { return admission_before(a, b); });
    for (JobId id : order) {
      JobRt& job = jobs[id];
      while (effective_held(job) < job.target) {
        rt::UnitId free_unit = rt::UnitId(-1);
        for (rt::UnitId g = 0; g < n; ++g) {
          if (owner_shard[g] != sh.index) continue;
          if (!units[g].leased && !units[g].dead && !units[g].busy) {
            free_unit = g;
            break;
          }
        }
        if (free_unit == rt::UnitId(-1)) break;  // wait for boundaries
        grant(sh, id, free_unit);
      }
    }
  }

  // ---- task issue & completion -----------------------------------------

  void retire_unit(ShardRt& sh, JobId id, rt::UnitId g,
                   std::size_t lost_grains) {
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    un.dead = true;
    un.leased = false;
    un.revoke_pending = false;
    const auto it = job.global_to_local.find(g);
    if (it != job.global_to_local.end()) {
      if (job.scheduler) {
        job.scheduler->on_unit_failed(it->second, lost_grains, sh.now);
      }
      job.global_to_local.erase(it);
    }
    erase_sorted(job.held, g);
    erase_sorted(job.pending, g);
    PLBHEC_OBS_RECORD(options.sink,
                      {sh.now, obs::EventKind::kUnitFailed,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, lost_grains,
                       id});
  }

  void issue(ShardRt& sh, JobId id, rt::UnitId g, rt::UnitId local,
             std::size_t grains) {
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    const sim::SimUnit& su = cluster.unit(g);
    const double bytes = static_cast<double>(grains) * job.bytes_per_grain;
    const double transfer_s = options.noise.perturb_transfer(
        su.path.transfer_seconds(bytes), unit_rng[g]);
    const double speed = su.speed_factor(sh.now);
    PLBHEC_ASSERT(speed > 0.0);
    const double exec_s = options.noise.perturb_exec(
        su.device->execution_seconds(job.profile, grains) / speed,
        unit_rng[g]);
    un.busy = true;
    un.task = {id, local, grains, sh.now, transfer_s, exec_s};
    job.issued += grains;
    ++job.in_flight;
    PLBHEC_OBS_RECORD(options.sink,
                      {sh.now, obs::EventKind::kBlockDispatched,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, grains,
                       sh.seq});
    const double finish = sh.now + transfer_s + exec_s;
    const auto failure = su.failure_time();
    if (failure && *failure < finish && *failure >= sh.now) {
      sh.events.push({*failure, sh.seq++, EvKind::kFailure, id, g});
    } else {
      sh.events.push({finish, sh.seq++, EvKind::kCompletion, id, g});
    }
  }

  /// One assignment sweep over a job's leased units; returns the number of
  /// tasks issued.
  std::size_t assignment_round(ShardRt& sh, JobId id) {
    JobRt& job = jobs[id];
    std::size_t assigned = 0;
    for (rt::UnitId local = 0; local < job.local_to_global.size(); ++local) {
      const rt::UnitId g = job.local_to_global[local];
      const auto it = job.global_to_local.find(g);
      if (it == job.global_to_local.end()) continue;  // revoked this epoch
      UnitRt& un = units[g];
      if (un.busy || un.dead) continue;
      if (cluster.unit(g).failed_at(sh.now)) {  // failed while idle
        retire_unit(sh, id, g, 0);
        continue;
      }
      if (job.unassigned() == 0) break;
      std::size_t grains = job.scheduler->next_block(local, sh.now);
      grains = std::min(grains, job.unassigned());
      if (grains == 0) continue;
      issue(sh, id, g, local, grains);
      ++assigned;
    }
    return assigned;
  }

  void assign_work(ShardRt& sh) {
    for (JobId id : sh.active) {
      JobRt& job = jobs[id];
      if (job.phase != JobPhase::kRunning) continue;
      if (job.held.empty()) {
        // Every unit was revoked between boundaries; wait for new grants.
        if (job.in_flight == 0) job.phase = JobPhase::kForming;
        continue;
      }
      std::size_t assigned = assignment_round(sh, id);
      // Engine barrier protocol, per job: all units idle + work remains.
      if (assigned == 0 && job.in_flight == 0 && job.unassigned() > 0) {
        job.scheduler->on_barrier(sh.now);
        PLBHEC_OBS_RECORD(options.sink,
                          {sh.now, obs::EventKind::kBarrier, obs::kNoUnit,
                           0.0, 0.0, id, 0});
        assigned = assignment_round(sh, id);
        if (assigned == 0 && job.in_flight == 0 &&
            !job.global_to_local.empty()) {
          fail(sh, "scheduler for job '" + specs[id].name +
                       "' refused to assign work after a barrier");
        }
      }
    }
  }

  void complete_job(ShardRt& sh, JobId id) {
    JobRt& job = jobs[id];
    harvest(id);
    JobOutcome& out = res.jobs[id];
    out.finished = sh.now;
    out.ok = true;
    sh.completion_order.push_back(id);
    PLBHEC_OBS_RECORD(options.sink,
                      {sh.now, obs::EventKind::kJobCompleted, obs::kNoUnit,
                       sh.now - out.admitted, out.queue_wait(), id,
                       job.total});

    // Merge this job's best-profiled unit of every device kind into the
    // store — the warm-start capital for future jobs. Single shard writes
    // (and persists) immediately; sharded runs defer to the broker
    // barrier, where store writes are serialised in shard order.
    std::map<std::string, rt::UnitId> best;
    for (rt::UnitId g = 0; g < n; ++g) {
      const std::size_t size = job.exec_obs[g].size();
      if (size < 4) continue;
      const std::string kind = device_kind(g);
      const auto it = best.find(kind);
      if (it == best.end() || size > job.exec_obs[it->second].size()) {
        best[kind] = g;
      }
    }
    for (const auto& [kind, g] : best) {
      ProfileEntry entry =
          make_entry(specs[id].app_kind, kind, job.exec_obs[g],
                     job.transfer_obs[g], static_cast<double>(job.total),
                     options.scheduler.fit, &memo);
      if (nshards == 1) {
        store.put(std::move(entry));
      } else {
        sh.store_outbox.push_back(std::move(entry));
      }
    }
    if (nshards == 1 && !options.store_path.empty()) {
      (void)store.save(options.store_path);
    }

    for (const rt::UnitId g : std::vector<rt::UnitId>(job.held)) {
      units[g].leased = false;
      units[g].revoke_pending = false;
    }
    job.held.clear();
    job.pending.clear();
    job.global_to_local.clear();
    job.scheduler.reset();
    job.phase = JobPhase::kDone;
    erase_sorted_job(sh.active, id);
    renegotiate(sh);
  }

  void handle_completion(ShardRt& sh, const Ev& ev, bool failed) {
    UnitRt& un = units[ev.unit];
    PLBHEC_ASSERT(un.busy);
    un.busy = false;
    const InFlight task = un.task;
    JobRt& job = jobs[task.job];
    --job.in_flight;

    if (failed) {
      job.issued -= task.grains;  // grains return to the pool
      retire_unit(sh, task.job, ev.unit, task.grains);
      renegotiate(sh);
    } else {
      job.completed += task.grains;
      JobOutcome& out = res.jobs[task.job];
      ++out.tasks;
      out.busy_seconds += task.transfer_s + task.exec_s;
      sh.busy_unit_seconds += task.transfer_s + task.exec_s;
      if (task.grains > 0) {
        const double x = static_cast<double>(task.grains) /
                         static_cast<double>(job.total);
        job.exec_obs[ev.unit].add(x, task.exec_s);
        job.transfer_obs[ev.unit].add(x, task.transfer_s);
      }
      if (job.scheduler) {
        job.scheduler->on_complete({task.local, task.grains, task.transfer_s,
                                    task.exec_s, task.start, sh.now});
      }
      if (job.completed >= job.total) {
        complete_job(sh, task.job);
        assign_work(sh);
        return;
      }
      if (un.revoke_pending && !un.dead) {
        revoke_now(sh, task.job, ev.unit);
        renegotiate(sh);
      }
    }
    if (job.phase == JobPhase::kDraining && job.in_flight == 0 &&
        !job.held.empty()) {
      start_epoch(sh, task.job);
    }
    assign_work(sh);
  }

  // ---- the event loop(s) -----------------------------------------------

  /// Fires the shard's next event. Callers guarantee the queue is
  /// non-empty and the shard has not failed.
  void step(ShardRt& sh) {
    const Ev ev = sh.events.top();
    sh.events.pop();
    PLBHEC_ASSERT(ev.time >= sh.now);
    sh.now = ev.time;
    if (++sh.processed > options.max_events) {
      fail(sh, "service exceeded the event watchdog");
      return;
    }
    if (sh.now > options.max_sim_time) {
      fail(sh, "service exceeded the simulated-time watchdog");
      return;
    }
    switch (ev.kind) {
      case EvKind::kArrival:
        jobs[ev.job].phase = JobPhase::kQueued;
        sh.queue.push(ev.job);
        renegotiate(sh);
        assign_work(sh);
        break;
      case EvKind::kCompletion:
        handle_completion(sh, ev, /*failed=*/false);
        break;
      case EvKind::kFailure:
        handle_completion(sh, ev, /*failed=*/true);
        break;
    }
  }

  [[nodiscard]] double effective_quantum() const {
    if (options.broker_quantum > 0.0) return options.broker_quantum;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const JobSpec& spec : specs) {
      lo = std::min(lo, spec.arrival_time);
      hi = std::max(hi, spec.arrival_time);
    }
    const double span = hi - lo;
    if (specs.size() < 2 || span <= 0.0) return 1e-3;
    return std::max(1e-6,
                    4.0 * span / static_cast<double>(specs.size() - 1));
  }

  /// The sequential cross-shard barrier: merge deferred store writes,
  /// re-apportion unit entitlements by demand, migrate idle units from
  /// over-provisioned shards to starving ones, then let every shard
  /// renegotiate against its new budget at the barrier clock.
  void broker(double t) {
    ++res.broker_rounds;

    for (ShardRt& sh : shards) {
      for (ProfileEntry& entry : sh.store_outbox) store.put(std::move(entry));
      sh.store_outbox.clear();
    }

    std::vector<std::size_t> owned(nshards, 0);
    for (rt::UnitId g = 0; g < n; ++g) {
      if (!units[g].dead) ++owned[owner_shard[g]];
    }
    std::size_t total = 0;
    for (const std::size_t c : owned) total += c;
    if (total == 0) return;

    // Demand per shard: jobs it is running plus jobs it has queued.
    std::vector<std::size_t> weight(nshards, 0);
    bool any_demand = false;
    for (const ShardRt& sh : shards) {
      weight[sh.index] = sh.active.size() + sh.queue.size();
      any_demand = any_demand || weight[sh.index] > 0;
    }
    if (!any_demand) {
      for (ShardRt& sh : shards) sh.unit_budget = owned[sh.index];
      return;
    }

    // Entitlements: every demanding shard gets one unit while supply
    // lasts (the cross-shard fairness floor), the rest by largest
    // remainder over demand weights. Deterministic: shard-id order.
    std::vector<std::size_t> entitle(nshards, 0);
    std::size_t left = total;
    double wsum = 0.0;
    for (std::uint32_t s = 0; s < nshards; ++s) {
      if (weight[s] == 0 || left == 0) continue;
      entitle[s] = 1;
      --left;
      wsum += static_cast<double>(weight[s]);
    }
    if (left > 0 && wsum > 0.0) {
      std::vector<std::pair<double, std::uint32_t>> rem;
      std::size_t given = 0;
      for (std::uint32_t s = 0; s < nshards; ++s) {
        if (entitle[s] == 0) continue;
        const double exact = static_cast<double>(left) *
                             static_cast<double>(weight[s]) / wsum;
        const auto whole = static_cast<std::size_t>(exact);
        entitle[s] += whole;
        given += whole;
        rem.push_back({exact - static_cast<double>(whole), s});
      }
      std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      for (std::size_t i = 0; given < left && i < rem.size(); ++i, ++given) {
        ++entitle[rem[i].second];
      }
    }

    // Migrate idle unleased units toward entitlement. Leased surplus is
    // shed by the donor's own renegotiation (revoke at block boundary)
    // and crosses over on a later round.
    std::vector<std::size_t> give(nshards, 0);
    for (std::uint32_t s = 0; s < nshards; ++s) {
      if (owned[s] > entitle[s]) give[s] = owned[s] - entitle[s];
    }
    for (std::uint32_t r = 0; r < nshards; ++r) {
      std::size_t need =
          entitle[r] > owned[r] ? entitle[r] - owned[r] : 0;
      for (rt::UnitId g = 0; g < n && need > 0; ++g) {
        const std::uint32_t s = owner_shard[g];
        if (s == r || give[s] == 0) continue;
        const UnitRt& un = units[g];
        if (un.dead || un.leased || un.busy) continue;
        owner_shard[g] = r;
        --give[s];
        --need;
        ++owned[r];
        --owned[s];
        ++res.broker_migrations;
        PLBHEC_OBS_RECORD(options.sink,
                          {t, obs::EventKind::kShardMigration,
                           static_cast<std::uint32_t>(g), 0.0, 0.0, s, r});
      }
    }

    for (ShardRt& sh : shards) {
      sh.unit_budget = entitle[sh.index];
      sh.now = std::max(sh.now, t);
      renegotiate(sh);
      assign_work(sh);
    }
  }

  /// shards > 1: conservative windowed parallelism. Every round each
  /// shard independently fires its events up to window_end (disjoint
  /// state, no locks), then the broker runs sequentially. The window
  /// always covers the globally earliest pending event, so each round
  /// makes progress and the loop terminates exactly when no shard has
  /// events left.
  void windowed_loop() {
    exec::ThreadPool& pool = exec::ThreadPool::global();
    const double quantum = effective_quantum();
    double window_end = -std::numeric_limits<double>::infinity();
    for (;;) {
      double earliest = std::numeric_limits<double>::infinity();
      bool failed = false;
      for (const ShardRt& sh : shards) {
        if (!sh.error.empty()) failed = true;
        if (!sh.events.empty()) {
          earliest = std::min(earliest, sh.events.top().time);
        }
      }
      if (failed || earliest == std::numeric_limits<double>::infinity()) {
        break;
      }
      window_end = std::max(window_end, earliest) + quantum;
      pool.parallel_for(0, nshards, 1,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t s = begin; s < end; ++s) {
                            ShardRt& sh = shards[s];
                            while (!sh.events.empty() && sh.error.empty() &&
                                   sh.events.top().time <= window_end) {
                              step(sh);
                            }
                          }
                        });
      broker(window_end);
    }
  }

  void run() {
    n = cluster.size();
    nshards = std::max<std::size_t>(
        1, std::min(options.shards, std::max<std::size_t>(n, 1)));
    res.shards_used = nshards;
    units.assign(n, {});
    owner_shard.resize(n);
    for (rt::UnitId g = 0; g < n; ++g) {
      owner_shard[g] = static_cast<std::uint32_t>(g % nshards);
    }
    unit_rng.clear();
    unit_rng.reserve(n);
    Rng master(options.seed);
    for (rt::UnitId g = 0; g < n; ++g) unit_rng.push_back(master.fork(g + 1));

    shards.clear();
    shards.reserve(nshards);
    for (std::uint32_t s = 0; s < nshards; ++s) {
      shards.emplace_back(specs);
      shards.back().index = s;
    }
    for (ShardRt& sh : shards) sh.unit_budget = alive_owned(sh.index);

    jobs.resize(specs.size());
    res.jobs.resize(specs.size());
    res.ok = true;
    for (JobId id = 0; id < specs.size(); ++id) {
      const JobSpec& spec = specs[id];
      JobRt& job = jobs[id];
      job.shard = static_cast<std::uint32_t>(id % nshards);
      job.workload = spec.make_workload();
      PLBHEC_EXPECTS(job.workload != nullptr);
      job.total = job.workload->total_grains();
      PLBHEC_EXPECTS(job.total > 0);
      job.profile = job.workload->profile();
      job.bytes_per_grain = job.workload->bytes_per_grain();
      job.exec_obs.resize(n);
      job.transfer_obs.resize(n);
      JobOutcome& out = res.jobs[id];
      out.id = id;
      out.name = spec.name;
      out.app_kind = spec.app_kind;
      out.priority = spec.priority;
      out.arrival = spec.arrival_time;
      out.total_grains = job.total;
    }

    // Arrival events, sequenced by (time, submission order) per shard.
    std::vector<JobId> by_arrival(specs.size());
    for (JobId id = 0; id < specs.size(); ++id) by_arrival[id] = id;
    std::stable_sort(by_arrival.begin(), by_arrival.end(),
                     [&](JobId a, JobId b) {
                       return specs[a].arrival_time < specs[b].arrival_time;
                     });
    for (JobId id : by_arrival) {
      ShardRt& sh = shards[jobs[id].shard];
      sh.events.push(
          {specs[id].arrival_time, sh.seq++, EvKind::kArrival, id, 0});
    }

    if (nshards == 1) {
      ShardRt& sh = shards[0];
      while (!sh.events.empty() && sh.error.empty()) step(sh);
    } else {
      windowed_loop();
    }
    finalize();
  }

  void finalize() {
    for (const ShardRt& sh : shards) {
      if (!sh.error.empty() && res.error.empty()) res.error = sh.error;
    }
    if (res.error.empty()) {
      for (JobId id = 0; id < jobs.size(); ++id) {
        if (jobs[id].phase != JobPhase::kDone) {
          res.error = "job '" + specs[id].name +
                      "' never completed (service stalled)";
          break;
        }
      }
    }
    res.ok = res.error.empty();

    bool any_completed = false;
    for (ShardRt& sh : shards) {
      res.leases_granted += sh.leases_granted;
      res.leases_revoked += sh.leases_revoked;
      res.scheduler_restarts += sh.scheduler_restarts;
      res.busy_unit_seconds += sh.busy_unit_seconds;
      any_completed = any_completed || !sh.completion_order.empty();
    }
    if (nshards == 1) {
      res.completion_order = std::move(shards[0].completion_order);
    } else {
      for (const ShardRt& sh : shards) {
        res.completion_order.insert(res.completion_order.end(),
                                    sh.completion_order.begin(),
                                    sh.completion_order.end());
      }
      std::sort(res.completion_order.begin(), res.completion_order.end(),
                [&](JobId a, JobId b) {
                  if (res.jobs[a].finished != res.jobs[b].finished) {
                    return res.jobs[a].finished < res.jobs[b].finished;
                  }
                  return a < b;
                });
      // Late store writes (outboxes already drain at every broker round;
      // this catches a final window that ended the run) + one persist.
      for (ShardRt& sh : shards) {
        for (ProfileEntry& entry : sh.store_outbox) {
          store.put(std::move(entry));
        }
        sh.store_outbox.clear();
      }
      if (!options.store_path.empty() && any_completed) {
        (void)store.save(options.store_path);
      }
    }

    for (const JobOutcome& out : res.jobs) {
      res.makespan = std::max(res.makespan, out.finished);
      res.probe_blocks += out.probe_blocks;
      res.probe_blocks_saved += out.probe_blocks_saved;
      res.warm_hits += out.warm_hits;
      res.warm_misses += out.warm_misses;
      res.warm_stale_skips += out.warm_stale_skips;
      res.drift_detections += out.drift_detections;
      res.reprobe_blocks += out.reprobe_blocks;
      res.reprobe_swaps += out.reprobe_swaps;
    }
    res.fit_memo_hits = memo.hits();
    res.fit_memo_misses = memo.misses();
    if (res.makespan > 0.0 && n > 0) {
      res.utilization =
          res.busy_unit_seconds / (static_cast<double>(n) * res.makespan);
    }
  }
};

}  // namespace

JobManager::JobManager(const sim::SimCluster& cluster, ServiceOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  if (!options_.store_path.empty()) {
    store_status_ = ProfileStore::load(options_.store_path, store_);
    if (store_status_ != StoreLoadStatus::kOk &&
        store_status_ != StoreLoadStatus::kMissing &&
        options_.counters != nullptr) {
      options_.counters->add("svc.store.load_failed");
    }
  }
}

JobId JobManager::submit(JobSpec spec) {
  PLBHEC_EXPECTS(!ran_);
  PLBHEC_EXPECTS(spec.make_workload != nullptr);
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

ServiceResult JobManager::run() {
  PLBHEC_EXPECTS(!ran_);
  ran_ = true;
  ServiceSim sim(cluster_, options_, specs_, store_);
  sim.res.store_status = store_status_;
  if (specs_.empty()) {
    sim.res.ok = true;
    return std::move(sim.res);
  }
  sim.run();
  if (obs::CounterRegistry* reg = options_.counters) {
    reg->add("svc.jobs_submitted", specs_.size());
    reg->add("svc.jobs_completed", sim.res.completion_order.size());
    reg->add("svc.leases_granted", sim.res.leases_granted);
    reg->add("svc.leases_revoked", sim.res.leases_revoked);
    reg->add("svc.scheduler_restarts", sim.res.scheduler_restarts);
    reg->add("svc.warmstart.hits", sim.res.warm_hits);
    reg->add("svc.warmstart.misses", sim.res.warm_misses);
    reg->add("svc.warmstart.stale_skips", sim.res.warm_stale_skips);
    reg->add("svc.adapt.drift_detections", sim.res.drift_detections);
    reg->add("svc.adapt.reprobe_blocks", sim.res.reprobe_blocks);
    reg->add("svc.adapt.reprobe_swaps", sim.res.reprobe_swaps);
    reg->add("svc.probe_blocks", sim.res.probe_blocks);
    reg->add("svc.probe_blocks_saved", sim.res.probe_blocks_saved);
    reg->add("svc.shards", sim.res.shards_used);
    reg->add("svc.broker.rounds", sim.res.broker_rounds);
    reg->add("svc.broker.migrations", sim.res.broker_migrations);
    reg->add("svc.fit_memo.hits", sim.res.fit_memo_hits);
    reg->add("svc.fit_memo.misses", sim.res.fit_memo_misses);
  }
  return std::move(sim.res);
}

}  // namespace plbhec::svc
