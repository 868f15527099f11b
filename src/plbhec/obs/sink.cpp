#include "plbhec/obs/sink.hpp"

#include <algorithm>

namespace plbhec::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kProbeIssued: return "probe_issued";
    case EventKind::kBlockDispatched: return "block_dispatched";
    case EventKind::kModelFitted: return "model_fitted";
    case EventKind::kSolve: return "solve";
    case EventKind::kRebalanceTriggered: return "rebalance_triggered";
    case EventKind::kRefinement: return "refinement";
    case EventKind::kPhaseChange: return "phase_change";
    case EventKind::kBarrier: return "barrier";
    case EventKind::kUnitFailed: return "unit_failed";
    case EventKind::kWeightUpdate: return "weight_update";
    case EventKind::kIterationSync: return "iteration_sync";
    case EventKind::kJobAdmitted: return "job_admitted";
    case EventKind::kJobCompleted: return "job_completed";
    case EventKind::kLeaseGranted: return "lease_granted";
    case EventKind::kLeaseRevoked: return "lease_revoked";
    case EventKind::kWarmStartHit: return "warmstart_hit";
    case EventKind::kWarmStartMiss: return "warmstart_miss";
    case EventKind::kMsgSent: return "msg_sent";
    case EventKind::kMsgReceived: return "msg_received";
    case EventKind::kHeartbeatMissed: return "heartbeat_missed";
    case EventKind::kReconnect: return "reconnect";
    case EventKind::kKernelDispatch: return "kernel_dispatch";
  }
  return "unknown";
}

std::array<const char*, 4> arg_names(EventKind kind) {
  // Order: names of {a, b, i, j}.
  switch (kind) {
    case EventKind::kProbeIssued:
      return {nullptr, nullptr, "grains", "round"};
    case EventKind::kBlockDispatched:
      return {nullptr, nullptr, "grains", "sequence"};
    case EventKind::kModelFitted:
      return {"r2", nullptr, "samples", "acceptable"};
    case EventKind::kSolve:
      return {"solve_seconds", "predicted_time", "kkt_solves", "flags"};
    case EventKind::kRebalanceTriggered:
      return {"deviation", "threshold", "strikes", nullptr};
    case EventKind::kRefinement:
      return {nullptr, nullptr, "budget_left", nullptr};
    case EventKind::kPhaseChange:
      return {"consumed_grains", nullptr, "phase", nullptr};
    case EventKind::kBarrier:
      return {nullptr, nullptr, "count", nullptr};
    case EventKind::kUnitFailed:
      return {nullptr, nullptr, "lost_grains", nullptr};
    case EventKind::kWeightUpdate:
      return {"weight", "rel_change", "samples", nullptr};
    case EventKind::kIterationSync:
      return {"time_spread", nullptr, "iteration", "equilibrium"};
    case EventKind::kJobAdmitted:
      return {"queue_wait", nullptr, "job", "queued"};
    case EventKind::kJobCompleted:
      return {"makespan", "queue_wait", "job", "grains"};
    case EventKind::kLeaseGranted:
      return {nullptr, nullptr, "job", "held"};
    case EventKind::kLeaseRevoked:
      return {nullptr, nullptr, "from_job", "to_job"};
    case EventKind::kWarmStartHit:
      return {"rel_error", "r2", "seeded_samples", nullptr};
    case EventKind::kWarmStartMiss:
      return {"rel_error", "r2", "seeded_samples", nullptr};
    case EventKind::kMsgSent:
      return {nullptr, nullptr, "bytes", "msg_type"};
    case EventKind::kMsgReceived:
      return {nullptr, nullptr, "bytes", "msg_type"};
    case EventKind::kHeartbeatMissed:
      return {"overdue_seconds", nullptr, "missed", "sequence"};
    case EventKind::kReconnect:
      return {"backoff_seconds", nullptr, "attempt", "success"};
    case EventKind::kKernelDispatch:
      return {"width", nullptr, "isa", "kernel_hash"};
  }
  return {nullptr, nullptr, nullptr, nullptr};
}

#if PLBHEC_OBS_ENABLED

struct EventSink::Shard {
  std::thread::id owner;
  std::mutex mutex;  ///< uncontended except against drain()
  std::vector<Event> events;
};

namespace {

/// One-entry per-thread cache of the last sink this thread recorded into.
/// The epoch makes the cache safe against sink destruction: a new sink at
/// the same address gets a fresh epoch, so a stale entry never matches.
struct TlsShardCache {
  const void* sink = nullptr;
  std::uint64_t epoch = 0;
  EventSink::Shard* shard = nullptr;
};
thread_local TlsShardCache tls_shard_cache;

std::atomic<std::uint64_t> next_sink_epoch{1};

}  // namespace

EventSink::EventSink()
    : epoch_(next_sink_epoch.fetch_add(1, std::memory_order_relaxed)) {}

EventSink::~EventSink() = default;

EventSink::Shard& EventSink::local_shard() {
  TlsShardCache& cache = tls_shard_cache;
  if (cache.sink == this && cache.epoch == epoch_) return *cache.shard;

  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard lock(mutex_);
  for (auto& shard : shards_) {
    if (shard->owner == self) {
      cache = {this, epoch_, shard.get()};
      return *shard;
    }
  }
  shards_.push_back(std::make_unique<Shard>());
  Shard& shard = *shards_.back();
  shard.owner = self;
  shard.events.reserve(256);
  cache = {this, epoch_, &shard};
  return shard;
}

void EventSink::record(const Event& event) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mutex);
  shard.events.push_back(event);
}

std::vector<Event> EventSink::drain() {
  std::vector<Event> out;
  {
    std::lock_guard lock(mutex_);
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->events.size();
    out.reserve(total);
    for (auto& shard : shards_) {
      std::lock_guard shard_lock(shard->mutex);
      out.insert(out.end(), shard->events.begin(), shard->events.end());
      shard->events.clear();
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) {
                     return x.time < y.time;
                   });
  return out;
}

std::size_t EventSink::size() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard shard_lock(shard->mutex);
    total += shard->events.size();
  }
  return total;
}

#endif  // PLBHEC_OBS_ENABLED

}  // namespace plbhec::obs
