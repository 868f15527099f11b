/// Entry point of the repository benchmark. Runs one workload repeatedly
/// for a fixed time and prints, as its last stdout line, one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// With --trace 0 the metrics are the end-to-end ones (medians over the
/// repetitions); with --trace 1 they are the per-layer ones, measured on
/// traced repetitions interleaved with untraced ones.
///
/// Usage: perfbench --workload <local_step|remote_pipelined|service_trace>
///                  --seed <n> --seconds <s> --trace <0|1> [--spans <path>]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "bench/common.hpp"
#include "plbhec/kdisp/isa.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"wall_s", "s"}, {"rss_peak_mb", "MB"}};

/// Every per-layer metric. A workload that does not run a layer reports 0
/// for it (no net blocks on local_step, no service on the engine runs).
constexpr MetricDef kPerLayer[] = {
    {"core.calls", "count"},
    {"core.busy_s", "s"},
    {"core.call_p50_us", "us"},
    {"core.call_p99_us", "us"},
    {"core.solves", "count"},
    {"core.rebalances", "count"},
    {"core.refinements", "count"},
    {"core.fits_computed", "count"},
    {"core.kkt_solves", "count"},
    {"core.probe_blocks", "count"},
    {"fit.select_us_p50", "us"},
    {"fit.select_us_p99", "us"},
    {"solver.select_us_p50", "us"},
    {"solver.select_us_p99", "us"},
    {"rt.blocks", "count"},
    {"rt.gap_s", "s"},
    {"rt.gap_p99_us", "us"},
    {"rt.idle_frac", "fraction"},
    {"rt.barriers", "count"},
    {"rt.grains_requeued", "count"},
    {"rt.conservation_err", "fraction"},
    {"kernel.busy_s", "s"},
    {"kernel.ns_per_grain_p50", "ns"},
    {"kernel.gflops", "GFLOP/s"},
    {"exec.pool_tasks", "count"},
    {"exec.pool_steals", "count"},
    {"exec.parallel_fors", "count"},
    {"net.blocks", "count"},
    {"net.block_wall_p50_us", "us"},
    {"net.block_wall_p99_us", "us"},
    {"net.wire_s", "s"},
    {"net.kernel_s", "s"},
    {"net.overlap_frac", "fraction"},
    {"net.chunks", "count"},
    {"net.batched_results", "count"},
    {"net.inflight_peak", "count"},
    {"net.reconnects", "count"},
    {"net.heartbeats_missed", "count"},
    {"workerd.frames_received", "count"},
    {"workerd.reactor_wakeups_per_frame", "ratio"},
    {"svc.wall_per_job_us", "us"},
    {"svc.leases_granted", "count"},
    {"svc.leases_revoked", "count"},
    {"svc.scheduler_restarts", "count"},
    {"svc.probe_blocks", "count"},
    {"svc.warm_hits", "count"},
    {"svc.utilization", "fraction"},
    {"svc.queue_wait_p50_s", "s"},
    {"svc.queue_wait_p999_s", "s"},
    {"svc.vt_makespan_s", "s"},
    {"svc.stretch_p50", "ratio"},
    {"svc.stretch_p999", "ratio"},
    {"trace_overhead_frac", "fraction"},
};

/// Parks pool lanes for the process lifetime so that the workload's own
/// compute threads plus the global pool's free lanes stay within nproc.
class LaneReservation {
 public:
  LaneReservation(plbhec::exec::ThreadPool& pool, unsigned count) {
    for (unsigned i = 0; i < count; ++i)
      pool.submit([this] {
        std::unique_lock lock(mutex_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        --parked_;
        cv_.notify_all();
      });
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return parked_ == count; });
  }
  ~LaneReservation() {
    std::unique_lock lock(mutex_);
    released_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return parked_ == 0; });
  }
  LaneReservation(const LaneReservation&) = delete;
  LaneReservation& operator=(const LaneReservation&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  unsigned parked_ = 0;     ///< guarded by mutex_
  bool released_ = false;   ///< guarded by mutex_
};

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<local_step|remote_pipelined|service_trace> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(value, nullptr);
    else if (key == "--trace") trace = std::atoi(value);
    else if (key == "--spans") spans_path = value;
    else return usage_error("unknown argument");
  }
  if (argc % 2 == 0) return usage_error("arguments come in pairs");
  if (seconds <= 0.0) return usage_error("--seconds must be positive");

  // Serve every large buffer (matrices, result frames) from its own
  // mapping and return it on free. glibc's default adapts the threshold
  // upwards after the first free, after which freed matrices stay in
  // whichever thread's arena held them and the peak RSS depends on thread
  // timing rather than on what the workload keeps live.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  std::unique_ptr<BenchWorkload> bench;
  if (workload == "local_step") bench = make_local_step(seed);
  else if (workload == "remote_pipelined") bench = make_remote_pipelined(seed);
  else if (workload == "service_trace") bench = make_service_trace(seed);
  else return usage_error("unknown workload");

  // Load rule: the workload's compute threads plus the pool lanes left
  // free stay within nproc. One lane always stays free: parallel_for
  // queues helper tasks that only a running lane retires.
  plbhec::exec::ThreadPool& pool = plbhec::exec::ThreadPool::global();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = bench->compute_threads();
  const unsigned want_free = nproc > threads ? nproc - threads : 0;
  const unsigned parked =
      pool.workers() > std::max(want_free, 1u)
          ? pool.workers() - std::max(want_free, 1u)
          : 0;
  const LaneReservation reservation(pool, parked);
  const unsigned runnable = threads + pool.workers() - parked;

  std::printf("host nproc=%u isa=%s compiler=\"%s\" build_type=%s "
              "pool_workers=%u pool_workers_parked=%u compute_threads=%u%s\n",
              nproc,
              plbhec::kdisp::to_string(plbhec::kdisp::effective_isa()),
              compiler(), PERFBENCH_BUILD_TYPE, pool.workers(), parked,
              runnable, runnable > nproc ? " (exceeds nproc)" : "");

  // A discarded warm-up repetition where the workload needs one, then
  // repetitions until the time is up: untraced only with --trace 0,
  // alternating with traced ones with --trace 1. Every repetition's
  // outputs are checked.
  SpanRecorder recorder;
  std::vector<Rep> plain, traced;
  OpCount ops;
  std::string failure;
  std::string identity;
  const auto account = [&](const Rep& rep) {
    ops.add(rep.ops);
    if (failure.empty() && !rep.failure.empty()) failure = rep.failure;
    if (identity.empty()) identity = rep.identity;
    if (failure.empty() && rep.identity != identity)
      failure = "outputs differ between repetitions of one seed (" +
                identity + " vs " + rep.identity + ")";
  };
  if (bench->needs_warmup()) account(bench->run(nullptr));
  const std::size_t min_reps = trace ? 2 : 3;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] { return seconds_since(start); };
  while (failure.empty()) {
    const bool enough_plain = plain.size() >= min_reps;
    const bool enough_traced = !trace || traced.size() >= min_reps;
    if (enough_plain && enough_traced && elapsed() >= seconds) break;
    const bool run_traced = trace && traced.size() < plain.size();
    Rep rep = bench->run(run_traced ? &recorder : nullptr);
    account(rep);
    (run_traced ? traced : plain).push_back(std::move(rep));
  }

  const auto median_of = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return median(v);
  };
  Metrics metrics;
  metrics["setup_s"] = median_of(plain, [](const Rep& r) { return r.setup_s; });
  metrics["wall_s"] = median_of(plain, [](const Rep& r) { return r.wall_s; });
  metrics["rss_peak_mb"] = rss_peak_mb();

  std::printf("workload %s seed %llu trace %d: %zu timed + %zu traced "
              "repetitions, warm-up %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed), trace,
              plain.size(), traced.size(),
              bench->needs_warmup() ? "1" : "0");
  for (const MetricDef& m : kEndToEnd)
    std::printf("%s %.6g %s\n", m.name, metrics[m.name], m.unit);
  for (const auto* reps : {&plain, &traced}) {
    if (reps->empty()) continue;
    std::printf("%s wall_s per repetition:",
                reps == &plain ? "timed" : "traced");
    for (const Rep& r : *reps) std::printf(" %.4f", r.wall_s);
    std::printf("\n");
  }
  std::printf("failed_frac %.6g fraction (%llu failed of %llu attempted)\n",
              ops.failed_frac(), static_cast<unsigned long long>(ops.failed),
              static_cast<unsigned long long>(ops.attempted));
  // Outcomes are also per-layer metrics under "svc."; print that unit.
  if (!plain.empty())
    for (const auto& [name, value] : plain.back().outcomes)
      for (const MetricDef& m : kPerLayer)
        if ("svc." + name == m.name)
          std::printf("%s %.10g %s\n", name.c_str(), value, m.unit);
  if (!identity.empty()) std::printf("identity %s\n", identity.c_str());

  Metrics report;
  const MetricDef* defs = kEndToEnd;
  std::size_t ndefs = std::size(kEndToEnd);
  if (trace) {
    defs = kPerLayer;
    ndefs = std::size(kPerLayer);
    std::map<std::string, std::vector<double>> samples;
    for (const Rep& r : traced)
      for (const auto& [name, value] : r.layers) samples[name].push_back(value);
    for (const auto& [name, values] : samples) report[name] = median(values);
    // Time conservation, summed over the traced repetitions so that one
    // preemption inside a unit's execute() does not decide it alone.
    double traced_wall = 0.0;
    std::vector<double> unattributed;
    for (const Rep& r : traced) {
      traced_wall += r.wall_s;
      unattributed.resize(
          std::max(unattributed.size(), r.unattributed_s.size()));
      for (std::size_t u = 0; u < r.unattributed_s.size(); ++u)
        unattributed[u] += r.unattributed_s[u];
    }
    double worst = 0.0;
    if (traced_wall > 0.0)
      for (double u : unattributed)
        worst = std::max(worst, std::fabs(u) / traced_wall);
    report["rt.conservation_err"] = worst;
    if (worst > kConservationTolerance && failure.empty())
      failure = "time conservation: a unit's block plus gap time misses "
                "the wall time by " + std::to_string(worst) + " of it";
    const double untraced_wall = metrics["wall_s"];
    report["trace_overhead_frac"] =
        untraced_wall > 0.0
            ? median_of(traced, [](const Rep& r) { return r.wall_s; }) /
                      untraced_wall -
                  1.0
            : 0.0;
    for (const MetricDef& m : kPerLayer)
      std::printf("%s %.6g %s%s\n", m.name, report[m.name], m.unit,
                  std::strcmp(m.name, "kernel.gflops") == 0
                      ? " (computed from the flop count)"
                      : "");
    for (const auto& [name, self] : self_times(recorder.spans()))
      std::printf("self_time %s %.6f s\n", name.c_str(), self);
    if (!spans_path.empty()) {
      if (recorder.write_jsonl(spans_path))
        std::printf("spans %s\n", spans_path.c_str());
      else if (failure.empty())
        failure = "cannot write spans to " + spans_path;
    }
  } else {
    report = metrics;
  }
  std::printf("check %s\n", failure.empty() ? "ok" : failure.c_str());

  std::string json = "{\"correct\": ";
  json += failure.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < ndefs; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, report[defs[i].name],
                  defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failure.empty() ? 0 : 1;
}
