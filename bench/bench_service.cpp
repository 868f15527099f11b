// Open-loop service benchmark: replays a fixed-seed Poisson arrival trace
// of mixed matmul / Black-Scholes / GRN / SpMV / stencil jobs through the
// multi-tenant
// JobManager twice against the same on-disk ProfileStore -- once cold
// (store file absent) and once warm (store populated by the cold run) --
// and reports per-job stretch vs running alone, queue wait, utilization
// and the probing blocks the warm start saved. Emits JSON (stdout, plus
// an output path if given); the committed baseline lives in
// bench/results/bench_service.json and tools/check_bench.py gates the
// probing-saved ratio and the structural identity of the arrival trace.
// `--smoke` runs a smaller trace and exits nonzero when the warm run does
// not beat the cold run on probing blocks or when two warm replays from
// identical store images diverge (completion order or makespan).
//
// A second section replays a 10k-job Poisson trace through the service's
// event loop once, reporting p50/p95/p99 job stretch and queue wait
// (virtual time, deterministic), the loop's wall-clock, and a digest of
// the completion order for replay identity.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <chrono>

#include "plbhec/apps/blackscholes.hpp"
#include "plbhec/apps/grn.hpp"
#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/spmv.hpp"
#include "plbhec/apps/stencil.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/sim/machine.hpp"
#include "plbhec/svc/job_manager.hpp"

namespace {

namespace apps = plbhec::apps;
namespace sim = plbhec::sim;
namespace svc = plbhec::svc;
namespace fs = std::filesystem;

/// One templated job kind the trace draws from. The same app_kind string
/// recurs across the trace, so the warm run can reuse stored profiles.
struct KindTemplate {
  std::string app_kind;
  std::function<std::unique_ptr<plbhec::rt::Workload>()> make;
};

std::vector<KindTemplate> kind_pool() {
  std::vector<KindTemplate> pool;
  pool.push_back({"matmul-1024",
                  [] { return std::make_unique<apps::MatMulWorkload>(1024); }});
  pool.push_back({"bs-300k", [] {
                    return std::make_unique<apps::BlackScholesWorkload>(
                        300'000);
                  }});
  pool.push_back({"grn-10k", [] {
                    return std::make_unique<apps::GrnWorkload>(
                        apps::GrnWorkload::paper_instance(10'000));
                  }});
  pool.push_back({"spmv-200k", [] {
                    return std::make_unique<apps::SpmvWorkload>(
                        apps::SpmvWorkload::paper_instance(200'000));
                  }});
  pool.push_back({"stencil-100k", [] {
                    return std::make_unique<apps::StencilWorkload>(
                        apps::StencilWorkload::paper_instance(100'000));
                  }});
  return pool;
}

/// Lightweight kind pool for the 10k trace. JobManager materializes every
/// workload up-front, so 10k matmul-1024 jobs would hold ~250 GB of
/// matrices; SyntheticWorkload carries only its cost profile and keeps
/// the trace a pure coordinator-throughput measurement.
std::vector<KindTemplate> synthetic_pool() {
  const auto syn = [](std::size_t grains, double flops) {
    apps::SyntheticWorkload::Config config;
    config.grains = grains;
    config.flops_per_grain = flops;
    config.bytes_per_grain = 2048.0;
    return [config] { return std::make_unique<apps::SyntheticWorkload>(config); };
  };
  std::vector<KindTemplate> pool;
  pool.push_back({"syn-small", syn(2'000, 8e5)});
  pool.push_back({"syn-medium", syn(5'000, 4e5)});
  pool.push_back({"syn-large", syn(12'000, 2e5)});
  return pool;
}

/// Deterministic open-loop trace: exponential inter-arrivals (Poisson
/// process) from the integer RNG stream, kinds cycling through the pool,
/// priorities drawn 20% high / 60% normal / 20% low.
std::vector<svc::JobSpec> make_trace(std::size_t jobs, std::uint64_t seed,
                                     double mean_gap,
                                     const std::vector<KindTemplate>& pool) {
  plbhec::Rng rng(seed);
  std::vector<svc::JobSpec> trace;
  double t = 0.0;
  for (std::size_t i = 0; i < jobs; ++i) {
    const KindTemplate& kind = pool[i % pool.size()];
    const std::int64_t draw = rng.uniform_int(0, 9);
    const svc::PriorityClass priority =
        draw < 2   ? svc::PriorityClass::kHigh
        : draw < 8 ? svc::PriorityClass::kNormal
                   : svc::PriorityClass::kLow;
    const double u = rng.uniform();
    t += -mean_gap * std::log(1.0 - std::min(u, 1.0 - 1e-12));
    trace.push_back({kind.app_kind + "/" + std::to_string(i), kind.app_kind,
                     priority, t, kind.make});
  }
  return trace;
}

svc::ServiceResult run_trace(const sim::SimCluster& cluster,
                             const std::vector<svc::JobSpec>& trace,
                             const std::string& store_path,
                             std::uint64_t seed) {
  svc::ServiceOptions options;
  options.noise = sim::NoiseModel::none();
  options.seed = seed;
  options.store_path = store_path;
  svc::JobManager manager(cluster, options);
  for (const svc::JobSpec& spec : trace) manager.submit(spec);
  return manager.run();
}

/// Makespan of the job running alone on the whole cluster, cold store.
/// Used as the denominator of the per-job stretch.
double solo_makespan(const sim::SimCluster& cluster, const svc::JobSpec& spec,
                     std::uint64_t seed) {
  svc::ServiceOptions options;
  options.noise = sim::NoiseModel::none();
  options.seed = seed;
  svc::JobManager manager(cluster, options);
  svc::JobSpec solo = spec;
  solo.arrival_time = 0.0;
  manager.submit(std::move(solo));
  const svc::ServiceResult r = manager.run();
  return r.ok ? r.makespan : -1.0;
}

std::string order_string(const std::vector<svc::JobId>& order) {
  std::string s;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(order[i]);
  }
  return s;
}

double mean_queue_wait(const svc::ServiceResult& r) {
  if (r.jobs.empty()) return 0.0;
  double sum = 0.0;
  for (const svc::JobOutcome& job : r.jobs) sum += job.queue_wait();
  return sum / static_cast<double>(r.jobs.size());
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  const std::size_t idx = static_cast<std::size_t>(std::max(
      0.0, std::ceil(rank) - 1.0));
  return values[std::min(idx, values.size() - 1)];
}

/// FNV-1a 64 digest of a completion order + makespan bits: one identity
/// token for "the 10k replay came out exactly the same".
std::uint64_t order_digest(const svc::ServiceResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const svc::JobId id : r.completion_order) mix(id);
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(r.makespan));
  std::memcpy(&bits, &r.makespan, sizeof(bits));
  mix(bits);
  return h;
}

/// One 10k-trace service pass; wall-clock is the DES throughput
/// measurement, everything inside the result is virtual time.
svc::ServiceResult run_trace10k(const sim::SimCluster& cluster,
                                const std::vector<svc::JobSpec>& trace,
                                std::uint64_t seed,
                                plbhec::obs::CounterRegistry* counters,
                                double* wall_seconds) {
  svc::ServiceOptions options;
  options.noise = sim::NoiseModel::none();
  options.seed = seed;
  options.counters = counters;
  svc::JobManager manager(cluster, options);
  for (const svc::JobSpec& spec : trace) manager.submit(spec);
  const auto t0 = std::chrono::steady_clock::now();
  svc::ServiceResult result = manager.run();
  *wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else
      out_path = arg;
  }

  // The trace is identical in smoke and full mode on purpose: CI runs
  // `--smoke fresh.json` and gates fresh.json against the committed
  // baseline, so the two must describe the same arrival trace.
  const std::size_t machines = 2;
  const std::size_t jobs = 12;
  const std::uint64_t seed = 42;
  const double mean_gap = 0.008;

  const sim::SimCluster cluster(sim::scenario(machines));
  const std::size_t units = cluster.size();
  const std::vector<svc::JobSpec> trace =
      make_trace(jobs, seed, mean_gap, kind_pool());

  const fs::path dir = fs::temp_directory_path();
  const fs::path store_cold = dir / "plbhec_bench_service_cold.store";
  const fs::path store_w1 = dir / "plbhec_bench_service_warm1.store";
  const fs::path store_w2 = dir / "plbhec_bench_service_warm2.store";
  std::error_code ec;
  for (const fs::path& p : {store_cold, store_w1, store_w2})
    fs::remove(p, ec);

  // Cold: store file absent, every job probes from scratch (jobs of the
  // same kind still share profiles in memory within the run). The run
  // persists the fitted profiles to store_cold.
  const svc::ServiceResult cold =
      run_trace(cluster, trace, store_cold.string(), seed);

  // Warm: same trace, same seed, against the store the cold run produced.
  // Two replays from identical store images double as the determinism
  // check (the first replay mutates its own copy on job completion, so
  // each replay gets a private copy).
  fs::copy_file(store_cold, store_w1, fs::copy_options::overwrite_existing,
                ec);
  fs::copy_file(store_cold, store_w2, fs::copy_options::overwrite_existing,
                ec);
  const svc::ServiceResult warm =
      run_trace(cluster, trace, store_w1.string(), seed);
  const svc::ServiceResult replay =
      run_trace(cluster, trace, store_w2.string(), seed);

  const bool all_ok = cold.ok && warm.ok && replay.ok;
  const bool replay_identical =
      warm.completion_order == replay.completion_order &&
      warm.makespan == replay.makespan;
  const double probing_saved_ratio =
      static_cast<double>(warm.probe_blocks_saved) /
      static_cast<double>(std::max<std::size_t>(cold.probe_blocks, 1));

  // Per-job stretch in the warm run vs running alone (solo baselines are
  // computed once per app kind; every trace job of a kind is identical).
  std::map<std::string, double> solo;
  for (const svc::JobSpec& spec : trace)
    if (!solo.count(spec.app_kind))
      solo[spec.app_kind] = solo_makespan(cluster, spec, seed);

  // --- 10k-job Poisson trace through the service's event loop.
  // Same seed discipline as the 12-job section but a synthetic kind pool
  // (see synthetic_pool()); no profile store, so the pass starts cold and
  // its wall-clock is pure coordinator throughput.
  // The gap puts the offered load around 85% of cluster capacity (mean
  // service demand is ~0.037 s/unit per job): queues form and drain, so
  // the tails reflect the scheduler rather than an unbounded backlog.
  const std::size_t jobs10k = 10'000;
  const double mean_gap10k = 0.045;
  const std::vector<svc::JobSpec> trace10k =
      make_trace(jobs10k, seed, mean_gap10k, synthetic_pool());

  // Solo baselines for the 10k kinds (stretch denominators).
  for (const svc::JobSpec& spec : trace10k)
    if (!solo.count(spec.app_kind))
      solo[spec.app_kind] = solo_makespan(cluster, spec, seed);

  double wall10k = 0.0;
  plbhec::obs::CounterRegistry counters10k;
  const svc::ServiceResult run10k =
      run_trace10k(cluster, trace10k, seed, &counters10k, &wall10k);

  std::vector<double> stretches, waits;
  stretches.reserve(run10k.jobs.size());
  waits.reserve(run10k.jobs.size());
  for (const svc::JobOutcome& job : run10k.jobs) {
    const double base = solo.count(job.app_kind) ? solo.at(job.app_kind)
                                                 : -1.0;
    if (base > 0.0) stretches.push_back(job.turnaround() / base);
    waits.push_back(job.queue_wait());
  }

  char buf[1024];
  std::string json = "{\n  \"benchmark\": \"bench_service\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"jobs\": %zu,\n  \"units\": %zu,\n  \"seed\": %llu,\n"
                "  \"mean_gap\": %.17g,\n",
                jobs, units, static_cast<unsigned long long>(seed), mean_gap);
  json += buf;

  std::string kinds, prios;
  json += "  \"arrival_times\": [";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      kinds += ",";
      prios += ",";
      json += ", ";
    }
    kinds += trace[i].app_kind;
    prios += svc::to_string(trace[i].priority);
    std::snprintf(buf, sizeof(buf), "%.17g", trace[i].arrival_time);
    json += buf;
  }
  json += "],\n";
  json += "  \"trace_kinds\": \"" + kinds + "\",\n";
  json += "  \"trace_priorities\": \"" + prios + "\",\n";

  std::snprintf(
      buf, sizeof(buf),
      "  \"makespan_cold\": %.17g,\n  \"makespan_warm\": %.17g,\n"
      "  \"utilization_cold\": %.4f,\n  \"utilization_warm\": %.4f,\n"
      "  \"queue_wait_mean_cold\": %.17g,\n"
      "  \"queue_wait_mean_warm\": %.17g,\n"
      "  \"probe_blocks_cold\": %zu,\n  \"probe_blocks_warm\": %zu,\n"
      "  \"probe_blocks_saved_warm\": %zu,\n"
      "  \"warm_hits\": %zu,\n  \"warm_misses\": %zu,\n"
      "  \"probing_saved_ratio\": %.4f,\n"
      "  \"leases_granted\": %zu,\n  \"leases_revoked\": %zu,\n"
      "  \"scheduler_restarts\": %zu,\n",
      cold.makespan, warm.makespan, cold.utilization, warm.utilization,
      mean_queue_wait(cold), mean_queue_wait(warm), cold.probe_blocks,
      warm.probe_blocks, warm.probe_blocks_saved, warm.warm_hits,
      warm.warm_misses, probing_saved_ratio, warm.leases_granted,
      warm.leases_revoked, warm.scheduler_restarts);
  json += buf;

  const double warm_vs_cold = cold.makespan > 0.0
                                  ? warm.makespan / cold.makespan
                                  : -1.0;
  std::snprintf(
      buf, sizeof(buf),
      "  \"warm_vs_cold_makespan_ratio\": %.4f,\n"
      "  \"trace10k_jobs\": %zu,\n"
      "  \"trace10k_mean_gap\": %.17g,\n"
      "  \"trace10k_makespan\": %.17g,\n"
      "  \"trace10k_utilization\": %.4f,\n"
      "  \"stretch_p50\": %.4f,\n  \"stretch_p95\": %.4f,\n"
      "  \"stretch_p99\": %.4f,\n"
      "  \"queue_wait_p50\": %.6f,\n  \"queue_wait_p95\": %.6f,\n"
      "  \"queue_wait_p99\": %.6f,\n"
      "  \"trace10k_order_digest\": \"%016llx\",\n"
      "  \"wall_single_loop_us\": %.0f,\n",
      warm_vs_cold, jobs10k, mean_gap10k, run10k.makespan, run10k.utilization,
      percentile(stretches, 50.0), percentile(stretches, 95.0),
      percentile(stretches, 99.0), percentile(waits, 50.0),
      percentile(waits, 95.0), percentile(waits, 99.0),
      static_cast<unsigned long long>(order_digest(run10k)), wall10k * 1e6);
  json += buf;

  json += "  \"completion_order_cold\": \"" +
          order_string(cold.completion_order) + "\",\n";
  json += "  \"completion_order_warm\": \"" +
          order_string(warm.completion_order) + "\",\n";
  json += std::string("  \"replay_identical\": ") +
          (replay_identical ? "true" : "false") + ",\n";

  json += "  \"per_job\": [\n";
  for (std::size_t i = 0; i < warm.jobs.size(); ++i) {
    const svc::JobOutcome& job = warm.jobs[i];
    const double base = solo.count(job.app_kind) ? solo.at(job.app_kind) : -1.0;
    const double stretch = base > 0.0 ? job.turnaround() / base : -1.0;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"kind\": \"%s\", \"priority\": \"%s\",\n"
        "     \"arrival\": %.17g, \"queue_wait\": %.17g,\n"
        "     \"turnaround\": %.17g, \"stretch\": %.4f,\n"
        "     \"probe_blocks\": %zu, \"probe_blocks_saved\": %zu,\n"
        "     \"warm_hits\": %zu, \"warm_misses\": %zu}%s\n",
        job.name.c_str(), job.app_kind.c_str(), svc::to_string(job.priority),
        job.arrival, job.queue_wait(), job.turnaround(), stretch,
        job.probe_blocks, job.probe_blocks_saved, job.warm_hits,
        job.warm_misses, i + 1 < warm.jobs.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    if (std::FILE* out = std::fopen(out_path.c_str(), "w")) {
      std::fputs(json.c_str(), out);
      std::fclose(out);
    } else {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
  }

  for (const fs::path& p : {store_cold, store_w1, store_w2})
    fs::remove(p, ec);

  if (smoke) {
    if (!all_ok) {
      std::fputs("smoke FAIL: a service run did not finish\n", stderr);
      return 1;
    }
    if (!run10k.ok) {
      std::fprintf(stderr, "smoke FAIL: 10k trace did not finish (\"%s\")\n",
                   run10k.error.c_str());
      return 1;
    }
    if (run10k.completion_order.size() != jobs10k) {
      std::fputs("smoke FAIL: 10k trace lost jobs\n", stderr);
      return 1;
    }
    // Later jobs of a kind repeat earlier jobs' sample sets bit for bit,
    // so the run's selection memo must serve some of their fits.
    if (counters10k.value("svc.fit_memo.hits") != run10k.fit_memo_hits ||
        counters10k.value("svc.fit_memo.misses") != run10k.fit_memo_misses ||
        run10k.fit_memo_hits == 0) {
      std::fprintf(stderr,
                   "smoke FAIL: fit memo counters (published hits %llu "
                   "misses %llu, result hits %zu misses %zu)\n",
                   static_cast<unsigned long long>(
                       counters10k.value("svc.fit_memo.hits")),
                   static_cast<unsigned long long>(
                       counters10k.value("svc.fit_memo.misses")),
                   run10k.fit_memo_hits, run10k.fit_memo_misses);
      return 1;
    }
    if (warm.probe_blocks >= cold.probe_blocks) {
      std::fprintf(stderr,
                   "smoke FAIL: warm run probed %zu blocks, cold %zu -- "
                   "warm start saved nothing\n",
                   warm.probe_blocks, cold.probe_blocks);
      return 1;
    }
    if (warm.warm_hits == 0 || warm.probe_blocks_saved == 0) {
      std::fputs("smoke FAIL: warm run validated no stored profile\n",
                 stderr);
      return 1;
    }
    if (!replay_identical) {
      std::fprintf(stderr,
                   "smoke FAIL: replay diverged (order \"%s\" vs \"%s\", "
                   "makespan %.17g vs %.17g)\n",
                   order_string(warm.completion_order).c_str(),
                   order_string(replay.completion_order).c_str(),
                   warm.makespan, replay.makespan);
      return 1;
    }
    std::fputs("smoke OK\n", stderr);
  }
  return all_ok ? 0 : 1;
}
