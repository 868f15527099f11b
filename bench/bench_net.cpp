// Network transport benchmark: measures the framed TCP path between a
// coordinator-side RemoteUnit and an in-process WorkerDaemon on loopback.
// A RemoteUnit has one data path, a window of chunk frames per engine
// block; at depth 1 the window holds one chunk, which is the synchronous
// AssignBlock/BlockResult round-trip. "Sync" below means depth 1.
//
// Four experiments, one JSON:
//  1. transfer curve -- a depth-1 RemoteUnit executes matmul blocks of
//     swept sizes and the per-size minimum wire time (round-trip wall
//     minus daemon kernel time, best of several interleaved rounds) is
//     fitted to the paper's G_p(x) = a1*x + a2. The fit R^2 on real socket
//     timings is the headline number: the transport must be regular enough
//     that the scheduler's transfer model means something.
//  2. distributed run -- a ThreadEngine drives one local unit plus two
//     daemons through PLB-HeC; the distributed product must be
//     bit-identical to a single-threaded reference and every grain
//     accounted for. Run twice: depth 1 and depth 4, which must agree bit
//     for bit.
//  3. worker kill -- the first block completion on the coordinator after
//     the doomed daemon has served a block freezes that daemon
//     (connections open, nothing answered) before it applies, so the
//     freeze always lands with grains outstanding. The unit's block in
//     flight, or its next one, stalls; the heartbeat timeout must demote
//     it and the engine requeue the range, finishing with zero lost
//     grains. Run at depth 1 and at depth 4, where the stalled block can
//     be a whole chunk window.
//  4. pipeline comparison -- three daemons execute the same fine-grained
//     synthetic stream at depth 1 and depth 8: the depth-1 leg pays one
//     round-trip of coordinator<->daemon thread handoffs per 8-grain
//     frame, the depth-8 leg streams identical frames through its window
//     so the turnaround idle is amortized. The headline
//     `pipelined_vs_sync_makespan_ratio` (best of 3 interleaved rounds)
//     is gated at an absolute 0.75 ceiling.
//
// Emits JSON (stdout, plus an output path if given); the committed
// baseline lives in bench/results/bench_net.json and tools/check_bench.py
// gates transfer_r2, the makespan ratio, plus the structural identities
// (bit_identical, lost_grains, demoted, and their pipeline_* twins).
// `--smoke` exits nonzero when R^2 < 0.7, either distributed result
// diverges, either kill run loses grains or does not freeze mid-run, or
// the depth-8 leg fails to beat depth 1 by 25% -- the acceptance gate CI
// runs on every push.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/fit/samples.hpp"
#include "plbhec/net/remote_unit.hpp"
#include "plbhec/net/workerd.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace {

namespace apps = plbhec::apps;
namespace fit = plbhec::fit;
namespace net = plbhec::net;
namespace rt = plbhec::rt;

// Tight liveness budget (60 ms) for the worker-kill experiment, where
// fast demotion is the behavior under test.
net::RemoteUnitOptions fast_options(std::uint16_t port, std::string name) {
  net::RemoteUnitOptions ro;
  ro.port = port;
  ro.name = std::move(name);
  ro.heartbeat_interval_seconds = 0.02;
  ro.max_missed_heartbeats = 3;
  ro.max_reconnect_attempts = 2;
  ro.backoff_initial_seconds = 0.01;
  ro.backoff_max_seconds = 0.05;
  return ro;
}

// Generous liveness budget (3 s) for the functional experiments: a noisy
// CI machine stalls threads long enough that a 60 ms heartbeat window
// falsely demotes a healthy loopback daemon.
net::RemoteUnitOptions steady_options(std::uint16_t port, std::string name) {
  net::RemoteUnitOptions ro = fast_options(port, std::move(name));
  ro.heartbeat_interval_seconds = 0.2;
  ro.max_missed_heartbeats = 15;
  return ro;
}

net::RemoteUnitOptions pipelined_options(std::uint16_t port, std::string name,
                                         std::size_t depth) {
  net::RemoteUnitOptions ro = steady_options(port, std::move(name));
  ro.pipeline_depth = depth;
  return ro;
}

/// Experiment 1: sweep matmul block sizes through one remote unit and fit
/// G_p(x) from the measured wire times. `x` is the block's grain fraction
/// (the same domain the scheduler fits in).
struct TransferCurve {
  fit::TransferModel model;
  std::size_t samples = 0;
  std::size_t payload_min_bytes = 0;
  std::size_t payload_max_bytes = 0;
  bool ok = false;
};

TransferCurve measure_transfer_curve(std::size_t n) {
  TransferCurve out;
  net::WorkerDaemon daemon({0, "curve", 1.0});
  apps::MatMulWorkload workload(n, /*materialize=*/true);
  net::RemoteUnit unit(steady_options(daemon.port(), "curve.remote"));
  if (!unit.begin_run(workload)) return out;

  // Block sizes from 1/64 to 1/4 of the matrix (n=512: result payloads
  // 32 KiB .. 512 KiB per block). G_p(x) models the *uncontended* wire
  // cost (latency + bandwidth-linear), so each size's sample is the
  // minimum over kRounds round-trips — on a shared host, neighbor bursts
  // add multi-millisecond preemption spikes to individual timings, and
  // any mean/median estimator drags the fit with them. Rounds interleave
  // the sizes so one burst window cannot poison every repetition of a
  // single size, and the first (untimed) round absorbs cold-path warmup.
  const std::size_t sizes[] = {n / 64, n / 32, n / 16, n / 8, n / 4};
  constexpr std::size_t kSizes = sizeof(sizes) / sizeof(sizes[0]);
  constexpr int kRounds = 9;
  double best[kSizes];
  std::fill(best, best + kSizes, std::numeric_limits<double>::infinity());
  out.payload_min_bytes = workload.result_bytes(0, sizes[0]);
  out.payload_max_bytes = workload.result_bytes(0, sizes[kSizes - 1]);
  for (int round = 0; round < kRounds + 1; ++round) {
    std::size_t row = 0;
    for (std::size_t s = 0; s < kSizes; ++s) {
      const std::size_t block = sizes[s];
      if (row + block > n) row = 0;
      rt::BlockTiming timing;
      if (!unit.execute(workload, row, row + block, timing)) return out;
      if (round > 0) best[s] = std::min(best[s], timing.transfer_seconds);
      row += block;
    }
  }
  fit::SampleSet samples;
  for (std::size_t s = 0; s < kSizes; ++s)
    samples.add(static_cast<double>(sizes[s]) / static_cast<double>(n),
                best[s]);
  unit.end_run();
  daemon.stop();

  out.model = fit::fit_transfer(samples);
  out.samples = samples.size();
  out.ok = true;
  return out;
}

/// Experiment 2: PLB-HeC schedules a real matmul across one local unit and
/// two daemons; the distributed product must match a single-threaded
/// reference bit for bit.
struct DistributedRun {
  bool ok = false;
  bool bit_identical = false;
  std::size_t total_grains = 0;
  std::size_t grains_counted = 0;
  std::uint64_t remote_blocks = 0;
  double makespan = 0.0;
};

DistributedRun run_distributed(std::size_t n, std::size_t depth) {
  DistributedRun out;
  net::WorkerDaemon d1({0, "node1", 1.0});
  net::WorkerDaemon d2({0, "node2", 2.0});

  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  units.push_back(std::make_unique<rt::LocalExecUnit>(
      rt::LocalExecUnit::Options{"coord.cpu0", 1.0, true}));
  units.push_back(std::make_unique<net::RemoteUnit>(
      pipelined_options(d1.port(), "remote.1", depth)));
  units.push_back(std::make_unique<net::RemoteUnit>(
      pipelined_options(d2.port(), "remote.2", depth)));

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));
  apps::MatMulWorkload workload(n, /*materialize=*/true);
  plbhec::core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  if (!r.ok) return out;

  apps::MatMulWorkload reference(n, /*materialize=*/true);
  reference.execute_cpu(0, n);

  out.ok = true;
  out.bit_identical = workload.result() == reference.result();
  out.total_grains = r.total_grains;
  for (const rt::UnitStats& stats : r.unit_stats)
    out.grains_counted += stats.grains;
  out.remote_blocks = d1.blocks_served() + d2.blocks_served();
  out.makespan = r.makespan;
  d1.stop();
  d2.stop();
  return out;
}

/// Forwards a SyntheticWorkload, locally and over the wire (daemons rebuild
/// it from the same remote spec), and freezes `doomed` in the first block
/// completion on the coordinator — local execution or applied remote
/// result — that follows the doomed daemon's first served block. That
/// completion has not been applied yet, so the freeze always lands with
/// grains outstanding, however fast the host runs the work.
class FreezeOnFirstServed final : public rt::Workload {
 public:
  FreezeOnFirstServed(apps::SyntheticWorkload& inner,
                      net::WorkerDaemon& doomed)
      : inner_(inner), doomed_(doomed) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t total_grains() const override {
    return inner_.total_grains();
  }
  [[nodiscard]] double bytes_per_grain() const override {
    return inner_.bytes_per_grain();
  }
  [[nodiscard]] plbhec::sim::WorkloadProfile profile() const override {
    return inner_.profile();
  }
  [[nodiscard]] bool supports_real_execution() const override { return true; }
  [[nodiscard]] std::string remote_spec() const override {
    return inner_.remote_spec();
  }
  [[nodiscard]] std::size_t result_bytes(std::size_t begin,
                                         std::size_t end) const override {
    return inner_.result_bytes(begin, end);
  }

  void execute_cpu(std::size_t begin, std::size_t end) override {
    freeze_once();
    inner_.execute_cpu(begin, end);
  }
  void read_results(std::size_t begin, std::size_t end,
                    const std::uint8_t* in) override {
    freeze_once();
    inner_.read_results(begin, end, in);
  }

  /// The freeze happened with grains still outstanding.
  [[nodiscard]] bool froze_mid_run() const { return froze_mid_run_.load(); }

 private:
  void freeze_once() {
    if (doomed_.blocks_served() == 0 || fired_.exchange(true)) return;
    doomed_.freeze();
    froze_mid_run_ = inner_.executed_grains() < inner_.total_grains();
  }

  apps::SyntheticWorkload& inner_;
  net::WorkerDaemon& doomed_;
  std::atomic<bool> fired_{false};
  std::atomic<bool> froze_mid_run_{false};
};

/// Experiment 3: freeze a daemon once it has served a block, while grains
/// are still outstanding; the run must still complete with every grain
/// executed exactly once.
struct KillRun {
  bool ok = false;
  bool demoted = false;
  bool froze_mid_run = false;  ///< the freeze landed with grains outstanding
  std::size_t total_grains = 0;
  std::uint64_t executed_grains = 0;
  std::uint64_t lost_grains = 0;
  std::uint64_t heartbeats_missed = 0;
};

KillRun run_worker_kill(std::size_t grains, std::size_t depth) {
  KillRun out;
  net::WorkerDaemon healthy({0, "ok", 1.0});
  net::WorkerDaemon doomed({0, "doomed", 1.0});

  net::RemoteUnitOptions healthy_opts =
      pipelined_options(healthy.port(), "remote.ok", depth);
  net::RemoteUnitOptions doomed_opts =
      fast_options(doomed.port(), "remote.doomed");
  doomed_opts.pipeline_depth = depth;

  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  units.push_back(std::make_unique<rt::LocalExecUnit>(
      rt::LocalExecUnit::Options{"coord.cpu0", 1.0, true}));
  units.push_back(
      std::make_unique<net::RemoteUnit>(std::move(healthy_opts)));
  auto doomed_unit =
      std::make_unique<net::RemoteUnit>(std::move(doomed_opts));
  net::RemoteUnit* doomed_ptr = doomed_unit.get();
  units.push_back(std::move(doomed_unit));

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));
  apps::SyntheticWorkload workload(
      apps::SyntheticWorkload::Config{grains, 1e6, 64.0, 16.0, 2.0, 0.97,
                                      0.5, 0.5, 6'000});

  // The doomed unit's block in flight at the freeze, or its next one,
  // stalls against the frozen daemon; only the heartbeat demotion ends it.
  FreezeOnFirstServed killer(workload, doomed);
  plbhec::core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(killer, plb);
  doomed.unfreeze();

  out.ok = r.ok;
  out.froze_mid_run = killer.froze_mid_run();
  out.demoted = doomed_ptr->demoted();
  out.total_grains = grains;
  out.executed_grains = workload.executed_grains();
  out.lost_grains = out.executed_grains >= grains
                        ? 0
                        : grains - out.executed_grains;
  out.heartbeats_missed = doomed_ptr->heartbeats_missed();
  healthy.stop();
  doomed.stop();
  return out;
}

/// Experiment 4: depth-1 vs depth-8 makespan over the same frame stream.
///
/// Three daemons each execute one third of a fine-grained synthetic
/// workload. Both legs ship identical 8-grain result frames; they differ
/// only in window depth. The sync leg (depth 1) issues one 8-grain block
/// per round-trip, so every frame pays the full coordinator -> daemon reader
/// -> executor -> sender -> coordinator turnaround — on a loaded host
/// that is mostly scheduler-wakeup idle, not CPU. The pipelined leg
/// issues 128-grain blocks that chunk into the same 8-grain frames
/// streamed through a depth-8 window, so the daemon's queue never drains
/// and the turnaround idle is paid once per block instead of once per
/// frame. Per-grain kernel cost is kept small (spin 100) so the
/// turnaround is a large share of the sync leg's critical path; the
/// ratio is the best (minimum) of kPipeRounds interleaved rounds per
/// leg, for the same robustness reasons as the transfer curve.
struct PipelineComparison {
  bool ok = false;
  bool grains_exact = false;   ///< both legs executed every grain once
  bool checksum_match = false; ///< both legs match the local reference
  double sync_makespan = 0.0;      ///< best-of-rounds, depth 1
  double pipelined_makespan = 0.0; ///< best-of-rounds, depth kPipeDepth
  double ratio = 0.0;
  double overlap_fraction = 0.0;  ///< aggregate, pipelined leg
  std::uint64_t chunks_pipelined = 0;   ///< last pipelined round
  std::uint64_t batched_results = 0;    ///< last pipelined round
};

constexpr std::size_t kPipeUnits = 3;
constexpr std::size_t kPipeGrains = 12'288;
constexpr std::size_t kPipeChunkGrains = 8;
constexpr std::size_t kPipeDepth = 8;
constexpr int kPipeRounds = 3;

/// One leg of experiment 4: every unit drives its own contiguous range
/// through the unit's data plane from a dedicated thread (the engine's
/// per-unit worker arrangement without scheduler interference). Returns
/// the wall time, or a negative value on any transport/verification
/// failure.
double run_pipeline_leg(std::size_t depth, PipelineComparison& out) {
  std::vector<std::unique_ptr<net::WorkerDaemon>> daemons;
  std::vector<std::unique_ptr<net::RemoteUnit>> units;
  for (std::size_t i = 0; i < kPipeUnits; ++i) {
    daemons.push_back(std::make_unique<net::WorkerDaemon>(
        net::WorkerDaemonOptions{0, "pipe" + std::to_string(i), 1.0}));
    units.push_back(std::make_unique<net::RemoteUnit>(pipelined_options(
        daemons.back()->port(), "pipe.remote" + std::to_string(i), depth)));
  }
  apps::SyntheticWorkload::Config cfg;
  cfg.grains = kPipeGrains;
  cfg.spin_iters_per_grain = 100;
  cfg.result_payload_per_grain = 16;
  apps::SyntheticWorkload workload(cfg);
  for (auto& unit : units)
    if (!unit->begin_run(workload)) return -1.0;

  // Sync blocks are one chunk; pipelined blocks are 2*depth chunks, which
  // RemoteUnit splits back into chunk-sized frames.
  const std::size_t block =
      depth > 1 ? kPipeChunkGrains * 2 * depth : kPipeChunkGrains;
  const std::size_t per_unit = kPipeGrains / kPipeUnits;
  std::atomic<bool> failed{false};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (std::size_t i = 0; i < kPipeUnits; ++i) {
    drivers.emplace_back([&, i] {
      const std::size_t lo = i * per_unit;
      const std::size_t hi =
          i + 1 == kPipeUnits ? kPipeGrains : lo + per_unit;
      for (std::size_t b = lo; b < hi && !failed.load();) {
        const std::size_t e = std::min(b + block, hi);
        rt::BlockTiming timing;
        if (!units[i]->execute(workload, b, e, timing)) failed.store(true);
        b = e;
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  if (depth > 1) {
    net::RemoteUnit::WireStats total;
    for (auto& unit : units) total.merge(unit->wire_stats());
    out.chunks_pipelined = total.chunks_pipelined;
    out.batched_results = total.batched_results;
    out.overlap_fraction = total.overlap_fraction();
  }
  for (auto& unit : units) unit->end_run();
  for (auto& daemon : daemons) daemon->stop();

  if (failed.load() ||
      workload.executed_grains() != kPipeGrains) return -1.0;
  apps::SyntheticWorkload reference(cfg);
  reference.execute_cpu(0, kPipeGrains);
  // FP accumulation order differs between decompositions; relative
  // near-equality is the decomposition-invariant claim (matmul covers
  // bit identity).
  const double ref = reference.checksum();
  if (std::abs(workload.checksum() - ref) >
      1e-9 * std::max(1.0, std::abs(ref)))
    return -1.0;
  return wall;
}

PipelineComparison run_pipeline_comparison() {
  PipelineComparison out;
  double best_sync = std::numeric_limits<double>::infinity();
  double best_pipe = std::numeric_limits<double>::infinity();
  out.grains_exact = true;
  out.checksum_match = true;
  for (int round = 0; round < kPipeRounds; ++round) {
    const double sync_wall = run_pipeline_leg(1, out);
    const double pipe_wall = run_pipeline_leg(kPipeDepth, out);
    if (sync_wall < 0.0 || pipe_wall < 0.0) {
      out.grains_exact = false;
      out.checksum_match = false;
      return out;
    }
    best_sync = std::min(best_sync, sync_wall);
    best_pipe = std::min(best_pipe, pipe_wall);
  }
  out.ok = true;
  out.sync_makespan = best_sync;
  out.pipelined_makespan = best_pipe;
  out.ratio = best_pipe / best_sync;
  return out;
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

  const std::size_t curve_n = 512;
  const std::size_t dist_n = 256;
  const std::size_t kill_grains = 10'000;
  const std::size_t dist_depth = 4;  // pipelined twins of experiments 2+3

  const TransferCurve curve = measure_transfer_curve(curve_n);
  const DistributedRun dist = run_distributed(dist_n, 1);
  const DistributedRun pdist = run_distributed(dist_n, dist_depth);
  const KillRun kill = run_worker_kill(kill_grains, 1);
  const KillRun pkill = run_worker_kill(kill_grains, dist_depth);
  const PipelineComparison pipe = run_pipeline_comparison();

  char buf[1024];
  std::string json = "{\n  \"benchmark\": \"bench_net\",\n";
  std::snprintf(
      buf, sizeof(buf),
      "  \"curve_n\": %zu,\n  \"dist_n\": %zu,\n  \"kill_grains\": %zu,\n"
      "  \"units\": 3,\n",
      curve_n, dist_n, kill_grains);
  json += buf;

  std::snprintf(
      buf, sizeof(buf),
      "  \"transfer_r2\": %.4f,\n"
      "  \"transfer_slope_us\": %.17g,\n"
      "  \"transfer_latency_us\": %.17g,\n"
      "  \"transfer_samples\": %zu,\n"
      "  \"payload_min_bytes\": %zu,\n  \"payload_max_bytes\": %zu,\n",
      curve.model.r2, curve.model.slope * 1e6, curve.model.latency * 1e6,
      curve.samples, curve.payload_min_bytes, curve.payload_max_bytes);
  json += buf;

  std::snprintf(
      buf, sizeof(buf),
      "  \"bit_identical\": %s,\n  \"dist_total_grains\": %zu,\n"
      "  \"dist_grains_counted\": %zu,\n"
      "  \"dist_remote_blocks\": %llu,\n  \"dist_makespan_us\": %.17g,\n",
      dist.bit_identical ? "true" : "false", dist.total_grains,
      dist.grains_counted,
      static_cast<unsigned long long>(dist.remote_blocks),
      dist.makespan * 1e6);
  json += buf;

  std::snprintf(
      buf, sizeof(buf),
      "  \"demoted\": %s,\n  \"lost_grains\": %llu,\n"
      "  \"kill_executed_grains\": %llu,\n"
      "  \"kill_heartbeats_missed\": %llu,\n",
      kill.demoted ? "true" : "false",
      static_cast<unsigned long long>(kill.lost_grains),
      static_cast<unsigned long long>(kill.executed_grains),
      static_cast<unsigned long long>(kill.heartbeats_missed));
  json += buf;

  std::snprintf(
      buf, sizeof(buf),
      "  \"pipeline_depth\": %zu,\n  \"pipeline_units\": %zu,\n"
      "  \"pipeline_grains\": %zu,\n  \"pipeline_chunk_grains\": %zu,\n"
      "  \"pipelined_vs_sync_makespan_ratio\": %.4f,\n"
      "  \"pipeline_sync_makespan_us\": %.17g,\n"
      "  \"pipeline_makespan_us\": %.17g,\n"
      "  \"pipeline_overlap_fraction\": %.4f,\n"
      "  \"pipeline_chunks\": %llu,\n"
      "  \"pipeline_batched_results\": %llu,\n"
      "  \"pipeline_grains_exact\": %s,\n",
      kPipeDepth, kPipeUnits, kPipeGrains, kPipeChunkGrains, pipe.ratio,
      pipe.sync_makespan * 1e6, pipe.pipelined_makespan * 1e6,
      pipe.overlap_fraction,
      static_cast<unsigned long long>(pipe.chunks_pipelined),
      static_cast<unsigned long long>(pipe.batched_results),
      pipe.ok && pipe.grains_exact && pipe.checksum_match ? "true"
                                                         : "false");
  json += buf;

  std::snprintf(
      buf, sizeof(buf),
      "  \"pipeline_bit_identical\": %s,\n"
      "  \"pipeline_dist_remote_blocks\": %llu,\n"
      "  \"pipeline_demoted\": %s,\n  \"pipeline_lost_grains\": %llu,\n"
      "  \"pipeline_kill_executed_grains\": %llu\n}\n",
      pdist.ok && pdist.bit_identical ? "true" : "false",
      static_cast<unsigned long long>(pdist.remote_blocks),
      pkill.demoted ? "true" : "false",
      static_cast<unsigned long long>(pkill.lost_grains),
      static_cast<unsigned long long>(pkill.executed_grains));
  json += buf;

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

  if (smoke) {
    bool fail = false;
    if (!curve.ok || curve.model.r2 < 0.7) {
      std::fprintf(stderr,
                   "smoke FAIL: G_p fit R^2 %.4f < 0.7 over %zu wire "
                   "samples\n",
                   curve.model.r2, curve.samples);
      fail = true;
    }
    if (!dist.ok || !dist.bit_identical) {
      std::fputs("smoke FAIL: distributed matmul diverged from the "
                 "single-threaded reference\n",
                 stderr);
      fail = true;
    }
    if (dist.grains_counted != dist.total_grains) {
      std::fprintf(stderr,
                   "smoke FAIL: distributed run counted %zu of %zu "
                   "grains\n",
                   dist.grains_counted, dist.total_grains);
      fail = true;
    }
    if (!kill.ok || !kill.demoted || kill.lost_grains != 0 ||
        kill.executed_grains != kill.total_grains || !kill.froze_mid_run) {
      std::fprintf(stderr,
                   "smoke FAIL: worker-kill run lost %llu grains "
                   "(executed %llu of %zu, demoted=%d, froze mid-run=%d)\n",
                   static_cast<unsigned long long>(kill.lost_grains),
                   static_cast<unsigned long long>(kill.executed_grains),
                   kill.total_grains, kill.demoted ? 1 : 0,
                   kill.froze_mid_run ? 1 : 0);
      fail = true;
    }
    if (!pdist.ok || !pdist.bit_identical) {
      std::fputs("smoke FAIL: pipelined distributed matmul diverged from "
                 "the single-threaded reference\n",
                 stderr);
      fail = true;
    }
    if (!pkill.ok || !pkill.demoted || pkill.lost_grains != 0 ||
        pkill.executed_grains != pkill.total_grains ||
        !pkill.froze_mid_run) {
      std::fprintf(stderr,
                   "smoke FAIL: pipelined worker-kill run lost %llu "
                   "grains (executed %llu of %zu, demoted=%d, froze "
                   "mid-run=%d)\n",
                   static_cast<unsigned long long>(pkill.lost_grains),
                   static_cast<unsigned long long>(pkill.executed_grains),
                   pkill.total_grains, pkill.demoted ? 1 : 0,
                   pkill.froze_mid_run ? 1 : 0);
      fail = true;
    }
    if (!pipe.ok || !pipe.grains_exact || !pipe.checksum_match) {
      std::fputs("smoke FAIL: pipeline comparison leg failed transport "
                 "or verification\n",
                 stderr);
      fail = true;
    } else if (pipe.ratio > 0.75) {
      std::fprintf(stderr,
                   "smoke FAIL: pipelined/sync makespan ratio %.3f > "
                   "0.75 (sync %.1f us, pipelined %.1f us)\n",
                   pipe.ratio, pipe.sync_makespan * 1e6,
                   pipe.pipelined_makespan * 1e6);
      fail = true;
    }
    if (pipe.overlap_fraction < 0.0 || pipe.overlap_fraction > 1.0) {
      std::fprintf(stderr,
                   "smoke FAIL: overlap fraction %.3f outside [0, 1]\n",
                   pipe.overlap_fraction);
      fail = true;
    }
    if (fail) return 1;
    std::fputs("smoke OK\n", stderr);
  }
  return curve.ok && dist.ok && pdist.ok && kill.ok && pkill.ok && pipe.ok
             ? 0
             : 1;
}
