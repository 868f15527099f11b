/// remote_pipelined: a ThreadEngine over one local unit and two in-process
/// WorkerDaemons on loopback, reached through RemoteUnits with a pipeline
/// depth above one, multiplies a materialized matrix under a default
/// PlbHecScheduler. The product must be bit-identical to a single-threaded
/// reference. The matmul operands are a fixed function of n (the daemons
/// rebuild them from the workload's remote spec), so the seed does not
/// change this workload's inputs.

#include <algorithm>

#include "bench/common.hpp"
#include "plbhec/apps/matmul.hpp"
#include "plbhec/linalg/blas.hpp"
#include "plbhec/net/remote_unit.hpp"
#include "plbhec/net/workerd.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace perfbench {
namespace {

namespace apps = plbhec::apps;
namespace core = plbhec::core;
namespace net = plbhec::net;
namespace rt = plbhec::rt;

constexpr std::size_t kN = 1024;
constexpr double kLocalSlowdown = 4.0;
constexpr double kDaemonSlowdowns[] = {1.0, 1.5};
constexpr std::size_t kDaemons = std::size(kDaemonSlowdowns);
constexpr std::size_t kPipelineDepth = 4;

class RemotePipelined final : public BenchWorkload {
 public:
  RemotePipelined() {
    const apps::MatMulWorkload ref(kN, /*materialize=*/true);
    reference_.assign(kN * kN, 0.0);
    plbhec::linalg::blas::gemm_parallel(kN, kN, kN, ref.a(), ref.b(),
                                        reference_, /*threads=*/1);
  }

  /// The local unit's worker and one executor per daemon run kernels; the
  /// remote units' engine workers only wait on their sockets.
  [[nodiscard]] unsigned compute_threads() const override {
    return 1 + kDaemons;
  }

  [[nodiscard]] Rep run(SpanRecorder* recorder) override {
    Rep rep;
    const Clock::time_point setup_start = Clock::now();
    std::vector<std::unique_ptr<net::WorkerDaemon>> daemons;
    for (std::size_t d = 0; d < kDaemons; ++d) {
      net::WorkerDaemonOptions o;
      o.name = "node" + std::to_string(d + 1);
      o.slowdown = kDaemonSlowdowns[d];
      o.executor_threads = 1;
      daemons.push_back(std::make_unique<net::WorkerDaemon>(o));
    }
    apps::MatMulWorkload workload(kN, /*materialize=*/true);

    RunProbe probe(1 + kDaemons, SIZE_MAX, {});
    std::vector<std::unique_ptr<rt::ExecUnit>> units;
    std::vector<const TimedUnit*> timed;
    std::vector<const net::RemoteUnit*> remotes;
    {
      rt::LocalExecUnit::Options lo;
      lo.name = "coord.cpu0";
      lo.slowdown = kLocalSlowdown;
      auto unit = std::make_unique<TimedUnit>(
          std::make_unique<rt::LocalExecUnit>(lo), 0, probe,
          [] { return kLocalSlowdown; });
      timed.push_back(unit.get());
      units.push_back(std::move(unit));
    }
    for (std::size_t d = 0; d < kDaemons; ++d) {
      net::RemoteUnitOptions ro;
      ro.port = daemons[d]->port();
      ro.name = "remote." + std::to_string(d + 1);
      ro.machine = static_cast<std::uint32_t>(d + 1);
      ro.pipeline_depth = kPipelineDepth;
      ro.min_chunk_grains = 1;
      auto remote = std::make_unique<net::RemoteUnit>(ro);
      remotes.push_back(remote.get());
      const double slowdown = kDaemonSlowdowns[d];
      auto unit = std::make_unique<TimedUnit>(std::move(remote), d + 1, probe,
                                              [slowdown] { return slowdown; });
      timed.push_back(unit.get());
      units.push_back(std::move(unit));
    }
    rt::ThreadEngine engine(rt::ThreadEngineOptions{}, std::move(units));
    rep.setup_s = seconds_since(setup_start);

    run_engine(engine, workload, probe, timed, recorder, rep);
    std::uint64_t remote_blocks = 0;
    for (const auto& d : daemons) remote_blocks += d->blocks_served();
    if (rep.failure.empty() && workload.result() != reference_)
      rep.failure = "matmul product differs from the reference";
    if (rep.failure.empty() && remote_blocks == 0)
      rep.failure = "no block ran on a daemon";

    if (recorder != nullptr) {
      net_layers(timed, remotes, daemons, rep.layers);
      rep.layers["kernel.gflops"] =
          rep.layers["kernel.busy_s"] > 0.0
              ? 2.0 * static_cast<double>(kN * kN * kN) /
                    rep.layers["kernel.busy_s"] * 1e-9
              : 0.0;
    }
    for (auto& d : daemons) d->stop();
    return rep;
  }

 private:
  static void net_layers(
      const std::vector<const TimedUnit*>& timed,
      const std::vector<const net::RemoteUnit*>& remotes,
      const std::vector<std::unique_ptr<net::WorkerDaemon>>& daemons,
      Metrics& out) {
    std::vector<double> wall_us;
    double wire = 0.0, kernel = 0.0;
    for (std::size_t i = 1; i < timed.size(); ++i) {
      for (const BlockRecord& b : timed[i]->records()) {
        wall_us.push_back((b.end - b.start) * 1e6);
        wire += b.timing.transfer_seconds;
        kernel += b.timing.exec_seconds;
      }
    }
    double saved = 0.0, floor = 0.0;
    double chunks = 0.0, batched = 0.0, peak = 0.0;
    double reconnects = 0.0, missed = 0.0;
    for (const net::RemoteUnit* r : remotes) {
      const net::RemoteUnit::WireStats& w = r->wire_stats();
      saved += w.overlap_saved_seconds;
      floor += w.overlap_floor_seconds;
      chunks += static_cast<double>(w.chunks_pipelined);
      batched += static_cast<double>(w.batched_results);
      peak = std::max(peak, static_cast<double>(w.inflight_peak));
      reconnects += static_cast<double>(r->reconnects_attempted());
      missed += static_cast<double>(r->heartbeats_missed());
    }
    double frames = 0.0, wakeups = 0.0;
    for (const auto& d : daemons) {
      frames += static_cast<double>(d->frames_received());
      wakeups += static_cast<double>(d->reactor_wakeups());
    }
    out["net.blocks"] = static_cast<double>(wall_us.size());
    out["net.block_wall_p50_us"] = percentile(wall_us, 50.0);
    out["net.block_wall_p99_us"] = percentile(wall_us, 99.0);
    out["net.wire_s"] = wire;
    out["net.kernel_s"] = kernel;
    out["net.overlap_frac"] =
        floor > 0.0 ? std::clamp(saved / floor, 0.0, 1.0) : 0.0;
    out["net.chunks"] = chunks;
    out["net.batched_results"] = batched;
    out["net.inflight_peak"] = peak;
    out["net.reconnects"] = reconnects;
    out["net.heartbeats_missed"] = missed;
    out["workerd.frames_received"] = frames;
    out["workerd.reactor_wakeups_per_frame"] =
        frames > 0.0 ? wakeups / frames : 0.0;
  }

  std::vector<double> reference_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_remote_pipelined(std::uint64_t) {
  return std::make_unique<RemotePipelined>();
}

}  // namespace perfbench
