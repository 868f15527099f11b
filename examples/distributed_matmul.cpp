/// \file distributed_matmul.cpp
/// Distributed real execution: multiplies an actual matrix across a local
/// unit and several worker daemons over loopback TCP. The daemons run
/// in-process here so the demo is a single command, but they speak the
/// same framed protocol `plbhec-workerd` serves — point RemoteUnitOptions
/// at another machine's daemon and nothing else changes.
///
/// PLB-HeC's transfer model G_p(x) = a1*x + a2 is fitted from the wire
/// times the coordinator measures around each block round-trip; the table
/// at the end compares those measured samples with the fitted line.
///
/// --pipeline-depth N sets how many row frames each remote unit may keep
/// in flight. A block is streamed through the window only when it holds
/// at least two minimum-size chunks; at demo sizes PLB-HeC hands the
/// remote units 1-row blocks, so the reported chunk count is usually 0
/// whatever the depth. Multi-chunk windows are covered by
/// `bench/bench_net` experiment 4 (depth 1 vs depth N over identical
/// frames) and the `Pipeline.*` tests.
///
/// Usage: distributed_matmul [--n 384] [--workers 2] [--pipeline-depth 1]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "plbhec/apps/matmul.hpp"
#include "plbhec/common/cli.hpp"
#include "plbhec/common/table.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/metrics/metrics.hpp"
#include "plbhec/net/remote_unit.hpp"
#include "plbhec/net/workerd.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace {

using namespace plbhec;

struct RunOutcome {
  bool ok = false;
  bool identical = false;
  std::uint64_t remote_blocks = 0;
  net::RemoteUnit::WireStats wire;  ///< merged across remote units
};

/// One full distributed multiplication against fresh daemons, printing
/// the share table and the fitted transfer curves. `depth` = 1 sends
/// every block as one frame each way.
RunOutcome run_once(std::size_t n, std::size_t workers, std::size_t depth) {
  RunOutcome out;

  // One daemon per remote worker, each a bit slower than the last — the
  // heterogeneity the balancer has to learn.
  std::vector<std::unique_ptr<net::WorkerDaemon>> daemons;
  for (std::size_t w = 0; w < workers; ++w) {
    net::WorkerDaemonOptions dopts;
    dopts.port = 0;  // ephemeral
    dopts.name = "node" + std::to_string(w + 1);
    dopts.slowdown = 1.5 + static_cast<double>(w);
    daemons.push_back(std::make_unique<net::WorkerDaemon>(dopts));
  }

  // Unit 0 executes in-process; units 1..workers drive the daemons.
  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  {
    rt::LocalExecUnit::Options lo;
    lo.name = "coord.cpu0";
    units.push_back(std::make_unique<rt::LocalExecUnit>(lo));
  }
  std::vector<const net::RemoteUnit*> remotes;
  for (std::size_t w = 0; w < workers; ++w) {
    net::RemoteUnitOptions ro;
    ro.port = daemons[w]->port();
    ro.name = "remote." + std::to_string(w + 1);
    ro.machine = static_cast<std::uint32_t>(w + 1);
    ro.event_unit = static_cast<std::uint32_t>(w + 1);
    ro.pipeline_depth = depth;
    // The engine's rebalancing rounds hand out blocks of a handful of
    // rows; stream them row-per-frame so the demo actually pipelines.
    if (depth > 1) ro.min_chunk_grains = 1;
    auto remote = std::make_unique<net::RemoteUnit>(ro);
    remotes.push_back(remote.get());
    units.push_back(std::move(remote));
  }

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));

  apps::MatMulWorkload workload(n, /*materialize=*/true);
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  if (!r.ok) {
    std::printf("run failed: %s\n", r.error.c_str());
    return out;
  }

  // --- Per-unit fraction table (who computed what) ---
  Table t({"Unit", "grains", "share", "tasks", "fraction", "transfer_s"});
  const auto shares = metrics::processed_shares(r);
  const auto& fractions = plb.fractions();
  for (const auto& u : r.units)
    t.row()
        .add(u.name)
        .add(r.unit_stats[u.id].grains)
        .add(shares[u.id], 3)
        .add(r.unit_stats[u.id].tasks)
        .add(u.id < fractions.size() ? fractions[u.id] : 0.0, 3)
        .add(r.unit_stats[u.id].transfer_seconds, 4);
  t.print();
  std::printf("wall time %.3f s, %zu grains, %zu barriers\n\n",
              r.makespan, r.total_grains, r.barriers);

  // --- Measured vs fitted transfer curves (G_p learned from wire) ---
  const auto& models = plb.models();
  for (const auto& u : r.units) {
    if (u.id >= models.size()) continue;
    const auto& g = models[u.id].transfer;
    const auto& samples = plb.profiles().transfer_samples(u.id).items();
    if (samples.empty()) continue;
    std::printf("%s: G(x) = %.4g*x + %.4g  (R^2 %.3f, %zu samples)\n",
                u.name.c_str(), g.slope, g.latency, g.r2,
                samples.size());
    Table curve({"x (fraction)", "measured_s", "fitted_s"});
    const std::size_t step =
        std::max<std::size_t>(1, samples.size() / 6);
    for (std::size_t i = 0; i < samples.size(); i += step)
      curve.row()
          .add(samples[i].x, 4)
          .add(samples[i].time, 5)
          .add(g(samples[i].x), 5);
    curve.print();
  }

  // --- Validate against an in-process reference multiplication ---
  apps::MatMulWorkload reference(n, /*materialize=*/true);
  reference.execute_cpu(0, n);
  out.identical = workload.result() == reference.result();

  for (const net::RemoteUnit* remote : remotes)
    out.wire.merge(remote->wire_stats());
  for (const auto& d : daemons) out.remote_blocks += d->blocks_served();
  for (auto& d : daemons) d->stop();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 384));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers", 2));
  const auto depth =
      static_cast<std::size_t>(cli.get_int("pipeline-depth", 1));

  std::printf("Multiplying %zux%zu across 1 local unit + %zu worker "
              "daemon(s) on loopback...\n",
              n, n, workers);
  const RunOutcome run = run_once(n, workers, std::max<std::size_t>(1, depth));
  if (!run.ok) return 1;
  std::printf("distributed C == local C: %s\n",
              run.identical ? "bit-identical (OK)" : "MISMATCH");
  std::printf("blocks served by daemons: %llu\n",
              static_cast<unsigned long long>(run.remote_blocks));
  // How much of the smaller phase (wire vs kernel) the window hid; 0
  // when no block was split into chunks.
  std::printf("chunks streamed through the window: %llu (wire/kernel "
              "overlap hidden: %.1f%%)\n",
              static_cast<unsigned long long>(run.wire.chunks_pipelined),
              run.wire.overlap_fraction() * 100.0);
  return run.identical ? 0 : 1;
}
