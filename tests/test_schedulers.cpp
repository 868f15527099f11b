// Scheduler behavior tests: PLB-HeC's phase structure, block selection
// quality, rebalancing and warm-start age gates; greedy, HDSS, Acosta and
// the static-profile oracle baseline. Uses the simulated engine with
// controlled noise.

#include <gtest/gtest.h>

#include <numeric>

#include "plbhec/apps/grn.hpp"
#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/baselines/acosta.hpp"
#include "plbhec/baselines/greedy.hpp"
#include "plbhec/baselines/hdss.hpp"
#include "plbhec/baselines/static_profile.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/sim/machine.hpp"

namespace plbhec {
namespace {

apps::SyntheticWorkload::Config medium_config() {
  apps::SyntheticWorkload::Config c;
  c.grains = 20'000;
  c.flops_per_grain = 5e7;
  c.bytes_per_grain = 2048;
  c.gpu_threads_per_grain = 32;
  return c;
}

rt::RunResult run_with(rt::Scheduler& sched, rt::Workload& w,
                       std::size_t machines = 2, std::uint64_t seed = 42) {
  sim::SimCluster cluster(sim::scenario(machines));
  rt::EngineOptions opts;
  opts.seed = seed;
  rt::SimEngine engine(cluster, opts);
  return engine.run(w, sched);
}

TEST(PlbHec, CompletesAndSelectsOnce) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(plb.stats().solves, 1u);
  EXPECT_GE(plb.stats().probe_rounds, 4u);
  EXPECT_EQ(plb.fractions().size(), r.units.size());
}

TEST(PlbHec, FractionsSumToOne) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w, 4);
  ASSERT_TRUE(r.ok);
  const double sum = std::accumulate(plb.fractions().begin(),
                                     plb.fractions().end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PlbHec, ModelingRespectsDataCap) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecOptions opts;
  opts.modeling_data_cap = 0.10;
  core::PlbHecScheduler plb(opts);
  const rt::RunResult r = run_with(plb, w);
  ASSERT_TRUE(r.ok);
  // Budgeted probes stop at the cap; only 1-grain keep-busy fillers (while
  // the slowest units finish their minimum probe count) may run past it,
  // so the overshoot must stay bounded by the cap itself.
  EXPECT_LE(plb.stats().modeling_grains, 2.0 * 0.10 * 20'000);
}

TEST(PlbHec, ModelsAreFittedForEveryUnit) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(plb.models().size(), r.units.size());
  for (const auto& m : plb.models()) EXPECT_TRUE(m.valid());
}

TEST(PlbHec, MaxBlockSecondsCapsExecutionBlocks) {
  // Bounded preemption latency (the warm-start-regression fix): with a
  // one-unit lease the equal-time selection hands the whole step_fraction
  // window (2500 grains, 2.5 s at 1 ms/grain) to that unit as a single
  // block. The service can only revoke or grow leases at block
  // boundaries, so max_block_seconds must clamp the block to the bound's
  // worth of predicted work.
  core::PlbHecOptions opts;
  opts.max_block_seconds = 0.010;
  core::PlbHecScheduler plb(opts);
  std::vector<rt::UnitInfo> units(1);
  units[0].id = 0;
  units[0].name = "slow.cpu";
  rt::WorkInfo work;
  work.name = "synthetic";
  work.total_grains = 10'000;
  work.initial_block = 16;
  plb.start(units, work);

  constexpr double kPerGrain = 1e-3;
  double now = 0.0;
  for (int i = 0; i < 64 && plb.stats().solves == 0; ++i) {
    const std::size_t g = plb.next_block(0, now);
    ASSERT_GT(g, 0u);
    rt::TaskObservation obs;
    obs.unit = 0;
    obs.grains = g;
    obs.exec_seconds = kPerGrain * static_cast<double>(g);
    obs.start_time = now;
    obs.finish_time = now + obs.exec_seconds;
    now = obs.finish_time;
    plb.on_complete(obs);
  }
  ASSERT_GE(plb.stats().solves, 1u);  // execution phase reached

  const std::size_t capped = plb.next_block(0, now);
  EXPECT_GE(capped, 1u);
  EXPECT_LE(capped,
            static_cast<std::size_t>(opts.max_block_seconds / kPerGrain));

  // The default (0) keeps the paper's behavior: the same drive without
  // the cap issues the full window in one block.
  core::PlbHecScheduler uncapped;
  uncapped.start(units, work);
  now = 0.0;
  for (int i = 0; i < 64 && uncapped.stats().solves == 0; ++i) {
    const std::size_t g = uncapped.next_block(0, now);
    ASSERT_GT(g, 0u);
    rt::TaskObservation obs;
    obs.unit = 0;
    obs.grains = g;
    obs.exec_seconds = kPerGrain * static_cast<double>(g);
    obs.start_time = now;
    obs.finish_time = now + obs.exec_seconds;
    now = obs.finish_time;
    uncapped.on_complete(obs);
  }
  ASSERT_GE(uncapped.stats().solves, 1u);
  EXPECT_GT(uncapped.next_block(0, now), 1'000u);
}

TEST(PlbHec, GpuGetsLargerShareThanCpuOnComputeBoundWork) {
  // Machine A: Tesla K20c vs 10-core Xeon — the GPU must win a compute-
  // bound division (the paper's Fig. 6 observation).
  apps::MatMulWorkload w(16384);
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w, 1);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(plb.fractions()[1], plb.fractions()[0]);
}

TEST(PlbHec, SelectedSharesTrackOracle) {
  apps::MatMulWorkload w(16384);
  sim::SimCluster cluster(sim::scenario(4, true));
  rt::SimEngine engine(cluster, {});
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok);
  const auto oracle = baselines::oracle_static_weights(
      cluster, w.profile(), w.total_grains(), w.bytes_per_grain());
  for (std::size_t u = 0; u < oracle.size(); ++u)
    EXPECT_NEAR(plb.fractions()[u], oracle[u], 0.35 * oracle[u] + 0.01)
        << r.units[u].name;
}

TEST(PlbHec, RebalanceTriggersOnQosChange) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  // Halve the GPU of machine A mid-run: durations diverge -> rebalance.
  cluster.add_speed_event(1, 0.0, 1.0);
  core::PlbHecScheduler probe_only;  // first run to estimate makespan
  rt::SimEngine engine(cluster, {});
  const rt::RunResult probe_run = engine.run(w, probe_only);
  ASSERT_TRUE(probe_run.ok);

  cluster.add_speed_event(1, probe_run.makespan * 0.5, 0.25);
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok) << r.error;
  // The scheduler must have adapted: either a threshold rebalance fired or
  // a progressive refinement re-solved after the drop; in all cases the
  // selection ran more than once.
  EXPECT_GE(plb.stats().rebalances + plb.stats().refinements, 1u);
  EXPECT_GE(plb.stats().solves, 2u);
}

TEST(PlbHec, SurvivesUnitFailureAndResolves) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  core::PlbHecScheduler probe_only;
  rt::SimEngine engine(cluster, {});
  const rt::RunResult probe_run = engine.run(w, probe_only);
  ASSERT_TRUE(probe_run.ok);

  cluster.fail_unit(3, probe_run.makespan * 0.5);
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.unit_stats[3].failed);
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
  // The failed unit's share was redistributed.
  EXPECT_DOUBLE_EQ(plb.fractions()[3], 0.0);
}

TEST(PlbHec, SingleUnitDegeneratesGracefully) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(
      std::vector<sim::MachineConfig>{sim::machine_a()});
  // Strip to one unit by failing the CPU immediately.
  cluster.fail_unit(0, 0.0);
  rt::SimEngine engine(cluster, {});
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.unit_stats[1].grains, w.total_grains());
}

TEST(PlbHec, SolveTimesRecorded) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(plb.stats().solve_seconds.size(), plb.stats().solves);
  for (double s : plb.stats().solve_seconds) {
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 10.0);
  }
}

TEST(PlbHec, HonorsExplicitInitialBlock) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecOptions opts;
  opts.initial_block = 13;
  core::PlbHecScheduler plb(opts);
  sim::SimCluster cluster(sim::scenario(1));
  rt::EngineOptions eopts;
  eopts.noise = sim::NoiseModel::none();
  rt::SimEngine engine(cluster, eopts);
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok);
  // The first probe block of every unit is exactly initial_block.
  std::vector<bool> seen(r.units.size(), false);
  for (const auto& seg : r.trace.segments()) {
    if (seg.kind != rt::SegmentKind::kExec) continue;
    if (!seen[seg.unit]) {
      EXPECT_EQ(seg.grains, 13u) << "unit " << seg.unit;
      seen[seg.unit] = true;
    }
  }
}

constexpr std::size_t kWarmGrains = 60'000;

/// A stored profile of a linear curve, `age` store writes old.
rt::WarmProfile aged_profile(std::uint64_t age) {
  rt::WarmProfile warm;
  warm.total_grains = kWarmGrains;
  warm.stored_r2 = 0.99;
  warm.age = age;
  for (int i = 1; i <= 8; ++i)
    warm.exec.push_back({0.02 * i, 0.01 * i});
  return warm;
}

core::PlbHecStats run_warm_grn(const rt::WarmProfile& warm) {
  core::PlbHecOptions opts;
  opts.step_fraction = 0.05;
  opts.refinements = 0;
  opts.rebalance_threshold = 1e9;  // stock rebalancing never fires
  opts.warm.assign(1, warm);
  sim::SimCluster cluster(sim::scenario(2));
  apps::GrnWorkload workload(apps::GrnWorkload::paper_instance(kWarmGrains));
  rt::EngineOptions eopts;
  eopts.seed = 42;
  eopts.noise = sim::NoiseModel::none();
  rt::SimEngine engine(cluster, eopts);
  core::PlbHecScheduler plb(opts);
  const rt::RunResult result = engine.run(workload, plb);
  EXPECT_TRUE(result.ok) << result.error;
  return plb.stats();
}

TEST(PlbHecWarmStart, StaleWarmProfileIsSkippedNotSeeded) {
  const core::PlbHecStats stats =
      run_warm_grn(aged_profile(core::PlbHecOptions{}.warm_max_age + 1));
  EXPECT_EQ(stats.warm_stale_skips, 1u);
  EXPECT_EQ(stats.warm_hits, 0u);
  EXPECT_EQ(stats.warm_misses, 0u);  // skipped before validation
}

TEST(PlbHecWarmStart, FreshProfileOfSameShapeReachesValidation) {
  const core::PlbHecStats stats = run_warm_grn(aged_profile(0));
  EXPECT_EQ(stats.warm_stale_skips, 0u);
  // Age 0 passes the staleness gate; the observation-based validation
  // then accepts or rejects it -- either way it was considered.
  EXPECT_EQ(stats.warm_hits + stats.warm_misses, 1u);
}

TEST(Greedy, FixedPieces) {
  apps::SyntheticWorkload w(medium_config());
  baselines::GreedyScheduler greedy(128);
  const rt::RunResult r = run_with(greedy, w);
  ASSERT_TRUE(r.ok);
  for (const auto& seg : r.trace.segments())
    if (seg.kind == rt::SegmentKind::kExec) EXPECT_LE(seg.grains, 128u);
}

TEST(Greedy, FasterUnitsTakeMorePieces) {
  apps::MatMulWorkload w(8192);
  baselines::GreedyScheduler greedy;
  const rt::RunResult r = run_with(greedy, w, 1);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.unit_stats[1].tasks, r.unit_stats[0].tasks);  // GPU > CPU
}

TEST(Hdss, ReachesCompletionPhase) {
  apps::SyntheticWorkload w(medium_config());
  baselines::HdssScheduler hdss;
  const rt::RunResult r = run_with(hdss, w);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(hdss.in_completion_phase());
}

TEST(Hdss, WeightsArePositiveAndNormalized) {
  apps::SyntheticWorkload w(medium_config());
  baselines::HdssScheduler hdss;
  const rt::RunResult r = run_with(hdss, w, 3);
  ASSERT_TRUE(r.ok);
  const auto wf = hdss.weight_fractions();
  double sum = 0.0;
  for (double v : wf) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Hdss, GpuWeightExceedsCpuOnComputeBoundWork) {
  apps::MatMulWorkload w(16384);
  baselines::HdssScheduler hdss;
  const rt::RunResult r = run_with(hdss, w, 1);
  ASSERT_TRUE(r.ok);
  const auto wf = hdss.weight_fractions();
  EXPECT_GT(wf[1], wf[0]);
}

TEST(Hdss, AdaptiveBlocksGrowGeometrically) {
  apps::SyntheticWorkload w(medium_config());
  baselines::HdssOptions opts;
  opts.initial_block = 10;
  opts.growth = 2.0;
  baselines::HdssScheduler hdss(opts);
  sim::SimCluster cluster(sim::scenario(1));
  rt::EngineOptions eopts;
  eopts.noise = sim::NoiseModel::none();
  rt::SimEngine engine(cluster, eopts);
  const rt::RunResult r = engine.run(w, hdss);
  ASSERT_TRUE(r.ok);
  // First tasks of unit 0: 10, 20, 40 ... until convergence.
  std::vector<std::size_t> sizes;
  for (const auto& seg : r.trace.segments())
    if (seg.kind == rt::SegmentKind::kExec && seg.unit == 0 &&
        sizes.size() < 3)
      sizes.push_back(seg.grains);
  ASSERT_GE(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 10u);
  EXPECT_EQ(sizes[1], 20u);
  EXPECT_EQ(sizes[2], 40u);
}

TEST(Hdss, HandlesUnitFailure) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  cluster.fail_unit(2, 1e-4);
  rt::SimEngine engine(cluster, {});
  baselines::HdssScheduler hdss;
  const rt::RunResult r = engine.run(w, hdss);
  ASSERT_TRUE(r.ok) << r.error;
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
}

TEST(Acosta, SharesConvergeTowardSpeeds) {
  apps::MatMulWorkload w(16384);
  baselines::AcostaScheduler acosta;
  const rt::RunResult r = run_with(acosta, w, 1);
  ASSERT_TRUE(r.ok);
  const auto& shares = acosta.shares();
  EXPECT_GT(shares[1], shares[0]);  // GPU share above CPU share
  EXPECT_GE(acosta.iterations(), 2u);
}

TEST(Acosta, SharesStayNormalized) {
  apps::SyntheticWorkload w(medium_config());
  baselines::AcostaScheduler acosta;
  const rt::RunResult r = run_with(acosta, w, 3);
  ASSERT_TRUE(r.ok);
  const double sum = std::accumulate(acosta.shares().begin(),
                                     acosta.shares().end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Acosta, IteratesTowardEquilibrium) {
  apps::MatMulWorkload w(8192);
  baselines::AcostaOptions opts;
  opts.threshold = 0.25;  // generous: convergence is asymptotic
  baselines::AcostaScheduler acosta(opts);
  const rt::RunResult r = run_with(acosta, w);
  ASSERT_TRUE(r.ok);
  // Multiple rebalancing iterations must have happened, and the shares
  // must have moved away from uniform toward the device speeds (the GPU
  // of machine A is far faster than its CPU on matmul rows).
  EXPECT_GE(acosta.iterations(), 3u);
  EXPECT_GT(acosta.shares()[1], acosta.shares()[0]);
}

TEST(Acosta, FailureRedistributesShares) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  cluster.fail_unit(0, 1e-4);
  rt::SimEngine engine(cluster, {});
  baselines::AcostaScheduler acosta;
  const rt::RunResult r = engine.run(w, acosta);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(acosta.shares()[0], 0.0);
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
}

TEST(StaticProfile, OracleWeightsBalanceTrueModels) {
  apps::MatMulWorkload w(16384);
  sim::SimCluster cluster(sim::scenario(3));
  const auto weights = baselines::oracle_static_weights(
      cluster, w.profile(), w.total_grains(), w.bytes_per_grain());
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // All units process their weighted share in nearly equal time.
  std::vector<double> times;
  for (std::size_t u = 0; u < cluster.size(); ++u) {
    const double grains =
        weights[u] * static_cast<double>(w.total_grains());
    const auto& su = cluster.unit(u);
    times.push_back(su.path.transfer_seconds(grains * w.bytes_per_grain()) +
                    su.device->execution_seconds(w.profile(), grains));
  }
  const double t0 = times[0];
  for (double t : times) EXPECT_NEAR(t, t0, 0.02 * t0);
}

TEST(StaticProfile, RunsToCompletion) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  const auto weights = baselines::oracle_static_weights(
      cluster, w.profile(), w.total_grains(), w.bytes_per_grain());
  baselines::StaticProfileScheduler sched(weights);
  rt::SimEngine engine(cluster, {});
  const rt::RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok) << r.error;
}

TEST(StaticProfile, OracleBeatsOrMatchesGreedy) {
  apps::MatMulWorkload w(16384);
  sim::SimCluster cluster(sim::scenario(4, true));
  rt::SimEngine engine(cluster, {});
  const auto weights = baselines::oracle_static_weights(
      cluster, w.profile(), w.total_grains(), w.bytes_per_grain());
  baselines::StaticProfileScheduler oracle(weights);
  baselines::GreedyScheduler greedy;
  const rt::RunResult ro = engine.run(w, oracle);
  const rt::RunResult rg = engine.run(w, greedy);
  ASSERT_TRUE(ro.ok && rg.ok);
  EXPECT_LT(ro.makespan, 1.05 * rg.makespan);
}

}  // namespace
}  // namespace plbhec
