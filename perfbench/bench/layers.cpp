#include <algorithm>
#include <chrono>

#include "bench/common.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/solver/block_selection.hpp"

namespace perfbench {
namespace {

namespace rt = plbhec::rt;

/// Time the unit itself accounts for a block: the wall a pipelined unit
/// reports, else serial transfer + exec.
double reported_seconds(const rt::BlockTiming& t) {
  return t.wall_seconds > 0.0 ? t.wall_seconds
                              : t.transfer_seconds + t.exec_seconds;
}

double to_us(double seconds) { return seconds * 1e6; }

/// What a traced engine run hands to engine_layers().
struct EngineTrace {
  const rt::RunResult* result = nullptr;
  double t0 = 0.0;  ///< recorder seconds just before ThreadEngine::run
  double t1 = 0.0;  ///< and just after it returned
  std::int64_t run_span = -1;  ///< the run's root span
  std::vector<const TimedUnit*> units;
  const TimedScheduler* scheduler = nullptr;
  const plbhec::core::PlbHecScheduler* plb = nullptr;
  plbhec::core::PlbHecOptions plb_options;
  plbhec::exec::PoolStats pool_before;
  plbhec::exec::PoolStats pool_after;
};

/// Fills the per-layer metrics and the unattributed time of a traced
/// engine run, and adds its block, transfer, kernel and gap spans.
void engine_layers(const EngineTrace& trace, SpanRecorder& recorder,
                   Rep& rep) {
  Metrics& out = rep.layers;
  const rt::RunResult& r = *trace.result;
  const double wall = trace.t1 - trace.t0;

  // --- core: every scheduler call, made under the engine mutex.
  const std::vector<double>& calls = trace.scheduler->call_seconds();
  double busy = 0.0;
  for (double c : calls) busy += c;
  std::vector<double> calls_us;
  calls_us.reserve(calls.size());
  for (double c : calls) calls_us.push_back(to_us(c));
  const plbhec::core::PlbHecStats& st = trace.plb->stats();
  out["core.calls"] = static_cast<double>(calls.size());
  out["core.busy_s"] = busy;
  out["core.call_p50_us"] = percentile(calls_us, 50.0);
  out["core.call_p99_us"] = percentile(calls_us, 99.0);
  out["core.solves"] = static_cast<double>(st.solves);
  out["core.rebalances"] = static_cast<double>(st.rebalances);
  out["core.refinements"] = static_cast<double>(st.refinements);
  out["core.fits_computed"] = static_cast<double>(st.fits_computed);
  out["core.kkt_solves"] = static_cast<double>(st.kkt_solves);
  out["core.probe_blocks"] = static_cast<double>(st.probe_blocks);

  // --- fit / solver: replay on what the scheduler captured.
  std::vector<double> fit_us, solve_us;
  replay_scheduler(*trace.plb, trace.plb_options, fit_us, solve_us);
  replay_metrics(fit_us, solve_us, out);

  // --- rt and kernel: per-unit blocks and the gaps between them.
  std::vector<double> gaps_us;
  std::vector<double> ns_per_grain;
  double gap_total = 0.0;
  double kernel_busy = 0.0;
  std::size_t blocks = 0;
  for (const TimedUnit* unit : trace.units) {
    double cursor = trace.t0;
    double unit_reported = 0.0;
    double unit_gap = 0.0;
    for (const BlockRecord& b : unit->records()) {
      ++blocks;
      const double gap = b.start - cursor;
      unit_gap += gap;
      gaps_us.push_back(to_us(gap));
      recorder.add({"rt.gap", cursor, b.start, trace.run_span, 0});
      cursor = b.end;
      unit_reported += reported_seconds(b.timing);

      const std::int64_t block_span =
          recorder.add({"rt.block", b.start, b.end, trace.run_span, b.block});
      // The unit's own phase timings, laid out as the engine's trace does:
      // serial by default, kernel tail at the block's true end when a
      // pipelined unit overlapped the phases.
      double split = b.start + b.timing.transfer_seconds;
      double kend = split + b.timing.exec_seconds;
      const double serial = b.timing.transfer_seconds + b.timing.exec_seconds;
      if (b.timing.wall_seconds > 0.0 && b.timing.wall_seconds < serial) {
        kend = b.start + b.timing.wall_seconds;
        split = std::max(b.start, kend - b.timing.exec_seconds);
      }
      recorder.add({"unit.transfer", b.start,
                    b.start + b.timing.transfer_seconds, block_span, b.block});
      recorder.add({"unit.kernel", split, kend, block_span, b.block});

      const double kernel_s = b.timing.exec_seconds / std::max(1.0, b.slowdown);
      kernel_busy += kernel_s;
      if (b.grains > 0)
        ns_per_grain.push_back(kernel_s * 1e9 / static_cast<double>(b.grains));
    }
    const double tail = trace.t1 - cursor;
    unit_gap += tail;
    gaps_us.push_back(to_us(tail));
    recorder.add({"rt.gap", cursor, trace.t1, trace.run_span, 0});
    gap_total += unit_gap;
    rep.unattributed_s.push_back(wall - (unit_reported + unit_gap));
  }
  out["rt.blocks"] = static_cast<double>(blocks);
  out["rt.gap_s"] = gap_total;
  out["rt.gap_p99_us"] = percentile(gaps_us, 99.0);
  out["rt.idle_frac"] =
      wall > 0.0 && !trace.units.empty()
          ? gap_total / (wall * static_cast<double>(trace.units.size()))
          : 0.0;
  out["rt.barriers"] = static_cast<double>(r.barriers);
  out["rt.grains_requeued"] = static_cast<double>(r.grains_requeued);
  out["kernel.busy_s"] = kernel_busy;
  out["kernel.ns_per_grain_p50"] = percentile(ns_per_grain, 50.0);
  pool_metrics(trace.pool_before, trace.pool_after, out);
}

}  // namespace

void run_engine(rt::ThreadEngine& engine, rt::Workload& workload,
                RunProbe& probe, const std::vector<const TimedUnit*>& units,
                SpanRecorder* recorder, Rep& rep) {
  const plbhec::core::PlbHecOptions options;
  plbhec::core::PlbHecScheduler plb(options);
  TimedScheduler timed(plb, probe);

  EngineTrace trace;
  rt::Scheduler* scheduler = &plb;
  if (recorder != nullptr) {
    probe.recorder = recorder;
    scheduler = &timed;
    trace.pool_before = plbhec::exec::ThreadPool::global().stats();
    trace.t0 = recorder->now();
    trace.run_span = recorder->add({"rt.run", trace.t0, trace.t0, -1, 0});
    probe.run_span = trace.run_span;
  }
  const Clock::time_point t0 = Clock::now();
  const rt::RunResult result = engine.run(workload, *scheduler);
  rep.wall_s = seconds_since(t0);

  rep.ops.attempted = probe.blocks.load();
  rep.ops.failed = probe.failed.load();
  if (!result.ok) {
    rep.failure = "engine run failed: " + result.error;
  } else if (result.grains_completed != result.total_grains) {
    rep.failure = "grains completed " +
                  std::to_string(result.grains_completed) + " of " +
                  std::to_string(result.total_grains);
  }

  if (recorder != nullptr) {
    trace.t1 = recorder->now();
    trace.pool_after = plbhec::exec::ThreadPool::global().stats();
    recorder->finish(trace.run_span, trace.t1);
    trace.result = &result;
    trace.units = units;
    trace.scheduler = &timed;
    trace.plb = &plb;
    trace.plb_options = options;
    engine_layers(trace, *recorder, rep);
  }
}

void replay_scheduler(const plbhec::core::PlbHecScheduler& plb,
                      const plbhec::core::PlbHecOptions& options,
                      std::vector<double>& fit_us,
                      std::vector<double>& solve_us) {
  const rt::ProfileDb& db = plb.profiles();
  // Each prefix is a sample set the scheduler held at some point of the
  // run, in the order it learned them.
  for (rt::UnitId u = 0; u < db.units(); ++u) {
    const auto& items = db.exec_samples(u).items();
    plbhec::fit::SampleSet prefix;
    for (const plbhec::fit::Sample& s : items) {
      prefix.add(s.x, s.time);
      const auto t0 = Clock::now();
      (void)plbhec::fit::select_model(prefix, options.fit);
      const auto t1 = Clock::now();
      fit_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                           .count());
    }
  }

  std::vector<plbhec::fit::PerfModel> models;
  for (const plbhec::fit::PerfModel& m : plb.models())
    if (m.valid()) models.push_back(m);
  if (models.empty()) return;
  plbhec::solver::BlockSelectionOptions sel = options.selection;
  sel.total_fraction = options.step_fraction;
  constexpr int kSolveRepeats = 64;
  for (int i = 0; i < kSolveRepeats; ++i) {
    const auto t0 = Clock::now();
    (void)plbhec::solver::select_block_sizes(models, sel);
    const auto t1 = Clock::now();
    solve_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
}

void replay_metrics(const std::vector<double>& fit_us,
                    const std::vector<double>& solve_us, Metrics& out) {
  out["fit.select_us_p50"] = percentile(fit_us, 50.0);
  out["fit.select_us_p99"] = percentile(fit_us, 99.0);
  out["solver.select_us_p50"] = percentile(solve_us, 50.0);
  out["solver.select_us_p99"] = percentile(solve_us, 99.0);
}

void pool_metrics(const plbhec::exec::PoolStats& before,
                  const plbhec::exec::PoolStats& after, Metrics& out) {
  out["exec.pool_tasks"] =
      static_cast<double>(after.tasks_executed - before.tasks_executed);
  out["exec.pool_steals"] = static_cast<double>(after.steals - before.steals);
  out["exec.parallel_fors"] =
      static_cast<double>(after.parallel_fors - before.parallel_fors);
}

}  // namespace perfbench
