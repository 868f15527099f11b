// Observability-layer tests: the event sink under concurrent recording,
// the counter registry under the work-stealing pool, exporter round-trips
// (Chrome trace-event JSON and CSV re-parsed back to the original counts
// and timestamps), and the end-to-end event streams of each scheduler on
// the simulated cluster. All tests also pass in a PLBHEC_OBS=OFF build,
// where the sink compiles to no-ops and streams are empty.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "plbhec/apps/grn.hpp"
#include "plbhec/baselines/acosta.hpp"
#include "plbhec/baselines/hdss.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/obs/exporters.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/sim/machine.hpp"

namespace plbhec {
namespace {

obs::Event make_event(double time, obs::EventKind kind,
                      std::uint32_t unit = obs::kNoUnit) {
  obs::Event e;
  e.time = time;
  e.kind = kind;
  e.unit = unit;
  return e;
}

std::size_t count_kind(const std::vector<obs::Event>& events,
                       obs::EventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const obs::Event& e) { return e.kind == kind; }));
}

bool time_sorted(const std::vector<obs::Event>& events) {
  return std::is_sorted(
      events.begin(), events.end(),
      [](const obs::Event& a, const obs::Event& b) { return a.time < b.time; });
}

/// One small traced PLB-HeC run on the 2-machine scenario.
struct TracedRun {
  rt::RunResult result;
  std::vector<obs::Event> events;
};

TracedRun traced_plbhec_run() {
  apps::GrnWorkload w(apps::GrnWorkload::paper_instance(10'000));
  sim::SimCluster cluster(sim::scenario(2));
  obs::EventSink sink;
  rt::EngineOptions opts;
  opts.sink = &sink;
  rt::SimEngine engine(cluster, opts);
  core::PlbHecScheduler plb;
  TracedRun out;
  out.result = engine.run(w, plb);
  out.events = sink.drain();
  return out;
}

TEST(EventSink, RecordsAndDrainsSortedByTime) {
  obs::EventSink sink;
  sink.record(make_event(3.0, obs::EventKind::kBarrier));
  sink.record(make_event(1.0, obs::EventKind::kProbeIssued, 0));
  sink.record(make_event(2.0, obs::EventKind::kSolve));
  const std::vector<obs::Event> events = sink.drain();
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(time_sorted(events));
  EXPECT_EQ(events.front().kind, obs::EventKind::kProbeIssued);
  EXPECT_EQ(events.front().unit, 0u);
  EXPECT_EQ(events.back().kind, obs::EventKind::kBarrier);
}

TEST(EventSink, DrainClearsAndRuntimeDisableDrops) {
  obs::EventSink sink;
  sink.record(make_event(1.0, obs::EventKind::kBarrier));
  (void)sink.drain();
  EXPECT_TRUE(sink.drain().empty());

  sink.set_enabled(false);
  sink.record(make_event(2.0, obs::EventKind::kBarrier));
  EXPECT_TRUE(sink.drain().empty());
  sink.set_enabled(true);
  sink.record(make_event(3.0, obs::EventKind::kBarrier));
  EXPECT_EQ(sink.drain().size(), obs::kCompiledIn ? 1u : 0u);
}

TEST(EventSink, NullSinkMacroIsSafe) {
  obs::EventSink* sink = nullptr;
  PLBHEC_OBS_RECORD(sink, {1.0, obs::EventKind::kBarrier, obs::kNoUnit, 0.0,
                           0.0, 0, 0});
  SUCCEED();
}

TEST(EventSink, ConcurrentRecordingUnderThePool) {
  exec::ThreadPool pool(3);
  obs::EventSink sink;
  constexpr std::size_t kEvents = 20'000;
  pool.parallel_for(0, kEvents, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      sink.record(make_event(static_cast<double>(i),
                             obs::EventKind::kBlockDispatched,
                             static_cast<std::uint32_t>(i % 4)));
  });
  const std::vector<obs::Event> events = sink.drain();
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), kEvents);
  EXPECT_TRUE(time_sorted(events));
  // Every index recorded exactly once, regardless of which thread took it.
  std::vector<bool> seen(kEvents, false);
  for (const obs::Event& e : events) {
    const auto idx = static_cast<std::size_t>(e.time);
    ASSERT_LT(idx, kEvents);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(CounterRegistry, CreateOrGetAddSetSnapshot) {
  obs::CounterRegistry reg;
  obs::CounterRegistry::Counter& c = reg.counter("alpha");
  c.add(3);
  EXPECT_EQ(&c, &reg.counter("alpha"));  // stable reference
  reg.add("beta", 2);
  reg.set("beta", 7);
  EXPECT_EQ(reg.value("alpha"), 3u);
  EXPECT_EQ(reg.value("beta"), 7u);
  EXPECT_EQ(reg.value("never-registered"), 0u);
  const auto snapshot = reg.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "alpha");   // name-sorted
  EXPECT_EQ(snapshot[1].first, "beta");
  EXPECT_EQ(snapshot[1].second, 7u);
}

TEST(CounterRegistry, ConcurrentIncrementsUnderThePool) {
  exec::ThreadPool pool(3);
  obs::CounterRegistry reg;
  constexpr std::size_t kIncrements = 100'000;
  obs::CounterRegistry::Counter& hot = reg.counter("hot");
  pool.parallel_for(0, kIncrements, 128, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      hot.add();                      // cached-reference hot path
      reg.add("bucket" + std::to_string(i % 7));  // registration races
    }
  });
  EXPECT_EQ(reg.value("hot"), kIncrements);
  std::uint64_t bucket_total = 0;
  for (const auto& [name, value] : reg.snapshot())
    if (name != "hot") bucket_total += value;
  EXPECT_EQ(bucket_total, kIncrements);
}

TEST(ThreadPool, StatsCountWorkDistribution) {
  exec::ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  pool.parallel_for(0, 10'000, 16,
                    [&](std::size_t lo, std::size_t hi) { ran += hi - lo; });
  // parallel_for returns once every chunk ran, but a runner task that found
  // the chunks exhausted may still be retiring and bump tasks_executed
  // between the two snapshots compared below.
  pool.wait_idle();
  const exec::PoolStats stats = pool.stats();
  EXPECT_GT(stats.tasks_executed, 0u);
  EXPECT_GE(stats.injected, 32u);  // submits came from this non-worker thread
  EXPECT_EQ(stats.parallel_fors, 1u);

  obs::CounterRegistry reg;
  pool.publish_counters(reg, "pool.");
  EXPECT_EQ(reg.value("pool.tasks_executed"), stats.tasks_executed);
  EXPECT_EQ(reg.value("pool.injected"), stats.injected);
  EXPECT_EQ(reg.value("pool.parallel_fors"), stats.parallel_fors);
  EXPECT_EQ(reg.value("pool.steals"), pool.stats().steals);
}

TEST(EngineIntegration, PlbHecRunEmitsDecisionStream) {
  const TracedRun run = traced_plbhec_run();
  ASSERT_TRUE(run.result.ok) << run.result.error;
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(run.events.empty());
    return;
  }
  EXPECT_TRUE(time_sorted(run.events));
  EXPECT_GT(count_kind(run.events, obs::EventKind::kProbeIssued), 0u);
  EXPECT_GT(count_kind(run.events, obs::EventKind::kModelFitted), 0u);
  EXPECT_GT(count_kind(run.events, obs::EventKind::kSolve), 0u);
  EXPECT_GT(count_kind(run.events, obs::EventKind::kPhaseChange), 0u);
  // One dispatch event per engine-issued task.
  std::size_t tasks = 0;
  for (const rt::UnitStats& s : run.result.unit_stats) tasks += s.tasks;
  EXPECT_EQ(count_kind(run.events, obs::EventKind::kBlockDispatched), tasks);
  for (const obs::Event& e : run.events) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LE(e.time, run.result.makespan);
    if (e.unit != obs::kNoUnit) EXPECT_LT(e.unit, run.result.units.size());
  }
}

TEST(EngineIntegration, BaselineSchedulersEmitTheirOwnKinds) {
  apps::GrnWorkload w(apps::GrnWorkload::paper_instance(10'000));
  sim::SimCluster cluster(sim::scenario(2));
  {
    obs::EventSink sink;
    rt::EngineOptions opts;
    opts.sink = &sink;
    rt::SimEngine engine(cluster, opts);
    baselines::HdssScheduler hdss;
    ASSERT_TRUE(engine.run(w, hdss).ok);
    const std::vector<obs::Event> events = sink.drain();
    if (obs::kCompiledIn) {
      EXPECT_GT(count_kind(events, obs::EventKind::kWeightUpdate), 0u);
      EXPECT_EQ(count_kind(events, obs::EventKind::kPhaseChange), 1u);
    } else {
      EXPECT_TRUE(events.empty());
    }
  }
  {
    obs::EventSink sink;
    rt::EngineOptions opts;
    opts.sink = &sink;
    rt::SimEngine engine(cluster, opts);
    baselines::AcostaScheduler acosta;
    ASSERT_TRUE(engine.run(w, acosta).ok);
    const std::vector<obs::Event> events = sink.drain();
    if (obs::kCompiledIn) {
      EXPECT_GT(count_kind(events, obs::EventKind::kIterationSync), 0u);
      EXPECT_EQ(count_kind(events, obs::EventKind::kBarrier),
                count_kind(events, obs::EventKind::kIterationSync));
    } else {
      EXPECT_TRUE(events.empty());
    }
  }
}

TEST(Exporters, ChromeTraceRoundTrip) {
  const TracedRun run = traced_plbhec_run();
  ASSERT_TRUE(run.result.ok) << run.result.error;
  const std::string json = obs::chrome_trace_json(run.result, run.events);

  const obs::ChromeTraceScan scan = obs::scan_chrome_trace(json);
  ASSERT_TRUE(scan.parse_ok);
  EXPECT_EQ(scan.slices, run.result.trace.segments().size());
  EXPECT_EQ(scan.instants, run.events.size());
  EXPECT_EQ(scan.metadata, run.result.units.size() + 1);  // + scheduler track
  EXPECT_TRUE(scan.ts_monotonic);
  EXPECT_GE(scan.min_ts, 0.0);
  EXPECT_NEAR(scan.max_ts, run.result.makespan * 1e6,
              1e-3 * run.result.makespan * 1e6);
}

TEST(Exporters, CsvRoundTrip) {
  const TracedRun run = traced_plbhec_run();
  ASSERT_TRUE(run.result.ok) << run.result.error;
  const std::string csv = obs::events_csv(run.events);

  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "time,kind,unit,a,b,i,j");

  std::size_t rows = 0;
  double prev_time = -1.0;
  std::array<std::size_t, obs::kEventKindCount> by_kind{};
  while (std::getline(in, line)) {
    ASSERT_EQ(std::count(line.begin(), line.end(), ','), 6)
        << "row " << rows << ": " << line;
    const double time = std::strtod(line.c_str(), nullptr);
    EXPECT_GE(time, prev_time);  // drain order survives the export
    prev_time = time;
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k)
      if (line.find(obs::to_string(static_cast<obs::EventKind>(k))) !=
          std::string::npos)
        ++by_kind[k];
    ++rows;
  }
  EXPECT_EQ(rows, run.events.size());
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k)
    EXPECT_GE(by_kind[k],
              count_kind(run.events, static_cast<obs::EventKind>(k)))
        << obs::to_string(static_cast<obs::EventKind>(k));
}

TEST(Exporters, RunSummaryNamesUnitsAndCounters) {
  const TracedRun run = traced_plbhec_run();
  ASSERT_TRUE(run.result.ok) << run.result.error;
  obs::CounterRegistry reg;
  reg.set("plbhec.solves", 5);
  const std::string summary =
      obs::run_summary(run.result, run.events, &reg);
  for (const rt::UnitInfo& u : run.result.units)
    EXPECT_NE(summary.find(u.name), std::string::npos) << u.name;
  EXPECT_NE(summary.find("makespan"), std::string::npos);
  EXPECT_NE(summary.find("plbhec.solves"), std::string::npos);
  if (obs::kCompiledIn)
    EXPECT_NE(summary.find("block_dispatched"), std::string::npos);
  else
    EXPECT_NE(summary.find("(none recorded)"), std::string::npos);
}

TEST(Exporters, EventArgNamesAreDefinedForEveryKind) {
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    EXPECT_NE(std::string(obs::to_string(kind)), "unknown");
    (void)obs::arg_names(kind);  // must not crash / assert
  }
}

}  // namespace
}  // namespace plbhec
