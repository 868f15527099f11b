#pragma once
/// \file common.hpp
/// Interface between the benchmark's entry point and its workloads, plus
/// the layer metrics the two engine workloads share.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lib/decorators.hpp"
#include "lib/spans.hpp"
#include "lib/stats.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Outcome of one repetition of a workload.
struct Rep {
  double setup_s = 0.0;  ///< construction, materialization, connect, submit
  double wall_s = 0.0;   ///< the timed ThreadEngine::run / JobManager::run
  OpCount ops;
  /// Empty when every correctness check passed; else the first failure.
  std::string failure;
  /// Traced repetitions only: per-layer metrics.
  Metrics layers;
  /// Outcomes printed on the summary lines (virtual-time results), filled
  /// by every repetition.
  Metrics outcomes;
  /// Identity token of the outputs; every repetition of one seed must
  /// produce the same one. Empty when the workload has none.
  std::string identity;
  /// Traced engine repetitions only: per unit, the wall time not covered
  /// by the block time the unit reports plus the gaps between its blocks.
  std::vector<double> unattributed_s;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// Compute threads the workload runs besides the global pool's lanes
  /// (engine unit workers and daemon executors that run kernels). The
  /// entry point parks pool lanes so the sum stays within nproc.
  [[nodiscard]] virtual unsigned compute_threads() const = 0;
  /// Whether a discarded warm-up repetition should precede the measured
  /// ones (false when construction already ran the same code paths).
  [[nodiscard]] virtual bool needs_warmup() const { return true; }
  /// One repetition; `recorder` is non-null for a traced repetition.
  [[nodiscard]] virtual Rep run(SpanRecorder* recorder) = 0;
};

[[nodiscard]] std::unique_ptr<BenchWorkload> make_local_step(
    std::uint64_t seed);
[[nodiscard]] std::unique_ptr<BenchWorkload> make_remote_pipelined(
    std::uint64_t seed);
[[nodiscard]] std::unique_ptr<BenchWorkload> make_service_trace(
    std::uint64_t seed);

/// Largest allowed |wall - (unit-reported block time + gap time)| / wall
/// for any unit, summed over the traced repetitions of an engine workload.
inline constexpr double kConservationTolerance = 0.05;

/// One ThreadEngine run of an engine workload, setting rep.wall_s and
/// rep.ops, and rep.failure when the run failed or lost grains. Untraced
/// (`recorder` null) the engine runs a PlbHecScheduler directly. Traced it
/// runs one wrapped in a TimedScheduler, records spans and fills
/// rep.layers (core, fit, solver, rt, kernel, exec) and
/// rep.unattributed_s.
void run_engine(plbhec::rt::ThreadEngine& engine,
                plbhec::rt::Workload& workload, RunProbe& probe,
                const std::vector<const TimedUnit*>& units,
                SpanRecorder* recorder, Rep& rep);

/// Replays the public fit::select_model on every prefix of each unit's
/// captured execution samples and solver::select_block_sizes on the
/// captured models, appending each call's duration in microseconds.
void replay_scheduler(const plbhec::core::PlbHecScheduler& plb,
                      const plbhec::core::PlbHecOptions& options,
                      std::vector<double>& fit_us,
                      std::vector<double>& solve_us);

/// Writes fit.select_us_p50/p99 and solver.select_us_p50/p99.
void replay_metrics(const std::vector<double>& fit_us,
                    const std::vector<double>& solve_us, Metrics& out);

/// Pool counters accumulated between two snapshots.
void pool_metrics(const plbhec::exec::PoolStats& before,
                  const plbhec::exec::PoolStats& after, Metrics& out);

}  // namespace perfbench
