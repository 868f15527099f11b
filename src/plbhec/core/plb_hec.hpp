#pragma once
/// \file plb_hec.hpp
/// PLB-HeC: the paper's profile-based load-balancing algorithm (§III).
///
/// Phase 1 — performance modeling: per-unit probe blocks growing as
///   initialBlockSize * {1, 2, 4, 8}, rescaled per unit by the performance
///   preview t_f / t_k (fastest per-grain time over this unit's per-grain
///   time). Probing is *asynchronous*: a unit receives its next probe the
///   moment it finishes the previous one — the paper credits PLB-HeC's low
///   initial-phase idleness to exactly this ("starting to adapt the block
///   sizes after the submission of the first block"). Probing continues
///   until every unit's fitted curve reaches R^2 >= 0.7 (minimum four
///   samples each) or 20% of the input has been consumed.
/// Phase 2 — block size selection: fit F_p, G_p per unit, solve the
///   equal-time system (Eq. 3-5) with the interior-point method.
/// Phase 3 — execution & rebalancing: hand each unit blocks of its selected
///   size; when task durations across units diverge by more than the
///   threshold (default 10% of a block's execution time), drain, re-fit
///   with all observations and re-solve.
///
/// The scheduler also honors unit failures (paper §VI future work): the
/// failed unit's share is re-solved across the survivors.

#include <optional>
#include <vector>

#include "plbhec/rt/profile_db.hpp"
#include "plbhec/rt/scheduler.hpp"
#include "plbhec/solver/block_selection.hpp"

namespace plbhec::obs {
class CounterRegistry;
}

namespace plbhec::core {

struct PlbHecOptions {
  /// Probe block of the first round, in grains. 0 = use the engine hint
  /// (WorkInfo::initial_block).
  std::size_t initial_block = 0;
  /// Minimum number of probe blocks per unit before the first fit attempt
  /// (the paper's schedule: 4).
  std::size_t min_probe_rounds = 4;
  /// Stop the modeling phase once this fraction of the input is consumed,
  /// even if some fit is still below the R^2 threshold (paper: 20%).
  double modeling_data_cap = 0.20;
  /// Largest probe multiplier; the paper's schedule is 1, 2, 4, 8 and
  /// additional points (when R^2 is still low) are taken at the final
  /// multiplier rather than growing further.
  std::size_t max_probe_multiplier = 8;
  /// Rebalance when task durations diverge by more than this fraction of
  /// the mean block duration. The paper: "the threshold must be determined
  /// empirically; in practice, values of about 10% ... a good trade-off".
  /// We compare the max-min *range* across all units, which at 8-10 units
  /// and 2-3% measurement noise sits near 12%, so the empirically good
  /// value here is 0.15 (see bench/abl_threshold for the sweep).
  double rebalance_threshold = 0.15;
  /// Number of consecutive completions that must exceed the threshold
  /// before a rebalance is declared (debounces measurement noise).
  std::size_t rebalance_strikes = 2;
  /// Fraction of the total input distributed per execution "step"; each
  /// unit's per-task block is its fraction of this window.
  double step_fraction = 0.25;
  /// Barrier-free progressive refinements (§II: "a progressive refinement
  /// of the performance models ... during execution"): after every unit
  /// has completed one execution-phase block of the current selection, the
  /// models are re-fitted with those large-block samples and the fractions
  /// updated for *future* blocks — no synchronization needed, unlike a
  /// threshold rebalance. Each refinement costs one solver call.
  std::size_t refinements = 2;
  /// Curve-fit configuration (r2_threshold is the paper's 0.7).
  fit::SelectionOptions fit;
  /// Run-scoped model-selection memo shared by every scheduler of one
  /// service run (not owned). The service sets it; null everywhere else,
  /// so a standalone scheduler always selects afresh.
  fit::SelectionMemo* fit_memo = nullptr;
  /// Interior-point block-selection configuration.
  solver::BlockSelectionOptions selection;
  /// Per-unit warm-start profiles (the service layer loads these from its
  /// ProfileStore at job admission), indexed by the unit ids passed to
  /// start(). A unit whose stored profile has stored_r2 >= fit.r2_threshold
  /// is seeded with the persisted samples and issues ONE cheap validation
  /// block instead of the exponential probe schedule; if the seeded fit
  /// still predicts that block within warm_rel_error, the unit's modeling
  /// is complete (warm hit). Otherwise the stored samples are dropped and
  /// the unit falls back to cold probing (warm miss). Units beyond the
  /// vector, or with unusable entries, always cold-start.
  std::vector<rt::WarmProfile> warm;
  /// Relative error bound of the warm validation rule: |observed -
  /// predicted| / predicted on the validation block must stay under this.
  double warm_rel_error = 0.35;
  /// Staleness tightening of the warm validation bound: the effective
  /// bound is warm_rel_error / (1 + warm_age_tightening * age), where age
  /// is WarmProfile::age (store writes since the entry was refreshed). A
  /// fresh profile keeps the full bound; one that predates hundreds of
  /// store writes must predict the validation block much more precisely
  /// to be trusted. 0 disables the tightening.
  double warm_age_tightening = 0.01;
  /// Profiles older than this many store writes are not seeded at all
  /// (cold probing instead of spending a validation block on a curve that
  /// long predates the cluster's current behavior). 0 disables the cap.
  std::uint64_t warm_max_age = 1024;
  /// Cost-regime selection for pipelined transports. Each completed block
  /// yields an observed overlap fraction — (transfer + exec - span) /
  /// min(transfer, exec), clamped to [0, 1], where span is the block's
  /// wall time from the engine's observation. Under a synchronous unit
  /// span = transfer + exec and the fraction is 0; a pipelined
  /// net::RemoteUnit hides part of the smaller phase and reports span <
  /// transfer + exec. The per-unit EWMA of this fraction (weight
  /// `overlap_smoothing`) is attached to the unit's fitted model once it
  /// exceeds `overlap_activation`, switching that unit's cost from the
  /// paper's additive E = F + G to the steady-state blend toward
  /// max(F, G) (fit::PerfModel::overlap). Units below the activation keep
  /// the additive model bit for bit, so sync-mode schedules are
  /// unchanged.
  double overlap_smoothing = 0.4;
  double overlap_activation = 0.2;
  /// Bounded preemption latency: upper bound, in engine seconds, on a
  /// single execution-phase block's *predicted* duration (latest observed
  /// per-grain time of the unit). The multi-tenant service revokes and
  /// grows leases only at block boundaries, so an uncapped block — e.g. a
  /// full step_fraction window issued to a one-unit lease the moment a
  /// warm start skips the probing ramp — pins the lease for the block's
  /// whole duration and strands grains on slow units while faster ones
  /// are already granted. 0 (the default) keeps the paper's behavior:
  /// blocks are whatever the equal-time selection says.
  double max_block_seconds = 0.0;
};

/// Diagnostics exposed for the benchmark harness.
struct PlbHecStats {
  std::size_t probe_rounds = 0;
  std::size_t solves = 0;          ///< interior-point selections performed
  std::size_t refinements = 0;     ///< barrier-free progressive refinements
  std::size_t rebalances = 0;      ///< execution-phase rebalances
  std::size_t fallback_solves = 0; ///< analytic fallback used
  std::size_t warm_solves = 0;     ///< solves warm-started from the
                                   ///< previous selection's fractions
  std::size_t kkt_solves = 0;      ///< KKT factorizations across all solves
  std::size_t kkt_solves_saved = 0;///< factorizations avoided by warm
                                   ///< starts, vs. the last cold solve
  std::vector<double> solve_seconds;  ///< wall time per selection
  double modeling_grains = 0.0;    ///< grains consumed by the modeling phase
  std::vector<std::vector<double>> fraction_history;  ///< per selection
  std::size_t fits_computed = 0;   ///< exec-curve selections actually solved
  std::size_t fits_cached = 0;     ///< selections served from the fit cache
  std::size_t gram_solves = 0;     ///< subset fits via cached moments
  std::size_t qr_solves = 0;       ///< subset fits via design-matrix QR
  std::size_t qr_fallbacks = 0;    ///< Gram-path conditioning bailouts
  std::size_t probe_blocks = 0;    ///< modeling-phase blocks completed
  std::size_t warm_hits = 0;       ///< units whose stored profile validated
  std::size_t warm_misses = 0;     ///< stored profiles rejected at validation
  std::size_t probe_blocks_saved = 0;  ///< schedule blocks skipped by warm
                                       ///< hits (min_probe_rounds - 1 each)
  std::size_t overlap_units = 0;   ///< units on the max(F, G) regime at the
                                   ///< most recent selection
  std::size_t warm_stale_skips = 0;  ///< stored profiles too old to seed
};

/// Publishes the scheduler statistics into a counter registry under the
/// "plbhec." prefix — the CounterRegistry unification of the ad-hoc stats
/// (one snapshot per call; values overwrite).
void publish_counters(obs::CounterRegistry& registry,
                      const PlbHecStats& stats);

/// Publishes each unit's fitted transfer-model coefficients (Eq. 2 slope
/// a1, latency a2, R²) and its cost-regime overlap under
/// "plbhec.unit<N>.*", so run summaries and trace exports show wire
/// health per remote unit without rerunning bench_net, plus the overlap
/// EWMA decay constant under "plbhec.overlap.smoothing_milli" (the time
/// constant the estimates were smoothed with — without it the per-unit
/// overlap numbers are not interpretable across configurations). Times
/// are scaled to integer microseconds, ratios to milli-units (the
/// registry holds u64 counters).
void publish_transfer_models(obs::CounterRegistry& registry,
                             const std::vector<fit::PerfModel>& models,
                             double overlap_smoothing);

class PlbHecScheduler final : public rt::Scheduler {
 public:
  explicit PlbHecScheduler(PlbHecOptions options = {});

  [[nodiscard]] std::string name() const override { return "PLB-HeC"; }

  void start(const std::vector<rt::UnitInfo>& units,
             const rt::WorkInfo& work) override;
  [[nodiscard]] std::size_t next_block(rt::UnitId unit, double now) override;
  void on_complete(const rt::TaskObservation& obs) override;
  void on_barrier(double now) override;
  void on_unit_failed(rt::UnitId unit, std::size_t lost_grains,
                      double now) override;

  /// Block-size fractions from the most recent selection (Fig. 6 data).
  [[nodiscard]] const std::vector<double>& fractions() const {
    return fractions_;
  }
  /// Fitted models from the most recent selection (Fig. 1 data).
  [[nodiscard]] const std::vector<fit::PerfModel>& models() const {
    return models_;
  }
  [[nodiscard]] const PlbHecStats& stats() const { return stats_; }
  /// Raw profiling samples (Fig. 1 reproduction data).
  [[nodiscard]] const rt::ProfileDb& profiles() const { return profiles_; }
  /// Smoothed per-unit observed-overlap fractions driving the cost-regime
  /// selection (see PlbHecOptions::overlap_activation).
  [[nodiscard]] const std::vector<double>& overlap_estimates() const {
    return overlap_ewma_;
  }

 private:
  enum class Phase { kModeling, kExecuting };
  /// Warm-start lifecycle of one unit: kPending between seeding and the
  /// validation block's completion; kValidated counts as fully probed.
  enum class WarmState : std::uint8_t { kCold, kPending, kValidated };

  [[nodiscard]] std::size_t plan_probe_block(rt::UnitId unit) const;
  /// Settles a pending warm validation with the observed block. Returns
  /// true on a hit (probe_count_ already set); false leaves the unit on
  /// the cold path with the observation re-recorded as its first sample.
  bool resolve_warm_validation(const rt::TaskObservation& obs,
                               double predicted);
  void maybe_finish_modeling();
  void fit_and_select();
  void sync_fit_stats();
  [[nodiscard]] bool alive(rt::UnitId u) const { return !failed_[u]; }
  [[nodiscard]] std::size_t alive_count() const;

  PlbHecOptions options_;
  std::vector<rt::UnitInfo> units_;
  rt::WorkInfo work_;
  rt::ProfileDb profiles_;

  Phase phase_ = Phase::kModeling;
  std::size_t initial_block_ = 1;
  std::vector<std::size_t> probe_count_;     ///< probes completed per unit
  std::vector<double> per_grain_;            ///< latest per-grain time (s)
  std::vector<double> last_probe_grains_;    ///< most recent probe size
  std::vector<double> last_probe_time_;      ///< most recent probe duration
  std::vector<double> prev_probe_grains_;    ///< previous probe size
  std::vector<double> prev_probe_time_;      ///< previous probe duration
  std::size_t modeling_issued_ = 0;          ///< probe grains handed out
  std::vector<WarmState> warm_state_;        ///< per-unit warm lifecycle
  std::vector<std::uint64_t> warm_age_;      ///< staleness of the seeded
                                             ///< profile, in store writes
  std::vector<double> overlap_ewma_;         ///< smoothed observed overlap
  std::vector<bool> failed_;

  std::vector<fit::PerfModel> models_;
  std::vector<double> fractions_;
  std::vector<std::size_t> exec_block_;      ///< per-unit execution block size
  std::vector<double> last_duration_;        ///< last exec-phase task duration
  std::vector<std::size_t> gen_samples_;     ///< exec completions this gen
  std::size_t refine_budget_ = 0;
  bool pending_rebalance_ = false;
  std::optional<rt::UnitId> bonus_unit_;     ///< detecting unit gets one more
  std::vector<std::size_t> threshold_strikes_;  ///< per-unit debounce
  std::size_t issued_grains_ = 0;            ///< grains handed out so far
  std::size_t generation_ = 0;               ///< bumped at every selection
  std::size_t cold_kkt_solves_ = 0;          ///< KKT count of the last
                                             ///< cold (analytic-started)
                                             ///< solve — the baseline the
                                             ///< warm-start saving is
                                             ///< measured against
  std::vector<std::size_t> issue_gen_;       ///< generation of the unit's
                                             ///< outstanding block (the
                                             ///< engine keeps at most one
                                             ///< task in flight per unit)
  double grains_consumed_ = 0.0;
  double last_now_ = 0.0;  ///< latest virtual time seen from the engine;
                           ///< timestamps decision events raised from
                           ///< callbacks that carry no clock (fit/solve)

  PlbHecStats stats_;
};

}  // namespace plbhec::core
