#include "plbhec/core/plb_hec.hpp"

#include <algorithm>
#include <cmath>

#include "plbhec/common/contracts.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/obs/sink.hpp"

namespace plbhec::core {

void publish_counters(obs::CounterRegistry& registry,
                      const PlbHecStats& stats) {
  registry.set("plbhec.probe_rounds", stats.probe_rounds);
  registry.set("plbhec.solves", stats.solves);
  registry.set("plbhec.refinements", stats.refinements);
  registry.set("plbhec.rebalances", stats.rebalances);
  registry.set("plbhec.fallback_solves", stats.fallback_solves);
  registry.set("plbhec.warm_solves", stats.warm_solves);
  registry.set("plbhec.kkt_solves", stats.kkt_solves);
  registry.set("plbhec.kkt_solves_saved", stats.kkt_solves_saved);
  registry.set("plbhec.modeling_grains",
               static_cast<std::uint64_t>(stats.modeling_grains));
  registry.set("plbhec.probe_blocks", stats.probe_blocks);
  registry.set("plbhec.warmstart.hits", stats.warm_hits);
  registry.set("plbhec.warmstart.misses", stats.warm_misses);
  registry.set("plbhec.warmstart.probe_blocks_saved",
               stats.probe_blocks_saved);
  registry.set("plbhec.fit.computed", stats.fits_computed);
  registry.set("plbhec.fit.cached", stats.fits_cached);
  registry.set("plbhec.fit.gram_solves", stats.gram_solves);
  registry.set("plbhec.fit.qr_solves", stats.qr_solves);
  registry.set("plbhec.fit.qr_fallbacks", stats.qr_fallbacks);
  registry.set("plbhec.overlap.active_units", stats.overlap_units);
  registry.set("plbhec.warmstart.stale_skips", stats.warm_stale_skips);
}

void publish_transfer_models(obs::CounterRegistry& registry,
                             const std::vector<fit::PerfModel>& models,
                             double overlap_smoothing) {
  const auto micros = [](double seconds) {
    return static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e6 + 0.5);
  };
  const auto milli = [](double ratio) {
    return static_cast<std::uint64_t>(std::clamp(ratio, 0.0, 1.0) * 1000.0 +
                                      0.5);
  };
  registry.set("plbhec.overlap.smoothing_milli", milli(overlap_smoothing));
  for (std::size_t u = 0; u < models.size(); ++u) {
    const std::string prefix = "plbhec.unit" + std::to_string(u) + ".";
    registry.set(prefix + "transfer_slope_us", micros(models[u].transfer.slope));
    registry.set(prefix + "transfer_latency_us",
                 micros(models[u].transfer.latency));
    registry.set(prefix + "transfer_r2_milli", milli(models[u].transfer.r2));
    registry.set(prefix + "overlap_milli", milli(models[u].overlap));
  }
}

PlbHecScheduler::PlbHecScheduler(PlbHecOptions options)
    : options_(std::move(options)) {
  options_.fit.r2_threshold =
      options_.fit.r2_threshold > 0.0 ? options_.fit.r2_threshold : 0.7;
}

void PlbHecScheduler::start(const std::vector<rt::UnitInfo>& units,
                            const rt::WorkInfo& work) {
  PLBHEC_EXPECTS(!units.empty());
  units_ = units;
  work_ = work;
  profiles_.reset(units.size(), work.total_grains);
  profiles_.use_memo(options_.fit_memo);

  initial_block_ = options_.initial_block ? options_.initial_block
                                          : std::max<std::size_t>(
                                                1, work.initial_block);
  phase_ = Phase::kModeling;
  probe_count_.assign(units.size(), 0);
  per_grain_.assign(units.size(), 0.0);
  last_probe_grains_.assign(units.size(), 0.0);
  last_probe_time_.assign(units.size(), 0.0);
  prev_probe_grains_.assign(units.size(), 0.0);
  prev_probe_time_.assign(units.size(), 0.0);
  modeling_issued_ = 0;
  overlap_ewma_.assign(units.size(), 0.0);
  warm_state_.assign(units.size(), WarmState::kCold);
  warm_age_.assign(units.size(), 0);
  stats_ = {};
  for (rt::UnitId u = 0; u < units.size() && u < options_.warm.size(); ++u) {
    const rt::WarmProfile& warm = options_.warm[u];
    if (!warm.usable() || warm.stored_r2 < options_.fit.r2_threshold)
      continue;
    // A profile that predates too many store writes describes a cluster
    // state nobody has observed lately; probing costs less than betting a
    // validation block on it.
    if (options_.warm_max_age > 0 && warm.age > options_.warm_max_age) {
      ++stats_.warm_stale_skips;
      continue;
    }
    profiles_.seed(u, warm);
    // Rescaled seeding drops fractions outside (0, 1]; a remnant too small
    // to fit from is useless — revert to cold probing.
    if (profiles_.exec_samples(u).size() < 3) {
      profiles_.clear_unit(u);
      continue;
    }
    warm_state_[u] = WarmState::kPending;
    warm_age_[u] = warm.age;
  }
  failed_.assign(units.size(), false);
  models_.clear();
  fractions_.clear();
  exec_block_.assign(units.size(), 0);
  last_duration_.assign(units.size(), 0.0);
  gen_samples_.assign(units.size(), 0);
  refine_budget_ = options_.refinements;
  pending_rebalance_ = false;
  bonus_unit_.reset();
  threshold_strikes_.assign(units.size(), 0);
  issued_grains_ = 0;
  generation_ = 0;
  cold_kkt_solves_ = 0;
  issue_gen_.assign(units.size(), 0);
  grains_consumed_ = 0.0;
  last_now_ = 0.0;
}

std::size_t PlbHecScheduler::alive_count() const {
  std::size_t n = 0;
  for (bool f : failed_)
    if (!f) ++n;
  return n;
}

std::size_t PlbHecScheduler::plan_probe_block(rt::UnitId unit) const {
  // §III-B: probe k of a unit is initialBlockSize * 2^(k-1), rescaled by
  // the performance preview t_f / t_k. We apply the preview on *marginal*
  // per-grain times (the slope between the last two probes, clamped near
  // the average) rather than raw round durations: average per-grain time
  // misleads on devices whose small-block time is flat (one GPU wave costs
  // the same for 10 or 100 grains) and would shrink their probes into a
  // dead end, while the marginal cost correctly signals "bigger blocks are
  // nearly free here".
  // A pending warm-start unit issues a single validation block of the
  // initial size: cheap, and well inside the stored curve's probed range.
  const std::size_t k = probe_count_[unit];  // probes already done
  const double multiplier =
      warm_state_[unit] == WarmState::kPending
          ? 1.0
          : std::min(std::pow(2.0, static_cast<double>(k)),
                     static_cast<double>(options_.max_probe_multiplier));

  auto marginal_tau = [&](rt::UnitId u) -> double {
    if (last_probe_grains_[u] <= 0.0 || last_probe_time_[u] <= 0.0)
      return 0.0;
    const double avg = last_probe_time_[u] / last_probe_grains_[u];
    if (prev_probe_grains_[u] > 0.0 &&
        last_probe_grains_[u] != prev_probe_grains_[u]) {
      const double marg = (last_probe_time_[u] - prev_probe_time_[u]) /
                          (last_probe_grains_[u] - prev_probe_grains_[u]);
      return std::clamp(marg, avg / 16.0, avg * 16.0);
    }
    return avg;
  };

  double tau_f = 0.0;
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    if (failed_[u]) continue;
    const double tau = marginal_tau(u);
    if (tau <= 0.0) continue;
    if (tau_f == 0.0 || tau < tau_f) tau_f = tau;
  }
  double scale = 1.0;
  const double tau_self = marginal_tau(unit);
  if (tau_f > 0.0 && tau_self > 0.0)
    scale = std::clamp(tau_f / tau_self, 1.0 / 1024.0, 8.0);

  double size = multiplier * static_cast<double>(initial_block_) * scale;

  // The paper's 20% rule: never let probing overrun the modeling budget.
  // Budgeted on *issued* grains so concurrent in-flight probes cannot
  // collectively overshoot.
  const double budget = options_.modeling_data_cap *
                            static_cast<double>(work_.total_grains) -
                        static_cast<double>(modeling_issued_);
  size = std::min(size, std::max(budget, 1.0));
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(size)));
}

std::size_t PlbHecScheduler::next_block(rt::UnitId unit, double now) {
  PLBHEC_EXPECTS(unit < units_.size());
  last_now_ = now;
  if (failed_[unit]) return 0;

  if (phase_ == Phase::kModeling) {
    const std::size_t block = plan_probe_block(unit);
    issued_grains_ += block;
    modeling_issued_ += block;
    issue_gen_[unit] = generation_;
    PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kProbeIssued,
                              static_cast<std::uint32_t>(unit), 0.0, 0.0,
                              block, probe_count_[unit] + 1});
    return block;
  }

  // Execution phase. The nominal block is the unit's fraction of one
  // window; once less than a full window remains, blocks shrink with the
  // pool so all units run dry together instead of some idling through the
  // last window.
  const std::size_t remaining =
      work_.total_grains - std::min(issued_grains_, work_.total_grains);
  if (remaining == 0) return 0;

  const double window = options_.step_fraction *
                        static_cast<double>(work_.total_grains);
  const double effective = std::min(window, static_cast<double>(remaining));
  const double nominal = fractions_.empty() ? 0.0 : fractions_[unit];
  std::size_t block = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(nominal * effective)));
  // Bounded preemption latency: never issue a block predicted to run
  // longer than max_block_seconds, so revocations and lease growth (which
  // only act at block boundaries) stay responsive even when one slow unit
  // holds the whole window.
  if (options_.max_block_seconds > 0.0 && per_grain_[unit] > 0.0) {
    const double cap = options_.max_block_seconds / per_grain_[unit];
    block = std::min(block,
                     std::max<std::size_t>(1, static_cast<std::size_t>(cap)));
  }

  if (pending_rebalance_) {
    // Paper §III-D: the unit that detected the threshold receives one more
    // task so it does not idle while the others drain toward the sync.
    if (!bonus_unit_ || *bonus_unit_ != unit) return 0;
    bonus_unit_.reset();
  }
  issued_grains_ += block;
  issue_gen_[unit] = generation_;
  return block;
}

void PlbHecScheduler::maybe_finish_modeling() {
  const double cap = options_.modeling_data_cap *
                     static_cast<double>(work_.total_grains);
  bool data_cap_hit =
      stats_.modeling_grains + static_cast<double>(alive_count()) >= cap;

  bool enough_samples = true;
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    if (failed_[u]) continue;
    if (probe_count_[u] < options_.min_probe_rounds) enough_samples = false;
    // A unit with fewer than three samples has no reliable slope: exact
    // 2-point fits tie across curve families and extrapolate arbitrarily.
    // Keep probing (the budget clamp shrinks everyone else's probes to a
    // single grain meanwhile).
    if (probe_count_[u] < 3) data_cap_hit = false;
  }

  bool fits_acceptable = false;
  if (enough_samples && !data_cap_hit) {
    // Served from the ProfileDb fit cache: the fit_and_select that follows
    // an all-acceptable sweep reuses these selections instead of refitting.
    fits_acceptable = true;
    for (rt::UnitId u = 0; u < units_.size(); ++u) {
      if (failed_[u]) continue;
      if (!profiles_.exec_fit(u, options_.fit).acceptable) {
        fits_acceptable = false;
        break;
      }
    }
  }

  if ((enough_samples && fits_acceptable) || data_cap_hit) {
    phase_ = Phase::kExecuting;
    PLBHEC_OBS_RECORD(sink_, {last_now_, obs::EventKind::kPhaseChange,
                              obs::kNoUnit, stats_.modeling_grains, 0.0,
                              static_cast<std::uint64_t>(Phase::kExecuting),
                              0});
    fit_and_select();
  }
  sync_fit_stats();
}

void PlbHecScheduler::on_complete(const rt::TaskObservation& obs) {
  PLBHEC_EXPECTS(obs.unit < units_.size());
  last_now_ = obs.finish_time;

  // Warm validation predicts the block from the *seeded* fit, so the
  // prediction must be taken before the observation is folded in.
  double warm_predicted = -1.0;
  if (phase_ == Phase::kModeling &&
      warm_state_[obs.unit] == WarmState::kPending && obs.grains > 0) {
    const fit::PerfModel seeded = profiles_.fit_unit(obs.unit, options_.fit);
    if (seeded.valid())
      warm_predicted =
          seeded.total_time(profiles_.grains_to_fraction(obs.grains));
  }

  profiles_.record(obs);
  grains_consumed_ += static_cast<double>(obs.grains);

  // Observed overlap of this block: a synchronous unit's span equals
  // transfer + exec (fraction 0); a pipelined remote unit reports a
  // shorter span, and the hidden share of the smaller phase is the
  // overlap. The per-unit EWMA drives the cost-regime selection (see
  // PlbHecOptions::overlap_activation).
  const double serial = obs.transfer_seconds + obs.exec_seconds;
  const double span = obs.finish_time - obs.start_time;
  const double overlap_floor =
      std::min(obs.transfer_seconds, obs.exec_seconds);
  if (obs.grains > 0 && overlap_floor > 0.0 && span > 0.0) {
    const double rho = std::clamp((serial - span) / overlap_floor, 0.0, 1.0);
    overlap_ewma_[obs.unit] +=
        options_.overlap_smoothing * (rho - overlap_ewma_[obs.unit]);
  }
  // The duration every consumer below sees: the true span when this unit
  // runs the overlap regime (its blocks really finish in max-like time),
  // the additive sum otherwise — identical to the pre-pipeline scheduler.
  const bool overlapped =
      overlap_ewma_[obs.unit] >= options_.overlap_activation;
  const double duration =
      overlapped && span > 0.0 ? std::min(serial, span) : serial;
  if (obs.grains > 0)
    per_grain_[obs.unit] = duration / static_cast<double>(obs.grains);

  if (phase_ == Phase::kModeling) {
    ++stats_.probe_blocks;
    stats_.modeling_grains += static_cast<double>(obs.grains);
    prev_probe_grains_[obs.unit] = last_probe_grains_[obs.unit];
    prev_probe_time_[obs.unit] = last_probe_time_[obs.unit];
    last_probe_grains_[obs.unit] = static_cast<double>(obs.grains);
    last_probe_time_[obs.unit] = duration;
    bool counted = false;
    if (warm_state_[obs.unit] == WarmState::kPending)
      counted = resolve_warm_validation(obs, warm_predicted);
    if (!counted) {
      ++probe_count_[obs.unit];
      stats_.probe_rounds =
          std::max(stats_.probe_rounds, probe_count_[obs.unit]);
    }
    maybe_finish_modeling();
    return;
  }

  // Execution phase.
  if (issue_gen_[obs.unit] == generation_) {
    last_duration_[obs.unit] = duration;
    ++gen_samples_[obs.unit];
  }
  if (pending_rebalance_) return;

  // Progressive refinement (§II): once every unit has produced one
  // large-block sample under the current selection, re-fit and update the
  // fractions for future blocks. No drain — only future requests change.
  if (refine_budget_ > 0) {
    bool all_sampled = true;
    for (rt::UnitId u = 0; u < units_.size(); ++u)
      if (!failed_[u] && gen_samples_[u] == 0) all_sampled = false;
    if (all_sampled) {
      --refine_budget_;
      ++stats_.refinements;
      PLBHEC_OBS_RECORD(sink_, {obs.finish_time, obs::EventKind::kRefinement,
                                obs::kNoUnit, 0.0, 0.0, refine_budget_, 0});
      fit_and_select();
      return;
    }
    // Until the *first* refinement, the fractions are known to be
    // provisional (fitted from small probe blocks only); draining the
    // whole cluster over their imperfection would cost more than the
    // refinement that is about to fix them. Later refinements run with
    // the threshold monitor active so genuine drift still forces a sync.
    if (refine_budget_ == options_.refinements) return;
  }

  // Rebalancing the last sliver of the input costs a full drain and cannot
  // pay for itself: skip the check once most grains have been handed out.
  const double window = options_.step_fraction *
                        static_cast<double>(work_.total_grains);
  if (static_cast<double>(work_.total_grains -
                          std::min(issued_grains_, work_.total_grains)) <
      0.5 * window)
    return;

  // Threshold monitoring (§III-D). The selection equalizes the *predicted*
  // E_g of every block, so "the difference in finishing times between any
  // two tasks exceeds the threshold" is equivalent to one unit's observed
  // duration deviating from its model's prediction by the threshold —
  // and the deviation form stays valid across selections and block sizes
  // (tasks are asynchronous here, not round-aligned).
  if (obs.unit >= models_.size() || !models_[obs.unit].valid() ||
      obs.grains == 0)
    return;
  const double x = profiles_.grains_to_fraction(obs.grains);
  const double predicted = models_[obs.unit].total_time(x);
  if (predicted <= 0.0) return;
  const double deviation = std::fabs((duration - predicted) / predicted);

  if (deviation > options_.rebalance_threshold) {
    if (++threshold_strikes_[obs.unit] >= options_.rebalance_strikes) {
      pending_rebalance_ = true;
      bonus_unit_ = obs.unit;
      threshold_strikes_.assign(units_.size(), 0);
      ++stats_.rebalances;
      PLBHEC_OBS_RECORD(sink_,
                        {obs.finish_time, obs::EventKind::kRebalanceTriggered,
                         static_cast<std::uint32_t>(obs.unit), deviation,
                         options_.rebalance_threshold,
                         options_.rebalance_strikes, 0});
    }
  } else {
    threshold_strikes_[obs.unit] = 0;
  }
}

bool PlbHecScheduler::resolve_warm_validation(const rt::TaskObservation& obs,
                                              double predicted) {
  const double duration = obs.transfer_seconds + obs.exec_seconds;
  const fit::FitResult refit = profiles_.exec_fit(obs.unit, options_.fit);
  const double rel_error =
      predicted > 0.0 ? std::fabs(duration - predicted) / predicted : 1e300;
  const std::uint64_t seeded_samples =
      profiles_.exec_samples(obs.unit).size();

  // Staleness tightening: the older the stored profile (in store writes
  // since it was refreshed), the more precisely it must predict the
  // validation block. A freshly written profile keeps the full bound.
  const double bound =
      options_.warm_rel_error /
      (1.0 + options_.warm_age_tightening *
                 static_cast<double>(warm_age_[obs.unit]));
  if (refit.acceptable && rel_error <= bound) {
    warm_state_[obs.unit] = WarmState::kValidated;
    // The stored curve stands in for the probe schedule: mark the unit
    // fully probed so modeling can finish after this single block. The
    // real block count lives in stats_.probe_blocks.
    const std::size_t full =
        std::max<std::size_t>(options_.min_probe_rounds, 1);
    stats_.probe_blocks_saved += full - 1;
    probe_count_[obs.unit] = full;
    ++stats_.warm_hits;
    PLBHEC_OBS_RECORD(sink_, {obs.finish_time, obs::EventKind::kWarmStartHit,
                              static_cast<std::uint32_t>(obs.unit), rel_error,
                              refit.r2, seeded_samples, 0});
    return true;
  }

  // The stored profile no longer describes this (workload, device) pair:
  // drop the seeded samples and re-record the validation block as the
  // first sample of a cold probing schedule.
  profiles_.clear_unit(obs.unit);
  profiles_.record(obs);
  warm_state_[obs.unit] = WarmState::kCold;
  ++stats_.warm_misses;
  PLBHEC_OBS_RECORD(sink_, {obs.finish_time, obs::EventKind::kWarmStartMiss,
                            static_cast<std::uint32_t>(obs.unit), rel_error,
                            refit.r2, seeded_samples, 0});
  return false;
}

void PlbHecScheduler::sync_fit_stats() {
  const rt::FitStats fs = profiles_.fit_stats();
  stats_.fits_computed = fs.fits_computed;
  stats_.fits_cached = fs.fits_cached;
  stats_.gram_solves = fs.gram_solves;
  stats_.qr_solves = fs.qr_solves;
  stats_.qr_fallbacks = fs.qr_fallbacks;
}

void PlbHecScheduler::fit_and_select() {
  ++generation_;
  models_ = profiles_.fit_all(options_.fit);
  sync_fit_stats();

  // Attach the cost regime each unit actually runs: above the activation
  // the fitted model blends toward the steady-state max(F, G) a pipelined
  // transport exhibits; below it (every unit in sync mode) the model stays
  // the paper's additive Eq. (1) bit for bit.
  stats_.overlap_units = 0;
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    models_[u].overlap =
        overlap_ewma_[u] >= options_.overlap_activation ? overlap_ewma_[u]
                                                        : 0.0;
    if (!failed_[u] && models_[u].overlap > 0.0) ++stats_.overlap_units;
  }

  // Build the model list over alive units only.
  std::vector<fit::PerfModel> alive_models;
  std::vector<rt::UnitId> alive_ids;
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    if (failed_[u]) continue;
    PLBHEC_ASSERT(models_[u].valid());
    PLBHEC_OBS_RECORD(
        sink_, {last_now_, obs::EventKind::kModelFitted,
                static_cast<std::uint32_t>(u), models_[u].exec.r2, 0.0,
                profiles_.exec_samples(u).size(),
                models_[u].exec.r2 >= options_.fit.r2_threshold ? 1u : 0u});
    alive_models.push_back(models_[u]);
    alive_ids.push_back(u);
  }
  PLBHEC_EXPECTS(!alive_models.empty());

  // Solve the equal-time system at the *window* level (Eq. 3-5 with the
  // simplex right-hand side equal to one execution window): with nonlinear
  // curves, equal E at full shares does not imply equal E for the blocks
  // actually issued, and window-level shares stay within the probed range.
  solver::BlockSelectionOptions sel_opt = options_.selection;
  sel_opt.total_fraction = options_.step_fraction;
  // Re-solves (§III-D rebalances, refinements, failure redistribution)
  // start from the previous selection instead of re-deriving the analytic
  // equal-time point: the observations only perturbed the optimum.
  if (!stats_.fraction_history.empty()) {
    double prev_sum = 0.0;
    for (rt::UnitId u : alive_ids) prev_sum += fractions_[u];
    if (prev_sum > 0.0) {
      sel_opt.warm_start.reserve(alive_ids.size());
      for (rt::UnitId u : alive_ids)
        sel_opt.warm_start.push_back(fractions_[u] / prev_sum *
                                     options_.step_fraction);
    }
  }
  const solver::BlockSelection sel =
      solver::select_block_sizes(alive_models, sel_opt);
  ++stats_.solves;
  PLBHEC_OBS_RECORD(sink_,
                    {last_now_, obs::EventKind::kSolve, obs::kNoUnit,
                     sel.solve_seconds, sel.predicted_time, sel.ip.kkt_solves,
                     (sel.warm_started ? 1u : 0u) |
                         (sel.used_fallback ? 2u : 0u)});
  stats_.solve_seconds.push_back(sel.solve_seconds);
  if (sel.used_fallback) ++stats_.fallback_solves;
  stats_.kkt_solves += sel.ip.kkt_solves;
  if (sel.warm_started) {
    ++stats_.warm_solves;
    if (cold_kkt_solves_ > sel.ip.kkt_solves)
      stats_.kkt_solves_saved += cold_kkt_solves_ - sel.ip.kkt_solves;
  } else if (sel.ip.kkt_solves > 0) {
    cold_kkt_solves_ = sel.ip.kkt_solves;
  }

  fractions_.assign(units_.size(), 0.0);
  if (sel.ok) {
    // Normalize window shares to a unit sum: next_block() multiplies by
    // the effective window, and Fig. 6 reports the normalized shares.
    for (std::size_t i = 0; i < alive_ids.size(); ++i)
      fractions_[alive_ids[i]] = sel.fractions[i] / options_.step_fraction;
  } else {
    // Pathological fits everywhere: fall back to a uniform split.
    for (rt::UnitId u : alive_ids)
      fractions_[u] = 1.0 / static_cast<double>(alive_ids.size());
  }

  stats_.fraction_history.push_back(fractions_);

  // Nominal per-task block of a full window (kept for introspection).
  const double window = options_.step_fraction *
                        static_cast<double>(work_.total_grains);
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    exec_block_[u] = failed_[u] ? 0
                                : std::max<std::size_t>(
                                      1, static_cast<std::size_t>(
                                             std::llround(fractions_[u] *
                                                          window)));
  }
  last_duration_.assign(units_.size(), 0.0);
  gen_samples_.assign(units_.size(), 0);
}

void PlbHecScheduler::on_barrier(double now) {
  last_now_ = now;
  if (phase_ == Phase::kModeling) {
    // Asynchronous probing never parks units, so a barrier here means the
    // engine drained for another reason (e.g. failures): force selection.
    maybe_finish_modeling();
    if (phase_ == Phase::kModeling) {
      phase_ = Phase::kExecuting;
      PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kPhaseChange,
                                obs::kNoUnit, stats_.modeling_grains, 0.0,
                                static_cast<std::uint64_t>(Phase::kExecuting),
                                0});
      fit_and_select();
    }
    return;
  }

  // Execution phase barrier: the drain for a pending rebalance finished.
  if (pending_rebalance_) {
    pending_rebalance_ = false;
    bonus_unit_.reset();
    fit_and_select();
    return;
  }
  // A barrier with no pending rebalance means the engine still holds work
  // our issued-count says is gone (engine-side clamping of a past block).
  // At a barrier nothing is in flight, so the true consumption equals the
  // completed count — resynchronize and keep serving.
  issued_grains_ = static_cast<std::size_t>(grains_consumed_);
}

void PlbHecScheduler::on_unit_failed(rt::UnitId unit,
                                     std::size_t lost_grains,
                                     double now) {
  PLBHEC_EXPECTS(unit < units_.size());
  last_now_ = now;
  if (failed_[unit]) return;
  failed_[unit] = true;
  // The unit's in-flight block returned to the pool: credit it back so the
  // remaining-work estimate (and the shrinking tail windows) stay correct.
  issued_grains_ -= std::min(lost_grains, issued_grains_);
  if (alive_count() == 0) return;
  if (phase_ == Phase::kExecuting) {
    // Redistribute the failed unit's share across the survivors (§VI).
    fit_and_select();
  }
}

}  // namespace plbhec::core
