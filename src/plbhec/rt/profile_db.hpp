#pragma once
/// \file profile_db.hpp
/// Per-unit profiling database: accumulates (block fraction, time) samples
/// for execution and transfer, and fits the paper's performance models on
/// demand. Shared by PLB-HeC and HDSS.
///
/// Fitting pipeline (PR 2): every recorded sample bumps a per-unit version
/// counter, and fit results are cached keyed on (version, SelectionOptions)
/// — so the acceptance sweep in `maybe_finish_modeling` and the
/// immediately following `fit_and_select` share one fit per unit instead of
/// computing three, and units that received no new samples between two
/// selections are never refit. `fit_all` fans the per-unit model selection
/// out across the process-wide work-stealing pool.

#include <cstdint>
#include <vector>

#include "plbhec/fit/least_squares.hpp"
#include "plbhec/fit/samples.hpp"
#include "plbhec/fit/selection_memo.hpp"
#include "plbhec/rt/types.hpp"

namespace plbhec::rt {

/// Cross-run warm-start profile for one processing unit, loaded from the
/// service layer's ProfileStore: persisted (fraction, time) samples whose
/// x-values are relative to a *previous* run's grain total, plus the
/// acceptance R^2 recorded with them. When `total_grains` matches the new
/// run's total, the moment snapshots are restored bit-exactly (the fit is
/// identical to the run that persisted them); otherwise the samples are
/// replayed with rescaled fractions.
struct WarmProfile {
  std::vector<fit::Sample> exec;      ///< x relative to `total_grains`
  std::vector<fit::Sample> transfer;
  double total_grains = 0.0;  ///< grain denominator of the sample x-values
  double stored_r2 = 0.0;     ///< exec-fit R^2 the store recorded
  /// Staleness of the stored entry, in store writes: how many profiles the
  /// store has persisted (across all keys) since this one was last
  /// refreshed. 0 = just written (or an in-run profile). The scheduler's
  /// warm-start validation bound tightens with this.
  std::uint64_t age = 0;
  fit::MomentSnapshot exec_moments;
  fit::MomentSnapshot transfer_moments;
  bool has_moments = false;

  [[nodiscard]] bool usable() const {
    return !exec.empty() && total_grains > 0.0;
  }
};

/// Aggregate fit-pipeline statistics: cache effectiveness and which
/// numerical path the subset solves took.
struct FitStats {
  /// Exec-curve model selections the per-version cache missed: solved, or
  /// served by the attached SelectionMemo.
  std::size_t fits_computed = 0;
  std::size_t fits_cached = 0;    ///< selections served from the cache
  std::size_t gram_solves = 0;    ///< subset fits via cached moments
  std::size_t qr_solves = 0;      ///< subset fits via design-matrix QR
  std::size_t qr_fallbacks = 0;   ///< Gram-path conditioning bailouts
};

class ProfileDb {
 public:
  ProfileDb() = default;
  ProfileDb(std::size_t units, std::size_t total_grains);

  void reset(std::size_t units, std::size_t total_grains);

  /// Serves per-version cache misses from `memo` (not owned; null = always
  /// select afresh). The memo must outlive every later fit call.
  void use_memo(fit::SelectionMemo* memo) { memo_ = memo; }

  /// Records a completed task's profile (bumps the unit's sample version,
  /// invalidating its cached fits).
  void record(const TaskObservation& obs);

  /// Seeds a freshly reset unit with a persisted warm-start profile. With
  /// matching grain totals the stored moments are restored bit-exactly;
  /// otherwise samples are replayed with x rescaled to this run's total
  /// (fractions outside (0, 1] are dropped). Bumps the unit's version.
  void seed(UnitId u, const WarmProfile& warm);

  /// Drops every sample of one unit (warm-start validation failure path);
  /// bumps the unit's version so cached fits cannot be served.
  void clear_unit(UnitId u);

  [[nodiscard]] std::size_t units() const { return exec_.size(); }
  [[nodiscard]] const fit::SampleSet& exec_samples(UnitId u) const;
  [[nodiscard]] const fit::SampleSet& transfer_samples(UnitId u) const;

  /// Monotonic per-unit sample version; advanced by every recorded sample
  /// (zero-grain observations do not change the samples and do not bump).
  [[nodiscard]] std::uint64_t version(UnitId u) const;

  /// Execution-curve model selection for unit `u`, served from the fit
  /// cache when the unit's samples have not changed since the last call
  /// with equal options.
  [[nodiscard]] fit::FitResult exec_fit(
      UnitId u, const fit::SelectionOptions& options = {}) const;

  /// Fits F_p and G_p for unit `u` with the given selection options.
  [[nodiscard]] fit::PerfModel fit_unit(
      UnitId u, const fit::SelectionOptions& options = {}) const;

  /// Fits every unit in parallel on the global thread pool; returns one
  /// PerfModel per unit (invalid models for units with no samples).
  [[nodiscard]] std::vector<fit::PerfModel> fit_all(
      const fit::SelectionOptions& options = {}) const;

  /// True when every unit's latest execution fit reaches the R^2 threshold.
  [[nodiscard]] bool all_acceptable(
      const fit::SelectionOptions& options = {}) const;

  [[nodiscard]] double grains_to_fraction(std::size_t grains) const;

  /// Snapshot of the cache/solver counters accumulated since reset().
  [[nodiscard]] FitStats fit_stats() const;

  /// Drops every cached fit and zeroes the counters without touching the
  /// samples (benchmark support: forces honest refits).
  void clear_fit_cache();

 private:
  struct CacheEntry {
    fit::SelectionOptions options;
    std::uint64_t version = 0;
    fit::FitResult exec;
    fit::TransferModel transfer;
    std::uint64_t transfer_version = 0;
    bool has_transfer = false;
  };
  struct UnitCache {
    std::uint64_t version = 1;  ///< starts above any cached entry's 0
    std::vector<CacheEntry> entries;
  };

  /// Cached-or-computed exec fit; returns the entry so fit_unit can attach
  /// the transfer model. Touches only cache_[u] — safe for the per-unit
  /// parallel fan-out in fit_all.
  CacheEntry& exec_entry(UnitId u, const fit::SelectionOptions& options) const;

  std::vector<fit::SampleSet> exec_;
  std::vector<fit::SampleSet> transfer_;
  std::size_t total_grains_ = 1;
  fit::SelectionMemo* memo_ = nullptr;

  mutable std::vector<UnitCache> cache_;
  /// Mutated through std::atomic_ref (fit_all fans units across threads);
  /// plain fields keep ProfileDb copyable and movable.
  mutable FitStats counters_;
};

}  // namespace plbhec::rt
