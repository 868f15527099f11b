#pragma once
/// \file least_squares.hpp
/// Curve fitting for the performance-modeling phase (§III-B):
///  - fit a fixed term subset by (optionally weighted) least squares;
///  - select the best subset of the paper's basis set by BIC with the
///    R^2 >= threshold acceptance rule;
///  - fit the affine transfer model G_p(x) = a1 x + a2 with non-negativity
///    clamping (bandwidth and latency cannot be negative).

#include <optional>
#include <span>

#include "plbhec/fit/model.hpp"
#include "plbhec/fit/samples.hpp"

namespace plbhec::fit {

/// Which linear-algebra path solves a term-subset fit.
enum class FitEngine {
  kAuto,  ///< Gram/Cholesky once enough samples amortize it, else QR
  kQr,    ///< always rebuild the design matrix and solve by Householder QR
  kGram,  ///< always solve the cached-moment normal equations (QR only as
          ///< a conditioning fallback)
};

/// kAuto cutover: below this many samples the QR path is both cheap and
/// the historical numerical reference (exact fits on 2-5 points are where
/// normal-equation cancellation would perturb the BIC tie-breaking); at and
/// above it the O(k^3) moment solve wins and agrees with QR to ~1e-9.
inline constexpr std::size_t kGramMinSamples = 8;

/// Counters describing which path fits actually took; callers aggregate
/// them into scheduler statistics.
struct FitCounters {
  std::size_t gram_solves = 0;   ///< subset solved from cached moments
  std::size_t qr_solves = 0;     ///< design-matrix QR solves
  std::size_t qr_fallbacks = 0;  ///< Gram path bailed out on conditioning

  void merge(const FitCounters& o) {
    gram_solves += o.gram_solves;
    qr_solves += o.qr_solves;
    qr_fallbacks += o.qr_fallbacks;
  }
};

/// Options for subset model selection.
struct SelectionOptions {
  /// Acceptance threshold on the coefficient of determination; the paper
  /// uses 0.7 ("a good approximation ... and prevents overfitting").
  double r2_threshold = 0.7;
  /// Parsimony escalation bar: the subset search stops at the smallest
  /// term-count class whose best fit reaches this R^2. Kept well above
  /// r2_threshold so genuinely curved profiles (GPU efficiency ramps) are
  /// not flattened into a line the moment the line scrapes past 0.7.
  double class_r2 = 0.98;
  /// Largest number of non-intercept terms in a candidate subset. The
  /// paper's Eq. (1) allows any combination; 3 keeps selection O(60) fits
  /// and prevents overfitting on the few probe points available early.
  std::size_t max_terms = 3;
  /// Always include the intercept (launch/queueing overhead) term.
  bool include_intercept = true;
  /// Weight samples by 1/time (relative-error emphasis) instead of
  /// uniformly. Off by default to match plain least squares in the paper.
  bool relative_weighting = false;
  /// Require at least this many samples per fitted parameter; prevents
  /// interpolating fits (4 points, 4 params, R^2 = 1) whose extrapolation
  /// is meaningless. 2 means a 4-point probe can support 2 parameters.
  std::size_t samples_per_param = 2;
  /// Reject candidate models that go negative or decrease substantially on
  /// (0, 1]: execution time is physically non-negative and non-decreasing
  /// in the block size. Falls back to the unfiltered best when every
  /// candidate violates it.
  bool physical_filter = true;
  /// Numerical path for subset solves. kAuto switches from QR to the
  /// cached-moment Gram/Cholesky path once the sample count makes the
  /// O(k^3) solve a win (and the small-n numerics QR-identical).
  FitEngine engine = FitEngine::kAuto;

  /// Field-wise equality; the profile database keys its fit cache on this.
  friend bool operator==(const SelectionOptions&,
                         const SelectionOptions&) = default;
};

/// Result of fitting one processing unit's execution-time curve.
struct FitResult {
  CurveModel model;
  double r2 = 0.0;
  double bic = 0.0;
  bool acceptable = false;  ///< r2 >= threshold
};

/// Fits the given term subset to the samples. Returns nullopt when the
/// system is underdetermined (fewer samples than terms) or degenerate.
/// `engine` picks the solver path (see FitEngine); `counters`, when given,
/// records which path ran.
[[nodiscard]] std::optional<FitResult> fit_terms(
    const SampleSet& samples, std::span<const BasisFn> terms,
    bool relative_weighting = false, FitEngine engine = FitEngine::kAuto,
    FitCounters* counters = nullptr);

/// Enumerates subsets of `candidate_terms` (size 1..max_terms, plus the
/// intercept when enabled), fits each, and returns the best by BIC.
/// `acceptable` reflects the paper's R^2 >= threshold rule.
[[nodiscard]] FitResult select_model(const SampleSet& samples,
                                     const SelectionOptions& options = {},
                                     FitCounters* counters = nullptr);

/// Same but with an explicit candidate list (used by the basis ablation).
[[nodiscard]] FitResult select_model_from(
    const SampleSet& samples, std::span<const BasisFn> candidate_terms,
    const SelectionOptions& options = {}, FitCounters* counters = nullptr);

/// Fits G_p(x) = slope * x + latency, clamping both to be non-negative.
[[nodiscard]] TransferModel fit_transfer(const SampleSet& samples);

/// The candidate filter's physics check: time curves must stay non-negative
/// and must not decrease substantially anywhere on (x_lo, 1] (small local
/// dips < 5% of the curve's range are tolerated as fit noise). Exposed so
/// reference selections in tests apply the same rule.
[[nodiscard]] bool physically_plausible(const CurveModel& model, double x_lo);

}  // namespace plbhec::fit
