#include "plbhec/fit/least_squares.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "plbhec/common/stats.hpp"
#include "plbhec/linalg/cholesky.hpp"
#include "plbhec/linalg/qr.hpp"

namespace plbhec::fit {
namespace {

/// Builds the design matrix for a term subset.
linalg::Matrix design_matrix(const SampleSet& samples,
                             std::span<const BasisFn> terms) {
  linalg::Matrix a(samples.size(), terms.size());
  for (std::size_t r = 0; r < samples.size(); ++r)
    for (std::size_t c = 0; c < terms.size(); ++c)
      a(r, c) = eval(terms[c], samples.items()[r].x);
  return a;
}

double compute_bic(double rss, double nn, std::size_t k) {
  const double safe_rss = std::max(rss, 1e-300);
  return nn * std::log(safe_rss / nn) +
         static_cast<double>(k) * std::log(nn);
}

}  // namespace

bool physically_plausible(const CurveModel& model, double x_lo) {
  constexpr std::size_t kGrid = 48;
  double prev = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double worst_drop = 0.0;
  for (std::size_t i = 0; i < kGrid; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(kGrid - 1);
    const double x = x_lo + f * (1.0 - x_lo);
    const double t = model(x);
    if (!std::isfinite(t) || t < 0.0) return false;
    if (i == 0) {
      lo = hi = prev = t;
      continue;
    }
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    worst_drop = std::max(worst_drop, prev - t);
    prev = t;
  }
  const double range = hi - lo;
  return worst_drop <= 0.05 * std::max(range, 1e-300);
}

namespace {

/// Legacy path: rebuild the design matrix and solve by Householder QR with
/// column equilibration. O(n k^2) per fit.
std::optional<FitResult> fit_terms_qr(const SampleSet& samples,
                                      std::span<const BasisFn> terms,
                                      bool relative_weighting) {
  linalg::Matrix a = design_matrix(samples, terms);
  std::vector<double> b = samples.times();

  if (relative_weighting) {
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const double w = 1.0 / std::max(samples.items()[r].time, 1e-9);
      for (std::size_t c = 0; c < terms.size(); ++c) a(r, c) *= w;
      b[r] *= w;
    }
  }

  auto ls = linalg::least_squares(a, b);
  if (!ls) return std::nullopt;

  FitResult result;
  result.model.terms.assign(terms.begin(), terms.end());
  result.model.coefficients = ls->coefficients;

  // Evaluate the *unweighted* R^2 on the raw samples so the acceptance rule
  // matches the paper regardless of the weighting used to fit.
  std::vector<double> predicted(samples.size());
  for (std::size_t r = 0; r < samples.size(); ++r)
    predicted[r] = result.model(samples.items()[r].x);
  const std::vector<double> observed = samples.times();
  result.r2 = r_squared(observed, predicted);
  result.model.r2 = result.r2;

  double rss = 0.0;
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const double d = observed[r] - predicted[r];
    rss += d * d;
  }
  result.bic =
      compute_bic(rss, static_cast<double>(samples.size()), terms.size());
  return result;
}

/// Fast path: solve the k x k sub-Gram system assembled from incrementally
/// maintained moments, recovering RSS/R^2/BIC from the cached unweighted
/// moments. O(k^3) per fit, independent of sample count. Returns nullopt
/// when the equilibrated sub-Gram is too ill-conditioned to certify ~1e-9
/// agreement with QR (the e^x family near x -> 1); the SampleSet caller
/// then falls back to the design-matrix path. `n` is the sample count
/// behind the moments.
std::optional<FitResult> fit_terms_gram(const MomentSet& m, double n,
                                        std::span<const BasisFn> terms,
                                        bool relative_weighting) {
  const std::size_t k = terms.size();

  linalg::Matrix g(k, k);
  std::vector<double> rhs(k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j)
      g(i, j) = m.gram(terms[i], terms[j], relative_weighting);
    rhs[i] = m.xty(terms[i], relative_weighting);
  }

  const auto solved = linalg::solve_equilibrated_spd(g, rhs);
  if (!solved) return std::nullopt;
  const std::vector<double>& c = solved->x;

  FitResult result;
  result.model.terms.assign(terms.begin(), terms.end());
  result.model.coefficients = c;

  // RSS via the quadratic form ||y - Xc||^2 = y'y - 2 c'X'y + c'G c over
  // the *unweighted* moments (acceptance R^2 is always unweighted).
  double ctb = 0.0;
  double ctgc = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    ctb += c[i] * m.xty(terms[i]);
    double gc = 0.0;
    for (std::size_t j = 0; j < k; ++j)
      gc += m.gram(terms[i], terms[j]) * c[j];
    ctgc += c[i] * gc;
  }
  const double yty = m.yty();
  const double rss = std::max(yty - 2.0 * ctb + ctgc, 0.0);
  const double tss = yty - m.sum_y() * m.sum_y() / n;

  // Mirror r_squared()'s constant-observation edge case, with a relative
  // floor standing in for its exact ss_tot == 0 test (the moment-space TSS
  // carries cancellation noise of order eps * y'y).
  if (tss <= 1e-12 * std::max(yty, 1e-300))
    result.r2 = rss <= 1e-12 * std::max(yty, 1e-300) ? 1.0 : 0.0;
  else
    result.r2 = 1.0 - rss / tss;
  result.model.r2 = result.r2;
  result.bic = compute_bic(rss, n, k);
  return result;
}

}  // namespace

std::optional<FitResult> fit_terms(const SampleSet& samples,
                                   std::span<const BasisFn> terms,
                                   bool relative_weighting, FitEngine engine,
                                   FitCounters* counters) {
  if (terms.empty() || samples.size() < terms.size()) return std::nullopt;

  const bool try_gram =
      engine == FitEngine::kGram ||
      (engine == FitEngine::kAuto && samples.size() >= kGramMinSamples);
  if (try_gram) {
    if (auto fitted =
            fit_terms_gram(samples.moments(), static_cast<double>(samples.size()),
                           terms, relative_weighting)) {
      if (counters) ++counters->gram_solves;
      return fitted;
    }
    if (counters) ++counters->qr_fallbacks;
  }
  if (counters) ++counters->qr_solves;
  return fit_terms_qr(samples, terms, relative_weighting);
}

FitResult select_model_from(const SampleSet& samples,
                            std::span<const BasisFn> candidate_terms,
                            const SelectionOptions& options,
                            FitCounters* counters) {
  FitResult best_plausible;
  FitResult best_any;
  best_plausible.bic = std::numeric_limits<double>::infinity();
  best_any.bic = std::numeric_limits<double>::infinity();

  const std::size_t m = candidate_terms.size();
  const std::size_t limit = std::min(options.max_terms, m);

  // Degrees-of-freedom guard: an interpolating fit (params == samples) has
  // R^2 = 1 by construction and garbage extrapolation. Exception: with two
  // samples an exact line is still allowed — slope information is vital
  // for the block selection (a flat model hands the unit an arbitrary
  // share) and a 2-point line through a monotone curve extrapolates sanely.
  const std::size_t max_params =
      samples.size() < 2
          ? 1
          : std::max<std::size_t>(
                2, samples.size() /
                       std::max<std::size_t>(1, options.samples_per_param));

  double x_lo = 1.0;
  for (const auto& s : samples.items()) x_lo = std::min(x_lo, s.x);

  // Scarce samples (< 6): parsimony-first enumeration — try all subsets
  // with exactly `s` non-intercept terms, smallest s first, and stop at
  // the first size class that yields a physically plausible fit over the
  // escalation bar. Extra terms cut residuals on a handful of probe
  // points almost for free but wreck the extrapolation the block
  // selection relies on; this ordering operationalizes the paper's
  // "0.7 ... prevents overfitting" rule. With >= 6 samples the BIC has
  // real degrees of freedom to price complexity, so the plain
  // BIC-among-plausible winner (computed below either way) is used.
  const bool hierarchical = samples.size() < 6;
  PLBHEC_EXPECTS(m < 20);
  const std::size_t subsets = std::size_t{1} << m;
  std::vector<BasisFn> terms;
  for (std::size_t size_class = 1; size_class <= limit; ++size_class) {
    FitResult best_of_class;
    best_of_class.bic = std::numeric_limits<double>::infinity();
    bool class_found = false;
    for (std::size_t mask = 1; mask < subsets; ++mask) {
      const auto bits = static_cast<std::size_t>(__builtin_popcountll(mask));
      if (bits != size_class) continue;
      terms.clear();
      if (options.include_intercept) terms.push_back(BasisFn::kOne);
      for (std::size_t i = 0; i < m; ++i)
        if (mask & (std::size_t{1} << i)) terms.push_back(candidate_terms[i]);
      if (terms.size() > max_params) continue;

      auto fitted = fit_terms(samples, terms, options.relative_weighting,
                              options.engine, counters);
      if (!fitted) continue;

      if (fitted->bic < best_any.bic - 1e-12) best_any = *fitted;
      // The plausibility grid costs more than the fit; a candidate that
      // would improve neither running best cannot change the result, so
      // it is never checked.
      if (!(fitted->bic < best_plausible.bic - 1e-12 ||
            fitted->bic < best_of_class.bic - 1e-12))
        continue;
      if (options.physical_filter &&
          !physically_plausible(fitted->model, x_lo))
        continue;
      if (fitted->bic < best_plausible.bic - 1e-12) best_plausible = *fitted;
      if (fitted->bic < best_of_class.bic - 1e-12) {
        best_of_class = *fitted;
        class_found = true;
      }
    }
    const double bar = std::max(options.class_r2, options.r2_threshold);
    if (hierarchical && class_found && best_of_class.r2 >= bar) {
      best_of_class.acceptable = best_of_class.r2 >= options.r2_threshold;
      return best_of_class;
    }
  }

  FitResult best =
      best_plausible.model.valid()
          ? best_plausible
          : best_any;  // all candidates unphysical: keep the best raw fit

  // Intercept-only fallback when nothing else was fittable (e.g. a single
  // sample): model the unit as a constant.
  if (!best.model.valid() && options.include_intercept && !samples.empty()) {
    std::vector<BasisFn> constant{BasisFn::kOne};
    if (auto fitted = fit_terms(samples, constant, false, options.engine,
                                counters))
      best = *fitted;
  }

  best.acceptable = best.model.valid() && best.r2 >= options.r2_threshold;
  return best;
}

FitResult select_model(const SampleSet& samples,
                       const SelectionOptions& options,
                       FitCounters* counters) {
  return select_model_from(samples, paper_terms(), options, counters);
}

TransferModel fit_transfer(const SampleSet& samples) {
  TransferModel model;
  if (samples.empty()) return model;
  if (samples.size() == 1) {
    // With one observation assume pure bandwidth cost.
    model.slope = samples.items()[0].time / samples.items()[0].x;
    model.latency = 0.0;
    return model;
  }

  std::vector<BasisFn> affine{BasisFn::kOne, BasisFn::kX};
  auto fitted = fit_terms(samples, affine);
  if (fitted) {
    model.latency = fitted->model.coefficients[0];
    model.slope = fitted->model.coefficients[1];
    model.r2 = fitted->r2;
  }

  // Physical clamps: negative latency or bandwidth terms are fit noise.
  if (model.latency < 0.0) {
    model.latency = 0.0;
    // Re-fit slope-only through the origin: slope = sum(x t) / sum(x^2).
    double num = 0.0;
    double den = 0.0;
    for (const auto& s : samples.items()) {
      num += s.x * s.time;
      den += s.x * s.x;
    }
    model.slope = den > 0.0 ? num / den : 0.0;
  }
  if (model.slope < 0.0) {
    model.slope = 0.0;
    const std::vector<double> times = samples.times();
    model.latency = mean(times);
  }
  return model;
}

}  // namespace plbhec::fit
