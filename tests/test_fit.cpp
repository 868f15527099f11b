// Tests for the curve-fitting layer: basis functions and derivatives,
// model evaluation, subset selection (including the degrees-of-freedom and
// physical-plausibility guards) and the transfer-model fit. Property-style
// sweeps check that generated curves from each basis family are recovered.

#include <gtest/gtest.h>

#include <cmath>

#include "plbhec/common/rng.hpp"
#include "plbhec/fit/basis.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/fit/model.hpp"

namespace plbhec::fit {
namespace {

TEST(Basis, EvalKnownValues) {
  EXPECT_DOUBLE_EQ(eval(BasisFn::kOne, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(eval(BasisFn::kX, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(eval(BasisFn::kX2, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(eval(BasisFn::kX3, 0.5), 0.125);
  EXPECT_DOUBLE_EQ(eval(BasisFn::kExpX, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(eval(BasisFn::kLnX, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(eval(BasisFn::kXLnX, 1.0), 0.0);
  EXPECT_NEAR(eval(BasisFn::kXExpX, 1.0), std::exp(1.0), 1e-12);
}

TEST(Basis, LnClampsNearZero) {
  EXPECT_TRUE(std::isfinite(eval(BasisFn::kLnX, 0.0)));
  EXPECT_TRUE(std::isfinite(derivative(BasisFn::kLnX, 0.0)));
  EXPECT_TRUE(std::isfinite(second_derivative(BasisFn::kLnX, 0.0)));
}

class BasisDerivatives : public ::testing::TestWithParam<BasisFn> {};

TEST_P(BasisDerivatives, MatchFiniteDifferences) {
  const BasisFn f = GetParam();
  const double h = 1e-6;
  for (double x : {0.05, 0.2, 0.5, 0.9}) {
    const double fd = (eval(f, x + h) - eval(f, x - h)) / (2.0 * h);
    EXPECT_NEAR(derivative(f, x), fd, 1e-5 * std::max(1.0, std::fabs(fd)))
        << name(f) << " at x=" << x;
    const double fd2 =
        (eval(f, x + h) - 2.0 * eval(f, x) + eval(f, x - h)) / (h * h);
    EXPECT_NEAR(second_derivative(f, x), fd2,
                2e-3 * std::max(1.0, std::fabs(fd2)))
        << name(f) << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBasis, BasisDerivatives,
    ::testing::Values(BasisFn::kOne, BasisFn::kLnX, BasisFn::kX, BasisFn::kX2,
                      BasisFn::kX3, BasisFn::kExpX, BasisFn::kXExpX,
                      BasisFn::kXLnX));

TEST(Basis, PaperTermsExcludeIntercept) {
  for (BasisFn f : paper_terms()) EXPECT_NE(f, BasisFn::kOne);
  EXPECT_EQ(paper_terms().size(), 7u);
  EXPECT_EQ(all_terms().size(), 8u);
}

TEST(CurveModel, EvaluatesLinearCombination) {
  CurveModel m;
  m.terms = {BasisFn::kOne, BasisFn::kX};
  m.coefficients = {2.0, 3.0};
  EXPECT_DOUBLE_EQ(m(0.5), 3.5);
  EXPECT_DOUBLE_EQ(m.derivative(0.5), 3.0);
  EXPECT_DOUBLE_EQ(m.second_derivative(0.5), 0.0);
}

TEST(CurveModel, ToStringContainsTerms) {
  CurveModel m;
  m.terms = {BasisFn::kOne, BasisFn::kLnX};
  m.coefficients = {1.0, -2.0};
  const std::string s = m.to_string();
  EXPECT_NE(s.find("ln(x)"), std::string::npos);
}

TEST(CurveModel, InvalidDetected) {
  CurveModel m;
  EXPECT_FALSE(m.valid());
  m.terms = {BasisFn::kX};
  EXPECT_FALSE(m.valid());  // no coefficient
}

TEST(TransferModel, Affine) {
  TransferModel g{2.0, 0.5};
  EXPECT_DOUBLE_EQ(g(0.25), 1.0);
  EXPECT_DOUBLE_EQ(g.derivative(0.1), 2.0);
}

SampleSet sample_curve(const std::vector<double>& xs, auto&& fn,
                       double noise_sigma = 0.0, std::uint64_t seed = 1) {
  Rng rng(seed);
  SampleSet s;
  for (double x : xs)
    s.add(x, fn(x) * rng.lognormal_factor(noise_sigma));
  return s;
}

const std::vector<double> kProbeXs{0.002, 0.004, 0.008, 0.016,
                                   0.032, 0.064, 0.128};

TEST(FitTerms, RecoversLinearCoefficients) {
  auto s = sample_curve(kProbeXs, [](double x) { return 0.1 + 5.0 * x; });
  std::vector<BasisFn> terms{BasisFn::kOne, BasisFn::kX};
  auto fit = fit_terms(s, terms);
  ASSERT_TRUE(fit);
  EXPECT_NEAR(fit->model.coefficients[0], 0.1, 1e-9);
  EXPECT_NEAR(fit->model.coefficients[1], 5.0, 1e-9);
  EXPECT_NEAR(fit->r2, 1.0, 1e-12);
}

TEST(FitTerms, UnderdeterminedReturnsNullopt) {
  SampleSet s;
  s.add(0.1, 1.0);
  std::vector<BasisFn> terms{BasisFn::kOne, BasisFn::kX};
  EXPECT_FALSE(fit_terms(s, terms).has_value());
}

TEST(FitTerms, RelativeWeightingStillComputesRawR2) {
  auto s = sample_curve(kProbeXs, [](double x) { return 1.0 + 10.0 * x; });
  std::vector<BasisFn> terms{BasisFn::kOne, BasisFn::kX};
  auto fit = fit_terms(s, terms, /*relative_weighting=*/true);
  ASSERT_TRUE(fit);
  EXPECT_GT(fit->r2, 0.999);
}

struct GeneratedCurve {
  const char* label;
  double (*fn)(double);
};

// Print the label, not gtest's default byte dump: the dump holds the two
// pointers, so the listed test names would change with every process's
// address layout.
void PrintTo(const GeneratedCurve& gc, std::ostream* os) { *os << gc.label; }

class SelectRecovers : public ::testing::TestWithParam<GeneratedCurve> {};

TEST_P(SelectRecovers, PredictsHeldOutPoints) {
  const auto& gc = GetParam();
  auto s = sample_curve(kProbeXs, gc.fn, 0.01, 7);
  const FitResult fit = select_model(s);
  ASSERT_TRUE(fit.model.valid());
  EXPECT_TRUE(fit.acceptable) << gc.label << " r2=" << fit.r2;
  // Interpolation accuracy on held-out points inside the sampled range.
  for (double x : {0.003, 0.01, 0.05, 0.1}) {
    const double truth = gc.fn(x);
    EXPECT_NEAR(fit.model(x), truth, 0.15 * std::fabs(truth) + 1e-3)
        << gc.label << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Curves, SelectRecovers,
    ::testing::Values(
        GeneratedCurve{"affine", [](double x) { return 0.05 + 3.0 * x; }},
        GeneratedCurve{"quadratic",
                       [](double x) { return 0.01 + 2.0 * x + 8.0 * x * x; }},
        GeneratedCurve{"gpu-like saturating",
                       [](double x) {
                         return 0.02 + 4.0 * x * (x + 0.01) / (x + 0.004);
                       }},
        GeneratedCurve{"log-flavored",
                       [](double x) { return 1.0 + 0.05 * std::log(x) + x; }}),
    [](const auto& info) {
      std::string n = info.param.label;
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST(SelectModel, FourSamplesDoNotInterpolate) {
  // With 4 samples an interpolating 4-term fit would have R^2 = 1; the
  // dof guard must keep the parameter count at <= 2.
  auto s = sample_curve({0.01, 0.02, 0.04, 0.08},
                        [](double x) { return 0.1 + 2.0 * x; }, 0.02, 3);
  const FitResult fit = select_model(s);
  ASSERT_TRUE(fit.model.valid());
  EXPECT_LE(fit.model.terms.size(), 2u);
}

TEST(SelectModel, SingleSampleFallsBackToConstant) {
  SampleSet s;
  s.add(0.05, 3.0);
  const FitResult fit = select_model(s);
  ASSERT_TRUE(fit.model.valid());
  EXPECT_EQ(fit.model.terms.size(), 1u);
  EXPECT_EQ(fit.model.terms[0], BasisFn::kOne);
  EXPECT_DOUBLE_EQ(fit.model(0.5), 3.0);
}

TEST(SelectModel, EmptySamplesGiveInvalidModel) {
  SampleSet s;
  const FitResult fit = select_model(s);
  EXPECT_FALSE(fit.model.valid());
  EXPECT_FALSE(fit.acceptable);
}

TEST(SelectModel, PhysicalFilterRejectsDecreasingExtrapolation) {
  // Construct samples from an increasing curve; whatever is selected must
  // not decrease substantially over (x_lo, 1].
  auto s = sample_curve(kProbeXs, [](double x) { return 0.02 + x; }, 0.05, 9);
  const FitResult fit = select_model(s);
  ASSERT_TRUE(fit.model.valid());
  double prev = fit.model(0.002);
  double max_drop = 0.0;
  double hi = prev, lo = prev;
  for (double x = 0.002; x <= 1.0; x += 0.02) {
    const double t = fit.model(x);
    max_drop = std::max(max_drop, prev - t);
    hi = std::max(hi, t);
    lo = std::min(lo, t);
    prev = t;
    EXPECT_GE(t, 0.0);
  }
  EXPECT_LE(max_drop, 0.10 * (hi - lo) + 1e-12);
}

TEST(SelectModel, AcceptableReflectsThreshold) {
  // Pure noise cannot be fitted above threshold without overfitting room.
  Rng rng(5);
  SampleSet s;
  for (double x : kProbeXs) s.add(x, 1.0 + rng.uniform(-0.5, 0.5));
  SelectionOptions opts;
  opts.r2_threshold = 0.95;
  opts.max_terms = 1;
  const FitResult fit = select_model(s, opts);
  EXPECT_FALSE(fit.acceptable);
}

TEST(SelectModelFrom, RestrictedCandidates) {
  auto s = sample_curve(kProbeXs, [](double x) { return 2.0 * x; });
  std::vector<BasisFn> only_linear{BasisFn::kX};
  const FitResult fit = select_model_from(s, only_linear);
  ASSERT_TRUE(fit.model.valid());
  for (BasisFn f : fit.model.terms)
    EXPECT_TRUE(f == BasisFn::kX || f == BasisFn::kOne);
}

TEST(FitTransfer, RecoversAffine) {
  auto s = sample_curve(kProbeXs, [](double x) { return 0.01 + 3.0 * x; });
  const TransferModel g = fit_transfer(s);
  EXPECT_NEAR(g.latency, 0.01, 1e-9);
  EXPECT_NEAR(g.slope, 3.0, 1e-9);
}

TEST(FitTransfer, ClampsNegativeLatency) {
  // Data through the origin with negative-intercept noise.
  SampleSet s;
  s.add(0.1, 0.95);
  s.add(0.2, 2.05);
  s.add(0.3, 3.1);
  const TransferModel g = fit_transfer(s);
  EXPECT_GE(g.latency, 0.0);
  EXPECT_GT(g.slope, 0.0);
}

TEST(FitTransfer, SingleSampleAssumesBandwidthOnly) {
  SampleSet s;
  s.add(0.5, 1.0);
  const TransferModel g = fit_transfer(s);
  EXPECT_DOUBLE_EQ(g.latency, 0.0);
  EXPECT_DOUBLE_EQ(g.slope, 2.0);
}

TEST(FitTransfer, EmptyIsZero) {
  SampleSet s;
  const TransferModel g = fit_transfer(s);
  EXPECT_EQ(g.slope, 0.0);
  EXPECT_EQ(g.latency, 0.0);
}

TEST(FitTransfer, FlatDataFallsBackToMeanLatency) {
  SampleSet s;  // decreasing times => negative slope => clamp
  s.add(0.1, 2.0);
  s.add(0.5, 1.0);
  const TransferModel g = fit_transfer(s);
  EXPECT_GE(g.slope, 0.0);
  EXPECT_NEAR(g(0.3), 1.5, 0.6);
}

TEST(PerfModel, TotalsAndDerivatives) {
  PerfModel m;
  m.exec.terms = {BasisFn::kOne, BasisFn::kX2};
  m.exec.coefficients = {1.0, 4.0};
  m.transfer = {2.0, 0.5};
  EXPECT_DOUBLE_EQ(m.total_time(0.5), 1.0 + 1.0 + 1.0 + 0.5);
  EXPECT_DOUBLE_EQ(m.total_derivative(0.5), 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(m.total_second_derivative(0.5), 8.0);
}

// ---------------------------------------------------------------------------
// Incremental moments: the cached Gram matrix / moment vectors must equal
// the quantities computed directly from the stored samples.

TEST(MomentSet, MatchesDirectComputation) {
  Rng rng(11);
  SampleSet s;
  for (int i = 0; i < 40; ++i)
    s.add(rng.uniform(0.001, 0.9), rng.uniform(0.01, 5.0));

  const MomentSet& m = s.moments();
  ASSERT_EQ(m.count(), s.size());
  const auto terms = all_terms();
  for (BasisFn a : terms) {
    double direct_xty = 0.0;
    for (const auto& it : s.items()) direct_xty += eval(a, it.x) * it.time;
    EXPECT_NEAR(m.xty(a), direct_xty,
                1e-12 * std::max(1.0, std::fabs(direct_xty)))
        << name(a);
    for (BasisFn b : terms) {
      double direct = 0.0;
      for (const auto& it : s.items()) direct += eval(a, it.x) * eval(b, it.x);
      EXPECT_NEAR(m.gram(a, b), direct,
                  1e-12 * std::max(1.0, std::fabs(direct)))
          << name(a) << "*" << name(b);
      EXPECT_DOUBLE_EQ(m.gram(a, b), m.gram(b, a));
    }
  }
  double direct_yty = 0.0;
  double direct_wyty = 0.0;
  for (const auto& it : s.items()) {
    direct_yty += it.time * it.time;
    const double w = 1.0 / std::max(it.time, 1e-9);
    direct_wyty += w * w * it.time * it.time;
  }
  EXPECT_NEAR(m.yty(), direct_yty, 1e-12 * direct_yty);
  EXPECT_NEAR(m.yty(/*weighted=*/true), direct_wyty, 1e-12 * direct_wyty);
}

TEST(MomentSet, ClearResets) {
  SampleSet s;
  s.add(0.1, 1.0);
  s.clear();
  EXPECT_EQ(s.moments().count(), 0u);
  EXPECT_EQ(s.moments().yty(), 0.0);
  EXPECT_EQ(s.moments().gram(BasisFn::kOne, BasisFn::kOne), 0.0);
}

// ---------------------------------------------------------------------------
// Gram/Cholesky vs QR equivalence: every subset the selection pipeline can
// visit (sizes 1..4 over the full basis) must produce the same coefficients,
// R^2 and BIC from the cached-moment path as from the design-matrix path,
// across the whole sample-count range the scheduler sees.

class GramQrEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GramQrEquivalence, AllSubsetsAgree) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  SampleSet s;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.002, 0.9);
    const double t = (0.03 + 2.0 * x + 5.0 * x * x) *
                     rng.lognormal_factor(0.05);
    s.add(x, t);
  }

  const auto terms = all_terms();
  std::size_t compared = 0;
  for (unsigned mask = 1; mask < (1u << terms.size()); ++mask) {
    std::vector<BasisFn> subset;
    for (std::size_t i = 0; i < terms.size(); ++i)
      if (mask & (1u << i)) subset.push_back(terms[i]);
    if (subset.size() > 4) continue;  // selection caps at max_terms+intercept

    for (bool weighted : {false, true}) {
      FitCounters qr_counters, gram_counters;
      const auto via_qr =
          fit_terms(s, subset, weighted, FitEngine::kQr, &qr_counters);
      const auto via_gram =
          fit_terms(s, subset, weighted, FitEngine::kGram, &gram_counters);
      ASSERT_EQ(via_qr.has_value(), via_gram.has_value())
          << "n=" << n << " mask=" << mask << " weighted=" << weighted;
      if (!via_qr) continue;
      EXPECT_EQ(qr_counters.qr_solves, 1u);
      // The Gram engine either solved from moments or certifiably fell back
      // to QR; in both cases the result must match the pure-QR fit.
      EXPECT_EQ(gram_counters.gram_solves + gram_counters.qr_fallbacks, 1u);

      ASSERT_EQ(via_gram->model.coefficients.size(),
                via_qr->model.coefficients.size());
      double scale = 1.0;
      for (double c : via_qr->model.coefficients)
        scale = std::max(scale, std::fabs(c));
      for (std::size_t i = 0; i < via_qr->model.coefficients.size(); ++i)
        EXPECT_NEAR(via_gram->model.coefficients[i],
                    via_qr->model.coefficients[i], 1e-8 * scale)
            << "n=" << n << " mask=" << mask << " weighted=" << weighted;
      EXPECT_NEAR(via_gram->r2, via_qr->r2, 1e-8)
          << "n=" << n << " mask=" << mask << " weighted=" << weighted;
      // BIC contains log(rss); skip the comparison when the fit is exact
      // enough that rss sits at the cancellation floor and its log is noise.
      const double rss_guard = 1e-10 * s.moments().yty();
      if (via_qr->r2 < 1.0 - 1e-10 || rss_guard == 0.0)
        EXPECT_NEAR(via_gram->bic, via_qr->bic,
                    1e-8 * std::max(1.0, std::fabs(via_qr->bic)))
            << "n=" << n << " mask=" << mask << " weighted=" << weighted;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(SampleCounts, GramQrEquivalence,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 16, 24, 32, 48,
                                           64, 96, 128, 192, 256),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(GramQrEquivalenceSelect, FullSelectionAgrees) {
  // End-to-end: select_model must pick models whose predictions agree
  // between the two engines (term identity can legitimately differ only on
  // exact BIC ties, which noisy data rules out).
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    SampleSet s;
    for (std::size_t i = 0; i < 24; ++i) {
      const double x = rng.uniform(0.002, 0.6);
      s.add(x, (0.05 + 1.5 * x + 3.0 * x * x) * rng.lognormal_factor(0.03));
    }
    SelectionOptions qr_opts, gram_opts;
    qr_opts.engine = FitEngine::kQr;
    gram_opts.engine = FitEngine::kGram;
    const FitResult a = select_model(s, qr_opts);
    const FitResult b = select_model(s, gram_opts);
    ASSERT_TRUE(a.model.valid());
    ASSERT_TRUE(b.model.valid());
    EXPECT_EQ(a.acceptable, b.acceptable) << "seed=" << seed;
    EXPECT_NEAR(a.r2, b.r2, 1e-8) << "seed=" << seed;
    for (double x : {0.01, 0.05, 0.2, 0.5})
      EXPECT_NEAR(b.model(x), a.model(x),
                  1e-6 * std::max(1.0, std::fabs(a.model(x))))
          << "seed=" << seed << " x=" << x;
  }
}

TEST(FitEngineAuto, UsesQrBelowCutoverAndGramAbove) {
  std::vector<BasisFn> terms{BasisFn::kOne, BasisFn::kX};
  {
    auto s = sample_curve({0.01, 0.02, 0.04, 0.08},
                          [](double x) { return 0.1 + 2.0 * x; });
    FitCounters c;
    ASSERT_TRUE(fit_terms(s, terms, false, FitEngine::kAuto, &c));
    EXPECT_EQ(c.qr_solves, 1u);
    EXPECT_EQ(c.gram_solves, 0u);
  }
  {
    auto s = sample_curve(
        {0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1},
        [](double x) { return 0.1 + 2.0 * x; }, 0.02, 13);
    FitCounters c;
    ASSERT_TRUE(fit_terms(s, terms, false, FitEngine::kAuto, &c));
    EXPECT_EQ(c.gram_solves + c.qr_fallbacks, 1u);
  }
}

}  // namespace
}  // namespace plbhec::fit
