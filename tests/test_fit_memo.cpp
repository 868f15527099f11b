// Tests for the run-scoped model-selection memo and the lazy plausibility
// filter: every memo hit must be bit-identical to a fresh selection, inputs
// that differ in any bit the selection reads (samples, moments, options,
// candidate terms) must never share an entry, concurrent lookups must
// agree, and the lazy filter must pick exactly what the eager loop picked.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "plbhec/common/rng.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/fit/selection_memo.hpp"
#include "plbhec/rt/profile_db.hpp"

namespace plbhec::fit {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bitwise_equal(const FitResult& a, const FitResult& b) {
  if (!same_bits(a.r2, b.r2) || !same_bits(a.bic, b.bic) ||
      !same_bits(a.model.r2, b.model.r2) || a.acceptable != b.acceptable ||
      a.model.terms != b.model.terms ||
      a.model.coefficients.size() != b.model.coefficients.size())
    return false;
  for (std::size_t i = 0; i < a.model.coefficients.size(); ++i)
    if (!same_bits(a.model.coefficients[i], b.model.coefficients[i]))
      return false;
  return true;
}

/// A noisy execution-time curve from one of several shapes, on x in
/// (0.001, 1]: the families the modeling phase meets (linear with launch
/// overhead, GPU-like efficiency ramp, superlinear, flat).
SampleSet random_set(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto shape = rng.uniform_int(0, 3);
  SampleSet set;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.001, 1.0);
    double t = 0.4;
    if (shape == 0) t = 0.02 + 1.5 * x;
    if (shape == 1) t = 0.05 + 0.8 * x - 0.01 * std::log(x);
    if (shape == 2) t = 0.01 + 0.3 * x + 2.0 * x * x * x;
    set.add(x, t * rng.lognormal_factor(0.04));
  }
  return set;
}

/// The same samples with moments accumulated in reverse order: equal
/// samples, (usually) different moment bits.
SampleSet reversed_moments(const SampleSet& set) {
  SampleSet reversed;
  for (auto it = set.items().rbegin(); it != set.items().rend(); ++it)
    reversed.add(it->x, it->time);
  SampleSet out;
  out.restore(set.items(), reversed.moments().snapshot());
  return out;
}

const std::vector<std::vector<BasisFn>>& candidate_lists() {
  static const std::vector<std::vector<BasisFn>> lists = {
      {paper_terms().begin(), paper_terms().end()},
      {BasisFn::kX, BasisFn::kX2},
      {BasisFn::kX3, BasisFn::kX, BasisFn::kLnX, BasisFn::kExpX},
  };
  return lists;
}

std::vector<std::size_t> sample_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 24; ++n) counts.push_back(n);
  for (std::size_t n : {32, 48, 64, 100, 150, 200, 300}) counts.push_back(n);
  return counts;
}

std::string label(std::size_t n, const SelectionOptions& options) {
  std::string s = "n=" + std::to_string(n);
  s += " engine=" + std::to_string(static_cast<int>(options.engine));
  s += " weighted=" + std::to_string(options.relative_weighting);
  return s;
}

/// Selects through the memo twice (a miss, then a hit) and checks both
/// against a fresh selection.
void expect_memo_matches_fresh(SelectionMemo& memo, const SampleSet& set,
                               std::span<const BasisFn> terms,
                               const SelectionOptions& options,
                               const std::string& what) {
  const FitResult fresh = select_model_from(set, terms, options);
  const std::size_t hits = memo.hits();
  const FitResult first = memo.select(set, terms, options);
  const FitResult second = memo.select(set, terms, options);
  EXPECT_TRUE(bitwise_equal(first, fresh)) << what;
  EXPECT_TRUE(bitwise_equal(second, fresh)) << what;
  EXPECT_GE(memo.hits(), hits + 1) << what;
}

TEST(SelectionMemo, HitsMatchFreshSelections) {
  SelectionMemo memo;
  for (const std::size_t n : sample_counts()) {
    const SampleSet set = random_set(n, 100 + n);
    for (const FitEngine engine :
         {FitEngine::kAuto, FitEngine::kQr, FitEngine::kGram}) {
      for (const bool weighted : {false, true}) {
        for (std::size_t l = 0; l < candidate_lists().size(); ++l) {
          SelectionOptions options;
          options.engine = engine;
          options.relative_weighting = weighted;
          const std::string what =
              label(n, options) + " list=" + std::to_string(l);
          expect_memo_matches_fresh(memo, set, candidate_lists()[l], options,
                                    what);
        }
      }
    }
  }
}

TEST(SelectionMemo, HitLeavesSolveCountersUntouched) {
  SelectionMemo memo;
  const SampleSet set = random_set(20, 7);
  FitCounters miss;
  (void)memo.select(set, {}, &miss);
  EXPECT_GT(miss.gram_solves + miss.qr_solves, 0u);
  FitCounters hit;
  (void)memo.select(set, {}, &hit);
  EXPECT_EQ(hit.gram_solves, 0u);
  EXPECT_EQ(hit.qr_solves, 0u);
  EXPECT_EQ(hit.qr_fallbacks, 0u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
}

TEST(SelectionMemo, RestoredMomentsNeverAliasReplayedOnes) {
  // Same samples, moments from a different accumulation order: wherever
  // the Gram path can run, the memo must keep the two apart.
  std::size_t differing = 0;
  for (const std::size_t n : sample_counts()) {
    const SampleSet replayed = random_set(n, 300 + n);
    const SampleSet restored = reversed_moments(replayed);
    if (restored.moments().snapshot() != replayed.moments().snapshot())
      ++differing;
    for (const FitEngine engine : {FitEngine::kAuto, FitEngine::kGram}) {
      for (const bool weighted : {false, true}) {
        SelectionMemo memo;
        SelectionOptions options;
        options.engine = engine;
        options.relative_weighting = weighted;
        const std::string what = label(n, options);
        expect_memo_matches_fresh(memo, replayed, paper_terms(), options,
                                  what);
        expect_memo_matches_fresh(memo, restored, paper_terms(), options,
                                  what + " restored");
      }
    }
  }
  EXPECT_GT(differing, 0u) << "the sweep never produced differing moments";
}

TEST(SelectionMemo, DistinctOptionsAndTermListsNeverShareAnEntry) {
  const SampleSet set = random_set(12, 42);
  std::vector<SelectionOptions> variants(1);
  const auto vary = [&variants](auto change) {
    SelectionOptions o;
    change(o);
    variants.push_back(o);
  };
  vary([](SelectionOptions& o) { o.r2_threshold = 0.8; });
  vary([](SelectionOptions& o) { o.class_r2 = 0.9; });
  vary([](SelectionOptions& o) { o.max_terms = 2; });
  vary([](SelectionOptions& o) { o.include_intercept = false; });
  vary([](SelectionOptions& o) { o.relative_weighting = true; });
  vary([](SelectionOptions& o) { o.samples_per_param = 1; });
  vary([](SelectionOptions& o) { o.physical_filter = false; });
  vary([](SelectionOptions& o) { o.engine = FitEngine::kQr; });
  vary([](SelectionOptions& o) { o.engine = FitEngine::kGram; });
  // 0.7 and the next double up differ only in the last bit.
  vary([](SelectionOptions& o) { o.r2_threshold = std::nextafter(0.7, 1.0); });

  std::vector<std::vector<BasisFn>> lists = candidate_lists();
  lists.emplace_back(paper_terms().rbegin(), paper_terms().rend());
  lists.push_back({BasisFn::kX});

  SelectionMemo memo;
  std::size_t expected = 0;
  for (const auto& terms : lists) {
    for (const SelectionOptions& options : variants) {
      (void)memo.select(set, terms, options);
      ++expected;
      EXPECT_EQ(memo.misses(), expected) << "a variant hit another's entry";
      EXPECT_EQ(memo.size(), expected);
    }
  }
  EXPECT_EQ(memo.hits(), 0u);
  for (const auto& terms : lists) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      EXPECT_TRUE(bitwise_equal(memo.select(set, terms, variants[v]),
                                select_model_from(set, terms, variants[v])))
          << "variant " << v;
    }
  }
  EXPECT_EQ(memo.hits(), expected);
}

TEST(SelectionMemo, ConcurrentLookupsAgree) {
  struct Input {
    SampleSet set;
    SelectionOptions options;
    FitResult fresh;
  };
  std::vector<Input> inputs;
  for (std::size_t i = 0; i < 24; ++i) {
    Input in;
    in.set = random_set(4 + i, 500 + i);
    in.options.engine = i % 3 == 0 ? FitEngine::kQr : FitEngine::kAuto;
    in.options.relative_weighting = i % 4 == 0;
    in.fresh = select_model(in.set, in.options);
    inputs.push_back(std::move(in));
  }
  SelectionMemo memo;
  exec::ThreadPool pool(3);
  constexpr std::size_t kRounds = 8;
  std::atomic<std::size_t> mismatches{0};
  pool.parallel_for(0, inputs.size() * kRounds, 1,
                    [&](std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        const Input& in = inputs[i % inputs.size()];
                        if (!bitwise_equal(memo.select(in.set, in.options),
                                           in.fresh))
                          mismatches.fetch_add(1);
                      }
                    });
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(memo.hits() + memo.misses(), inputs.size() * kRounds);
  EXPECT_GE(memo.misses(), inputs.size());
  EXPECT_EQ(memo.size(), inputs.size());
}

TEST(SelectionMemo, FlushAtEntryCapKeepsResultsExact) {
  SelectionMemo memo;
  const auto one_sample = [](std::size_t i) {
    SampleSet set;
    set.add(0.5, 0.1 + 1e-3 * static_cast<double>(i));
    return set;
  };
  const std::size_t total = SelectionMemo::kMaxEntries + 50;
  for (std::size_t i = 0; i < total; ++i) (void)memo.select(one_sample(i), {});
  EXPECT_EQ(memo.misses(), total);
  EXPECT_LE(memo.size(), SelectionMemo::kMaxEntries);
  EXPECT_GT(memo.size(), 0u);
  for (std::size_t i = 0; i < total; i += 97) {
    const SampleSet set = one_sample(i);
    EXPECT_TRUE(bitwise_equal(memo.select(set, {}), select_model(set)))
        << "i=" << i;
  }
}

TEST(SelectionMemo, GiantSetsAreSelectedButNotStored) {
  SelectionMemo memo;
  const SampleSet giant = random_set(SelectionMemo::kMaxWords / 64, 9);
  const FitResult fresh = select_model(giant);
  EXPECT_TRUE(bitwise_equal(memo.select(giant, {}), fresh));
  EXPECT_TRUE(bitwise_equal(memo.select(giant, {}), fresh));
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.misses(), 2u);
}

TEST(SelectionMemo, ProfileDbHitsSkipSubsetSolves) {
  // Two schedulers' profile databases seeing the same observations: the
  // second is served entirely by the shared memo, bit for bit.
  const auto observed = [](rt::ProfileDb& db) {
    Rng rng(3);
    for (std::size_t round = 1; round <= 6; ++round) {
      for (rt::UnitId u = 0; u < db.units(); ++u) {
        const std::size_t grains = 40 * round * (u + 1);
        const double x = db.grains_to_fraction(grains);
        db.record({u, grains, 1e-3 + 0.01 * x,
                   (0.02 + (u + 1.0) * x) * rng.lognormal_factor(0.03), 0.0,
                   0.0});
      }
    }
  };
  rt::ProfileDb fresh(4, 10'000), first(4, 10'000), second(4, 10'000);
  observed(fresh);
  observed(first);
  observed(second);
  SelectionMemo memo;
  first.use_memo(&memo);
  second.use_memo(&memo);

  const std::vector<PerfModel> want = fresh.fit_all();
  (void)first.fit_all();
  const std::vector<PerfModel> got = second.fit_all();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t u = 0; u < want.size(); ++u) {
    EXPECT_EQ(got[u].exec.terms, want[u].exec.terms) << "unit " << u;
    ASSERT_EQ(got[u].exec.coefficients.size(),
              want[u].exec.coefficients.size());
    for (std::size_t i = 0; i < want[u].exec.coefficients.size(); ++i)
      EXPECT_TRUE(same_bits(got[u].exec.coefficients[i],
                            want[u].exec.coefficients[i]))
          << "unit " << u;
  }
  const rt::FitStats s = second.fit_stats();
  EXPECT_EQ(s.fits_computed, 4u);
  EXPECT_EQ(s.gram_solves, 0u);
  EXPECT_EQ(s.qr_solves, 0u);
  EXPECT_GT(first.fit_stats().gram_solves + first.fit_stats().qr_solves, 0u);
  EXPECT_EQ(memo.hits(), 4u);
}

// ---- Lazy plausibility filter ---------------------------------------------

/// select_model_from as it was before the lazy filter: every fitted
/// candidate is checked for plausibility. Kept here as the oracle.
FitResult eager_select(const SampleSet& samples,
                       std::span<const BasisFn> candidate_terms,
                       const SelectionOptions& options) {
  FitResult best_plausible;
  FitResult best_any;
  best_plausible.bic = std::numeric_limits<double>::infinity();
  best_any.bic = std::numeric_limits<double>::infinity();
  const std::size_t m = candidate_terms.size();
  const std::size_t limit = std::min(options.max_terms, m);
  const std::size_t max_params =
      samples.size() < 2
          ? 1
          : std::max<std::size_t>(
                2, samples.size() /
                       std::max<std::size_t>(1, options.samples_per_param));
  double x_lo = 1.0;
  for (const auto& s : samples.items()) x_lo = std::min(x_lo, s.x);
  const bool hierarchical = samples.size() < 6;
  const std::size_t subsets = std::size_t{1} << m;
  std::vector<BasisFn> terms;
  for (std::size_t size_class = 1; size_class <= limit; ++size_class) {
    FitResult best_of_class;
    best_of_class.bic = std::numeric_limits<double>::infinity();
    bool class_found = false;
    for (std::size_t mask = 1; mask < subsets; ++mask) {
      if (static_cast<std::size_t>(__builtin_popcountll(mask)) != size_class)
        continue;
      terms.clear();
      if (options.include_intercept) terms.push_back(BasisFn::kOne);
      for (std::size_t i = 0; i < m; ++i)
        if (mask & (std::size_t{1} << i)) terms.push_back(candidate_terms[i]);
      if (terms.size() > max_params) continue;
      auto fitted = fit_terms(samples, terms, options.relative_weighting,
                              options.engine);
      if (!fitted) continue;
      if (fitted->bic < best_any.bic - 1e-12) best_any = *fitted;
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
  FitResult best = best_plausible.model.valid() ? best_plausible : best_any;
  if (!best.model.valid() && options.include_intercept && !samples.empty()) {
    std::vector<BasisFn> constant{BasisFn::kOne};
    if (auto fitted = fit_terms(samples, constant, false, options.engine))
      best = *fitted;
  }
  best.acceptable = best.model.valid() && best.r2 >= options.r2_threshold;
  return best;
}

/// Noise-free polynomial samples: every subset that contains the true
/// terms fits exactly, so same-size subsets tie on BIC.
SampleSet exact_set(std::size_t n) {
  SampleSet set;
  for (std::size_t i = 1; i <= n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    set.add(x, 0.1 + 2.0 * x + 3.0 * x * x);
  }
  return set;
}

/// Three to five very noisy samples of a cubic-plus-line curve: the
/// scarce-sample search then often finds a size class whose best fit
/// reaches the escalation bar without beating an earlier class on BIC.
SampleSet scarce_noisy_set(std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(3 + rng.uniform_int(0, 2));
  const double a = rng.uniform(0.0, 0.2);
  const double b = rng.uniform(0.0, 2.0);
  const double c = rng.uniform(-1.0, 3.0);
  const double noise = rng.uniform(0.001, 0.2);
  SampleSet set;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.01, 1.0);
    const double t = (a + b * x + c * x * x * x) * rng.lognormal_factor(noise);
    set.add(x, std::max(t, 0.001));
  }
  return set;
}

TEST(LazyPlausibilityFilter, MatchesEagerOracle) {
  std::vector<SampleSet> sets;
  for (const std::size_t n : sample_counts()) {
    sets.push_back(random_set(n, 700 + n));
    sets.push_back(exact_set(n));
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed)
    sets.push_back(scarce_noisy_set(seed));
  // Decreasing data: most candidates fail the filter.
  SampleSet decreasing;
  for (std::size_t i = 1; i <= 10; ++i)
    decreasing.add(0.1 * static_cast<double>(i),
                   1.0 - 0.05 * static_cast<double>(i));
  sets.push_back(decreasing);

  // One sample per parameter lets the scarce-sample search (n < 6) reach
  // the two- and three-term classes, where the best of a class can lose
  // to the best plausible fit overall.
  std::vector<SelectionOptions> variants;
  for (const FitEngine engine :
       {FitEngine::kAuto, FitEngine::kQr, FitEngine::kGram}) {
    for (const bool filter : {true, false}) {
      for (const std::size_t per_param : {2, 1}) {
        SelectionOptions options;
        options.engine = engine;
        options.physical_filter = filter;
        options.samples_per_param = per_param;
        variants.push_back(options);
      }
    }
  }
  for (const SampleSet& set : sets) {
    for (const SelectionOptions& options : variants) {
      for (const auto& terms : candidate_lists()) {
        EXPECT_TRUE(bitwise_equal(select_model_from(set, terms, options),
                                  eager_select(set, terms, options)))
            << label(set.size(), options)
            << " filter=" << options.physical_filter
            << " per_param=" << options.samples_per_param;
      }
    }
  }
}

TEST(LazyPlausibilityFilter, SweepContainsBicTies) {
  // Guards the oracle sweep above: exact data must really produce
  // same-size subsets whose BICs tie within the 1e-12 selection tolerance.
  const SampleSet set = exact_set(16);
  std::vector<double> bics;
  for (const BasisFn extra : {BasisFn::kLnX, BasisFn::kX3, BasisFn::kExpX,
                              BasisFn::kXExpX, BasisFn::kXLnX}) {
    const std::vector<BasisFn> terms{BasisFn::kOne, BasisFn::kX,
                                     BasisFn::kX2, extra};
    const auto fitted = fit_terms(set, terms, false, FitEngine::kGram);
    ASSERT_TRUE(fitted.has_value());
    bics.push_back(fitted->bic);
  }
  std::size_t ties = 0;
  for (std::size_t i = 0; i < bics.size(); ++i)
    for (std::size_t j = i + 1; j < bics.size(); ++j)
      if (std::fabs(bics[i] - bics[j]) <= 1e-12) ++ties;
  EXPECT_GT(ties, 0u);
}

}  // namespace
}  // namespace plbhec::fit
