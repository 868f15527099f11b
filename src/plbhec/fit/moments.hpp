#pragma once
/// \file moments.hpp
/// Incrementally maintained second moments of a profiling sample set over
/// the *full* basis-function set: the Gram matrix G = X^T X, the moment
/// vector X^T y and y^T y, plus the 1/time-weighted variants used by
/// relative-weighting fits. One rank-1 update per recorded observation
/// makes any term-subset least-squares fit solvable in O(k^3) from the
/// cached moments — independent of the number of samples — which keeps the
/// modeling-phase overhead flat as probe counts grow (the cost the paper's
/// overhead table charges against PLB-HeC).

#include <array>
#include <cstddef>
#include <cstdint>

#include "plbhec/fit/basis.hpp"

namespace plbhec::fit {

/// Number of distinct basis functions; BasisFn enumerators index 0..7.
inline constexpr std::size_t kBasisCount = 8;

/// Plain-data image of a MomentSet, byte-serializable by the on-disk
/// ProfileStore. Round-tripping a snapshot restores the accumulators
/// bit-identically — no replay, no recomputation — so a warm-started fit
/// from a loaded store matches the original run's fit exactly.
struct MomentSnapshot {
  std::uint64_t n = 0;
  std::array<double, kBasisCount * kBasisCount> gram{};
  std::array<double, kBasisCount> xty{};
  double yty = 0.0;
  std::array<double, kBasisCount * kBasisCount> wgram{};
  std::array<double, kBasisCount> wxty{};
  double wyty = 0.0;

  friend bool operator==(const MomentSnapshot&,
                         const MomentSnapshot&) = default;
};

class MomentSet {
 public:
  /// Rank-1 update with the observation (x, time). Mirrors the row the
  /// design-matrix path would append: phi_i = eval(term_i, x).
  void add(double x, double time);

  void clear();

  [[nodiscard]] std::size_t count() const { return n_; }

  /// (X^T X)[a][b], optionally with the 1/time weighting applied (the
  /// weighted fit solves X^T W^2 X c = X^T W^2 y with w = 1/max(t, 1e-9)).
  [[nodiscard]] double gram(BasisFn a, BasisFn b, bool weighted = false) const {
    const std::size_t i = static_cast<std::size_t>(a);
    const std::size_t j = static_cast<std::size_t>(b);
    return (weighted ? wgram_ : gram_)[i * kBasisCount + j];
  }
  /// (X^T y)[a].
  [[nodiscard]] double xty(BasisFn a, bool weighted = false) const {
    return (weighted ? wxty_ : xty_)[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] double yty(bool weighted = false) const {
    return weighted ? wyty_ : yty_;
  }
  /// Sum of observed times (the intercept row of X^T y).
  [[nodiscard]] double sum_y() const { return xty(BasisFn::kOne); }

  /// Bit-exact copy of the accumulator state (ProfileStore serialization).
  [[nodiscard]] MomentSnapshot snapshot() const;
  /// Replaces the accumulator state with a previously taken snapshot.
  void restore(const MomentSnapshot& snap);

  friend bool operator==(const MomentSet&, const MomentSet&) = default;

 private:
  std::size_t n_ = 0;
  std::array<double, kBasisCount * kBasisCount> gram_{};
  std::array<double, kBasisCount> xty_{};
  double yty_ = 0.0;
  std::array<double, kBasisCount * kBasisCount> wgram_{};
  std::array<double, kBasisCount> wxty_{};
  double wyty_ = 0.0;
};

}  // namespace plbhec::fit
