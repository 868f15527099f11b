#include "plbhec/fit/moments.hpp"

#include <algorithm>

namespace plbhec::fit {

void MomentSet::add(double x, double time) {
  std::array<double, kBasisCount> phi;
  for (std::size_t i = 0; i < kBasisCount; ++i)
    phi[i] = eval(static_cast<BasisFn>(i), x);

  // Same weight the design-matrix path applies to rows and rhs; the normal
  // equations therefore accumulate w^2.
  const double w = 1.0 / std::max(time, 1e-9);
  const double w2 = w * w;

  for (std::size_t i = 0; i < kBasisCount; ++i) {
    for (std::size_t j = i; j < kBasisCount; ++j) {
      const double p = phi[i] * phi[j];
      gram_[i * kBasisCount + j] += p;
      wgram_[i * kBasisCount + j] += w2 * p;
      if (j != i) {
        gram_[j * kBasisCount + i] = gram_[i * kBasisCount + j];
        wgram_[j * kBasisCount + i] = wgram_[i * kBasisCount + j];
      }
    }
    xty_[i] += phi[i] * time;
    wxty_[i] += w2 * phi[i] * time;
  }
  yty_ += time * time;
  wyty_ += w2 * time * time;
  ++n_;
}

void MomentSet::clear() { *this = MomentSet{}; }

MomentSnapshot MomentSet::snapshot() const {
  MomentSnapshot snap;
  snap.n = n_;
  snap.gram = gram_;
  snap.xty = xty_;
  snap.yty = yty_;
  snap.wgram = wgram_;
  snap.wxty = wxty_;
  snap.wyty = wyty_;
  return snap;
}

void MomentSet::restore(const MomentSnapshot& snap) {
  n_ = static_cast<std::size_t>(snap.n);
  gram_ = snap.gram;
  xty_ = snap.xty;
  yty_ = snap.yty;
  wgram_ = snap.wgram;
  wxty_ = snap.wxty;
  wyty_ = snap.wyty;
}

}  // namespace plbhec::fit
