#include "plbhec/fit/selection_memo.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>

namespace plbhec::fit {
namespace {

// The key packs SelectionOptions field by field; a new field must join it.
static_assert(sizeof(SelectionOptions) == 48,
              "SelectionOptions changed: update pack_key()");

constexpr std::size_t kSlots = 2 * SelectionMemo::kMaxEntries;
static_assert(std::has_single_bit(kSlots));

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t w) { return std::bit_cast<double>(w); }

/// Appends `fns` eight to a word, one byte each.
void pack_terms(std::span<const BasisFn> fns, std::vector<std::uint64_t>& out) {
  for (std::size_t i = 0; i < fns.size(); i += 8) {
    std::uint64_t w = 0;
    for (std::size_t j = i; j < std::min(i + 8, fns.size()); ++j)
      w |= static_cast<std::uint64_t>(fns[j]) << (8 * (j - i));
    out.push_back(w);
  }
}

void unpack_terms(const std::uint64_t* in, std::size_t count,
                  std::vector<BasisFn>& fns) {
  fns.resize(count);
  for (std::size_t j = 0; j < count; ++j)
    fns[j] = static_cast<BasisFn>((in[j / 8] >> (8 * (j % 8))) & 0xff);
}

template <std::size_t N>
void append(const std::array<double, N>& values,
            std::vector<std::uint64_t>& out) {
  for (const double v : values) out.push_back(bits(v));
}

/// Every input select_model_from reads, as bit patterns. The moments enter
/// only when the options let a subset fit take the Gram path, and their
/// 1/time-weighted half only under relative weighting: the QR path never
/// reads them, and the Gram path reads the weighted half only to solve a
/// weighted fit.
void pack_key(const SampleSet& samples, std::span<const BasisFn> candidates,
              const SelectionOptions& o, std::vector<std::uint64_t>& key) {
  const std::size_t n = samples.size();
  const bool gram = o.engine == FitEngine::kGram ||
                    (o.engine == FitEngine::kAuto && n >= kGramMinSamples);
  std::uint64_t flags = candidates.size();
  flags |= std::uint64_t{o.include_intercept} << 32;
  flags |= std::uint64_t{o.relative_weighting} << 33;
  flags |= std::uint64_t{o.physical_filter} << 34;
  flags |= static_cast<std::uint64_t>(o.engine) << 40;
  key.clear();
  key.push_back(n);
  key.push_back(flags);
  key.push_back(bits(o.r2_threshold));
  key.push_back(bits(o.class_r2));
  key.push_back(o.max_terms);
  key.push_back(o.samples_per_param);
  pack_terms(candidates, key);
  for (const Sample& s : samples.items()) {
    key.push_back(bits(s.x));
    key.push_back(bits(s.time));
  }
  if (!gram) return;
  const MomentSnapshot m = samples.moments().snapshot();
  append(m.gram, key);
  append(m.xty, key);
  key.push_back(bits(m.yty));
  if (o.relative_weighting) {
    append(m.wgram, key);
    append(m.wxty, key);
  }
}

std::uint64_t hash_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ words.size();
  for (const std::uint64_t w : words) {
    h = (h ^ w) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

/// Packed FitResult: a header word (term count, coefficient count,
/// acceptable), r2, bic, model.r2, the terms a byte each, then the
/// coefficients.
void pack_result(const FitResult& r, std::vector<std::uint64_t>& out) {
  const CurveModel& m = r.model;
  std::uint64_t header = m.terms.size();
  header |= m.coefficients.size() << 16;
  header |= std::uint64_t{r.acceptable} << 32;
  out.push_back(header);
  out.push_back(bits(r.r2));
  out.push_back(bits(r.bic));
  out.push_back(bits(m.r2));
  pack_terms(m.terms, out);
  for (const double c : m.coefficients) out.push_back(bits(c));
}

FitResult unpack_result(const std::uint64_t* in) {
  FitResult r;
  const std::size_t terms = in[0] & 0xffff;
  const std::size_t coefficients = (in[0] >> 16) & 0xffff;
  r.acceptable = (in[0] >> 32) & 1;
  r.r2 = from_bits(in[1]);
  r.bic = from_bits(in[2]);
  r.model.r2 = from_bits(in[3]);
  unpack_terms(in + 4, terms, r.model.terms);
  const std::uint64_t* c = in + 4 + (terms + 7) / 8;
  r.model.coefficients.resize(coefficients);
  for (std::size_t j = 0; j < coefficients; ++j)
    r.model.coefficients[j] = from_bits(c[j]);
  return r;
}

}  // namespace

FitResult SelectionMemo::select(const SampleSet& samples,
                                std::span<const BasisFn> candidate_terms,
                                const SelectionOptions& options,
                                FitCounters* counters) {
  thread_local std::vector<std::uint64_t> key;
  pack_key(samples, candidate_terms, options, key);
  const std::uint64_t hash = hash_words(key);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const Entry* e = find(key, hash)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return unpack_result(arena_.get() + e->begin + e->key_size);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  FitResult result =
      select_model_from(samples, candidate_terms, options, counters);
  const std::size_t key_size = key.size();
  pack_result(result, key);  // the entry: key words, then the result
  const std::lock_guard<std::mutex> lock(mutex_);
  // Another lane may have selected the same inputs meanwhile; the results
  // are bit-identical, so the first stored one stays.
  const std::span<const std::uint64_t> entry(key);
  if (!find(entry.first(key_size), hash)) insert(entry, key_size, hash);
  return result;
}

FitResult SelectionMemo::select(const SampleSet& samples,
                                const SelectionOptions& options,
                                FitCounters* counters) {
  return select(samples, paper_terms(), options, counters);
}

std::size_t SelectionMemo::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

const SelectionMemo::Entry* SelectionMemo::find(
    std::span<const std::uint64_t> key, std::uint64_t hash) const {
  if (slots_.empty()) return nullptr;
  for (std::size_t s = hash & (kSlots - 1);; s = (s + 1) & (kSlots - 1)) {
    if (slots_[s] == 0) return nullptr;
    const Entry& e = entries_[slots_[s] - 1];
    if (e.hash == hash && e.key_size == key.size() &&
        std::equal(key.begin(), key.end(), arena_.get() + e.begin))
      return &e;
  }
}

void SelectionMemo::insert(std::span<const std::uint64_t> entry,
                           std::size_t key_size, std::uint64_t hash) {
  if (entry.size() > kMaxWords / 64) return;  // a giant set must not flush
  if (entries_.size() == kMaxEntries || used_ + entry.size() > kMaxWords)
    flush();
  if (!arena_) {
    void* words = mmap(nullptr, kMaxWords * sizeof(std::uint64_t),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (words == MAP_FAILED) return;  // memoize nothing; results unchanged
    arena_.reset(static_cast<std::uint64_t*>(words));
    entries_.reserve(kMaxEntries);
    slots_.assign(kSlots, 0);
  }

  entries_.push_back({hash, static_cast<std::uint32_t>(used_),
                      static_cast<std::uint32_t>(key_size)});
  std::copy(entry.begin(), entry.end(), arena_.get() + used_);
  used_ += entry.size();

  // The table is at most half full, so the probe ends at an empty slot.
  std::size_t s = hash & (kSlots - 1);
  while (slots_[s] != 0) s = (s + 1) & (kSlots - 1);
  slots_[s] = static_cast<std::uint32_t>(entries_.size());
}

void SelectionMemo::flush() {
  used_ = 0;
  entries_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

void SelectionMemo::Unmap::operator()(std::uint64_t* words) const {
  munmap(words, kMaxWords * sizeof(std::uint64_t));
}

}  // namespace plbhec::fit
