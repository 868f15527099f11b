#pragma once
/// \file selection_memo.hpp
/// Exact, thread-safe memo of subset model selection. A long-running
/// service refits the same ordered sample sets over and over: every job of
/// one kind probes its units with the same block ladder, so most of its
/// `select_model_from` calls repeat inputs an earlier job already fitted
/// bit for bit. The memo maps those inputs to the stored FitResult.
///
/// Exactness: the key holds the bit pattern of every input the selection
/// reads — the ordered (x, time) samples, the candidate terms, every
/// SelectionOptions field and, whenever the options let the Gram path run,
/// the moment accumulators it reads. A lookup compares the whole key, never
/// just its hash. Selection is a deterministic function of those bits, so a
/// hit returns exactly the FitResult a fresh selection would compute.
///
/// Scope: one memo per service run (svc::JobManager::run()); it is handed
/// to the run's schedulers through core::PlbHecOptions::fit_memo. Entries
/// live packed in one word arena under fixed caps; reaching a cap flushes
/// the memo, which costs refits but never changes a result.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "plbhec/fit/least_squares.hpp"

namespace plbhec::fit {

class SelectionMemo {
 public:
  /// Most entries held at once.
  static constexpr std::size_t kMaxEntries = 1024;
  /// Most arena words (keys plus packed results) held at once: 512 KiB,
  /// about 450 entries of a 35-sample set. Hits cluster on recent entries
  /// (the jobs running now repeat the sets of the jobs just before them),
  /// so on the 10k-job service trace this cap costs ~12% more misses than
  /// an unbounded memo while keeping the memory flat.
  static constexpr std::size_t kMaxWords = std::size_t{1} << 16;

  /// select_model_from(samples, candidate_terms, options, counters),
  /// served from the memo when these exact inputs were selected before.
  /// A hit leaves `counters` untouched: no subset was solved.
  [[nodiscard]] FitResult select(const SampleSet& samples,
                                 std::span<const BasisFn> candidate_terms,
                                 const SelectionOptions& options,
                                 FitCounters* counters = nullptr);

  /// select() over the paper's basis set (fit::select_model).
  [[nodiscard]] FitResult select(const SampleSet& samples,
                                 const SelectionOptions& options,
                                 FitCounters* counters = nullptr);

  [[nodiscard]] std::size_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries currently stored.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t begin = 0;     ///< first key word in arena_
    std::uint32_t key_size = 0;  ///< key words; the packed result follows
  };
  /// Releases the arena mapping.
  struct Unmap {
    void operator()(std::uint64_t* words) const;
  };

  /// The stored entry whose key equals `key`, or null. Caller holds
  /// mutex_.
  [[nodiscard]] const Entry* find(std::span<const std::uint64_t> key,
                                  std::uint64_t hash) const;
  /// Stores `entry` (key_size key words, then the packed result). Caller
  /// holds mutex_.
  void insert(std::span<const std::uint64_t> entry, std::size_t key_size,
              std::uint64_t hash);
  void flush();

  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};

  mutable std::mutex mutex_;  ///< guards the arena, entries and slots
  /// Keys and packed results, kMaxWords long, mapped from the OS on first
  /// insert rather than taken from the heap: a half-megabyte block the heap
  /// reuses run after run fragments it and ratchets peak RSS upward.
  std::unique_ptr<std::uint64_t[], Unmap> arena_;
  std::size_t used_ = 0;  ///< arena words in use
  std::vector<Entry> entries_;
  /// Open-addressed hash table: entry index + 1, 0 = empty slot.
  std::vector<std::uint32_t> slots_;
};

}  // namespace plbhec::fit
