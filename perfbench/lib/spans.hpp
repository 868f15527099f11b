#pragma once
/// \file spans.hpp
/// In-memory span recorder for traced benchmark runs. A span is one timed
/// interval at a layer boundary: its name (the layer), start and end in
/// seconds since the recorder's epoch, the index of the span that caused it
/// (-1 for a root) and the id of the block it belongs to (0 = none). The
/// spans of one block share that id. Spans stay in memory until the run
/// ends and are written out as JSON lines afterwards.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t block = 0;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : epoch_(Clock::now()) {}

  /// Seconds since the recorder's epoch.
  [[nodiscard]] double now() const { return seconds(Clock::now()); }
  [[nodiscard]] double seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Appends a span; returns its index (usable as a child's parent).
  /// Thread-safe.
  std::int64_t add(Span span);

  /// Sets the end of a span added earlier with an open end (a root span
  /// that must exist before its children are recorded).
  void finish(std::int64_t id, double end);

  /// Snapshot of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes one JSON object per span; returns false on an I/O error.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children (children's intervals are merged, so
/// overlapping children are not subtracted twice, and clipped to the
/// parent), summed over every span of that name.
[[nodiscard]] std::map<std::string, double> self_times(
    const std::vector<Span>& spans);

}  // namespace perfbench
