#pragma once
/// \file stats.hpp
/// Small numeric helpers shared by the benchmark program and its
/// self-tests: nearest-rank percentiles, operation counting and the
/// progress-keyed step trigger of the local_step workload.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, p in [0, 100]: the smallest sample with at
/// least p% of the samples at or below it. Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Median as the mean of the two middle samples (even count) or the middle
/// one; empty input gives 0.
[[nodiscard]] double median(std::vector<double> values);

/// Operations attempted and failed. Blocks for the engine workloads, jobs
/// for the service trace.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const OpCount& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  /// failed / attempted; 0 when nothing was attempted.
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Fires `action` exactly once, on the call to advance() that moves the
/// progress counter from below `threshold` to at or above it. Safe to
/// advance from several threads at once; the action runs on the thread
/// whose advance crossed the threshold.
class StepTrigger {
 public:
  StepTrigger(std::size_t threshold, std::function<void()> action)
      : threshold_(threshold), action_(std::move(action)) {}
  StepTrigger(const StepTrigger&) = delete;
  StepTrigger& operator=(const StepTrigger&) = delete;

  void advance(std::size_t amount) {
    const std::size_t before =
        progress_.fetch_add(amount, std::memory_order_acq_rel);
    if (before < threshold_ && before + amount >= threshold_) {
      fires_.fetch_add(1, std::memory_order_relaxed);
      if (action_) action_();
    }
  }

  [[nodiscard]] std::size_t progress() const {
    return progress_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t fires() const {
    return fires_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t threshold_;
  std::function<void()> action_;
  std::atomic<std::size_t> progress_{0};
  std::atomic<std::size_t> fires_{0};
};

}  // namespace perfbench
