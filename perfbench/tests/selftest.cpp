// Self-tests of the benchmark's helpers. Exit code 0 when every check
// passes; each failure prints one line.

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "lib/spans.hpp"
#include "lib/stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_rank() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 1; i <= 10'000; ++i) v.push_back(i);
  // Nearest rank: p99.9 of 10k leaves exactly ten samples above it.
  check(percentile(v, 99.9) == 9'990.0, "p99.9 of 1..10000 is 9990");
  check(percentile(v, 50.0) == 5'000.0, "p50 of 1..10000 is 5000");
  check(percentile(v, 100.0) == 10'000.0, "p100 is the maximum");
  check(percentile(v, 0.0) == 1.0, "p0 is the minimum");
  check(percentile({3.0, 1.0, 2.0}, 50.0) == 2.0, "unsorted input");
  check(percentile({}, 50.0) == 0.0, "empty input gives 0");
  check(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  check(perfbench::median({5.0, 1.0, 3.0}) == 3.0, "odd median");
}

void self_time_nesting() {
  using perfbench::Span;
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
  // child [9, 12] that runs past the root; grandchild [2, 3] under the
  // first child.
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 0},
      {"child", 1.0, 4.0, 0, 1},
      {"child", 3.0, 6.0, 0, 2},
      {"tail", 9.0, 12.0, 0, 3},
      {"leaf", 2.0, 3.0, 1, 1},
  };
  const auto self = perfbench::self_times(spans);
  // Children cover [1, 6] and [9, 10] of the root: 6 of 10 seconds.
  check(near(self.at("root"), 4.0), "root self time subtracts merged kids");
  // First child 3 s minus leaf 1 s; second child 3 s.
  check(near(self.at("child"), 5.0), "child self time subtracts grandchild");
  check(near(self.at("leaf"), 1.0), "leaf self time is its duration");
  check(near(self.at("tail"), 3.0), "self time of a clipped child");
}

void step_fires_once() {
  std::atomic<int> actions{0};
  perfbench::StepTrigger step(3'000, [&] { actions.fetch_add(1); });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < 1'000; ++i) step.advance(1 + i % 3);
    });
  for (auto& t : threads) t.join();
  check(actions.load() == 1, "step action runs exactly once");
  check(step.fires() == 1, "step counts one firing");
  check(step.progress() == 4 * (334 * 1 + 333 * 2 + 333 * 3),
        "progress sums every advance");

  perfbench::StepTrigger never(SIZE_MAX, [&] { actions.fetch_add(1); });
  never.advance(1'000'000);
  check(never.fires() == 0, "an unreachable step never fires");

  perfbench::StepTrigger exact(10, {});
  exact.advance(9);
  check(exact.fires() == 0, "below the threshold");
  exact.advance(1);
  check(exact.fires() == 1, "reaching the threshold fires");
  exact.advance(50);
  check(exact.fires() == 1, "passing it again does not");
}

void failed_fraction() {
  perfbench::OpCount ops;
  check(ops.failed_frac() == 0.0, "nothing attempted gives 0");
  ops.add({40, 0});
  ops.add({60, 5});
  check(ops.attempted == 100 && ops.failed == 5, "counts add up");
  check(near(ops.failed_frac(), 0.05), "failed over attempted");
}

}  // namespace

int main() {
  percentile_rank();
  self_time_nesting();
  step_fires_once();
  failed_fraction();
  std::printf("%s (%d failed)\n",
              failures == 0 ? "selftest OK" : "selftest FAIL", failures);
  return failures == 0 ? 0 : 1;
}
