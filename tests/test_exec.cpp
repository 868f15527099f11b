// Tests for the shared execution backbone: the packed GEMM micro-kernel
// against a naive reference on adversarial shapes, the row-streaming
// path's bit-identity with the packed one, the persistent work-stealing
// pool (nesting, exceptions, tiny pools), the reusable WorkerSet, and the
// ThreadEngine regression that probe samples exclude thread startup.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/exec/gemm_micro.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/exec/worker_set.hpp"
#include "plbhec/kdisp/isa.hpp"
#include "plbhec/kdisp/kernels.hpp"
#include "plbhec/kdisp/registry.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace plbhec::exec {
namespace {

// ---- Packed GEMM vs. naive reference ---------------------------------------

void naive_gemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
                const double* b, double* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] += a[i * k + kk] * b[kk * n + j];
}

void expect_gemm_matches(std::size_t m, std::size_t n, std::size_t k) {
  Rng rng(m * 131 + n * 17 + k);
  std::vector<double> a(m * k), b(k * n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  // Pre-filled C checks the accumulate (C +=) semantics too.
  std::vector<double> expected(m * n), actual;
  for (auto& v : expected) v = rng.uniform(-1.0, 1.0);
  actual = expected;
  naive_gemm(m, n, k, a.data(), b.data(), expected.data());
  gemm_packed(m, n, k, a.data(), b.data(), actual.data());
  for (std::size_t i = 0; i < m * n; ++i)
    ASSERT_NEAR(actual[i], expected[i], 1e-9)
        << "m=" << m << " n=" << n << " k=" << k << " at " << i;
}

TEST(GemmPacked, OddAndPrimeSquareSizes) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 7u, 11u, 17u, 31u, 64u, 97u, 129u})
    expect_gemm_matches(n, n, n);
}

TEST(GemmPacked, RectangularShapes) {
  expect_gemm_matches(1, 8, 3);
  expect_gemm_matches(5, 1, 9);
  expect_gemm_matches(3, 17, 1);   // k = 1
  expect_gemm_matches(2, 3, 64);
  expect_gemm_matches(4, 8, 259);  // crosses the KC panel boundary
  expect_gemm_matches(13, 40, 7);
}

TEST(GemmPacked, EmptyDimensionsAreNoOps) {
  std::vector<double> a{1.0}, b{2.0}, c{5.0};
  gemm_packed(0, 1, 1, a.data(), b.data(), c.data());
  gemm_packed(1, 0, 1, a.data(), b.data(), c.data());
  gemm_packed(1, 1, 0, a.data(), b.data(), c.data());
  EXPECT_DOUBLE_EQ(c[0], 5.0);
}

TEST(GemmPacked, ParallelMatchesSerialIncludingSmallM) {
  ThreadPool pool(3);
  for (const auto [m, n, k] :
       {std::array<std::size_t, 3>{2, 97, 53},   // m < lanes
        std::array<std::size_t, 3>{129, 64, 31},
        std::array<std::size_t, 3>{100, 100, 100}}) {
    Rng rng(m + n + k);
    std::vector<double> a(m * k), b(k * n);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> c1(m * n, 0.0), c2(m * n, 0.0);
    gemm_packed(m, n, k, a.data(), b.data(), c1.data());
    gemm_packed_parallel(m, n, k, a.data(), b.data(), c2.data(), pool);
    for (std::size_t i = 0; i < m * n; ++i) ASSERT_DOUBLE_EQ(c1[i], c2[i]);
  }
}

// ---- Row-streaming path: bit-identical to the packed kernel -----------------
//
// gemm_packed streams B row by row for m < 2*MR and packs otherwise. Every
// C element's op sequence is the same on both paths, so the product of a
// row never depends on how many rows the call carries. Each case runs
// under the forced-scalar ceiling and under the default one.

std::vector<double> random_vector(std::size_t size, Rng& rng) {
  std::vector<double> v(size);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::uint64_t gemm_rows_lookups() {
  std::uint64_t lookups = 0;
  for (const kdisp::DispatchRecord& r :
       kdisp::KernelRegistry::instance().resolved())
    if (r.kernel == kdisp::kGemmRowsKernel) lookups += r.lookups;
  return lookups;
}

class GemmRowsIdentity : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam())
      previous_ =
          kdisp::set_effective_isa_for_testing(kdisp::IsaClass::kScalar);
  }
  void TearDown() override {
    if (previous_.has_value())
      kdisp::set_effective_isa_for_testing(*previous_);
  }

 private:
  std::optional<kdisp::IsaClass> previous_;
};

TEST_P(GemmRowsIdentity, StreamingEqualsPackedBitwise) {
  const std::uint64_t lookups_before = gemm_rows_lookups();
  // A packed call on m + 2*MR rows yields the packed product of the first
  // m rows: rows never interact, and m + 8 rows is past the streaming
  // threshold.
  constexpr std::size_t kPad = 8;
  Rng rng(0x57ea);
  // 19 and 301 are wide (vector variants) with column tails; 301 also
  // ends in a partial column block.
  for (const std::size_t n : {1u, 3u, 7u, 8u, 13u, 19u, 64u, 301u, 1024u}) {
    for (const std::size_t k : {1u, 3u, 255u, 256u, 257u, 600u}) {
      const std::vector<double> b = random_vector(k * n, rng);
      for (std::size_t m = 1; m < 8; ++m) {
        const std::vector<double> a = random_vector((m + kPad) * k, rng);
        std::vector<double> packed = random_vector((m + kPad) * n, rng);
        std::vector<double> streamed(packed.begin(), packed.begin() + m * n);
        gemm_packed(m + kPad, n, k, a.data(), b.data(), packed.data());
        gemm_packed(m, n, k, a.data(), b.data(), streamed.data());
        ASSERT_EQ(std::memcmp(streamed.data(), packed.data(),
                              m * n * sizeof(double)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
  // Signed zeros: a zero A row over mixed-sign B gives +0 and -0
  // products. Both paths start each accumulator at +0, so with k = 1 a -0
  // in C must end as +0 even where the product is -0.
  {
    constexpr std::size_t m = 3, n = 64, k = 1;
    const std::vector<double> a((m + kPad) * k, 0.0);
    const std::vector<double> b = random_vector(k * n, rng);
    std::vector<double> packed((m + kPad) * n, -0.0);
    std::vector<double> streamed(m * n, -0.0);
    gemm_packed(m + kPad, n, k, a.data(), b.data(), packed.data());
    gemm_packed(m, n, k, a.data(), b.data(), streamed.data());
    EXPECT_EQ(
        std::memcmp(streamed.data(), packed.data(), m * n * sizeof(double)),
        0);
  }
  // The streaming path really ran (it resolves gemm_rows per call).
  EXPECT_GT(gemm_rows_lookups(), lookups_before);
}

TEST_P(GemmRowsIdentity, RowSplitsEqualOneCall) {
  Rng rng(0x5b1);
  for (const auto [m, n, k] : {std::array<std::size_t, 3>{40, 64, 300},
                               std::array<std::size_t, 3>{40, 1024, 257},
                               std::array<std::size_t, 3>{23, 13, 600}}) {
    const std::vector<double> a = random_vector(m * k, rng);
    const std::vector<double> b = random_vector(k * n, rng);
    const std::vector<double> c0 = random_vector(m * n, rng);
    std::vector<double> whole = c0;
    gemm_packed(m, n, k, a.data(), b.data(), whole.data());
    for (int split = 0; split < 8; ++split) {
      std::vector<double> pieces = c0;
      for (std::size_t i = 0; i < m;) {
        // Mixed sizes on both sides of the threshold: 1..12 rows.
        const std::size_t rows =
            std::min(m - i, static_cast<std::size_t>(rng.uniform_int(1, 12)));
        gemm_packed(rows, n, k, a.data() + i * k, b.data(),
                    pieces.data() + i * n);
        i += rows;
      }
      ASSERT_EQ(
          std::memcmp(pieces.data(), whole.data(), m * n * sizeof(double)), 0)
          << "m=" << m << " n=" << n << " k=" << k << " split " << split;
    }
  }
}

TEST_P(GemmRowsIdentity, MatMulRowBlocksEqualOneBlock) {
  constexpr std::size_t kN = 256;
  apps::MatMulWorkload rows(kN, /*materialize=*/true);
  apps::MatMulWorkload whole(kN, /*materialize=*/true);
  for (std::size_t i = 0; i < kN; ++i) rows.execute_cpu(i, i + 1);
  whole.execute_cpu(0, kN);
  ASSERT_EQ(std::memcmp(rows.result().data(), whole.result().data(),
                        kN * kN * sizeof(double)),
            0);
}

INSTANTIATE_TEST_SUITE_P(Ceilings, GemmRowsIdentity, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ForcedScalar" : "Default";
                         });

// ---- Work-stealing pool -----------------------------------------------------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 100'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t outer = lo; outer < hi; ++outer)
      pool.parallel_for(0, 64, 4, [&](std::size_t ilo, std::size_t ihi) {
        total.fetch_add(ihi - ilo, std::memory_order_relaxed);
      });
  });
  EXPECT_EQ(total.load(), 8u * 64u);

  // Submitted tasks as the outer shape: workers enqueue the nested chunks
  // onto their own deques while peers steal them. Many rounds, so a
  // publication race between push() and steal() has room to show (under
  // TSan, as a report).
  constexpr std::size_t kRounds = 200;
  total.store(0);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (int task = 0; task < 8; ++task)
      pool.submit([&] {
        pool.parallel_for(0, 64, 4, [&](std::size_t ilo, std::size_t ihi) {
          total.fetch_add(ihi - ilo, std::memory_order_relaxed);
        });
      });
    pool.wait_idle();
  }
  EXPECT_EQ(total.load(), kRounds * 8u * 64u);
}

TEST(ThreadPool, OneWorkerPoolCompletes) {
  ThreadPool pool(1);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 1000, 7, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id executed;
  pool.parallel_for(0, 10, 1, [&](std::size_t, std::size_t) {
    executed = std::this_thread::get_id();
  });
  EXPECT_EQ(executed, caller);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after an exception drained the region.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&] {
      for (int r = 0; r < 50; ++r)
        pool.parallel_for(0, 256, 16, [&](std::size_t lo, std::size_t hi) {
          total.fetch_add(hi - lo, std::memory_order_relaxed);
        });
    });
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4u * 50u * 256u);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, StressManySmallRegions) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int r = 0; r < 2000; ++r)
    pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 2000u * 8u);
}

// ---- WorkerSet --------------------------------------------------------------

TEST(WorkerSet, RunsEveryIndexEachRound) {
  WorkerSet set(4, /*pin=*/false);
  std::vector<std::atomic<int>> counts(4);
  for (int round = 0; round < 3; ++round)
    set.run([&](std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(counts[i].load(), 3);
}

TEST(WorkerSet, ThreadsCreatedOnceAcrossRounds) {
  WorkerSet set(3, /*pin=*/false);
  EXPECT_EQ(set.threads_created(), 3u);
  for (int round = 0; round < 5; ++round) set.run([](std::size_t) {});
  EXPECT_EQ(set.threads_created(), 3u);  // no per-round spawning
}

// ---- ThreadEngine regression: probes exclude thread startup -----------------

class CountingScheduler final : public rt::Scheduler {
 public:
  std::string name() const override { return "counting"; }
  void start(const std::vector<rt::UnitInfo>&, const rt::WorkInfo&) override {}
  std::size_t next_block(rt::UnitId, double) override { return 100; }
  void on_complete(const rt::TaskObservation& obs) override {
    observations.push_back(obs);
  }
  std::vector<rt::TaskObservation> observations;
};

TEST(ThreadEngine, UnitWorkersPersistAcrossRuns) {
  apps::SyntheticWorkload::Config cfg;
  cfg.grains = 500;
  cfg.spin_iters_per_grain = 20;
  rt::ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 1.5};
  rt::ThreadEngine engine(opts);

  // The unit workers exist before any run: the first probe block of a run
  // is timed on an already-parked thread, so the F_p(x) samples fitted in
  // Phase 1 contain no OS thread-creation latency.
  EXPECT_EQ(engine.worker_threads_created(), 2u);

  apps::SyntheticWorkload w1(cfg), w2(cfg);
  CountingScheduler s1, s2;
  const rt::RunResult r1 = engine.run(w1, s1);
  const rt::RunResult r2 = engine.run(w2, s2);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;

  // Reusing the engine spawned no further threads.
  EXPECT_EQ(engine.worker_threads_created(), 2u);

  // RunResult contract unchanged: every grain accounted, observations
  // carry strictly positive kernel timings.
  for (const rt::RunResult* r : {&r1, &r2}) {
    std::size_t done = 0;
    for (const auto& s : r->unit_stats) done += s.grains;
    EXPECT_EQ(done, cfg.grains);
  }
  for (const auto& obs : s1.observations) EXPECT_GT(obs.exec_seconds, 0.0);
}

}  // namespace
}  // namespace plbhec::exec
