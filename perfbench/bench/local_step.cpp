/// local_step: a ThreadEngine over three LocalExecUnits with heterogeneous
/// slowdowns runs the paper's Monte Carlo Black-Scholes instance under a
/// default PlbHecScheduler. When 30% of the grains have completed, the
/// fastest unit's slowdown steps 8x; the step is keyed on progress by the
/// unit decorator, never on a timer.

#include <cstring>

#include "bench/common.hpp"
#include "plbhec/apps/blackscholes.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace perfbench {
namespace {

namespace apps = plbhec::apps;
namespace core = plbhec::core;
namespace rt = plbhec::rt;

constexpr std::size_t kOptions = 2'000;
constexpr double kSlowdowns[] = {1.0, 1.5, 2.5};
constexpr std::size_t kUnits = std::size(kSlowdowns);
constexpr std::size_t kSteppedUnit = 0;
constexpr double kStepFactor = 8.0;
constexpr double kStepAt = 0.30;  ///< share of grains completed

apps::BlackScholesWorkload::Config instance(std::uint64_t seed) {
  apps::BlackScholesWorkload::Config config =
      apps::BlackScholesWorkload::paper_instance(kOptions);
  config.seed = seed;
  return config;
}

class LocalStep final : public BenchWorkload {
 public:
  explicit LocalStep(std::uint64_t seed) : seed_(seed) {
    // Single-threaded reference: one option per call keeps every
    // parallel_for below its grain, so it runs inline on this thread.
    apps::BlackScholesWorkload ref(instance(seed_));
    for (std::size_t i = 0; i < ref.total_grains(); ++i)
      ref.execute_cpu(i, i + 1);
    reference_ = ref.prices();
  }

  [[nodiscard]] unsigned compute_threads() const override { return kUnits; }

  [[nodiscard]] Rep run(SpanRecorder* recorder) override {
    Rep rep;
    const Clock::time_point setup_start = Clock::now();
    apps::BlackScholesWorkload workload(instance(seed_));
    const std::size_t total = workload.total_grains();

    // The progress trigger arms the step; the stepped unit applies it at
    // its next block boundary, so that whole block runs at the new speed.
    std::atomic<bool> armed{false};
    RunProbe probe(kUnits,
                   static_cast<std::size_t>(kStepAt *
                                            static_cast<double>(total)),
                   [&armed] { armed.store(true); });
    std::vector<std::unique_ptr<rt::ExecUnit>> units;
    std::vector<const TimedUnit*> timed;
    for (std::size_t u = 0; u < kUnits; ++u) {
      rt::LocalExecUnit::Options lo;
      lo.name = "host.cpu" + std::to_string(u);
      lo.slowdown = kSlowdowns[u];
      auto local = std::make_unique<rt::LocalExecUnit>(lo);
      rt::LocalExecUnit* raw = local.get();
      std::function<void()> step;
      if (u == kSteppedUnit)
        step = [raw, &armed] {
          if (armed.exchange(false))
            raw->set_slowdown(kStepFactor * kSlowdowns[kSteppedUnit]);
        };
      auto unit = std::make_unique<TimedUnit>(
          std::move(local), u, probe, [raw] { return raw->slowdown(); },
          std::move(step));
      timed.push_back(unit.get());
      units.push_back(std::move(unit));
    }
    rt::ThreadEngine engine(rt::ThreadEngineOptions{}, std::move(units));
    rep.setup_s = seconds_since(setup_start);

    run_engine(engine, workload, probe, timed, recorder, rep);
    if (rep.failure.empty() && probe.step.fires() != 1)
      rep.failure = "slowdown step fired " +
                    std::to_string(probe.step.fires()) + " times";
    if (rep.failure.empty() &&
        std::memcmp(workload.prices().data(), reference_.data(),
                    reference_.size() * sizeof(apps::OptionPrice)) != 0)
      rep.failure = "Black-Scholes prices differ from the reference";
    return rep;
  }

 private:
  std::uint64_t seed_;
  std::vector<apps::OptionPrice> reference_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_local_step(std::uint64_t seed) {
  return std::make_unique<LocalStep>(seed);
}

}  // namespace perfbench
