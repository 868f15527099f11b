#pragma once
/// \file decorators.hpp
/// Benchmark-side decorators over the library's two public seams. A
/// TimedUnit wraps one rt::ExecUnit and a TimedScheduler wraps one
/// rt::Scheduler; both forward every call unchanged. Untraced (timed) runs
/// use only the TimedUnit's progress counting, which the local_step
/// workload's slowdown step is keyed on. Traced runs also time every call
/// and record it as a span.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lib/spans.hpp"
#include "lib/stats.hpp"
#include "plbhec/rt/exec_unit.hpp"
#include "plbhec/rt/scheduler.hpp"

namespace perfbench {

/// State shared by the decorators of one engine run.
struct RunProbe {
  RunProbe(std::size_t units, std::size_t step_threshold,
           std::function<void()> step_action)
      : step(step_threshold, std::move(step_action)), pending_block(units) {}

  /// Completed grains; fires the workload's step (if any) once.
  StepTrigger step;
  std::atomic<std::uint64_t> blocks{0};  ///< execute() calls
  std::atomic<std::uint64_t> failed{0};  ///< execute() calls returning false
  /// Traced runs only: where spans go, and the run's root span.
  SpanRecorder* recorder = nullptr;
  std::int64_t run_span = -1;
  /// Block id handed out by the scheduler's latest positive next_block
  /// for each unit; the unit's execute() and the scheduler's on_complete()
  /// for that block share it.
  std::vector<std::atomic<std::uint64_t>> pending_block;
};

/// One executed block as a traced TimedUnit saw it.
struct BlockRecord {
  double start = 0.0;  ///< recorder seconds at the execute() call
  double end = 0.0;    ///< recorder seconds at its return
  std::size_t grains = 0;
  std::uint64_t block = 0;
  double slowdown = 1.0;  ///< unit slowdown factor when the block started
  plbhec::rt::BlockTiming timing;
};

class TimedUnit final : public plbhec::rt::ExecUnit {
 public:
  /// `slowdown` reads the unit's current slowdown factor (traced runs
  /// divide it out of the kernel time). `before_block`, if set, runs at
  /// the start of every execute() call, i.e. at the unit's block
  /// boundary.
  TimedUnit(std::unique_ptr<plbhec::rt::ExecUnit> inner, std::size_t id,
            RunProbe& probe, std::function<double()> slowdown,
            std::function<void()> before_block = {})
      : inner_(std::move(inner)),
        id_(id),
        probe_(probe),
        slowdown_(std::move(slowdown)),
        before_block_(std::move(before_block)) {}

  [[nodiscard]] plbhec::rt::UnitInfo describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] bool begin_run(plbhec::rt::Workload& workload) override {
    return inner_->begin_run(workload);
  }
  void end_run() override { inner_->end_run(); }

  [[nodiscard]] bool execute(plbhec::rt::Workload& workload, std::size_t begin,
                             std::size_t end,
                             plbhec::rt::BlockTiming& timing) override {
    if (before_block_) before_block_();
    SpanRecorder* const rec = probe_.recorder;
    BlockRecord r;
    if (rec != nullptr) {
      r.slowdown = slowdown_ ? slowdown_() : 1.0;
      r.block = probe_.pending_block[id_].load(std::memory_order_relaxed);
      r.start = rec->now();
    }
    const bool ok = inner_->execute(workload, begin, end, timing);
    probe_.blocks.fetch_add(1, std::memory_order_relaxed);
    if (ok) {
      probe_.step.advance(end - begin);
    } else {
      probe_.failed.fetch_add(1, std::memory_order_relaxed);
    }
    if (rec != nullptr) {
      r.end = rec->now();
      r.grains = end - begin;
      r.timing = timing;
      records_.push_back(r);
    }
    return ok;
  }

  /// Blocks this unit executed in traced runs (written by the unit's
  /// engine worker only; read after the run).
  [[nodiscard]] const std::vector<BlockRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  std::unique_ptr<plbhec::rt::ExecUnit> inner_;
  std::size_t id_;
  RunProbe& probe_;
  std::function<double()> slowdown_;
  std::function<void()> before_block_;
  std::vector<BlockRecord> records_;
};

/// Times every scheduler call. The engine makes them all under its mutex,
/// so the counters need no lock of their own.
class TimedScheduler final : public plbhec::rt::Scheduler {
 public:
  TimedScheduler(plbhec::rt::Scheduler& inner, RunProbe& probe)
      : inner_(inner), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void start(const std::vector<plbhec::rt::UnitInfo>& units,
             const plbhec::rt::WorkInfo& work) override {
    const Call call(*this, "core.start", 0);
    inner_.start(units, work);
  }

  [[nodiscard]] std::size_t next_block(plbhec::rt::UnitId unit,
                                       double now) override {
    Call call(*this, "core.next_block", 0);
    const std::size_t grains = inner_.next_block(unit, now);
    if (grains > 0) {
      call.block = ++last_block_;
      probe_.pending_block[unit].store(call.block, std::memory_order_relaxed);
    }
    return grains;
  }

  void on_complete(const plbhec::rt::TaskObservation& obs) override {
    const Call call(
        *this, "core.on_complete",
        probe_.pending_block[obs.unit].load(std::memory_order_relaxed));
    inner_.on_complete(obs);
  }

  void on_barrier(double now) override {
    const Call call(*this, "core.on_barrier", 0);
    inner_.on_barrier(now);
  }

  void on_unit_failed(plbhec::rt::UnitId unit, std::size_t lost_grains,
                      double now) override {
    const Call call(*this, "core.on_unit_failed", 0);
    inner_.on_unit_failed(unit, lost_grains, now);
  }

  /// Duration of every call, in seconds.
  [[nodiscard]] const std::vector<double>& call_seconds() const {
    return call_seconds_;
  }

 private:
  /// Times one forwarded call and records it as a span on destruction.
  struct Call {
    Call(TimedScheduler& s, const char* name, std::uint64_t blk)
        : self(s), span_name(name), block(blk),
          t0(SpanRecorder::Clock::now()) {}
    ~Call() {
      const auto t1 = SpanRecorder::Clock::now();
      self.call_seconds_.push_back(
          std::chrono::duration<double>(t1 - t0).count());
      if (SpanRecorder* rec = self.probe_.recorder)
        rec->add({span_name, rec->seconds(t0), rec->seconds(t1),
                  self.probe_.run_span, block});
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

    TimedScheduler& self;
    const char* span_name;
    std::uint64_t block;
    SpanRecorder::Clock::time_point t0;
  };

  plbhec::rt::Scheduler& inner_;
  RunProbe& probe_;
  std::uint64_t last_block_ = 0;
  std::vector<double> call_seconds_;
};

}  // namespace perfbench
