#include "plbhec/chaos/net_target.hpp"

#include <algorithm>

#include "plbhec/common/contracts.hpp"

namespace plbhec::chaos {

void NetFaultTarget::deliver(const FaultEvent& event) {
  PLBHEC_EXPECTS(event.unit < daemons_.size());
  net::WorkerDaemon* daemon = daemons_[event.unit];
  PLBHEC_EXPECTS(daemon != nullptr);  // local units are not behind the seam
  switch (event.kind) {
    case FaultKind::kKill:
      daemon->kill();
      break;
    case FaultKind::kFreeze:
    case FaultKind::kPartition:
      daemon->freeze();
      break;
    case FaultKind::kSlowDown:
      // factor is the fraction of nominal speed the unit keeps; the daemon
      // expresses that as a stretch of >= 1.
      daemon->set_slowdown(std::max(1.0, daemon->slowdown() / event.factor));
      break;
    case FaultKind::kLinkDegrade:
      PLBHEC_ASSERT(false && "rejected by supports()");
  }
}

ScriptPlayer::ScriptPlayer(FaultScript script, FaultTarget& target,
                           Options options)
    : script_(std::move(script)), target_(target),
      options_(std::move(options)) {
  PLBHEC_EXPECTS(validate(script_, target_));
  PLBHEC_EXPECTS(options_.time_scale > 0.0);
}

ScriptPlayer::~ScriptPlayer() { join(); }

void ScriptPlayer::start() {
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void ScriptPlayer::join() {
  if (thread_.joinable()) thread_.join();
}

void ScriptPlayer::run() {
  using Clock = std::chrono::steady_clock;
  if (options_.armed) {
    const auto give_up = Clock::now() + options_.arm_timeout;
    while (!options_.armed()) {
      if (Clock::now() >= give_up) {
        dropped_ = script_.events.size();
        return;
      }
      std::this_thread::sleep_for(options_.poll);
    }
  }
  const auto t0 = Clock::now();
  for (const auto& event : script_.sorted()) {
    if (options_.clock) {
      const auto give_up = Clock::now() + options_.arm_timeout;
      while (options_.clock() < event.time_s) {
        if (Clock::now() >= give_up) {
          dropped_ = script_.events.size() - delivered_;
          return;
        }
        std::this_thread::sleep_for(options_.poll);
      }
    } else {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(event.time_s *
                                                 options_.time_scale)));
    }
    target_.deliver(event);
    ++delivered_;
  }
}

}  // namespace plbhec::chaos
