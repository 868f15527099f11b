#pragma once
/// \file events.hpp
/// Typed observability events: the scheduler/runtime decisions that the
/// busy-segment trace (rt/trace.hpp) cannot show — probe rounds, fit
/// acceptance, interior-point re-solves, rebalance triggers, dispatches
/// and failures. Events are plain 48-byte records with a fixed payload
/// layout per kind (two doubles, two integers) so recording them is a
/// buffer append, never an allocation; the exporters in
/// obs/exporters.hpp give the payload fields their per-kind names.

#include <array>
#include <cstdint>

namespace plbhec::obs {

/// Unit field value for events not tied to a processing unit.
inline constexpr std::uint32_t kNoUnit = 0xffff'ffffu;

enum class EventKind : std::uint8_t {
  kProbeIssued,         ///< modeling-phase probe handed out
  kBlockDispatched,     ///< engine issued a task to a unit
  kModelFitted,         ///< per-unit performance model (re)fitted
  kSolve,               ///< block-size selection solve finished
  kRebalanceTriggered,  ///< execution-phase threshold sync declared
  kRefinement,          ///< barrier-free progressive refinement applied
  kPhaseChange,         ///< scheduler phase transition
  kBarrier,             ///< engine-level scheduler barrier reached
  kUnitFailed,          ///< permanent unit failure observed
  kWeightUpdate,        ///< HDSS per-unit weight revision
  kIterationSync,       ///< Acosta iteration boundary
  kJobAdmitted,         ///< service: job left the admission queue
  kJobCompleted,        ///< service: job finished its last grain
  kLeaseGranted,        ///< service: unit leased to a job
  kLeaseRevoked,        ///< service: unit lease taken back from a job
  kWarmStartHit,        ///< stored profile validated; probing shortened
  kWarmStartMiss,       ///< stored profile rejected; cold probing
  kMsgSent,             ///< net: frame written to a worker connection
  kMsgReceived,         ///< net: frame read from a worker connection
  kHeartbeatMissed,     ///< net: heartbeat ack overdue on a worker link
  kReconnect,           ///< net: reconnect attempt to a worker daemon
  kKernelDispatch,      ///< kdisp: a (kernel, width) slot resolved to an ISA
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kKernelDispatch) + 1;

/// One recorded decision. `time` is virtual (simulated) seconds, matching
/// the busy-segment trace timeline. The meaning of the payload fields
/// (a, b, i, j) depends on `kind`; see arg_names().
struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kBarrier;
  std::uint32_t unit = kNoUnit;
  double a = 0.0;
  double b = 0.0;
  std::uint64_t i = 0;
  std::uint64_t j = 0;
};

[[nodiscard]] const char* to_string(EventKind kind);

/// Exporter-facing names of the payload fields {a, b, i, j} for a kind;
/// nullptr marks an unused slot.
[[nodiscard]] std::array<const char*, 4> arg_names(EventKind kind);

}  // namespace plbhec::obs
