// The Simulator owns the virtual clock and event queue and drives a single
// deterministic run. Every event rides a lane (sim::Lane, see
// event_queue.h): a packet path, the cross-traffic schedule, or a Timer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "sim/budget.h"
#include "sim/event_queue.h"
#include "util/time.h"

namespace ccfuzz::sim {

/// A single-threaded discrete-event simulation. Components hold a reference
/// and register lanes or timers; run_until() advances the virtual clock.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimeNs now() const { return now_; }

  /// The event queue, for registering FIFO event sources (sim::Lane). Lane
  /// owners push entries no earlier than now().
  EventQueue& events() { return queue_; }

  /// Runs events until the queue is exhausted or the clock would pass
  /// `deadline`; the clock is left at min(deadline, last event time).
  /// Returns the number of events executed.
  std::uint64_t run_until(TimeNs deadline);

  /// Runs until the queue drains completely.
  std::uint64_t run_all() { return run_until(TimeNs::infinite()); }

  /// Total events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Arms run guards for subsequent run_until() calls. Unarmed (default) or
  /// unhit guards leave execution bit-identical: the event limit is a single
  /// integer compare per event against a limit that defaults to UINT64_MAX,
  /// and the wall clock is only sampled (every 4096 events) when a wall
  /// budget is armed. Budget::max_sim_time is enforced by callers that own
  /// the deadline (scenario::RunContext caps the run deadline), not here.
  void arm_budget(const Budget& b);

  /// Why the last run_until() stopped early (kNone if it didn't). Sticky
  /// across run_until() calls until reset() or arm_budget().
  TruncationReason truncation() const { return truncation_; }

  /// Returns the simulator to its initial state (clock at zero, no pending
  /// events, every lane empty, budget disarmed) while keeping the event
  /// queue's capacity, so a reused simulator
  /// (scenario::RunContext) runs without allocator traffic.
  void reset() {
    queue_.reset();
    now_ = TimeNs::zero();
    executed_ = 0;
    event_limit_ = UINT64_MAX;
    wall_deadline_ns_ = -1;
    truncation_ = TruncationReason::kNone;
  }

 private:
  EventQueue queue_;
  TimeNs now_ = TimeNs::zero();
  std::uint64_t executed_ = 0;
  std::uint64_t event_limit_ = UINT64_MAX;      // absolute, vs executed_
  std::int64_t wall_deadline_ns_ = -1;          // monotonic ns; -1 = unarmed
  TruncationReason truncation_ = TruncationReason::kNone;
};

/// A restartable one-shot timer bound to a Simulator. Re-arming replaces
/// any pending expiry. Used for RTO, delayed-ACK, pacing release, the
/// bottleneck links' next service opportunity or transmit-done, flow start
/// and stop, and the armed invariant audits.
///
/// The timer is a one-entry event lane (see "Timers" in event_queue.h): each
/// arm() takes a fresh FIFO seq, so equal-timestamp execution order — and
/// thus the golden fingerprints — is fixed by the moment of the arm(), while
/// a re-arm to a later time (the RTO, restarted on every cumulative ACK)
/// files no new heap handle. A destroyed timer deregisters, so a pending
/// expiry never fires into a dead owner.
class Timer final : private Lane {
 public:
  Timer(Simulator& sim, std::function<void()> on_fire)
      : Lane(sim.events()), sim_(sim), on_fire_(std::move(on_fire)) {}

  /// (Re)arms the timer to fire `delay` from now; a negative delay fires
  /// now.
  void arm(DurationNs delay) { arm_at(sim_.now() + delay); }

  /// (Re)arms the timer to fire at `at`; a time already past fires now, so
  /// the clock never runs backwards.
  void arm_at(TimeNs at) { rearm(std::max(at, sim_.now())); }

  /// Stops the timer if pending.
  void cancel() { discard(); }

  /// True if armed and not yet fired.
  bool pending() const { return Lane::pending() != 0; }

 private:
  void fire() override {
    drained();
    on_fire_();
  }
  void clear() override {}  // the queue holds all of the timer's state

  Simulator& sim_;
  std::function<void()> on_fire_;
};

}  // namespace ccfuzz::sim
