// Scripted events for tests. Every simulator event rides a lane (sim::Lane)
// or a sim::Timer, so a test that wants "run this at that time" arms a
// one-shot timer. A Script keeps one Timer per event, armed once when the
// event is added: the event takes the FIFO seq of that moment, so events
// added at equal times fire in the order they were added, interleaved with
// lane entries and other timers by seq. Arming an idle timer only files a
// new heap handle, so scripted events never take the timer re-key path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/time.h"

namespace ccfuzz::sim {

/// One-shot events on a Simulator. A script must not outlive its simulator
/// (declare it after the simulator).
class Script {
 public:
  explicit Script(Simulator& sim) : sim_(sim) {}

  /// Runs `fn` at `t`; a time already past fires now.
  void at(TimeNs t, std::function<void()> fn) {
    add(std::move(fn)).arm_at(t);
  }
  /// Runs `fn` `delay` from now.
  void in(DurationNs delay, std::function<void()> fn) {
    add(std::move(fn)).arm(delay);
  }

 private:
  Timer& add(std::function<void()> fn) {
    return *timers_.emplace_back(std::make_unique<Timer>(sim_, std::move(fn)));
  }

  Simulator& sim_;
  std::vector<std::unique_ptr<Timer>> timers_;  // one per event, armed once
};

/// A reference for sim::Timer in differential tests: every arm() adds a
/// fresh scripted event carrying the arm()'s token, and an event whose token
/// is no longer current is stale and fires as a no-op. Stale events still
/// sit in the queue and still run, so the reference counts them for the
/// harness to subtract.
class ReferenceTimer {
 public:
  ReferenceTimer(Simulator& sim, std::function<void()> on_fire)
      : script_(sim), on_fire_(std::move(on_fire)) {}
  void arm(DurationNs delay) {
    cancel();
    pending_ = true;
    script_.in(delay, [this, token = token_] {
      if (token != token_) {
        --stale_pending_;
        ++stale_fired_;
        return;
      }
      pending_ = false;
      on_fire_();
    });
  }
  void cancel() {
    if (pending_) ++stale_pending_;
    pending_ = false;
    ++token_;
  }
  bool pending() const { return pending_; }

  /// Simulator::reset() discarded every event, stale ones included.
  void forget_events() {
    pending_ = false;
    ++token_;
    stale_pending_ = 0;
    stale_fired_ = 0;
  }
  /// Stale events still queued, and stale events run since the last reset.
  std::size_t stale_pending() const { return stale_pending_; }
  std::uint64_t stale_fired() const { return stale_fired_; }

 private:
  Script script_;
  std::function<void()> on_fire_;
  std::uint64_t token_ = 0;
  bool pending_ = false;
  std::size_t stale_pending_ = 0;
  std::uint64_t stale_fired_ = 0;
};

}  // namespace ccfuzz::sim
