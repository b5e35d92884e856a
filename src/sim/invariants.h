// Runtime invariant oracle: an armed-flag violation recorder that the
// scenario runner consults during and after a simulation (packet
// conservation across pipes/queue/link/receivers, cwnd >= 1 MSS, non-negative
// inflight/timestamps, SACK scoreboard consistency).
//
// The recorder lives inside scenario::RunResult so triage can read it off a
// finished run. Disarmed (the default) it is inert: nothing is scheduled,
// nothing is recorded, the violation vector stays empty — which keeps golden
// fingerprints bit-identical and the steady-state hot path allocation-free.
// Armed runs are the diagnostic opt-in the finding-triage pipeline uses to
// tell a CCA weakness apart from a simulator bug before a finding ships.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/time.h"

namespace ccfuzz::sim {

/// One failed invariant check: when it tripped and what was violated.
struct InvariantViolation {
  TimeNs when = TimeNs::zero();
  std::string what;
};

/// Capped violation recorder. `total()` counts every failed check; only the
/// first kMaxRecorded carry a message (a broken conservation law tends to
/// trip on every subsequent audit, and the first occurrences are the ones
/// that matter for attribution).
class Invariants {
 public:
  static constexpr std::size_t kMaxRecorded = 32;

  /// Re-arms (or disarms) the recorder for a fresh run. Disarming clears an
  /// already-empty vector, so warm disarmed runs allocate nothing.
  void reset(bool armed) {
    armed_ = armed;
    total_ = 0;
    violations_.clear();
  }

  bool armed() const { return armed_; }

  /// Records a violation unconditionally (caller already evaluated the
  /// condition). No-op when disarmed.
  void record(TimeNs when, std::string what) {
    if (!armed_) return;
    ++total_;
    if (violations_.size() < kMaxRecorded) {
      violations_.push_back({when, std::move(what)});
    }
  }

  /// Records a violation when `ok` is false. No-op when disarmed.
  void check(bool ok, TimeNs when, const char* what) {
    if (ok || !armed_) return;
    record(when, std::string(what));
  }

  /// True when no check failed (vacuously true disarmed).
  bool clean() const { return total_ == 0; }

  /// Every failed check, including those past the recording cap.
  std::int64_t total() const { return total_; }

  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }

 private:
  bool armed_ = false;
  std::int64_t total_ = 0;
  std::vector<InvariantViolation> violations_;
};

}  // namespace ccfuzz::sim
