// Test rig: one scenario::Dumbbell over its own storage, driven the way
// scenario::RunContext drives it — setup(), start(), run to the end.
#pragma once

#include <span>

#include "analysis/streaming_metrics.h"
#include "net/recorder.h"
#include "scenario/config.h"
#include "scenario/dumbbell.h"
#include "sim/simulator.h"
#include "tcp/congestion_control.h"

namespace ccfuzz::scenario {

struct DumbbellRig {
  sim::Simulator sim;
  net::BottleneckRecorder recorder;
  analysis::StreamingMetrics metrics;
  Dumbbell db{sim, recorder, metrics};

  /// Builds `cfg` (every flow without a CCA name runs `cca`) over `trace`
  /// and schedules it, leaving the clock at zero.
  Dumbbell& start(const ScenarioConfig& cfg, const tcp::CcaFactory& cca,
                  std::span<const TimeNs> trace = {}) {
    db.setup(cfg, cca, trace);
    db.start();
    return db;
  }

  /// start(), then runs the simulation to cfg.duration.
  Dumbbell& run(const ScenarioConfig& cfg, const tcp::CcaFactory& cca,
                std::span<const TimeNs> trace = {}) {
    start(cfg, cca, trace);
    sim.run_until(cfg.duration);
    return db;
  }
};

}  // namespace ccfuzz::scenario
