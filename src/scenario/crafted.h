// Deterministic construction of the paper's adversarial traces.
//
// The GA discovers these patterns (§4); for regression tests and figure
// benches we also build them constructively. Because the simulator is
// deterministic, a trace can be crafted iteratively: run the scenario,
// read the event log to find when the pinned head segment is
// retransmitted, add a cross-traffic burst that kills that retransmission,
// and repeat. The result is the §4.1 BBR stall train (a first burst that
// opens a hole plus one burst per retransmission of the head, ~min-RTO
// apart — the shape visible in Fig 4a) or the §4.3 low-rate "shrew" train
// against Reno.
#pragma once

#include <vector>

#include "scenario/config.h"
#include "scenario/runner.h"
#include "tcp/congestion_control.h"
#include "util/time.h"

namespace ccfuzz::scenario::crafted {

/// Parameters for the iterative retransmission-killer construction.
struct KillerConfig {
  /// When the first burst lands (the CCA should be out of slow start).
  TimeNs first_burst = TimeNs::seconds(2);
  /// Packets per burst; one queue's worth guarantees the arriving
  /// (re)transmission finds the gateway full.
  int burst_packets = 60;
  /// Kill bursts land this far before the targeted retransmission is sent,
  /// so the gateway is saturated when it arrives. Must stay below the
  /// feedback delay (one bottleneck+ACK round trip) so the injection does
  /// not perturb the sender before the targeted instant.
  DurationNs burst_lead = DurationNs::millis(2);
  /// Maximum crafting iterations (bursts added).
  int max_bursts = 8;
  /// Stop adding bursts once the flow is dead for this long at the tail.
  DurationNs dead_tail = DurationNs::seconds(1);
};

/// Result of the iterative construction.
struct CraftResult {
  std::vector<TimeNs> trace;   ///< cross-traffic injection times
  scenario::RunResult final_run;
  /// Sequence number of the head segment the bursts keep killing.
  std::int64_t pinned_seq = -1;
  int bursts = 0;
};

/// Builds a retransmission-killer cross-traffic trace against `cca` on the
/// given (traffic-mode) scenario: burst #1 opens a hole; every subsequent
/// burst is timed, via deterministic re-simulation, to land exactly when
/// the head segment's next (re)transmission reaches the gateway. Against
/// BBR this reproduces the §4.1 permanent stall; against Reno/CUBIC it
/// reproduces the §4.3 low-rate attack lockout.
CraftResult craft_retransmission_killer(const ScenarioConfig& cfg,
                                        const tcp::CcaFactory& cca,
                                        const KillerConfig& kcfg = {});

/// The classic shrew pattern (§4.3): periodic bursts at a fixed period
/// (≈ the victim's min-RTO) starting at `first_burst`. No simulation
/// feedback — the open-loop version of the attack from [13].
std::vector<TimeNs> shrew_trace(TimeNs first_burst, DurationNs period,
                                int burst_packets, TimeNs until);

/// Fig 4e's pattern: fill the queue just before the flow starts at `start`
/// (so the CCA never sees the true minimum RTT), then re-fill periodically
/// to keep a standing queue.
std::vector<TimeNs> standing_queue_trace(TimeNs start,
                                         std::size_t queue_capacity,
                                         DurationNs refill_period,
                                         int refill_packets, TimeNs until);

}  // namespace ccfuzz::scenario::crafted
