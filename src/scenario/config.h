// Scenario configuration: the paper's dumbbell (§3.1) and experiment knobs.
//
// Defaults follow §4's setup: 12 Mbps bottleneck (average bandwidth in link
// mode), 20 ms propagation delay, TCP SACK + delayed ACKs enabled, and
// min-RTO = 1 s (RFC 6298 §2.4; the paper notes Linux uses 200 ms).
//
// Flows are described in one place, ScenarioConfig::flows: a single-flow run
// with a late start or a bounded transfer is a one-element list, and an
// empty list is one default flow running the primary CCA (flow_specs()).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sim/budget.h"
#include "util/time.h"

namespace ccfuzz::scenario {

/// Which half of the search space the trace controls (paper §3.1).
enum class FuzzMode {
  /// Trace = bottleneck service curve; no cross traffic.
  kLink,
  /// Trace = cross-traffic injection times; bottleneck rate fixed.
  kTraffic,
};

/// Display/report name of a mode ("link" / "traffic").
constexpr const char* to_string(FuzzMode mode) {
  return mode == FuzzMode::kLink ? "link" : "traffic";
}

/// What the run records at the bottleneck (see analysis::StreamingMetrics).
enum class RecordMode {
  /// Streaming per-flow summaries only — windowed egress bins, delay
  /// digests, last-progress stamps. Everything scoring needs, O(windows)
  /// per run. The fuzzing default.
  kMetricsOnly,
  /// Additionally keep the raw per-packet event vectors in
  /// net::BottleneckRecorder (figures, timelines, replay diagnostics).
  /// Scores are bit-identical in both modes: they read the streaming
  /// summaries, which are always maintained.
  kFullEvents,
};

/// Display/report name of a record mode ("metrics" / "events").
constexpr const char* to_string(RecordMode mode) {
  return mode == RecordMode::kMetricsOnly ? "metrics" : "events";
}

/// Physical path parameters of the dumbbell.
struct NetworkConfig {
  /// Bottleneck rate: the fixed rate in traffic mode, and the average rate
  /// the link trace should honour in link mode. 12 Mbps with 1500 B frames
  /// serializes one packet per millisecond.
  DataRate bottleneck_rate = DataRate::mbps(12);
  /// One-way propagation delay of the bottleneck link.
  DurationNs bottleneck_delay = DurationNs::millis(20);
  /// Reverse (ACK) path delay; uncongested in the paper's topology.
  DurationNs ack_path_delay = DurationNs::millis(20);
  /// Source → gateway access link delay ("high speed links").
  DurationNs access_delay = DurationNs::micros(100);
  /// Gateway drop-tail FIFO capacity in packets (~1.25 BDP by default).
  std::size_t queue_capacity = 50;
  std::int32_t packet_bytes = 1500;

  /// Base round-trip time excluding queueing and serialization.
  DurationNs base_rtt() const {
    return access_delay + bottleneck_delay + ack_path_delay;
  }
  /// Bandwidth-delay product in packets (rounded down).
  std::int64_t bdp_packets() const {
    return (bottleneck_rate.bits_per_second() * base_rtt().ns()) /
           (static_cast<std::int64_t>(packet_bytes) * 8 * 1'000'000'000);
  }
};

/// One competing CCA flow over the shared bottleneck. A scenario declares a
/// set of these (ScenarioConfig::flows); per-flow path delays give RTT
/// heterogeneity and staggered start/stop times give late-starter and
/// convergence scenarios (paper §6, "future work": fairness fuzzing).
struct FlowSpec {
  /// Registry name of this flow's CCA (cca::make_factory). Empty means "the
  /// scenario's primary CCA" — the factory handed to run_scenario, i.e. the
  /// algorithm under test.
  std::string cca = {};
  /// When the flow starts transmitting (cross traffic may precede it,
  /// Fig 4e).
  TimeNs start = TimeNs::zero();
  /// When the flow halts; infinite = runs to the end of the scenario.
  TimeNs stop = TimeNs::infinite();
  /// Source → gateway access delay; negative = inherit NetworkConfig.
  DurationNs access_delay = DurationNs(-1);
  /// Reverse (ACK) path delay; negative = inherit NetworkConfig.
  DurationNs ack_path_delay = DurationNs(-1);
  /// Application data volume in segments (default: unbounded source).
  std::int64_t total_segments = std::numeric_limits<std::int64_t>::max();
};

/// One experiment: one or more CCA flows over the dumbbell with a link or
/// traffic trace.
struct ScenarioConfig {
  FuzzMode mode = FuzzMode::kTraffic;
  NetworkConfig net{};

  /// Simulated run length; traces live in [0, duration).
  TimeNs duration = TimeNs::seconds(5);

  /// The competing flows sharing the bottleneck, in flow-index order. Empty
  /// declares the classic single-flow dumbbell: one default FlowSpec running
  /// the primary CCA (see flow_specs()).
  std::vector<FlowSpec> flows;

  // --- Transport knobs (paper §4 defaults) ---
  DurationNs min_rto = DurationNs::seconds(1);
  bool delayed_ack = true;
  int ack_every = 2;
  DurationNs delack_timeout = DurationNs::millis(200);
  std::int64_t initial_cwnd = 10;
  /// Receive buffer in segments (ns-3's 128 KiB default ≈ 87 × 1500 B).
  std::int64_t receive_window_segments = 87;

  /// Record the detailed per-event TCP log (timeline figures). Counters are
  /// always kept; the detailed log costs allocations, so fuzzing leaves it
  /// off.
  bool log_tcp_events = false;

  /// What the bottleneck observation path records (see RecordMode). Fuzzing
  /// keeps the default; figure/timeline/replay consumers that read raw
  /// events (analysis::rate_series etc.) must opt into kFullEvents.
  RecordMode record_mode = RecordMode::kMetricsOnly;

  /// Bin width of the streaming windowed-throughput series — the one window
  /// every windowed query and score (LowUtilizationScore) reads. Must be
  /// positive; campaign cells with a non-positive window are rejected.
  DurationNs metrics_window = DurationNs::millis(500);

  /// Arm the behavioral coverage probe (coverage::BehaviorProbe) on the
  /// primary flow. Purely passive — results are bit-identical with the probe
  /// on or off — but coverage-guided search (fuzz::SearchMode::kMapElites)
  /// requires it, and the campaign evaluation cache keys on it so coverage
  /// cells never reuse probe-less evaluations.
  bool coverage = false;

  /// Arm the runtime invariant oracle (sim::Invariants): periodic audits of
  /// sender scoreboards / cwnd / queue occupancy plus post-run packet
  /// conservation checks, recorded into RunResult::invariants. Diagnostic
  /// opt-in for finding triage; disarmed runs (the default) schedule and
  /// allocate nothing, staying bit-identical to pre-oracle builds. Armed
  /// audit events count toward the event budget, so armed runs must not
  /// share evaluation-cache entries with disarmed ones.
  bool invariants = false;

  /// Run guards (sim::Budget): hard ceilings on events / simulated time /
  /// wall time that truncate a runaway run into RunResult::truncated instead
  /// of hanging a worker. Default: unlimited (bit-identical to no guard).
  sim::Budget budget{};

  /// The flows this scenario simulates: `flows`, or one default FlowSpec
  /// when `flows` is empty. Never empty; allocation-free.
  std::span<const FlowSpec> flow_specs() const {
    static const FlowSpec kPrimary{};
    return flows.empty() ? std::span<const FlowSpec>(&kPrimary, 1)
                         : std::span<const FlowSpec>(flows);
  }

  /// Number of CCA flows this scenario simulates (>= 1).
  std::size_t flow_count() const { return flow_specs().size(); }
};

}  // namespace ccfuzz::scenario
