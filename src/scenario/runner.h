// One-call simulation harness: run one or more CCA flows over a link/traffic
// trace and collect everything the scoring functions (§3.4) and figures
// consume.
//
// run_scenario() is a pure function of (config, cca factory, trace): the
// result depends on nothing but its arguments, which is what makes the GA's
// parallel evaluation deterministic (paper §3.6). Under the hood each thread
// reuses one RunContext (thread_run_context), so back-to-back evaluations run
// on warm buffers — the event heap, dumbbell components (queue, links,
// pipes with their in-flight rings, senders, receivers) and metric bins reach
// their high-water mark on the first run, after which a steady-state evaluation
// performs zero heap allocations end to end, result handoff included (the
// warm RunResult lives inside the context; RunContext::run returns a
// reference). A `const RunResult&` from a thread's context is therefore valid
// only until the next run on that thread; run_scenario hands out a copy for
// callers that keep results. Warm state is invisible in the results: the
// golden determinism test pins bit-identical RunResults across repeats and
// against pre-refactor fingerprints.
//
// Observation modes (ScenarioConfig::record_mode): fuzzing runs keep only
// the streaming per-flow summaries (analysis::StreamingMetrics) — windowed
// egress bins, delay digests, last-progress stamps. Every score and every
// RunResult query reads these and nothing else. Figure/timeline/replay
// consumers opt into RecordMode::kFullEvents to additionally keep the raw
// per-packet BottleneckRecorder streams, which only the analysis/ series
// read. Scores are bit-identical across modes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/streaming_metrics.h"
#include "coverage/probe.h"
#include "net/queue.h"
#include "net/recorder.h"
#include "scenario/config.h"
#include "scenario/dumbbell.h"
#include "sim/invariants.h"
#include "sim/simulator.h"
#include "tcp/congestion_control.h"
#include "tcp/event_log.h"
#include "util/time.h"

namespace ccfuzz::scenario {

/// Everything observable from one CCA flow's run: transport counters, final
/// CCA model state, and the active interval the per-flow rates are computed
/// over. Series live on RunResult, which owns the streaming summaries (and,
/// in full-events mode, the recorder).
struct FlowResult {
  /// Registry name of the flow's CCA; empty for the scenario's primary CCA.
  std::string cca;
  /// Active interval [start, stop): start time and (clamped) stop time.
  TimeNs start = TimeNs::zero();
  TimeNs stop = TimeNs::zero();
  std::int32_t packet_bytes = 1500;

  std::int64_t segments_delivered = 0;  ///< in-order at the receiver
  std::int64_t egress_packets = 0;      ///< through the bottleneck
  std::int64_t sent = 0;                ///< transmissions incl. retx
  std::int64_t retransmissions = 0;
  std::int64_t drops = 0;               ///< this flow's losses at the queue
  std::int64_t rto_count = 0;
  std::int64_t fast_recovery_count = 0;
  std::int64_t spurious_retx_count = 0;
  int final_rto_backoff = 0;

  // --- Final CCA model state (BBR introspection; 0/-1 for others) ---
  double final_bw_estimate_pps = 0.0;
  DurationNs final_min_rtt_estimate = DurationNs(-1);

  // --- Detailed TCP event log (when ScenarioConfig::log_tcp_events) ---
  tcp::TcpEventLog tcp_log;

  /// Active sending interval (stop − start).
  DurationNs active() const { return stop - start; }

  /// Average goodput over [start, stop) in Mbps, from in-order delivered
  /// segments.
  double goodput_mbps() const;
};

/// Everything observable from one simulation run. Per-flow counters live in
/// `flows` (index order matches ScenarioConfig::flows); primary() is flow 0,
/// the algorithm under test.
struct RunResult {
  ScenarioConfig config;

  /// One entry per CCA flow, in flow-index order; never empty after
  /// run_scenario (manually built results may leave it empty — accessors
  /// then read a neutral all-zero flow).
  std::vector<FlowResult> flows;

  // --- Cross traffic outcome (traffic mode) ---
  std::int64_t cross_sent = 0;
  std::int64_t cross_drops = 0;  ///< queue_stats.dropped[kCrossTraffic]

  // --- Bottleneck observations ---
  net::QueueStats queue_stats;
  /// Streaming per-flow summaries (always populated by run_scenario).
  analysis::StreamingMetrics metrics;
  /// Raw per-packet event streams — populated only in
  /// RecordMode::kFullEvents (empty otherwise).
  net::BottleneckRecorder recorder;

  /// Behavioral coverage probe for the primary flow; armed and finalized by
  /// run_scenario when ScenarioConfig::coverage is set (its signature reads
  /// invalid otherwise). Fixed-size state: carrying it costs nothing warm.
  coverage::BehaviorProbe probe;

  /// True when a run guard (ScenarioConfig::budget) stopped the run before
  /// its configured end; `truncation` says which one. Counters and metrics
  /// reflect the truncated prefix.
  bool truncated = false;
  sim::TruncationReason truncation = sim::TruncationReason::kNone;

  /// Runtime invariant oracle results; armed and populated only when
  /// ScenarioConfig::invariants is set (empty and inert otherwise).
  sim::Invariants invariants;

  std::size_t flow_count() const { return flows.size(); }

  /// The run's behavioral coverage signature (invalid unless
  /// ScenarioConfig::coverage was set).
  const coverage::CoverageSignature& coverage_signature() const {
    return probe.signature();
  }

  /// True when the run kept raw per-packet events (figures/timeline APIs in
  /// analysis/flow_metrics need them).
  bool has_events() const {
    return config.record_mode == RecordMode::kFullEvents;
  }

  /// Flow `i`, or a neutral all-zero FlowResult when out of range.
  const FlowResult& flow(std::size_t i) const;
  /// The primary flow — the algorithm under test.
  const FlowResult& primary() const { return flow(0); }

  /// Average goodput of flow `i` over its active interval, in Mbps.
  double goodput_mbps(std::size_t i = 0) const { return flow(i).goodput_mbps(); }

  // The series queries below read only the streaming summaries, so they are
  // identical in both record modes; a flow the metrics never saw (hand-built
  // results, out-of-range index) reads as empty.

  /// Flow `i`'s egress throughput per config.metrics_window (Mbps) over
  /// [start, duration); the last window may be partial.
  std::vector<double> windowed_throughput_mbps(std::size_t i = 0) const;
  /// Same, reusing caller storage (allocation-free when warm).
  void windowed_throughput_mbps_into(std::size_t i,
                                     std::vector<double>& out) const;

  /// Histogram-estimated percentile of flow `i`'s queueing delay in seconds
  /// (exact at the extremes). 0 when the flow saw no egress.
  double queue_delay_percentile_s(double pct, std::size_t i = 0) const;

  /// True when flow `i` made no bottleneck progress over the trailing `tail`
  /// of its active interval despite having started — the paper's "stuck"
  /// signal.
  bool stalled(DurationNs tail, std::size_t i = 0) const;

  /// Jain's fairness index over the flows' goodputs: 1 = perfectly fair,
  /// 1/n = one flow has everything. 1 for single-flow or all-idle runs.
  double jain_fairness() const;
};

/// Reusable simulation harness: owns the simulator (event heap and lanes), the
/// reusable Dumbbell (queue, links, pipes, senders, receivers) and the warm
/// RunResult the recorder/metrics write
/// into, recycling all of it across runs — including across runs with
/// different flow counts or modes. One RunContext per thread
/// (thread_run_context; fuzz::evaluate_batch therefore reuses one per
/// worker) turns the GA's unit of work from allocator-bound to
/// simulation-bound: a steady-state metrics-only evaluation performs no heap
/// allocations at all.
class RunContext {
 public:
  RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Runs one simulation on warm buffers and returns the context-owned
  /// result. Results are bit-identical to a cold run: every piece of reused
  /// state is reset up front. The reference stays valid (and stable) until
  /// the next run() on this context. Throws std::invalid_argument when
  /// `trace_times` is not sorted ascending.
  const RunResult& run(const ScenarioConfig& cfg, const tcp::CcaFactory& cca,
                       std::span<const TimeNs> trace_times);

 private:
  /// Armed-invariants support: the live-state checks (sender scoreboards,
  /// cwnd, queue occupancy, the packet ledger), run by audit_timer_ every
  /// audit period. Never called on disarmed runs.
  void audit_live_state();
  /// Post-run conservation checks (packet ledger, queue accounting,
  /// per-flow counters). Never called on disarmed runs.
  void check_conservation();
  /// Records a violation unless Dumbbell::packet_ledger() balances.
  void check_packet_ledger(TimeNs now);

  sim::Simulator sim_;
  RunResult result_;
  Dumbbell db_;
  /// Armed only when ScenarioConfig::invariants is set; re-arms itself each
  /// time it fires.
  sim::Timer audit_timer_;
};

/// This thread's warm RunContext, created on first use. Every run on this
/// thread — run_scenario, fuzz::TraceEvaluator — goes through it, so a
/// reference into its result is valid only until the next run on the thread.
RunContext& thread_run_context();

/// Runs one simulation and returns a copy of the result. `trace_times` is the
/// link service curve (link mode) or cross-traffic schedule (traffic mode),
/// sorted ascending (std::invalid_argument otherwise). `cca` builds the primary CCA — the instance used by
/// every flow that names no algorithm of its own. Runs on
/// thread_run_context(); hot callers read thread_run_context().run()'s result
/// by reference instead.
RunResult run_scenario(const ScenarioConfig& cfg, const tcp::CcaFactory& cca,
                       std::span<const TimeNs> trace_times);

}  // namespace ccfuzz::scenario
