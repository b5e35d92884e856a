// Records per-packet events at the bottleneck for post-run analysis.
//
// Everything the paper plots (ingress/egress rates, queuing delay, drops —
// Figures 4a/4b/4e) derives from these records; scoring functions (§3.4)
// consume them too. Records carry both the packet kind (FlowId) and the real
// flow index, so multi-flow scenarios can be analysed per competing flow.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "util/time.h"

namespace ccfuzz::net {

/// One bottleneck event: a packet arriving at (ingress), departing from
/// (egress), or being dropped at the gateway queue.
struct PacketEvent {
  TimeNs time;
  FlowId flow;
  FlowIndex flow_index;
  std::int32_t size_bytes;
};

/// A queuing-delay sample: packet egress time and the delay it experienced
/// in the gateway queue (egress − enqueue).
struct DelaySample {
  TimeNs time;    ///< egress instant
  FlowId flow;
  FlowIndex flow_index;
  DurationNs queue_delay;
};

/// Accumulates bottleneck events during a run. Plain data, written by
/// scenario::Dumbbell's gateway and egress stages. Counters are maintained
/// incrementally so count queries are O(1), both per packet kind (FlowId)
/// and per real flow index (set_flow_count sizes that table); the event
/// vectors stay around for plotting and scoring.
class BottleneckRecorder {
 public:
  void record_ingress(const Packet& p, TimeNs now) {
    ++ingress_n_[kind_index(p.flow)];
    bump(flow_ingress_n_, p.flow_index);
    if (record_events_) {
      ingress_.push_back({now, p.flow, p.flow_index, p.size_bytes});
    }
  }
  void record_drop(const Packet& p, TimeNs now) {
    ++drop_n_[kind_index(p.flow)];
    bump(flow_drop_n_, p.flow_index);
    if (record_events_) {
      drops_.push_back({now, p.flow, p.flow_index, p.size_bytes});
    }
  }
  void record_egress(const Packet& p, TimeNs now) {
    ++egress_n_[kind_index(p.flow)];
    bump(flow_egress_n_, p.flow_index);
    if (record_events_) {
      egress_.push_back({now, p.flow, p.flow_index, p.size_bytes});
      delays_.push_back({now, p.flow, p.flow_index, now - p.enqueued_at});
    }
  }

  /// When disabled, record_* maintain only the O(1) counters and the event
  /// vectors stay empty — the ScenarioConfig::RecordMode::kMetricsOnly
  /// fuzzing configuration (streaming summaries live in
  /// analysis::StreamingMetrics). Enabled by default for standalone use.
  void set_record_events(bool on) { record_events_ = on; }
  bool record_events() const { return record_events_; }

  const std::vector<PacketEvent>& ingress() const { return ingress_; }
  const std::vector<PacketEvent>& egress() const { return egress_; }
  const std::vector<PacketEvent>& drops() const { return drops_; }
  const std::vector<DelaySample>& delays() const { return delays_; }

  /// Per-kind event counts, O(1).
  std::int64_t ingress_count(FlowId flow) const {
    return ingress_n_[kind_index(flow)];
  }
  std::int64_t egress_count(FlowId flow) const {
    return egress_n_[kind_index(flow)];
  }
  std::int64_t drop_count(FlowId flow) const {
    return drop_n_[kind_index(flow)];
  }

  /// Sizes the per-real-flow counter table (CCA flows 0..n-1 plus any
  /// cross-traffic index). Indices beyond the table are counted only in the
  /// per-kind totals.
  void set_flow_count(std::size_t n) {
    flow_ingress_n_.assign(n, 0);
    flow_egress_n_.assign(n, 0);
    flow_drop_n_.assign(n, 0);
  }
  std::size_t flow_count() const { return flow_egress_n_.size(); }

  /// Per-real-flow event counts, O(1); 0 for indices outside the table.
  std::int64_t flow_ingress_count(FlowIndex f) const {
    return f < flow_ingress_n_.size() ? flow_ingress_n_[f] : 0;
  }
  std::int64_t flow_egress_count(FlowIndex f) const {
    return f < flow_egress_n_.size() ? flow_egress_n_[f] : 0;
  }
  std::int64_t flow_drop_count(FlowIndex f) const {
    return f < flow_drop_n_.size() ? flow_drop_n_[f] : 0;
  }

  /// Discards all records but keeps vector capacity (RunContext reuse).
  void clear() {
    ingress_.clear();
    egress_.clear();
    drops_.clear();
    delays_.clear();
    ingress_n_.fill(0);
    egress_n_.fill(0);
    drop_n_.fill(0);
    flow_ingress_n_.clear();
    flow_egress_n_.clear();
    flow_drop_n_.clear();
  }

  /// Pre-sizes the vectors for roughly `expected_packets` bottleneck
  /// traversals so first-run growth doesn't skew measurements.
  void reserve(std::size_t expected_packets) {
    ingress_.reserve(expected_packets);
    egress_.reserve(expected_packets);
    delays_.reserve(expected_packets);
    drops_.reserve(expected_packets / 8 + 16);
  }

 private:
  static std::size_t kind_index(FlowId f) {
    return static_cast<std::size_t>(f);
  }
  static void bump(std::vector<std::int64_t>& v, FlowIndex f) {
    if (f < v.size()) ++v[f];
  }

  bool record_events_ = true;
  std::vector<PacketEvent> ingress_;
  std::vector<PacketEvent> egress_;
  std::vector<PacketEvent> drops_;
  std::vector<DelaySample> delays_;
  std::array<std::int64_t, kFlowCount> ingress_n_{};
  std::array<std::int64_t, kFlowCount> egress_n_{};
  std::array<std::int64_t, kFlowCount> drop_n_{};
  std::vector<std::int64_t> flow_ingress_n_;
  std::vector<std::int64_t> flow_egress_n_;
  std::vector<std::int64_t> flow_drop_n_;
};

}  // namespace ccfuzz::net
