// The paper's dumbbell topology (§3.1), assembled from net/ and tcp/ parts,
// generalized to a declarative set of competing CCA flows (§6 future work):
//
//   flow 0 sender ─access₀─┐
//   flow 1 sender ─access₁─┼─▶ gateway() ─▶ link ─▶ egress() ─▶ propagation
//   cross traffic ─────────┘              (FIFO +              (20 ms)  │
//                                         service)                      ▼
//   senderᵢ ◀────────── ACK pathᵢ ◀────────── receiverᵢ ◀──────── deliver()
//
//   gateway()  records ingress, offers the packet to the link, records a
//              refusal as a drop
//   egress()   at the egress instant: egress record, StreamingMetrics, then
//              the one propagation DelayPipe
//   deliver()  CCA data to its flow's receiver; cross traffic ends here
//
// Every flow owns its access link, ACK path, sender and receiver; all flows
// share the gateway queue and bottleneck link. Each arrow is a
// net::PacketSink reference fixed when its component is built, so no wiring
// changes between runs, and the Dumbbell's three stages see every packet.
// Per-flow access/ACK delays give RTT heterogeneity; per-flow start/stop
// times give late-starter and convergence scenarios. In link mode the
// bottleneck is a TraceDrivenLink fed by the fuzzed service curve; in
// traffic mode it is a FixedRateLink and the fuzzed trace drives the
// CrossTrafficInjector.
//
// The Dumbbell is a *reusable harness* with one way in: construct the shell
// once over caller-owned storage (simulator, recorder, metrics —
// scenario::RunContext owns all three) and call setup() per run. The flows
// come from ScenarioConfig::flow_specs(). Components — queue, links, pipes,
// senders, receivers — are created on first use and thereafter reset in
// place, so a steady-state GA evaluation rebuilds the whole topology without
// a single heap allocation (CCA instances recycle through util::Recycled).
// Results are bit-identical to a freshly built dumbbell: every component's
// reset() restores exactly its post-construction state.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "analysis/streaming_metrics.h"
#include "coverage/probe.h"
#include "net/cross_traffic.h"
#include "net/delay_pipe.h"
#include "net/link.h"
#include "net/queue.h"
#include "net/recorder.h"
#include "sim/simulator.h"
#include "scenario/config.h"
#include "tcp/congestion_control.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace ccfuzz::scenario {

/// Where every CCA data packet the senders transmitted is at one instant.
/// Packet conservation says the six places account for every transmission.
struct PacketLedger {
  std::int64_t sent = 0;         ///< Σ sender transmissions, retx included
  std::int64_t in_access = 0;    ///< Σ access-pipe packets in flight
  std::int64_t queued = 0;       ///< resident in the gateway queue
  std::int64_t in_service = 0;   ///< being serialized by the bottleneck
  std::int64_t dropped = 0;      ///< dropped at the gateway queue
  std::int64_t propagating = 0;  ///< in the bottleneck's propagation pipe
  std::int64_t arrived = 0;      ///< Σ receiver arrivals

  bool balanced() const {
    return sent ==
           in_access + queued + in_service + dropped + propagating + arrived;
  }
};

/// Owns every component of a simulation run and its three stages (gateway,
/// egress, delivery): construct the shell, then per run setup(), start() and
/// Simulator::run_until(duration).
class Dumbbell {
 public:
  /// Binds warm storage and builds only the propagation pipe. All three
  /// outlive the Dumbbell.
  Dumbbell(sim::Simulator& sim, net::BottleneckRecorder& recorder,
           analysis::StreamingMetrics& metrics);

  Dumbbell(const Dumbbell&) = delete;
  Dumbbell& operator=(const Dumbbell&) = delete;

  /// (Re)builds the topology for one run. The simulator must be freshly
  /// reset and the recorder/metrics cleared by the caller
  /// (scenario::RunContext does all of this). `trace_times` is the link
  /// service curve (link mode) or the cross-traffic injection schedule
  /// (traffic mode), sorted ascending. `primary` builds the CCA instance of
  /// every flow whose FlowSpec names no algorithm of its own; named flows
  /// resolve through cca::make_factory. Components from a previous setup are
  /// reset in place; only shape growth (more flows than ever before, a first
  /// use of a link type) allocates.
  void setup(const ScenarioConfig& cfg, const tcp::CcaFactory& primary,
             std::span<const TimeNs> trace_times);

  /// Schedules flow starts/stops, link service and cross-traffic injections.
  void start();

  /// Binds the behavioral coverage probe setup() attaches to the primary
  /// flow's sender when ScenarioConfig::coverage is set (nullptr detaches).
  /// The caller owns the probe and resets/finalizes it around the run
  /// (scenario::RunContext does both).
  void set_behavior_probe(coverage::BehaviorProbe* probe) { probe_ = probe; }

  // ---- Component access (tests & analysis) ----
  std::size_t flow_count() const { return flow_count_; }
  /// The resolved spec of flow `i` (delays filled in, stop clamped).
  const FlowSpec& flow_spec(std::size_t i) const { return flows_[i].spec; }
  tcp::TcpSender& sender(std::size_t i = 0) { return *flows_[i].sender; }
  const tcp::TcpSender& sender(std::size_t i = 0) const {
    return *flows_[i].sender;
  }
  tcp::TcpReceiver& receiver(std::size_t i = 0) { return *flows_[i].receiver; }
  const tcp::TcpReceiver& receiver(std::size_t i = 0) const {
    return *flows_[i].receiver;
  }
  net::DropTailQueue& queue() { return *queue_; }
  const net::DropTailQueue& queue() const { return *queue_; }
  const net::BottleneckRecorder& recorder() const { return recorder_; }
  const analysis::StreamingMetrics& metrics() const { return metrics_; }
  const net::CrossTrafficInjector* cross_traffic() const {
    return active_cross_;
  }
  const net::BottleneckLink& link() const { return *link_; }
  const ScenarioConfig& config() const { return cfg_; }
  /// The CCA data packet ledger of the current run (see PacketLedger).
  PacketLedger packet_ledger() const;
  /// Flow index carried by cross-traffic packets (one past the CCA flows).
  net::FlowIndex cross_flow_index() const {
    return static_cast<net::FlowIndex>(flow_count_);
  }

 private:
  /// One competing flow's private path: access link in, ACK path back.
  /// Slots persist across setups; only the first flow_count_ are active.
  /// Built in member order, each part onto the one before it.
  struct Flow {
    FlowSpec spec;  // resolved: delays inherited, stop clamped to duration
    std::unique_ptr<net::DelayPipe> access;  // sender → gateway
    std::unique_ptr<tcp::TcpSender> sender;
    std::unique_ptr<net::DelayPipe> ack;     // receiver → sender
    std::unique_ptr<tcp::TcpReceiver> receiver;
  };

  /// Resolves `spec` against cfg_ (inherit delays, clamp stop) into `out`.
  void resolve_spec(const FlowSpec& spec, FlowSpec& out) const;

  // The three stages of the header's diagram.
  void gateway(net::Packet&& p);
  void egress(net::Packet&& p);
  void deliver(net::Packet&& p);

  sim::Simulator& sim_;
  ScenarioConfig cfg_;

  net::BottleneckRecorder& recorder_;
  analysis::StreamingMetrics& metrics_;
  coverage::BehaviorProbe* probe_ = nullptr;

  net::PortSink<Dumbbell, &Dumbbell::gateway> gateway_{*this};
  net::PortSink<Dumbbell, &Dumbbell::egress> egress_{*this};
  net::PortSink<Dumbbell, &Dumbbell::deliver> deliver_{*this};
  net::DelayPipe prop_;

  std::unique_ptr<net::DropTailQueue> queue_;
  // Both link types stay warm once built; link_ points at this run's.
  std::unique_ptr<net::TraceDrivenLink> trace_link_;
  std::unique_ptr<net::FixedRateLink> fixed_link_;
  net::BottleneckLink* link_ = nullptr;
  std::unique_ptr<net::CrossTrafficInjector> cross_;
  net::CrossTrafficInjector* active_cross_ = nullptr;  // traffic mode only
  std::vector<Flow> flows_;
  std::size_t flow_count_ = 0;
};

}  // namespace ccfuzz::scenario
