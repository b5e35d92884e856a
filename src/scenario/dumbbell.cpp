#include "scenario/dumbbell.h"

#include <algorithm>
#include <utility>

#include "cca/registry.h"

namespace ccfuzz::scenario {

Dumbbell::Dumbbell(sim::Simulator& sim, net::BottleneckRecorder& recorder,
                   analysis::StreamingMetrics& metrics)
    : sim_(sim), recorder_(recorder), metrics_(metrics),
      prop_(sim, DurationNs::zero(), deliver_) {}

void Dumbbell::resolve_spec(const FlowSpec& spec, FlowSpec& out) const {
  out = spec;
  if (out.access_delay < DurationNs::zero()) {
    out.access_delay = cfg_.net.access_delay;
  }
  if (out.ack_path_delay < DurationNs::zero()) {
    out.ack_path_delay = cfg_.net.ack_path_delay;
  }
  if (out.stop > cfg_.duration) out.stop = cfg_.duration;
  // A degenerate interval (stop <= start) means the flow never runs; clamp
  // so active() is empty and start() skips it, rather than letting a stop
  // event fire before start and the flow transmit as "idle".
  if (out.stop < out.start) out.stop = out.start;
}

void Dumbbell::setup(const ScenarioConfig& cfg, const tcp::CcaFactory& primary,
                     std::span<const TimeNs> trace_times) {
  cfg_ = cfg;
  const std::span<const FlowSpec> specs = cfg_.flow_specs();
  flow_count_ = specs.size();

  const bool events = cfg_.record_mode == RecordMode::kFullEvents;
  recorder_.set_record_events(events);
  if (events) {
    // Expected bottleneck traversals: one per trace stamp plus ~one CCA
    // packet per serialization slot over the run (the flows share the
    // bottleneck, so their combined egress is bounded by its service rate).
    // Sizes the event vectors so the first recording run grows nothing
    // mid-simulation; metrics-only runs keep the vectors empty.
    const std::size_t expected_packets =
        trace_times.size() +
        static_cast<std::size_t>(
            std::max<std::int64_t>(cfg_.duration.ns() / 1'000'000, 0));
    recorder_.reserve(expected_packets);
  }
  recorder_.set_flow_count(flow_count_ + 1);  // CCA flows + cross traffic
  metrics_.begin_run(flow_count_, cfg_.metrics_window, cfg_.duration);

  if (!queue_) {
    queue_ = std::make_unique<net::DropTailQueue>(cfg_.net.queue_capacity);
  } else {
    queue_->reset(cfg_.net.queue_capacity);
  }
  prop_.reset(cfg_.net.bottleneck_delay);

  // Bottleneck link: fuzzed service curve (link mode) or fixed rate. Both
  // variants stay warm once built; the gateway offers to this run's.
  active_cross_ = nullptr;
  if (cfg_.mode == FuzzMode::kLink) {
    if (!trace_link_) {
      trace_link_ = std::make_unique<net::TraceDrivenLink>(
          sim_, *queue_, egress_,
          std::vector<TimeNs>(trace_times.begin(), trace_times.end()));
    } else {
      trace_link_->reset(trace_times);
    }
    link_ = trace_link_.get();
  } else {
    if (!fixed_link_) {
      fixed_link_ = std::make_unique<net::FixedRateLink>(
          sim_, *queue_, egress_, cfg_.net.bottleneck_rate);
    } else {
      fixed_link_->reset(cfg_.net.bottleneck_rate);
    }
    link_ = fixed_link_.get();

    // Cross traffic bypasses the access pipes (it models aggregate arrivals
    // at the gateway) but goes through the gateway like every arrival.
    if (!cross_) {
      cross_ = std::make_unique<net::CrossTrafficInjector>(
          sim_, gateway_,
          std::vector<TimeNs>(trace_times.begin(), trace_times.end()),
          cfg_.net.packet_bytes, static_cast<net::FlowIndex>(flow_count_));
    } else {
      cross_->reset(trace_times, cfg_.net.packet_bytes,
                    static_cast<net::FlowIndex>(flow_count_));
    }
    active_cross_ = cross_.get();
  }

  // One private path per flow: access link in, ACK path back. Slots persist
  // across setups (warm segment rings, reorder buffers, pipe rings); a
  // fresh shape only appends.
  if (flows_.capacity() < flow_count_) flows_.reserve(flow_count_);
  for (std::size_t i = 0; i < flow_count_; ++i) {
    if (i >= flows_.size()) flows_.emplace_back();
    Flow& f = flows_[i];
    resolve_spec(specs[i], f.spec);

    tcp::TcpReceiver::Config rcfg;
    rcfg.delayed_ack = cfg_.delayed_ack;
    rcfg.ack_every = cfg_.ack_every;
    rcfg.delack_timeout = cfg_.delack_timeout;
    rcfg.rwnd_segments = cfg_.receive_window_segments;
    rcfg.flow_index = static_cast<net::FlowIndex>(i);

    tcp::TcpSender::Config scfg;
    scfg.total_segments = f.spec.total_segments;
    scfg.mss_bytes = cfg_.net.packet_bytes;
    scfg.initial_cwnd = cfg_.initial_cwnd;
    scfg.initial_rwnd_segments = cfg_.receive_window_segments;
    scfg.rtt.min_rto = cfg_.min_rto;
    scfg.log_events = cfg_.log_tcp_events;
    scfg.flow_index = static_cast<net::FlowIndex>(i);
    scfg.stop = f.spec.stop < cfg_.duration ? f.spec.stop : TimeNs::infinite();

    auto cca_instance = f.spec.cca.empty() ? primary()
                                           : cca::make_factory(f.spec.cca)();

    if (!f.sender) {
      // Access link into the gateway; the ACK return path is uncongested.
      f.access = std::make_unique<net::DelayPipe>(sim_, f.spec.access_delay,
                                                  gateway_);
      f.sender = std::make_unique<tcp::TcpSender>(
          sim_, scfg, std::move(cca_instance), *f.access);
      f.ack = std::make_unique<net::DelayPipe>(sim_, f.spec.ack_path_delay,
                                               *f.sender);
      f.receiver = std::make_unique<tcp::TcpReceiver>(sim_, rcfg, *f.ack);
    } else {
      f.access->reset(f.spec.access_delay);
      f.sender->reset(scfg, std::move(cca_instance));
      f.ack->reset(f.spec.ack_path_delay);
      f.receiver->reset(rcfg);
    }

    // Coverage instruments the primary flow — the algorithm under test.
    // reset() detached any previous sink, so probe-less runs stay clean.
    if (i == 0 && cfg_.coverage && probe_ != nullptr) {
      f.sender->set_behavior_sink(probe_);
    }

    metrics_.set_flow_interval(i, f.spec.start);
  }
}

void Dumbbell::gateway(net::Packet&& p) {
  const TimeNs now = sim_.now();
  recorder_.record_ingress(p, now);
  // offer() leaves a refused packet untouched.
  if (!link_->offer(std::move(p))) recorder_.record_drop(p, now);
}

void Dumbbell::egress(net::Packet&& p) {
  const TimeNs now = sim_.now();
  recorder_.record_egress(p, now);
  metrics_.on_egress(p, now, now - p.enqueued_at);
  prop_.receive(std::move(p));
}

void Dumbbell::deliver(net::Packet&& p) {
  if (p.flow == net::FlowId::kCcaData && p.flow_index < flow_count_) {
    flows_[p.flow_index].receiver->receive(std::move(p));
  }
}

void Dumbbell::start() {
  link_->start();
  if (active_cross_ != nullptr) active_cross_->start();
  for (std::size_t i = 0; i < flow_count_; ++i) {
    Flow& f = flows_[i];
    if (f.spec.stop <= f.spec.start) continue;  // degenerate: never runs
    f.sender->start(f.spec.start);
  }
}

PacketLedger Dumbbell::packet_ledger() const {
  constexpr auto kData = net::FlowId::kCcaData;
  PacketLedger l;
  for (std::size_t i = 0; i < flow_count_; ++i) {
    l.sent += flows_[i].sender->total_sent();
    l.in_access += flows_[i].access->in_flight();
    l.arrived += flows_[i].receiver->packets_arrived();
  }
  const net::QueueStats& qs = queue_->stats();
  const auto k = static_cast<std::size_t>(kData);
  l.queued = qs.enqueued[k] - qs.dequeued[k];
  l.dropped = qs.dropped[k];
  const net::Packet* serving = link_->in_service();
  l.in_service = serving != nullptr && serving->flow == kData ? 1 : 0;
  l.propagating = prop_.in_flight(kData);
  return l;
}

}  // namespace ccfuzz::scenario
