// Cross-traffic injector for traffic fuzzing (paper §3.3).
//
// The fuzzer's traffic trace is a sequence of timestamps; at each timestamp
// one cross-traffic packet is handed to the injector's sink, the dumbbell's
// gateway, which offers it to the bottleneck queue. Packets that find the
// queue full are dropped there and counted in the queue's per-kind stats —
// the trace score uses both the total injected and the drops to steer the
// GA toward minimal traffic vectors (§3.4).
//
// The injector is an event lane (sim::Lane): start() reserves one block of
// consecutive FIFO seqs for the whole schedule, stamp i taking the i-th, and
// the stamp list itself is the lane's storage, so the event queue holds one
// handle for the next injection instead of one per stamp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace ccfuzz::net {

/// Emits one packet per trace timestamp into its sink.
class CrossTrafficInjector final : private sim::Lane {
 public:
  /// `times` must be sorted ascending. Packets use `packet_bytes` frames and
  /// carry `flow_index` (the scenario assigns the aggregate the index after
  /// the last CCA flow) so recorder per-flow counters see a real flow id.
  CrossTrafficInjector(sim::Simulator& sim, PacketSink& sink,
                       std::vector<TimeNs> times,
                       std::int32_t packet_bytes = kDefaultPacketBytes,
                       FlowIndex flow_index = 1)
      : sim::Lane(sim.events()), sim_(sim), sink_(sink),
        times_(std::move(times)), packet_bytes_(packet_bytes),
        flow_index_(flow_index) {}

  /// Queues every injection. Call once per run, before running the
  /// simulation. Stamps before the current time fire now, as a timer armed
  /// at such a time would (sim::Timer::arm_at).
  void start() {
    assert(pending() == 0 && "start() once per run");
    assert(std::is_sorted(times_.begin(), times_.end()));
    next_ = 0;
    start_ = sim_.now();
    if (times_.empty()) return;
    base_seq_ = push_block(stamp(0), static_cast<std::uint32_t>(times_.size()));
  }

  /// Rearms the injector for a fresh run with a new schedule, reusing the
  /// schedule storage's capacity. Simulator::reset must already have dropped
  /// any pending injections.
  void reset(std::span<const TimeNs> times, std::int32_t packet_bytes,
             FlowIndex flow_index) {
    times_.assign(times.begin(), times.end());
    packet_bytes_ = packet_bytes;
    flow_index_ = flow_index;
    sent_ = 0;
  }

  /// Packets handed to the sink so far, dropped ones included.
  std::int64_t packets_sent() const { return sent_; }

 private:
  /// Due time of stamp `i`, clamped to the start time.
  TimeNs stamp(std::size_t i) const { return std::max(times_[i], start_); }

  void fire() override {
    ++next_;
    if (next_ < times_.size()) {
      rekey(stamp(next_), base_seq_ + static_cast<std::uint32_t>(next_));
    } else {
      drained();
    }
    inject_one();
  }

  void clear() override { next_ = times_.size(); }

  void inject_one() {
    Packet p;
    p.id = 0x8000000000000000ULL + static_cast<std::uint64_t>(sent_);
    p.flow = FlowId::kCrossTraffic;
    p.flow_index = flow_index_;
    p.size_bytes = packet_bytes_;
    p.created_at = sim_.now();
    ++sent_;
    sink_.receive(std::move(p));
  }

  sim::Simulator& sim_;
  PacketSink& sink_;
  std::vector<TimeNs> times_;
  std::size_t next_ = 0;         ///< index of the pending head stamp
  TimeNs start_;                 ///< clock at start()
  std::uint32_t base_seq_ = 0;   ///< seq of stamp 0
  std::int32_t packet_bytes_;
  FlowIndex flow_index_;
  std::int64_t sent_ = 0;
};

}  // namespace ccfuzz::net
