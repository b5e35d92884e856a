// Test sinks for the packet path: what a component under test emits goes
// into a CaptureSink (kept, with arrival times) or through an FnSink (any
// callable, for wiring that needs a lookup or a side effect).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace ccfuzz::net {

/// Keeps every packet it receives and the simulation time it arrived.
class CaptureSink final : public PacketSink {
 public:
  explicit CaptureSink(const sim::Simulator& sim) : sim_(sim) {}

  void receive(Packet&& p) override {
    times.push_back(sim_.now());
    packets.push_back(std::move(p));
  }

  std::vector<std::uint64_t> ids() const {
    std::vector<std::uint64_t> out;
    for (const Packet& p : packets) out.push_back(p.id);
    return out;
  }
  std::vector<std::int64_t> times_ms() const {
    std::vector<std::int64_t> out;
    for (const TimeNs t : times) {
      out.push_back(static_cast<std::int64_t>(t.to_millis()));
    }
    return out;
  }

  std::vector<Packet> packets;
  std::vector<TimeNs> times;

 private:
  const sim::Simulator& sim_;
};

/// Hands every packet to `f`.
template <class F>
class FnSink final : public PacketSink {
 public:
  explicit FnSink(F f) : f_(std::move(f)) {}
  void receive(Packet&& p) override { f_(std::move(p)); }

 private:
  F f_;
};

}  // namespace ccfuzz::net
