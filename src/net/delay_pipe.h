// Fixed-delay, infinite-capacity pipe: models uncongested paths (source →
// gateway access links, the ACK return path in the paper's dumbbell, and the
// bottleneck's propagation stage).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace ccfuzz::net {

/// Hands every packet to its sink exactly `delay` after receive(), in
/// arrival order.
///
/// The pipe is an event lane (sim::Lane): in-flight packets wait in its own
/// ring of {at, seq, Packet} entries, and only the head entry has a handle
/// in the event queue. Each entry takes its FIFO seq at receive() time, so
/// deliveries interleave with every other event exactly as if each had been
/// scheduled on its own. The ring grows to the pipe's in-flight high-water
/// mark and is then reused, so receive() never allocates in steady state.
class DelayPipe final : public PacketSink, private sim::Lane {
 public:
  DelayPipe(sim::Simulator& sim, DurationNs delay, PacketSink& sink)
      : sim::Lane(sim.events()), sim_(sim), delay_(delay), sink_(sink) {}

  /// Puts a packet on the pipe at the current simulation time.
  void receive(Packet&& p) override {
    if (count_ == ring_.size()) grow();
    Entry& e = ring_[(head_ + count_) & (ring_.size() - 1)];
    e.at = sim_.now() + delay_;
    e.seq = push(e.at);
    e.packet = std::move(p);
    ++count_;
  }

  /// Reinitializes the pipe for a fresh run (possibly with a new delay).
  /// Simulator::reset must already have emptied it.
  void reset(DurationNs delay) {
    assert(count_ == 0 && "Simulator::reset empties every pipe");
    delay_ = delay;
  }

  DurationNs delay() const { return delay_; }
  std::int64_t in_flight() const { return static_cast<std::int64_t>(count_); }
  /// Packets of one kind in flight (a ring scan; for audits, not hot paths).
  std::int64_t in_flight(FlowId kind) const {
    std::int64_t n = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      n += ring_[(head_ + i) & (ring_.size() - 1)].packet.flow == kind;
    }
    return n;
  }

 private:
  struct Entry {
    TimeNs at;
    std::uint32_t seq = 0;
    Packet packet;
  };

  void fire() override {
    Packet p = std::move(ring_[head_].packet);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    if (count_ != 0) {
      rekey(ring_[head_].at, ring_[head_].seq);
    } else {
      drained();
    }
    sink_.receive(std::move(p));
  }

  void clear() override {
    head_ = 0;
    count_ = 0;
  }

  /// Doubles the ring (power-of-two sizes), keeping entries in order.
  void grow() {
    std::vector<Entry> bigger(ring_.empty() ? 16 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  sim::Simulator& sim_;
  DurationNs delay_;
  PacketSink& sink_;
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ccfuzz::net
