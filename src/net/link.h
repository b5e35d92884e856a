// Bottleneck link models.
//
// TraceDrivenLink implements MahiMahi semantics (paper §3.2): a link trace is
// a sorted sequence of timestamps; each timestamp is an opportunity to
// transmit exactly one packet from the queue. If the queue is empty the
// opportunity is wasted. This is the representation the GA mutates in link
// fuzzing mode.
//
// FixedRateLink serializes packets back-to-back at a constant rate; it is the
// bottleneck used in traffic fuzzing mode (§3.3), where the trace controls
// cross traffic instead.
//
// A link drains the gateway queue and hands each transmitted packet to its
// egress sink at the instant it leaves the bottleneck; propagation towards
// the receivers is the sink's business (scenario::Dumbbell sends it down
// one DelayPipe). Arrivals reach the queue through offer(), so a
// FixedRateLink learns of a packet in an idle queue from the call itself.
//
// Each link paces itself with one sim::Timer, re-armed from its own expiry
// (the next opportunity, the next transmit-done), so its per-packet events
// keep one queue handle.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace ccfuzz::net {

/// Common interface for bottleneck links draining a DropTailQueue.
class BottleneckLink {
 public:
  virtual ~BottleneckLink() = default;
  BottleneckLink(const BottleneckLink&) = delete;
  BottleneckLink& operator=(const BottleneckLink&) = delete;

  /// Schedules initial service activity. Call once before running.
  virtual void start() = 0;

  /// Offers an arriving packet to the queue at the current time. Returns
  /// false, with `p` left untouched, when the queue is full.
  virtual bool offer(Packet&& p) {
    return queue_.try_enqueue(std::move(p), sim_.now());
  }

  /// Packets transmitted so far.
  std::int64_t packets_served() const { return served_; }

  /// The packet being serialized, if any (nullptr between packets and for
  /// links that transmit instantly).
  virtual const Packet* in_service() const { return nullptr; }

 protected:
  BottleneckLink(sim::Simulator& sim, DropTailQueue& queue, PacketSink& egress)
      : sim_(sim), queue_(queue), egress_(egress) {}

  /// Transmits one packet (already dequeued) at the current time.
  void complete_transmission(Packet&& p) {
    ++served_;
    egress_.receive(std::move(p));
  }

  sim::Simulator& sim_;
  DropTailQueue& queue_;
  PacketSink& egress_;
  std::int64_t served_ = 0;
};

/// MahiMahi-style trace-driven link: one service opportunity per timestamp.
class TraceDrivenLink final : public BottleneckLink {
 public:
  /// `service_times` must be sorted ascending. Opportunities before start()
  /// is called are honoured as long as they are >= the current sim time.
  TraceDrivenLink(sim::Simulator& sim, DropTailQueue& queue,
                  PacketSink& egress, std::vector<TimeNs> service_times);

  void start() override;

  /// Rearms the link for a fresh run with a new service trace, reusing the
  /// trace storage's capacity. No opportunity may still be pending
  /// (Simulator::reset first).
  void reset(std::span<const TimeNs> service_times);

  /// Number of service opportunities that found an empty queue.
  std::int64_t wasted_opportunities() const { return wasted_; }

 private:
  void on_opportunity();
  /// Arms the timer for the next opportunity, if any; a stamp already in the
  /// past fires now.
  void arm_next();

  sim::Timer opportunity_;
  std::vector<TimeNs> times_;
  std::size_t next_ = 0;
  std::int64_t wasted_ = 0;
};

/// Constant-rate store-and-forward link.
class FixedRateLink final : public BottleneckLink {
 public:
  FixedRateLink(sim::Simulator& sim, DropTailQueue& queue, PacketSink& egress,
                DataRate rate);

  void start() override;

  /// Enqueues, then starts serializing if the link was idle.
  bool offer(Packet&& p) override;

  const Packet* in_service() const override {
    return busy_ ? &in_service_ : nullptr;
  }

  /// Rearms the link for a fresh run (possibly with a new rate). No
  /// transmission may still be pending (Simulator::reset first).
  void reset(DataRate rate);

 private:
  void maybe_begin_service();
  void on_transmit_done();

  sim::Timer transmit_done_;
  DataRate rate_;
  bool busy_ = false;
  Packet in_service_;  ///< valid while busy_
};

}  // namespace ccfuzz::net
