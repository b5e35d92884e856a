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
// Each link paces itself with one sim::Timer, re-armed from its own expiry
// (the next opportunity, the next transmit-done), so its per-packet events
// keep one queue handle and never touch the event slab.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "net/delay_pipe.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace ccfuzz::net {

/// Invoked when a packet finishes propagation and arrives at the sink.
using DeliveryFn = std::function<void(Packet&&)>;
/// Invoked at the instant a packet leaves the bottleneck (egress), before
/// propagation. Used for egress-rate recording.
using EgressFn = std::function<void(const Packet&, TimeNs)>;

/// Common interface for bottleneck links draining a DropTailQueue.
class BottleneckLink {
 public:
  virtual ~BottleneckLink() = default;
  // The propagation pipe's callback captures `this`.
  BottleneckLink(const BottleneckLink&) = delete;
  BottleneckLink& operator=(const BottleneckLink&) = delete;

  /// Schedules initial service activity. Call once before running.
  virtual void start() = 0;

  /// Sink-side delivery callback (after propagation delay).
  void set_delivery(DeliveryFn fn) { deliver_ = std::move(fn); }
  /// Egress observation callback (at transmission completion instant).
  void set_egress_observer(EgressFn fn) { egress_ = std::move(fn); }

  /// Packets transmitted so far.
  std::int64_t packets_served() const { return served_; }

  /// The packet being serialized, if any (nullptr between packets and for
  /// links that transmit instantly).
  virtual const Packet* in_service() const { return nullptr; }
  /// Transmitted packets still propagating towards the sink.
  const DelayPipe& propagation() const { return prop_; }

 protected:
  BottleneckLink(sim::Simulator& sim, DropTailQueue& queue,
                 DurationNs prop_delay)
      : sim_(sim), queue_(queue),
        prop_(sim, prop_delay, [this](Packet&& p) { deliver_(std::move(p)); }) {}

  /// Transmits one packet (already dequeued) at the current time: notifies
  /// the egress observer and sends the packet down the propagation pipe.
  void complete_transmission(Packet&& p);

  /// Shared part of the per-run reset: zeroed counters, new delay. The
  /// observer/delivery callbacks are kept (they outlive runs in a reusable
  /// harness).
  void reset_base(DurationNs prop_delay) {
    prop_.reset(prop_delay);
    served_ = 0;
  }

  sim::Simulator& sim_;
  DropTailQueue& queue_;
  DeliveryFn deliver_;
  EgressFn egress_;
  /// Propagation stage: an event lane, one queue handle for all packets on
  /// the wire.
  DelayPipe prop_;
  std::int64_t served_ = 0;
};

/// MahiMahi-style trace-driven link: one service opportunity per timestamp.
class TraceDrivenLink final : public BottleneckLink {
 public:
  /// `service_times` must be sorted ascending. Opportunities before start()
  /// is called are honoured as long as they are >= the current sim time.
  TraceDrivenLink(sim::Simulator& sim, DropTailQueue& queue,
                  DurationNs prop_delay, std::vector<TimeNs> service_times);

  void start() override;

  /// Rearms the link for a fresh run with a new service trace, reusing the
  /// trace storage's capacity. No opportunity may still be pending
  /// (Simulator::reset first).
  void reset(DurationNs prop_delay, std::span<const TimeNs> service_times);

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
  FixedRateLink(sim::Simulator& sim, DropTailQueue& queue,
                DurationNs prop_delay, DataRate rate);

  void start() override;

  const Packet* in_service() const override {
    return busy_ ? &in_service_ : nullptr;
  }

  /// Rearms the link for a fresh run (possibly with a new rate) and
  /// re-registers its queue non-empty notifier — a reusable harness may have
  /// pointed the queue at a different link in between.
  void reset(DurationNs prop_delay, DataRate rate);

 private:
  void maybe_begin_service();
  void on_transmit_done();

  sim::Timer transmit_done_;
  DataRate rate_;
  bool busy_ = false;
  Packet in_service_;  ///< valid while busy_
};

}  // namespace ccfuzz::net
