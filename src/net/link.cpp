#include "net/link.h"

#include <algorithm>
#include <cassert>

namespace ccfuzz::net {

void BottleneckLink::complete_transmission(Packet&& p) {
  ++served_;
  if (egress_) egress_(p, sim_.now());
  // Without a sink there is nothing to deliver, and no event to spend.
  if (deliver_) prop_.send(std::move(p));
}

TraceDrivenLink::TraceDrivenLink(sim::Simulator& sim, DropTailQueue& queue,
                                 DurationNs prop_delay,
                                 std::vector<TimeNs> service_times)
    : BottleneckLink(sim, queue, prop_delay),
      opportunity_(sim, [this] { on_opportunity(); }),
      times_(std::move(service_times)) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < times_.size(); ++i) {
    assert(times_[i - 1] <= times_[i] && "service trace must be sorted");
  }
#endif
}

void TraceDrivenLink::reset(DurationNs prop_delay,
                            std::span<const TimeNs> service_times) {
  reset_base(prop_delay);
  times_.assign(service_times.begin(), service_times.end());
#ifndef NDEBUG
  for (std::size_t i = 1; i < times_.size(); ++i) {
    assert(times_[i - 1] <= times_[i] && "service trace must be sorted");
  }
#endif
  next_ = 0;
  wasted_ = 0;
}

void TraceDrivenLink::start() { arm_next(); }

void TraceDrivenLink::arm_next() {
  if (next_ < times_.size()) {
    opportunity_.arm(std::max(times_[next_] - sim_.now(), DurationNs::zero()));
  }
}

void TraceDrivenLink::on_opportunity() {
  if (auto p = queue_.dequeue()) {
    complete_transmission(std::move(*p));
  } else {
    ++wasted_;
  }
  ++next_;
  arm_next();
}

FixedRateLink::FixedRateLink(sim::Simulator& sim, DropTailQueue& queue,
                             DurationNs prop_delay, DataRate rate)
    : BottleneckLink(sim, queue, prop_delay),
      transmit_done_(sim, [this] { on_transmit_done(); }),
      rate_(rate) {
  queue_.set_nonempty_notifier([this] { maybe_begin_service(); });
}

void FixedRateLink::reset(DurationNs prop_delay, DataRate rate) {
  reset_base(prop_delay);
  rate_ = rate;
  busy_ = false;
  queue_.set_nonempty_notifier([this] { maybe_begin_service(); });
}

void FixedRateLink::start() { maybe_begin_service(); }

void FixedRateLink::maybe_begin_service() {
  if (busy_ || queue_.empty()) return;
  in_service_ = std::move(*queue_.dequeue());
  busy_ = true;
  transmit_done_.arm(rate_.transfer_time(in_service_.size_bytes));
}

void FixedRateLink::on_transmit_done() {
  complete_transmission(std::move(in_service_));
  busy_ = false;
  maybe_begin_service();
}

}  // namespace ccfuzz::net
