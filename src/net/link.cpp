#include "net/link.h"

#include <cassert>

namespace ccfuzz::net {

TraceDrivenLink::TraceDrivenLink(sim::Simulator& sim, DropTailQueue& queue,
                                 PacketSink& egress,
                                 std::vector<TimeNs> service_times)
    : BottleneckLink(sim, queue, egress),
      opportunity_(sim, [this] { on_opportunity(); }),
      times_(std::move(service_times)) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < times_.size(); ++i) {
    assert(times_[i - 1] <= times_[i] && "service trace must be sorted");
  }
#endif
}

void TraceDrivenLink::reset(std::span<const TimeNs> service_times) {
  served_ = 0;
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
    opportunity_.arm_at(times_[next_]);
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
                             PacketSink& egress, DataRate rate)
    : BottleneckLink(sim, queue, egress),
      transmit_done_(sim, [this] { on_transmit_done(); }),
      rate_(rate) {}

void FixedRateLink::reset(DataRate rate) {
  served_ = 0;
  rate_ = rate;
  busy_ = false;
}

void FixedRateLink::start() { maybe_begin_service(); }

bool FixedRateLink::offer(Packet&& p) {
  if (!queue_.try_enqueue(std::move(p), sim_.now())) return false;
  maybe_begin_service();  // a no-op unless the queue was empty and idle
  return true;
}

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
