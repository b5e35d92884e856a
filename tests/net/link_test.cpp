// Unit tests for the bottleneck link models: MahiMahi trace semantics and
// fixed-rate store-and-forward.
#include "net/link.h"

#include <gtest/gtest.h>

#include <vector>

#include "../sim/scripted_events.h"
#include "net/delay_pipe.h"
#include "sinks.h"

namespace ccfuzz::net {
namespace {

Packet make_packet(std::uint64_t id) {
  Packet p;
  p.id = id;
  p.flow = FlowId::kCcaData;
  return p;
}

/// A link whose egress is captured; the propagation tests put a DelayPipe
/// between the link and the capture instead.
struct LinkFixture {
  sim::Simulator sim;
  sim::Script script{sim};  // scripted arrivals
  DropTailQueue queue{100};
  CaptureSink egressed{sim};

  /// The instants packets left the link.
  std::vector<std::int64_t> egress_times_ms() const {
    return egressed.times_ms();
  }
};

TEST(TraceDrivenLink, OnePacketPerOpportunity) {
  LinkFixture f;
  TraceDrivenLink link(f.sim, f.queue, f.egressed,
                       {TimeNs::millis(10), TimeNs::millis(20), TimeNs::millis(30)});
  for (std::uint64_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(link.offer(make_packet(i)));
  }
  link.start();
  f.sim.run_all();
  // Two packets serviced at the first two opportunities; third wasted.
  EXPECT_EQ(f.egressed.ids(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(f.egress_times_ms(), (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(link.packets_served(), 2);
  EXPECT_EQ(link.wasted_opportunities(), 1);
}

TEST(TraceDrivenLink, WastedOpportunityNotRecovered) {
  // MahiMahi semantics: a packet arriving after an opportunity must wait for
  // the next one, even if the earlier opportunity went unused.
  LinkFixture f;
  TraceDrivenLink link(f.sim, f.queue, f.egressed,
                       {TimeNs::millis(10), TimeNs::millis(50)});
  link.start();
  f.script.at(TimeNs::millis(20), [&] { link.offer(make_packet(7)); });
  f.sim.run_all();
  EXPECT_EQ(f.egress_times_ms(), (std::vector<std::int64_t>{50}));
  EXPECT_EQ(link.wasted_opportunities(), 1);
}

TEST(TraceDrivenLink, PropagationDelayApplied) {
  // The link hands a packet over at the egress instant; the pipe behind it
  // adds the propagation delay.
  sim::Simulator sim;
  DropTailQueue queue(100);
  CaptureSink delivered(sim);
  DelayPipe propagation(sim, DurationNs::millis(20), delivered);
  TraceDrivenLink link(sim, queue, propagation, {TimeNs::millis(5)});
  link.offer(make_packet(1));
  link.start();
  sim.run_until(TimeNs::millis(5));
  EXPECT_EQ(link.packets_served(), 1);
  EXPECT_EQ(propagation.in_flight(), 1);
  sim.run_all();
  EXPECT_EQ(delivered.ids(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(delivered.times_ms(), (std::vector<std::int64_t>{25}));
}

TEST(TraceDrivenLink, BurstOpportunitiesDrainBackToBack) {
  // Multiple identical timestamps model aggregation bursts.
  LinkFixture f;
  TraceDrivenLink link(f.sim, f.queue, f.egressed,
                       {TimeNs::millis(10), TimeNs::millis(10), TimeNs::millis(10)});
  for (std::uint64_t i = 0; i < 3; ++i) link.offer(make_packet(i));
  link.start();
  f.sim.run_all();
  EXPECT_EQ(f.egressed.packets.size(), 3u);
  EXPECT_EQ(f.egress_times_ms(), (std::vector<std::int64_t>{10, 10, 10}));
}

TEST(TraceDrivenLink, EmptyTraceServesNothing) {
  LinkFixture f;
  TraceDrivenLink link(f.sim, f.queue, f.egressed, {});
  link.offer(make_packet(1));
  link.start();
  f.sim.run_all();
  EXPECT_TRUE(f.egressed.packets.empty());
  EXPECT_EQ(link.packets_served(), 0);
}

TEST(TraceDrivenLink, OfferReportsARefusalAndLeavesThePacket) {
  sim::Simulator sim;
  DropTailQueue queue(1);
  CaptureSink egressed(sim);
  TraceDrivenLink link(sim, queue, egressed, {TimeNs::millis(1)});
  EXPECT_TRUE(link.offer(make_packet(1)));
  Packet p = make_packet(2);
  EXPECT_FALSE(link.offer(std::move(p)));
  EXPECT_EQ(p.id, 2u);
  EXPECT_EQ(queue.stats().total_dropped(), 1);
}

TEST(FixedRateLink, ServesAtConfiguredRate) {
  // 12 Mbps, 1500 B → one packet per ms, starting when the queue fills.
  LinkFixture f;
  FixedRateLink link(f.sim, f.queue, f.egressed, DataRate::mbps(12));
  link.start();
  for (std::uint64_t i = 0; i < 3; ++i) link.offer(make_packet(i));
  f.sim.run_all();
  EXPECT_EQ(f.egress_times_ms(), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(link.packets_served(), 3);
}

TEST(FixedRateLink, OfferWakesOnlyAnIdleLink) {
  // The first offer starts serializing at once; offers during service queue
  // behind it and leave the transmission in progress alone.
  LinkFixture f;
  FixedRateLink link(f.sim, f.queue, f.egressed, DataRate::mbps(12));
  link.start();
  link.offer(make_packet(0));
  ASSERT_NE(link.in_service(), nullptr);
  EXPECT_EQ(link.in_service()->id, 0u);
  EXPECT_TRUE(f.queue.empty());
  f.script.at(TimeNs(500'000), [&] {
    link.offer(make_packet(1));
    EXPECT_EQ(link.in_service()->id, 0u);
    EXPECT_EQ(f.queue.size(), 1u);
  });
  f.sim.run_all();
  EXPECT_EQ(f.egressed.ids(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(f.egress_times_ms(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(link.in_service(), nullptr);
}

TEST(FixedRateLink, ResumesAfterIdle) {
  LinkFixture f;
  FixedRateLink link(f.sim, f.queue, f.egressed, DataRate::mbps(12));
  link.start();
  link.offer(make_packet(0));
  f.sim.run_all();
  ASSERT_EQ(f.egress_times_ms().size(), 1u);
  // Queue refilled 10 ms later: service restarts from the arrival time.
  f.script.at(TimeNs::millis(10), [&] { link.offer(make_packet(1)); });
  f.sim.run_all();
  EXPECT_EQ(f.egress_times_ms(), (std::vector<std::int64_t>{1, 11}));
}

TEST(FixedRateLink, PropagationDelayAfterSerialization) {
  sim::Simulator sim;
  DropTailQueue queue(100);
  CaptureSink delivered(sim);
  DelayPipe propagation(sim, DurationNs::millis(20), delivered);
  FixedRateLink link(sim, queue, propagation, DataRate::mbps(12));
  link.start();
  link.offer(make_packet(0));
  sim.run_all();
  EXPECT_EQ(delivered.times_ms(), (std::vector<std::int64_t>{21}));
}

TEST(FixedRateLink, HalfSizePacketsServeFaster) {
  LinkFixture f;
  FixedRateLink link(f.sim, f.queue, f.egressed, DataRate::mbps(12));
  link.start();
  Packet p = make_packet(0);
  p.size_bytes = 750;
  link.offer(std::move(p));
  f.sim.run_all();
  ASSERT_EQ(f.egress_times_ms().size(), 1u);
  EXPECT_EQ(f.sim.now(), TimeNs(500'000));  // 0.5 ms
}

}  // namespace
}  // namespace ccfuzz::net
