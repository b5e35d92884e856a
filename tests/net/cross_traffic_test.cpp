// Unit tests for the cross-traffic injector (traffic fuzzing's actuator).
// The injector only emits; drops at a full gateway queue are counted by the
// queue (see Runner.CrossTrafficCountsReported for the dumbbell's gateway).
#include "net/cross_traffic.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/queue.h"
#include "sinks.h"

namespace ccfuzz::net {
namespace {

TEST(CrossTrafficInjector, InjectsOnePacketPerTimestamp) {
  sim::Simulator sim;
  CaptureSink out(sim);
  CrossTrafficInjector inj(sim, out,
                           {TimeNs::millis(1), TimeNs::millis(2), TimeNs::millis(5)});
  inj.start();
  sim.run_all();
  EXPECT_EQ(inj.packets_sent(), 3);
  EXPECT_EQ(out.times_ms(), (std::vector<std::int64_t>{1, 2, 5}));
}

TEST(CrossTrafficInjector, CountsDropsWhenQueueFull) {
  // A stand-in gateway offers each packet to a two-slot queue. The burst of
  // four reaches the sink whole, dropped packets included, in schedule
  // order; the queue counts the two it refused.
  sim::Simulator sim;
  DropTailQueue q(2);
  CaptureSink seen(sim);
  FnSink gateway([&](Packet&& p) {
    seen.receive(Packet(p));
    q.try_enqueue(std::move(p), sim.now());
  });
  CrossTrafficInjector inj(
      sim, gateway, {TimeNs::millis(1), TimeNs::millis(1), TimeNs::millis(1), TimeNs::millis(1)});
  inj.start();
  sim.run_all();
  EXPECT_EQ(inj.packets_sent(), 4);
  const std::vector<std::uint64_t> ids = seen.ids();
  ASSERT_EQ(ids.size(), 4u);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(ids[i], ids[0] + i);
  EXPECT_EQ(seen.times_ms(), (std::vector<std::int64_t>{1, 1, 1, 1}));
  const auto cross = static_cast<std::size_t>(FlowId::kCrossTraffic);
  EXPECT_EQ(q.stats().dropped[cross], 2);
  EXPECT_EQ(q.stats().enqueued[cross], 2);
}

TEST(CrossTrafficInjector, InjectObserverSeesEveryPacket) {
  // The sink observes each injection at its stamp, including one that the
  // gateway's one-slot queue then refuses.
  sim::Simulator sim;
  DropTailQueue q(1);
  CaptureSink seen(sim);
  FnSink gateway([&](Packet&& p) {
    seen.receive(Packet(p));
    q.try_enqueue(std::move(p), sim.now());
  });
  CrossTrafficInjector inj(sim, gateway,
                           {TimeNs::millis(1), TimeNs::millis(2)});
  inj.start();
  sim.run_all();
  EXPECT_EQ(seen.times_ms(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(inj.packets_sent(), 2);
  const auto cross = static_cast<std::size_t>(FlowId::kCrossTraffic);
  EXPECT_EQ(q.stats().dropped[cross], 1);
}

TEST(CrossTrafficInjector, PacketsTaggedAsCrossTraffic) {
  sim::Simulator sim;
  CaptureSink out(sim);
  CrossTrafficInjector inj(sim, out, {TimeNs::millis(3)}, kDefaultPacketBytes,
                           4);
  inj.start();
  sim.run_all();
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].flow, FlowId::kCrossTraffic);
  EXPECT_EQ(out.packets[0].flow_index, 4);
  EXPECT_EQ(out.packets[0].created_at, TimeNs::millis(3));
}

TEST(CrossTrafficInjector, CustomPacketSize) {
  sim::Simulator sim;
  CaptureSink out(sim);
  CrossTrafficInjector inj(sim, out, {TimeNs::millis(1)}, 500);
  inj.start();
  sim.run_all();
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].size_bytes, 500);
}

TEST(CrossTrafficInjector, EmptyTraceInjectsNothing) {
  sim::Simulator sim;
  CaptureSink out(sim);
  CrossTrafficInjector inj(sim, out, {});
  inj.start();
  sim.run_all();
  EXPECT_EQ(inj.packets_sent(), 0);
  EXPECT_TRUE(out.packets.empty());
}

}  // namespace
}  // namespace ccfuzz::net
