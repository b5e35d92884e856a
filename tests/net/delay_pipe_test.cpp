// Unit tests for the fixed-delay pipe (access links, ACK return path).
#include "net/delay_pipe.h"

#include <gtest/gtest.h>

#include <vector>

#include "../sim/scripted_events.h"
#include "sim/simulator.h"
#include "sinks.h"

namespace ccfuzz::net {
namespace {

TEST(DelayPipe, DeliversAfterExactDelay) {
  sim::Simulator sim;
  CaptureSink out(sim);
  DelayPipe pipe(sim, DurationNs::millis(20), out);
  pipe.receive(Packet{});
  sim.run_all();
  EXPECT_EQ(out.times_ms(), (std::vector<std::int64_t>{20}));
}

TEST(DelayPipe, PreservesFifoOrderForSimultaneousSends) {
  sim::Simulator sim;
  CaptureSink out(sim);
  DelayPipe pipe(sim, DurationNs::millis(5), out);
  for (std::uint64_t i = 0; i < 10; ++i) {
    Packet p;
    p.id = i;
    pipe.receive(std::move(p));
  }
  sim.run_all();
  const std::vector<std::uint64_t> ids = out.ids();
  ASSERT_EQ(ids.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(ids[static_cast<std::size_t>(i)], i);
  }
}

TEST(DelayPipe, InFlightCountTracksOccupancy) {
  sim::Simulator sim;
  CaptureSink out(sim);
  DelayPipe pipe(sim, DurationNs::millis(10), out);
  pipe.receive(Packet{});
  pipe.receive(Packet{});
  EXPECT_EQ(pipe.in_flight(), 2);
  sim.run_all();
  EXPECT_EQ(pipe.in_flight(), 0);
}

TEST(DelayPipe, ZeroDelayDeliversAtSameTime) {
  sim::Simulator sim;
  sim::Script script(sim);
  CaptureSink out(sim);
  DelayPipe pipe(sim, DurationNs::zero(), out);
  script.at(TimeNs::millis(3), [&] { pipe.receive(Packet{}); });
  sim.run_all();
  ASSERT_EQ(out.times.size(), 1u);
  EXPECT_EQ(out.times[0], TimeNs::millis(3));
}

TEST(DelayPipe, PacketContentsPassThroughUntouched) {
  sim::Simulator sim;
  CaptureSink out(sim);
  DelayPipe pipe(sim, DurationNs::millis(1), out);
  Packet p;
  p.id = 77;
  p.flow = FlowId::kAck;
  p.tcp.ack = 42;
  p.tcp.sacks[0] = {10, 12};
  p.tcp.n_sacks = 1;
  pipe.receive(std::move(p));
  sim.run_all();
  ASSERT_EQ(out.packets.size(), 1u);
  const Packet& got = out.packets[0];
  EXPECT_EQ(got.id, 77u);
  EXPECT_EQ(got.flow, FlowId::kAck);
  EXPECT_EQ(got.tcp.ack, 42);
  EXPECT_EQ(got.tcp.sacks[0], (SackBlock{10, 12}));
}

TEST(DelayPipe, PipesChainThroughTheirSinks) {
  // A pipe is itself a sink: two chained pipes add their delays.
  sim::Simulator sim;
  CaptureSink out(sim);
  DelayPipe second(sim, DurationNs::millis(7), out);
  DelayPipe first(sim, DurationNs::millis(3), second);
  first.receive(Packet{});
  sim.run_all();
  EXPECT_EQ(out.times_ms(), (std::vector<std::int64_t>{10}));
  EXPECT_EQ(first.in_flight() + second.in_flight(), 0);
}

}  // namespace
}  // namespace ccfuzz::net
