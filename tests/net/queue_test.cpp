// Unit tests for the drop-tail gateway queue.
#include "net/queue.h"

#include <gtest/gtest.h>

namespace ccfuzz::net {
namespace {

Packet make_packet(FlowId flow, std::uint64_t id = 0) {
  Packet p;
  p.id = id;
  p.flow = flow;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.try_enqueue(make_packet(FlowId::kCcaData, i), TimeNs::zero()));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->id, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(2);
  EXPECT_TRUE(q.try_enqueue(make_packet(FlowId::kCcaData), TimeNs::zero()));
  EXPECT_TRUE(q.try_enqueue(make_packet(FlowId::kCcaData), TimeNs::zero()));
  EXPECT_FALSE(q.try_enqueue(make_packet(FlowId::kCrossTraffic), TimeNs::zero()));
  EXPECT_EQ(q.size(), 2u);
  const auto& st = q.stats();
  EXPECT_EQ(st.enqueued[static_cast<std::size_t>(FlowId::kCcaData)], 2);
  EXPECT_EQ(st.dropped[static_cast<std::size_t>(FlowId::kCrossTraffic)], 1);
  EXPECT_EQ(st.total_dropped(), 1);
}

TEST(DropTailQueue, EnqueueStampsArrivalTime) {
  DropTailQueue q(2);
  q.try_enqueue(make_packet(FlowId::kCcaData), TimeNs::millis(42));
  auto p = q.dequeue();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->enqueued_at, TimeNs::millis(42));
}

TEST(DropTailQueue, RefusedPacketIsLeftUntouched) {
  // The caller still holds a refused packet, so it can record the drop
  // without a copy (scenario::Dumbbell's gateway does).
  DropTailQueue q(1);
  EXPECT_TRUE(q.try_enqueue(make_packet(FlowId::kCcaData, 1), TimeNs::zero()));
  Packet p = make_packet(FlowId::kCrossTraffic, 99);
  p.size_bytes = 700;
  p.tcp.seq = 5;
  EXPECT_FALSE(q.try_enqueue(std::move(p), TimeNs::millis(3)));
  EXPECT_EQ(p.id, 99u);
  EXPECT_EQ(p.flow, FlowId::kCrossTraffic);
  EXPECT_EQ(p.size_bytes, 700);
  EXPECT_EQ(p.tcp.seq, 5);
  EXPECT_EQ(p.enqueued_at, TimeNs{});  // not stamped: it never got in
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.stats().dropped[static_cast<std::size_t>(FlowId::kCrossTraffic)],
            1);
}

TEST(DropTailQueue, PerFlowDequeueCounters) {
  DropTailQueue q(4);
  q.try_enqueue(make_packet(FlowId::kCcaData), TimeNs::zero());
  q.try_enqueue(make_packet(FlowId::kCrossTraffic), TimeNs::zero());
  (void)q.dequeue();
  (void)q.dequeue();
  const auto& st = q.stats();
  EXPECT_EQ(st.dequeued[static_cast<std::size_t>(FlowId::kCcaData)], 1);
  EXPECT_EQ(st.dequeued[static_cast<std::size_t>(FlowId::kCrossTraffic)], 1);
}

TEST(DropTailQueue, CapacityOneBehaves) {
  DropTailQueue q(1);
  EXPECT_TRUE(q.try_enqueue(make_packet(FlowId::kCcaData), TimeNs::zero()));
  EXPECT_FALSE(q.try_enqueue(make_packet(FlowId::kCcaData), TimeNs::zero()));
  (void)q.dequeue();
  EXPECT_TRUE(q.try_enqueue(make_packet(FlowId::kCcaData), TimeNs::zero()));
}

}  // namespace
}  // namespace ccfuzz::net
