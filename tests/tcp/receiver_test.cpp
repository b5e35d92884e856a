// Unit tests for the TCP receiver: cumulative ACKs, SACK blocks, delayed
// ACKs, and duplicate handling.
#include "tcp/receiver.h"

#include <gtest/gtest.h>

#include <vector>

#include "../net/sinks.h"
#include "sim/simulator.h"

namespace ccfuzz::tcp {
namespace {

net::Packet data(SeqNr seq, std::int64_t tx_id = 0) {
  net::Packet p;
  p.flow = net::FlowId::kCcaData;
  p.tcp.seq = seq;
  p.tcp.tx_id = tx_id;
  return p;
}

struct ReceiverFixture {
  sim::Simulator sim;
  net::CaptureSink out{sim};
  std::vector<net::Packet>& acks = out.packets;
  TcpReceiver::Config cfg;

  std::unique_ptr<TcpReceiver> make() {
    return std::make_unique<TcpReceiver>(sim, cfg, out);
  }
};

TEST(TcpReceiver, DelayedAckEverySecondSegment) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  EXPECT_EQ(f.acks.size(), 0u);  // first segment: ACK delayed
  rx->on_data_packet(data(1));
  ASSERT_EQ(f.acks.size(), 1u);  // second segment: ACK now
  EXPECT_EQ(f.acks[0].tcp.ack, 2);
  EXPECT_EQ(f.acks[0].tcp.n_sacks, 0);
}

TEST(TcpReceiver, DelackTimerFlushesSingleSegment) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  EXPECT_TRUE(f.acks.empty());
  f.sim.run_all();  // delack timer (200 ms default) fires
  ASSERT_EQ(f.acks.size(), 1u);
  EXPECT_EQ(f.acks[0].tcp.ack, 1);
  EXPECT_EQ(f.sim.now(), TimeNs::millis(200));
}

TEST(TcpReceiver, DelayedAckDisabledAcksEverySegment) {
  ReceiverFixture f;
  f.cfg.delayed_ack = false;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  rx->on_data_packet(data(1));
  EXPECT_EQ(f.acks.size(), 2u);
}

TEST(TcpReceiver, OutOfOrderTriggersImmediateDupAckWithSack) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  rx->on_data_packet(data(1));  // cumulative ACK 2
  rx->on_data_packet(data(3));  // hole at 2 → immediate dup ACK + SACK
  ASSERT_EQ(f.acks.size(), 2u);
  const auto& ack = f.acks[1];
  EXPECT_EQ(ack.tcp.ack, 2);
  ASSERT_EQ(ack.tcp.n_sacks, 1);
  EXPECT_EQ(ack.tcp.sacks[0], (net::SackBlock{3, 4}));
}

TEST(TcpReceiver, SackBlocksMostRecentFirst) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));  // rcv_nxt = 1 (delack pending)
  rx->on_data_packet(data(2));  // block {2,3}
  rx->on_data_packet(data(4));  // block {4,5}
  rx->on_data_packet(data(6));  // block {6,7}
  const auto& ack = f.acks.back();
  ASSERT_EQ(ack.tcp.n_sacks, 3);
  EXPECT_EQ(ack.tcp.sacks[0], (net::SackBlock{6, 7}));
  EXPECT_EQ(ack.tcp.sacks[1], (net::SackBlock{4, 5}));
  EXPECT_EQ(ack.tcp.sacks[2], (net::SackBlock{2, 3}));
}

TEST(TcpReceiver, AdjacentOutOfOrderSegmentsMerge) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  rx->on_data_packet(data(2));
  rx->on_data_packet(data(3));  // merges into {2,4}
  const auto& ack = f.acks.back();
  ASSERT_GE(ack.tcp.n_sacks, 1);
  EXPECT_EQ(ack.tcp.sacks[0], (net::SackBlock{2, 4}));
}

TEST(TcpReceiver, FillingHoleAbsorbsBufferAndAcksImmediately) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  rx->on_data_packet(data(2));
  rx->on_data_packet(data(3));
  const auto before = f.acks.size();
  rx->on_data_packet(data(1));  // fills the hole → rcv_nxt jumps to 4
  ASSERT_EQ(f.acks.size(), before + 1);
  EXPECT_EQ(f.acks.back().tcp.ack, 4);
  EXPECT_EQ(f.acks.back().tcp.n_sacks, 0);
  EXPECT_EQ(rx->rcv_nxt(), 4);
  EXPECT_EQ(rx->segments_received(), 4);
}

TEST(TcpReceiver, PartialHoleFillAcksImmediatelyKeepingSack) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  rx->on_data_packet(data(4));  // far block
  const auto before = f.acks.size();
  rx->on_data_packet(data(1));  // advances rcv_nxt to 2 but hole 2-3 remains
  ASSERT_EQ(f.acks.size(), before + 1);
  EXPECT_EQ(f.acks.back().tcp.ack, 2);
  EXPECT_EQ(f.acks.back().tcp.n_sacks, 1);
}

TEST(TcpReceiver, DuplicateBelowRcvNxtAckedImmediately) {
  // A spurious retransmission arriving after the original: the receiver
  // answers with an immediate (duplicate) ACK. This dup ACK is part of the
  // paper's BBR stall chain.
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  rx->on_data_packet(data(1));
  const auto before = f.acks.size();
  rx->on_data_packet(data(0, /*tx_id=*/55));  // duplicate
  ASSERT_EQ(f.acks.size(), before + 1);
  EXPECT_EQ(f.acks.back().tcp.ack, 2);
  EXPECT_EQ(f.acks.back().tcp.acked_tx_id, 55);
  EXPECT_EQ(rx->duplicates_received(), 1);
}

TEST(TcpReceiver, DuplicateInOooBufferCounted) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));
  rx->on_data_packet(data(2));
  rx->on_data_packet(data(2));  // duplicate of a buffered segment
  EXPECT_EQ(rx->duplicates_received(), 1);
}

TEST(TcpReceiver, DelackTimerCancelledByImmediateAck) {
  ReceiverFixture f;
  auto rx = f.make();
  rx->on_data_packet(data(0));   // arms delack
  rx->on_data_packet(data(2));   // OOO → immediate ACK, cancels delack
  const auto acks_now = f.acks.size();
  f.sim.run_all();
  EXPECT_EQ(f.acks.size(), acks_now);  // no extra timer ACK
}

TEST(TcpReceiver, AckCountsAndTxIdPlumbing) {
  ReceiverFixture f;
  f.cfg.delayed_ack = false;
  auto rx = f.make();
  rx->on_data_packet(data(0, 7));
  EXPECT_EQ(rx->acks_sent(), 1);
  EXPECT_EQ(f.acks[0].tcp.acked_tx_id, 7);
  EXPECT_EQ(f.acks[0].flow, net::FlowId::kAck);
  EXPECT_EQ(f.acks[0].size_bytes, 40);
}

}  // namespace
}  // namespace ccfuzz::tcp
