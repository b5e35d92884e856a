// Tests for the Linux tcp_rate.c-style delivery-rate sampler — the machinery
// behind the paper's BBR stall (§4.1). A recording CCA captures every
// RateSample the sender generates.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../net/sinks.h"
#include "../sim/scripted_events.h"
#include "sim/simulator.h"
#include "tcp/sender.h"

namespace ccfuzz::tcp {
namespace {

/// Fixed-window CCA that records every (state, event, sample) triple. The
/// window can be shrunk mid-test to force ACK-clocked retransmissions.
class RecordingCca final : public CongestionControl {
 public:
  struct Obs {
    SenderState st;
    AckEvent ev;
    RateSample rs;
  };

  explicit RecordingCca(std::int64_t cwnd, std::vector<Obs>* out)
      : cwnd_(cwnd), out_(out) {}

  void on_ack(const SenderState& st, const AckEvent& ev,
              const RateSample& rs) override {
    out_->push_back({st, ev, rs});
  }
  std::int64_t cwnd_segments() const override { return cwnd_; }
  void set_cwnd(std::int64_t cwnd) { cwnd_ = cwnd; }
  const char* name() const override { return "recording"; }

 private:
  std::int64_t cwnd_;
  std::vector<Obs>* out_;
};

struct RateFixture {
  sim::Simulator sim;
  sim::Script script{sim};  // scripted ACKs
  net::CaptureSink out{sim};
  std::vector<net::Packet>& sent = out.packets;
  std::vector<RecordingCca::Obs> obs;
  TcpSender::Config cfg;
  RecordingCca* cca = nullptr;  // owned by the sender

  std::unique_ptr<TcpSender> make(std::int64_t cwnd) {
    cfg.rtt.min_rto = DurationNs::seconds(1);
    auto rec = std::make_unique<RecordingCca>(cwnd, &obs);
    cca = rec.get();
    return std::make_unique<TcpSender>(
        sim, cfg, std::move(rec), out);
  }

  net::Packet ack(SeqNr cum, std::initializer_list<net::SackBlock> sacks = {}) {
    net::Packet a;
    a.flow = net::FlowId::kAck;
    a.tcp.ack = cum;
    for (const auto& b : sacks) {
      a.tcp.sacks[static_cast<std::size_t>(a.tcp.n_sacks++)] = b;
    }
    return a;
  }
};

TEST(RateSampler, FirstAckYieldsSampleWithZeroPriorDelivered) {
  RateFixture f;
  auto tx = f.make(4);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] { tx->on_ack_packet(f.ack(1)); });
  f.sim.run_until(TimeNs::millis(41));
  ASSERT_EQ(f.obs.size(), 1u);
  const auto& rs = f.obs[0].rs;
  EXPECT_EQ(rs.prior_delivered, 0);
  EXPECT_EQ(rs.delivered, 1);
  EXPECT_EQ(rs.acked_sacked, 1);
  EXPECT_FALSE(rs.is_retrans);
  EXPECT_EQ(rs.rtt, DurationNs::millis(40));
}

TEST(RateSampler, DeliveryRateMatchesAckSpacing) {
  RateFixture f;
  auto tx = f.make(4);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  // ACKs 40 ms apart, one segment each. The second sample comes from the
  // skb of seq 1, which was sent at flow start (prior_delivered = 0); its
  // ack-phase interval spans both ACK arrivals.
  f.script.at(TimeNs::millis(40), [&] { tx->on_ack_packet(f.ack(1)); });
  f.script.at(TimeNs::millis(80), [&] { tx->on_ack_packet(f.ack(2)); });
  f.sim.run_until(TimeNs::millis(81));
  ASSERT_EQ(f.obs.size(), 2u);
  const auto& rs = f.obs[1].rs;
  EXPECT_TRUE(rs.valid_loose());
  EXPECT_EQ(rs.prior_delivered, 0);
  EXPECT_GE(rs.interval, DurationNs::millis(40));
  EXPECT_GT(rs.delivery_rate_pps, 0.0);
}

TEST(RateSampler, SampleBelowMinRttFlagged) {
  // On a clean path the sample interval can never undercut min_rtt (the
  // ack phase spans at least the sampled segment's own RTT). Only a
  // restamped retransmission can — this is the §4.1 corruption in
  // miniature:
  // Retransmissions must be ACK-clocked one at a time (a batched burst
  // shares one stale send-phase anchor), so the window shrinks to 3 after
  // the initial flight:
  //   t=0   seq 0..7 sent
  //   t=40  ACK(1): min_rtt = 40 ms, seq 8 released (sent at t=40)
  //   t=50  cwnd → 3
  //   t=80  dup ACK SACKing seq 8 (RTT 40 ms, min preserved): anchor moves
  //         to t=40; FACK marks seq 1..5 lost, window admits only the
  //         retransmission of seq 1 (restamped at t=80)
  //   t=81  ACK(2) delivers retransmitted seq 1 (interval 40 ms,
  //         borderline); anchor moves to t=80; seq 2 retransmitted at t=81
  //   t=82  ACK(3) delivers retransmitted seq 2: send phase 1 ms, ack
  //         phase 1 ms → interval 1 ms < min_rtt 40 ms → flagged.
  RateFixture f;
  auto tx = f.make(8);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] { tx->on_ack_packet(f.ack(1)); });
  f.script.at(TimeNs::millis(50), [&] { f.cca->set_cwnd(3); });
  f.script.at(TimeNs::millis(80), [&] {
    tx->on_ack_packet(f.ack(1, {{8, 9}}));
  });
  f.script.at(TimeNs::millis(81), [&] { tx->on_ack_packet(f.ack(2)); });
  f.script.at(TimeNs::millis(82), [&] { tx->on_ack_packet(f.ack(3)); });
  f.sim.run_until(TimeNs::millis(83));
  ASSERT_EQ(f.obs.size(), 4u);
  const auto& rs = f.obs[3].rs;
  EXPECT_TRUE(rs.is_retrans);
  EXPECT_TRUE(rs.below_min_rtt);
  EXPECT_FALSE(rs.valid());       // Linux-strict rejects it
  EXPECT_TRUE(rs.valid_loose());  // ns-3-loose accepts it
  EXPECT_GE(rs.delivered, 1);
  EXPECT_GT(rs.prior_delivered, 0);  // the restamped (corrupted) snapshot
}

TEST(RateSampler, RetransmissionRestampsPriorDelivered) {
  // The core §4.1 mechanism. Sequence:
  //   t=0     seq 0..7 sent (prior_delivered stamped 0 on each)
  //   t=40    cumulative ACK 1                  → delivered = 1
  //   t≈1040  RTO → all marked lost, head + others retransmitted; each
  //           retransmission restamps its prior_delivered to the delivered
  //           count at retransmit time.
  //   later   SACK for the ORIGINAL copy of a retransmitted segment arrives:
  //           the rate sample must carry the RESTAMPED (large) value, not 0.
  RateFixture f;
  auto tx = f.make(8);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] { tx->on_ack_packet(f.ack(1)); });
  f.sim.run_until(TimeNs::millis(1200));  // RTO fired, retransmissions out
  ASSERT_GE(tx->rto_count(), 1);
  ASSERT_GT(tx->total_retransmissions(), 1);

  const auto obs_before = f.obs.size();
  // Late SACK for segments 2..4 whose originals were "delivered" long ago.
  f.script.at(TimeNs::millis(1250), [&] {
    tx->on_ack_packet(f.ack(1, {{2, 5}}));
  });
  f.sim.run_until(TimeNs::millis(1251));
  ASSERT_EQ(f.obs.size(), obs_before + 1);
  const auto& rs = f.obs.back().rs;
  // prior_delivered reflects the delivered count when the spurious
  // retransmission was sent (1), not when the original was sent (0).
  EXPECT_EQ(rs.prior_delivered, 1);
  EXPECT_TRUE(rs.is_retrans);
}

TEST(RateSampler, EachSkbSampledOnce) {
  RateFixture f;
  auto tx = f.make(4);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  // SACK 1..2, then cumulative ACK 2: the second ACK covers already-SACKed
  // seq 1, which must not produce a second sample from the same skb.
  f.script.at(TimeNs::millis(40), [&] {
    tx->on_ack_packet(f.ack(0, {{1, 2}}));
  });
  f.script.at(TimeNs::millis(42), [&] { tx->on_ack_packet(f.ack(2)); });
  f.sim.run_until(TimeNs::millis(43));
  ASSERT_EQ(f.obs.size(), 2u);
  // Second ACK delivers only seq 0 (seq 1 was already delivered by SACK).
  EXPECT_EQ(f.obs[1].ev.newly_acked, 2);
  EXPECT_EQ(f.obs[1].st.delivered, 2);
}

TEST(RateSampler, PriorInFlightSnapshotTaken) {
  RateFixture f;
  auto tx = f.make(6);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] { tx->on_ack_packet(f.ack(3)); });
  f.sim.run_until(TimeNs::millis(41));
  ASSERT_EQ(f.obs.size(), 1u);
  EXPECT_EQ(f.obs[0].rs.prior_in_flight, 6);
}

TEST(RateSampler, LossCountsReportedInSample) {
  RateFixture f;
  auto tx = f.make(8);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] {
    tx->on_ack_packet(f.ack(0, {{1, 5}}));  // FACK ⇒ seq 0 marked lost
  });
  f.sim.run_until(TimeNs::millis(41));
  ASSERT_EQ(f.obs.size(), 1u);
  EXPECT_EQ(f.obs[0].rs.losses, 1);
  EXPECT_EQ(f.obs[0].rs.acked_sacked, 4);
}

TEST(RateSampler, DeliveredCounterMonotone) {
  RateFixture f;
  auto tx = f.make(8);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  std::int64_t last = 0;
  for (int i = 1; i <= 8; ++i) {
    f.script.at(TimeNs::millis(40 + i), [&, i] {
      tx->on_ack_packet(f.ack(i));
    });
  }
  f.sim.run_until(TimeNs::millis(60));
  for (const auto& o : f.obs) {
    EXPECT_GE(o.st.delivered, last);
    last = o.st.delivered;
  }
  EXPECT_EQ(tx->delivered(), 8);
}

}  // namespace
}  // namespace ccfuzz::tcp
