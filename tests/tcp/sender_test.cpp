// Unit tests for the TCP sender: windowing, SACK scoreboard, fast
// retransmit, RTO behaviour and pacing.
#include "tcp/sender.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cca/fixed_window.h"
#include "../net/sinks.h"
#include "../sim/scripted_events.h"
#include "sim/simulator.h"

namespace ccfuzz::tcp {
namespace {

/// Captures every data packet the sender emits.
struct SenderFixture {
  sim::Simulator sim;
  sim::Script script{sim};  // ACKs and other scripted events
  net::CaptureSink out{sim};
  std::vector<net::Packet>& sent = out.packets;
  TcpSender::Config cfg;

  SenderFixture() {
    cfg.rtt.min_rto = DurationNs::seconds(1);
    cfg.initial_cwnd = 10;
  }

  std::unique_ptr<TcpSender> make(std::int64_t cwnd,
                                  DataRate pacing = DataRate::zero()) {
    return std::make_unique<TcpSender>(
        sim, cfg, std::make_unique<cca::FixedWindow>(cwnd, pacing), out);
  }

  net::Packet ack(SeqNr cum, std::initializer_list<net::SackBlock> sacks = {}) {
    net::Packet a;
    a.flow = net::FlowId::kAck;
    a.tcp.ack = cum;
    a.tcp.n_sacks = 0;
    for (const auto& b : sacks) {
      a.tcp.sacks[static_cast<std::size_t>(a.tcp.n_sacks++)] = b;
    }
    return a;
  }
};

TEST(TcpSender, SendsWindowAtStart) {
  SenderFixture f;
  auto tx = f.make(4);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  ASSERT_EQ(f.sent.size(), 4u);
  for (SeqNr s = 0; s < 4; ++s) {
    EXPECT_EQ(f.sent[static_cast<std::size_t>(s)].tcp.seq, s);
  }
  EXPECT_EQ(tx->snd_nxt(), 4);
  EXPECT_EQ(tx->state().packets_out, 4);
}

TEST(TcpSender, StartTimeHonoured) {
  SenderFixture f;
  auto tx = f.make(2);
  tx->start(TimeNs::millis(500));
  f.sim.run_until(TimeNs::millis(499));
  EXPECT_TRUE(f.sent.empty());
  f.sim.run_until(TimeNs::millis(501));
  EXPECT_EQ(f.sent.size(), 2u);
}

TEST(TcpSender, DestroyedSenderGetsNoStartOrStop) {
  // Flow start and stop are the sender's own timers: a sender destroyed
  // while both are pending leaves nothing in the queue to fire into it.
  SenderFixture f;
  f.cfg.stop = TimeNs::millis(20);
  auto tx = f.make(4);
  tx->start(TimeNs::millis(10));
  EXPECT_EQ(f.sim.events().size(), 2u);
  tx.reset();
  // Running a queue that still held them would call into freed memory.
  ASSERT_EQ(f.sim.events().size(), 0u);
  EXPECT_EQ(f.sim.run_all(), 0u);
  EXPECT_TRUE(f.sent.empty());
}

TEST(TcpSender, ResetDropsPendingStartAndStopWithoutSimulatorReset) {
  // reset() on a simulator that was not reset: the old run's start and stop
  // must not fire into the new run.
  SenderFixture f;
  f.cfg.stop = TimeNs::millis(20);
  auto tx = f.make(4);
  tx->start(TimeNs::millis(10));
  TcpSender::Config fresh = f.cfg;
  fresh.stop = TimeNs::infinite();
  tx->reset(fresh, std::make_unique<cca::FixedWindow>(4));
  EXPECT_EQ(f.sim.events().size(), 0u);
  EXPECT_EQ(f.sim.run_until(TimeNs::millis(25)), 0u);
  EXPECT_TRUE(f.sent.empty());
  // The new run starts at its own time and no stale stop halts it.
  tx->start(TimeNs::millis(30));
  f.sim.run_until(TimeNs::millis(31));
  EXPECT_EQ(f.sent.size(), 4u);
}

TEST(TcpSender, AckAdvancesWindowAndSendsMore) {
  SenderFixture f;
  auto tx = f.make(3);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  ASSERT_EQ(f.sent.size(), 3u);
  f.script.at(TimeNs::millis(50), [&] { tx->on_ack_packet(f.ack(2)); });
  f.sim.run_until(TimeNs::millis(51));
  EXPECT_EQ(tx->snd_una(), 2);
  EXPECT_EQ(f.sent.size(), 5u);  // window slid by 2
  EXPECT_EQ(tx->delivered(), 2);
}

TEST(TcpSender, LimitedByTotalSegments) {
  SenderFixture f;
  f.cfg.total_segments = 3;
  auto tx = f.make(10);
  tx->start(TimeNs::zero());
  // Stop before the first RTO: with no ACK path the sender would otherwise
  // retransmit forever.
  f.sim.run_until(TimeNs::millis(500));
  EXPECT_EQ(f.sent.size(), 3u);
}

TEST(TcpSender, RttMeasurementFeedsEstimator) {
  SenderFixture f;
  auto tx = f.make(2);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] { tx->on_ack_packet(f.ack(1)); });
  f.sim.run_until(TimeNs::millis(41));
  EXPECT_EQ(tx->rtt_estimator().last_rtt(), DurationNs::millis(40));
  EXPECT_EQ(tx->state().min_rtt, DurationNs::millis(40));
}

TEST(TcpSender, FackLossMarkingTriggersFastRetransmit) {
  SenderFixture f;
  auto tx = f.make(8);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));  // seq 0..7 outstanding
  // SACKs for 1..3 (seq 0 lost). FACK = 4 → 4 - 3 = 1 > 0 → mark seq 0 lost.
  f.script.at(TimeNs::millis(40), [&] {
    tx->on_ack_packet(f.ack(0, {{1, 2}}));
    tx->on_ack_packet(f.ack(0, {{1, 3}}));
    tx->on_ack_packet(f.ack(0, {{1, 4}}));
  });
  f.sim.run_until(TimeNs::millis(45));
  EXPECT_EQ(tx->fast_retransmit_entries(), 1);
  EXPECT_TRUE(tx->state().in_recovery);
  EXPECT_EQ(tx->total_retransmissions(), 1);
  // The retransmission is of seq 0.
  bool found = false;
  for (const auto& p : f.sent) {
    if (p.tcp.seq == 0 && p.tcp.tx_id != f.sent[0].tcp.tx_id) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TcpSender, RecoveryExitsWhenRecoveryPointAcked) {
  SenderFixture f;
  auto tx = f.make(8);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] {
    tx->on_ack_packet(f.ack(0, {{1, 4}}));  // mark 0 lost, enter recovery
  });
  f.script.at(TimeNs::millis(80), [&] {
    tx->on_ack_packet(f.ack(8));  // everything through snd_nxt acked
  });
  f.sim.run_until(TimeNs::millis(81));
  EXPECT_FALSE(tx->state().in_recovery);
  EXPECT_EQ(tx->snd_una(), 8);
}

TEST(TcpSender, RtoRetransmitsHeadAndBacksOff) {
  SenderFixture f;
  auto tx = f.make(4);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  ASSERT_EQ(f.sent.size(), 4u);
  // No ACKs at all: RTO at ~1 s retransmits the head first (the fixed
  // window then lets the other lost segments follow).
  f.sim.run_until(TimeNs::millis(1100));
  EXPECT_EQ(tx->rto_count(), 1);
  EXPECT_EQ(tx->rto_backoff(), 1);
  ASSERT_GE(f.sent.size(), 5u);
  EXPECT_EQ(f.sent[4].tcp.seq, 0);
  EXPECT_TRUE(tx->state().in_loss);
  // Second RTO is backed off: fires ~2 s after the first.
  f.sim.run_until(TimeNs::millis(3200));
  EXPECT_EQ(tx->rto_count(), 2);
  EXPECT_EQ(tx->rto_backoff(), 2);
}

TEST(TcpSender, RtoMarksAllUnsackedLost) {
  SenderFixture f;
  auto tx = f.make(4);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] {
    tx->on_ack_packet(f.ack(0, {{2, 3}}));  // seq 2 sacked
  });
  f.sim.run_until(TimeNs::seconds(2));
  EXPECT_GE(tx->rto_count(), 1);
  // lost_out covers 0,1,3 (not the SACKed 2).
  EXPECT_EQ(tx->state().sacked_out, 1);
  EXPECT_GE(tx->state().lost_out, 3 - 1);  // some may have been retransmitted
}

TEST(TcpSender, KarnBackoffResetOnNewAck) {
  SenderFixture f;
  auto tx = f.make(4);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.sim.run_until(TimeNs::millis(1100));  // first RTO
  ASSERT_EQ(tx->rto_backoff(), 1);
  f.script.at(TimeNs::millis(1200), [&] { tx->on_ack_packet(f.ack(1)); });
  f.sim.run_until(TimeNs::millis(1201));
  EXPECT_EQ(tx->rto_backoff(), 0);
}

TEST(TcpSender, PacedTransmissionSpacesPackets) {
  SenderFixture f;
  auto tx = f.make(10, DataRate::mbps(12));  // 1 packet per ms
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(100));
  ASSERT_EQ(f.sent.size(), 10u);
  for (std::size_t i = 1; i < f.sent.size(); ++i) {
    const auto gap = f.sent[i].created_at - f.sent[i - 1].created_at;
    EXPECT_EQ(gap, DurationNs::millis(1)) << "packet " << i;
  }
}

TEST(TcpSender, DupAckEventFlagged) {
  SenderFixture f;
  auto tx = f.make(4);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  f.script.at(TimeNs::millis(40), [&] {
    tx->on_ack_packet(f.ack(0, {{1, 2}}));  // dup: no cum advance
  });
  f.sim.run_until(TimeNs::millis(41));
  EXPECT_EQ(tx->log().count(TcpEventType::kDupAck), 1);
  EXPECT_EQ(tx->log().count(TcpEventType::kSack), 1);
}

TEST(TcpSender, SpuriousRetransmissionDetected) {
  // Force the §4.1 pattern at the unit level: a retransmitted segment whose
  // SACK for the original copy arrives immediately after the retransmission.
  SenderFixture f;
  auto tx = f.make(8);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));  // 0..7 out
  // Establish min_rtt = 40 ms.
  f.script.at(TimeNs::millis(40), [&] { tx->on_ack_packet(f.ack(1)); });
  // RTO fires at t = 1040 ms (min-RTO 1 s from the ACK): everything is
  // marked lost and the fixed window lets the whole lost queue be
  // retransmitted immediately. SACKs for the ORIGINAL copies arrive 1 ms
  // later — far quicker than any real round trip.
  f.script.at(TimeNs::millis(1041), [&] {
    tx->on_ack_packet(f.ack(1, {{2, 5}}));
  });
  f.sim.run_until(TimeNs::millis(1100));
  ASSERT_GE(tx->rto_count(), 1);
  ASSERT_GE(tx->total_retransmissions(), 1);
  EXPECT_GE(tx->spurious_retx_count(), 1);
}

/// The scoreboard's loss-recovery events (kMarkLost "L", kRetransmit "R",
/// kSack "S", kRto "T") in log order. Runs of one type on consecutive seqs
/// at the same instant are folded to "L4-5"; "@<us>" opens each new instant.
std::string recovery_trace(const TcpEventLog& log) {
  std::string out;
  TimeNs at = TimeNs(-1);
  char run_type = 0;
  SeqNr run_lo = 0, run_hi = 0;
  auto flush = [&] {
    if (run_type == 0) return;
    out += ' ';
    out += run_type;
    out += std::to_string(run_lo);
    if (run_hi != run_lo) out += '-' + std::to_string(run_hi);
    run_type = 0;
  };
  for (const TcpEvent& e : log.events()) {
    char c = 0;
    switch (e.type) {
      case TcpEventType::kMarkLost: c = 'L'; break;
      case TcpEventType::kRetransmit: c = 'R'; break;
      case TcpEventType::kSack: c = 'S'; break;
      case TcpEventType::kRto: c = 'T'; break;
      default: continue;
    }
    if (e.time != at) {
      flush();
      at = e.time;
      out += " @" + std::to_string(at.ns() / 1000);
    }
    if (c == run_type && e.seq == run_hi + 1 && c != 'T') {
      run_hi = e.seq;
      continue;
    }
    flush();
    run_type = c;
    run_lo = run_hi = e.seq;
  }
  flush();
  return out;
}

TEST(TcpSender, LongRecoveryWithRtoIsPinned) {
  // A 64-segment window with many holes, a second round of FACK losses on
  // new data, an RTO in the middle of recovery, then SACKs (for original
  // copies and for retransmissions) that overlap the earlier blocks. Pins
  // the exact scoreboard event sequence and counters.
  SenderFixture f;
  f.cfg.log_events = true;
  f.cfg.total_segments = 200;
  auto tx = f.make(64);
  tx->start(TimeNs::zero());
  std::vector<net::Packet> acks;
  acks.reserve(16);  // events hold indices into a vector that never moves
  auto ack_at = [&](std::int64_t ms, SeqNr cum,
                    std::initializer_list<net::SackBlock> sacks) {
    acks.push_back(f.ack(cum, sacks));
    f.script.at(TimeNs::millis(ms), [&tx, &acks, i = acks.size() - 1] {
      tx->on_ack_packet(acks[i]);
    });
  };
  // Holes at 4-5, 10-11, 20-23, 40-43 and 60-63 of the first flight.
  ack_at(40, 4, {{44, 60}, {24, 40}, {12, 20}, {6, 10}});
  ack_at(45, 4, {{44, 62}, {24, 40}, {12, 20}, {6, 10}});
  // New data 70-79 SACKed: FACK marks 62-69 lost.
  ack_at(50, 4, {{70, 80}, {44, 62}, {24, 40}, {12, 20}});
  ack_at(55, 4, {{70, 84}, {44, 62}, {24, 40}, {12, 20}});
  // Silence until the RTO (~1.04 s); then late SACKs.
  ack_at(1041, 10, {{80, 90}, {70, 84}, {44, 62}, {24, 40}});
  ack_at(1045, 12, {{100, 104}, {80, 92}, {44, 62}, {24, 40}});
  ack_at(1050, 12, {{100, 110}, {62, 66}, {80, 92}, {44, 62}});
  ack_at(1060, 22, {{120, 130}, {100, 110}, {62, 70}, {80, 92}});
  ack_at(1070, 70, {{120, 140}, {100, 116}, {80, 92}});
  f.sim.run_until(TimeNs::millis(1080));

  EXPECT_EQ(recovery_trace(tx->log()),
            " @40000 S44-59 S24-39 S12-19 S6-9 L4-5 L10-11 L20-23 L40-43"
            " R4-5 R10-11 R20-23 R40-43"
            " @45000 S60-61"
            " @50000 S70-79 L62-69 R62-69"
            " @55000 S80-83"
            " @1040000 T4 L84-127 R4-5 R10-11 R20-23 R40-43 R62-69 R84-127"
            " @1041000 S84-89"
            " @1045000 S100-103 S90-91"
            " @1050000 S104-109 S62-65"
            " @1060000 S120-129 S66-69"
            " @1070000 S130-139 S110-115");
  EXPECT_EQ(tx->snd_una(), 70);
  EXPECT_EQ(tx->snd_nxt(), 192);
  EXPECT_EQ(tx->total_sent(), 276);
  EXPECT_EQ(tx->total_retransmissions(), 84);
  EXPECT_EQ(tx->rto_count(), 1);
  EXPECT_EQ(tx->fast_retransmit_entries(), 1);
  EXPECT_EQ(tx->spurious_retx_count(), 16);
  EXPECT_EQ(tx->state().sacked_out, 58);
  EXPECT_EQ(tx->state().lost_out, 12);
  EXPECT_EQ(tx->state().retrans_out, 12);
  EXPECT_EQ(tx->log().count(TcpEventType::kMarkLost), 64);
  EXPECT_EQ(tx->log().count(TcpEventType::kRetransmit), 84);
  EXPECT_EQ(tx->log().count(TcpEventType::kSack), 112);
}

TEST(TcpSender, EventLogRecordsSendsWhenEnabled) {
  SenderFixture f;
  f.cfg.log_events = true;
  auto tx = f.make(3);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  EXPECT_EQ(tx->log().count(TcpEventType::kSend), 3);
  EXPECT_EQ(tx->log().events().size(), 3u);
}

TEST(TcpSender, EventCountersKeptEvenWhenLogDisabled) {
  SenderFixture f;
  f.cfg.log_events = false;
  auto tx = f.make(3);
  tx->start(TimeNs::zero());
  f.sim.run_until(TimeNs::millis(1));
  EXPECT_EQ(tx->log().count(TcpEventType::kSend), 3);
  EXPECT_TRUE(tx->log().events().empty());
}

}  // namespace
}  // namespace ccfuzz::tcp
