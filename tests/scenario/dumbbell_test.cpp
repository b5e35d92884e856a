// Integration tests for the dumbbell wiring: a CCA flow end-to-end over the
// simulated bottleneck.
#include "scenario/dumbbell.h"

#include <gtest/gtest.h>

#include "cca/fixed_window.h"
#include "cca/reno.h"
#include "dumbbell_rig.h"

namespace ccfuzz::scenario {
namespace {

std::vector<TimeNs> uniform_trace(DurationNs spacing, TimeNs until) {
  std::vector<TimeNs> v;
  for (TimeNs t = TimeNs::zero() + spacing; t < until; t += spacing) {
    v.push_back(t);
  }
  return v;
}

tcp::CcaFactory fixed_window(int cwnd) {
  return [cwnd] { return std::make_unique<cca::FixedWindow>(cwnd); };
}

TEST(Dumbbell, FixedWindowFlowDeliversEndToEnd) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.mode = FuzzMode::kTraffic;
  cfg.duration = TimeNs::seconds(2);
  const Dumbbell& db = rig.run(cfg, fixed_window(10));
  // 12 Mbps = 1000 pkt/s; a window of 10 over ~41 ms RTT ≈ 244 pkt/s.
  EXPECT_GT(db.receiver().segments_received(), 200);
  EXPECT_GT(db.sender().total_sent(), 200);
  EXPECT_EQ(db.queue().stats().total_dropped(), 0);
}

TEST(Dumbbell, BaseRttObserved) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(1);
  // Window of 2 so the second segment triggers an undelayed ACK (a window
  // of 1 would measure the 200 ms delack timeout instead).
  const Dumbbell& db = rig.run(cfg, fixed_window(2));
  // RTT ≈ access 0.1 + serialization 2×1 + bottleneck 20 + ack 20 ≈ 42.1 ms.
  const DurationNs rtt = db.sender().rtt_estimator().min_rtt();
  EXPECT_GE(rtt, DurationNs::millis(41));
  EXPECT_LE(rtt, DurationNs::millis(43));
}

TEST(Dumbbell, WindowLargerThanPipePlusQueueOverflows) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.net.queue_capacity = 20;
  cfg.record_mode = RecordMode::kFullEvents;
  // BDP ≈ 41 packets; wnd 100 ≫ BDP + queue → sustained drops.
  const Dumbbell& db = rig.run(cfg, fixed_window(100));
  EXPECT_GT(db.queue().stats().total_dropped(), 0);
  EXPECT_GT(db.recorder().drops().size(), 0u);
}

TEST(Dumbbell, LinkModeUsesTraceAsServiceCurve) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.mode = FuzzMode::kLink;
  cfg.duration = TimeNs::seconds(2);
  cfg.net.queue_capacity = 200;          // hold the whole fixed window
  cfg.receive_window_segments = 1000;    // flow control out of the way
  // Service curve: one opportunity every 2 ms → effective 6 Mbps.
  auto trace = uniform_trace(DurationNs::millis(2), cfg.duration);
  const Dumbbell& db = rig.run(cfg, fixed_window(100), trace);
  const auto egress = db.recorder().egress_count(net::FlowId::kCcaData);
  // ~1000 opportunities in 2 s minus the first RTT's worth of idle.
  EXPECT_GT(egress, 800);
  EXPECT_LE(egress, 1000);
}

TEST(Dumbbell, LinkModeZeroRateRegionStallsService) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.mode = FuzzMode::kLink;
  cfg.duration = TimeNs::seconds(2);
  cfg.record_mode = RecordMode::kFullEvents;
  // Opportunities only in the first 0.5 s.
  auto trace = uniform_trace(DurationNs::millis(1), TimeNs::millis(500));
  const Dumbbell& db = rig.run(cfg, fixed_window(10), trace);
  for (const auto& e : db.recorder().egress()) {
    EXPECT_LT(e.time, TimeNs::millis(501));
  }
}

TEST(Dumbbell, CrossTrafficCompetesForQueue) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.mode = FuzzMode::kTraffic;
  cfg.duration = TimeNs::seconds(2);
  cfg.net.queue_capacity = 10;
  cfg.receive_window_segments = 10000;  // isolate queue competition
  // Cross traffic at 6 Mbps (every 2 ms) steals half the bottleneck.
  auto trace = uniform_trace(DurationNs::millis(2), cfg.duration);
  const Dumbbell& db = rig.run(cfg, fixed_window(50), trace);
  const auto cca_egress = db.recorder().egress_count(net::FlowId::kCcaData);
  const auto cross_egress =
      db.recorder().egress_count(net::FlowId::kCrossTraffic);
  EXPECT_GT(cross_egress, 600);   // cross traffic gets through
  EXPECT_LT(cca_egress, 1400);    // CCA cannot have the whole link
  EXPECT_GT(cca_egress, 200);
}

TEST(Dumbbell, CrossTrafficRecordedAsIngress) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.duration = TimeNs::millis(100);
  cfg.record_mode = RecordMode::kFullEvents;
  std::vector<TimeNs> trace{TimeNs::millis(10), TimeNs::millis(20)};
  const Dumbbell& db = rig.run(cfg, fixed_window(1), trace);
  int cross_ingress = 0;
  for (const auto& e : db.recorder().ingress()) {
    cross_ingress += e.flow == net::FlowId::kCrossTraffic ? 1 : 0;
  }
  EXPECT_EQ(cross_ingress, 2);
}

TEST(Dumbbell, FlowStartDelayHonoured) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(1);
  cfg.flows = {FlowSpec{.start = TimeNs::millis(500)}};
  cfg.record_mode = RecordMode::kFullEvents;
  const Dumbbell& db = rig.run(cfg, fixed_window(5));
  ASSERT_FALSE(db.recorder().ingress().empty());
  EXPECT_GE(db.recorder().ingress().front().time, TimeNs::millis(500));
}

TEST(Dumbbell, RenoFillsCleanPipe) {
  // End-to-end sanity: NewReno on an uncontended 12 Mbps link achieves high
  // utilization within a couple of seconds.
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(5);
  const Dumbbell& db =
      rig.run(cfg, [] { return std::make_unique<cca::Reno>(); });
  const double goodput_mbps =
      static_cast<double>(db.receiver().segments_received()) * 1500 * 8 /
      cfg.duration.to_seconds() * 1e-6;
  EXPECT_GT(goodput_mbps, 9.0);
  EXPECT_LE(goodput_mbps, 12.1);
}

TEST(Dumbbell, QueueDelaySamplesBounded) {
  DumbbellRig rig;
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.net.queue_capacity = 25;
  cfg.record_mode = RecordMode::kFullEvents;
  const Dumbbell& db = rig.run(cfg, fixed_window(100));
  // Max queueing delay = capacity × 1 ms service time ≈ 25 ms.
  for (const auto& d : db.recorder().delays()) {
    EXPECT_LE(d.queue_delay, DurationNs::millis(26));
  }
}

}  // namespace
}  // namespace ccfuzz::scenario
