// Tests for figure series extraction.
#include "analysis/flow_metrics.h"

#include <gtest/gtest.h>

#include "cca/registry.h"

namespace ccfuzz::analysis {
namespace {

scenario::RunResult clean_run() {
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(3);
  // Figure series derive from the raw per-packet event streams.
  cfg.record_mode = scenario::RecordMode::kFullEvents;
  return scenario::run_scenario(cfg, cca::make_factory("reno"), {});
}

TEST(RateSeries, EgressApproachesLinkRate) {
  const auto run = clean_run();
  const auto s = rate_series(run, Stream::kEgress, net::FlowId::kCcaData);
  ASSERT_EQ(s.time_s.size(), 30u);  // 3 s / 100 ms
  ASSERT_EQ(s.mbps.size(), 30u);
  // Steady state: last windows at ~12 Mbps.
  EXPECT_NEAR(s.mbps.back(), 12.0, 1.0);
  // Window midpoints ascend.
  for (std::size_t i = 1; i < s.time_s.size(); ++i) {
    EXPECT_GT(s.time_s[i], s.time_s[i - 1]);
  }
}

TEST(RateSeries, IngressLeadsEgressDuringSlowStart) {
  const auto run = clean_run();
  const auto in = rate_series(run, Stream::kIngress, net::FlowId::kCcaData);
  const auto out = rate_series(run, Stream::kEgress, net::FlowId::kCcaData);
  // During ramp-up the sender bursts above the service rate at least once.
  bool ingress_peak = false;
  for (std::size_t i = 0; i < in.mbps.size(); ++i) {
    if (in.mbps[i] > out.mbps[i] + 1.0) ingress_peak = true;
  }
  EXPECT_TRUE(ingress_peak);
}

TEST(RateSeries, DropsSeriesConsistentWithQueueStats) {
  // Reno probes by filling the queue, so even an uncontended run drops;
  // the drop series must account for exactly those packets.
  const auto run = clean_run();
  const auto s = rate_series(run, Stream::kDrops, net::FlowId::kCcaData);
  double packets = 0.0;
  for (double v : s.mbps) packets += v * 0.1 / (1500 * 8) * 1e6;  // Mbps→pkts
  EXPECT_NEAR(packets, static_cast<double>(run.primary().drops), 0.5);
}

TEST(DelaySeries, MatchesEgressCount) {
  const auto run = clean_run();
  const auto d = delay_series(run, net::FlowId::kCcaData);
  EXPECT_EQ(d.time_s.size(),
            static_cast<std::size_t>(run.primary().egress_packets));
  EXPECT_EQ(d.time_s.size(), d.delay_ms.size());
  for (double ms : d.delay_ms) {
    EXPECT_GE(ms, 0.0);
    EXPECT_LE(ms, 51.0);  // 50-packet queue at 1 ms per packet
  }
}

TEST(LinkRateSeries, TrafficModeIsConstant) {
  const auto run = clean_run();
  const auto s = link_rate_series(run, {});
  ASSERT_FALSE(s.mbps.empty());
  for (double v : s.mbps) EXPECT_DOUBLE_EQ(v, 12.0);
}

TEST(LinkRateSeries, LinkModeFollowsTrace) {
  scenario::ScenarioConfig cfg;
  cfg.mode = scenario::FuzzMode::kLink;
  cfg.duration = TimeNs::seconds(2);
  cfg.record_mode = scenario::RecordMode::kFullEvents;
  // 1000 opportunities in the first second only.
  std::vector<TimeNs> trace;
  for (int i = 0; i < 1000; ++i) trace.emplace_back(TimeNs::millis(i));
  const auto run = scenario::run_scenario(cfg, cca::make_factory("reno"), trace);
  const auto s = link_rate_series(run, trace, DurationNs::millis(500));
  ASSERT_EQ(s.mbps.size(), 4u);
  EXPECT_NEAR(s.mbps[0], 12.0, 0.5);
  EXPECT_NEAR(s.mbps[1], 12.0, 0.5);
  EXPECT_DOUBLE_EQ(s.mbps[2], 0.0);
  EXPECT_DOUBLE_EQ(s.mbps[3], 0.0);
}

TEST(Utilization, CleanRunNearOne) {
  const auto run = clean_run();
  const double u =
      utilization(run, TimeNs::seconds(1), TimeNs::seconds(3));
  EXPECT_GT(u, 0.9);
  EXPECT_LE(u, 1.01);
}

TEST(Utilization, EmptyIntervalIsZero) {
  const auto run = clean_run();
  EXPECT_DOUBLE_EQ(
      utilization(run, TimeNs::seconds(2), TimeNs::seconds(2)), 0.0);
}

}  // namespace
}  // namespace ccfuzz::analysis
