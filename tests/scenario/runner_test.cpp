// Tests for the one-call run harness and its RunResult metrics.
#include "scenario/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "analysis/flow_metrics.h"
#include "cca/registry.h"

namespace ccfuzz::scenario {
namespace {

ScenarioConfig base_config() {
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(3);
  return cfg;
}

TEST(Runner, RenoCleanLinkResult) {
  const auto r = run_scenario(base_config(), cca::make_factory("reno"), {});
  EXPECT_GT(r.goodput_mbps(), 9.0);
  EXPECT_GT(r.primary().segments_delivered, 2000);
  EXPECT_EQ(r.cross_sent, 0);
  EXPECT_FALSE(r.stalled(DurationNs::millis(500)));
}

TEST(Runner, DeterministicAcrossCalls) {
  ScenarioConfig cfg = base_config();
  cfg.record_mode = RecordMode::kFullEvents;
  const auto a = run_scenario(cfg, cca::make_factory("cubic"), {});
  const auto b = run_scenario(cfg, cca::make_factory("cubic"), {});
  EXPECT_EQ(a.primary().segments_delivered, b.primary().segments_delivered);
  EXPECT_EQ(a.primary().sent, b.primary().sent);
  EXPECT_EQ(a.primary().rto_count, b.primary().rto_count);
  EXPECT_EQ(a.recorder.egress().size(), b.recorder.egress().size());
}

TEST(Runner, WindowedThroughputSeries) {
  const auto r = run_scenario(base_config(), cca::make_factory("reno"), {});
  const auto w = r.windowed_throughput_mbps();  // 500 ms metrics_window
  ASSERT_EQ(w.size(), 6u);
  // Post slow-start windows run near link rate.
  EXPECT_GT(w.back(), 9.0);
  for (double v : w) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 12.5);
  }
}

TEST(Runner, CrossTrafficCountsReported) {
  // A paced stream, then a burst of twice the gateway queue's capacity in
  // one instant. Every arrival, cross traffic or CCA data, passes the
  // gateway once: it is recorded as ingress, then either enqueued or
  // refused and recorded as a drop.
  ScenarioConfig cfg = base_config();
  std::vector<TimeNs> trace;
  for (int i = 0; i < 100; ++i) trace.emplace_back(TimeNs::millis(10 + i));
  const auto burst = static_cast<std::int64_t>(2 * cfg.net.queue_capacity);
  for (std::int64_t i = 0; i < burst; ++i) {
    trace.emplace_back(TimeNs::millis(1000));
  }
  const auto r = run_scenario(cfg, cca::make_factory("reno"), trace);
  EXPECT_EQ(r.cross_sent, 100 + burst);
  EXPECT_GT(r.cross_drops, 0);
  EXPECT_EQ(r.cross_drops, r.recorder.drop_count(net::FlowId::kCrossTraffic));
  EXPECT_EQ(r.recorder.ingress_count(net::FlowId::kCrossTraffic), r.cross_sent);
  for (const net::FlowId kind :
       {net::FlowId::kCcaData, net::FlowId::kCrossTraffic}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const auto k = static_cast<std::size_t>(kind);
    EXPECT_GT(r.queue_stats.dropped[k], 0);
    EXPECT_EQ(r.recorder.ingress_count(kind),
              r.queue_stats.enqueued[k] + r.queue_stats.dropped[k]);
    EXPECT_EQ(r.recorder.drop_count(kind), r.queue_stats.dropped[k]);
  }
}

// Both trace consumers walk the stamps in order, so an unsorted trace is
// refused up front in every build type. The same thread's context then runs
// the sorted trace (duplicates are bursts, and allowed) normally.
void expect_unsorted_trace_rejected(FuzzMode mode) {
  ScenarioConfig cfg = base_config();
  cfg.mode = mode;
  std::vector<TimeNs> trace;
  for (int i = 0; i < 200; ++i) trace.emplace_back(TimeNs::millis(10 + i));
  trace.emplace_back(TimeNs::millis(100));  // one stamp out of order
  const auto factory = cca::make_factory("reno");
  EXPECT_THROW(run_scenario(cfg, factory, trace), std::invalid_argument);
  std::sort(trace.begin(), trace.end());
  const auto r = run_scenario(cfg, factory, trace);
  EXPECT_GT(r.primary().segments_delivered, 0);
  if (mode == FuzzMode::kTraffic) {
    EXPECT_EQ(r.cross_sent, 201);
  }
}

TEST(Runner, UnsortedLinkTraceIsRejected) {
  expect_unsorted_trace_rejected(FuzzMode::kLink);
}

TEST(Runner, UnsortedTrafficTraceIsRejected) {
  expect_unsorted_trace_rejected(FuzzMode::kTraffic);
}

TEST(Runner, QueueDelaysPopulated) {
  ScenarioConfig cfg = base_config();
  cfg.record_mode = RecordMode::kFullEvents;  // raw delay samples
  const auto r = run_scenario(cfg, cca::make_factory("reno"), {});
  const auto delays_ms = analysis::flow_delay_series(r, 0).delay_ms;
  EXPECT_EQ(delays_ms.size(),
            static_cast<std::size_t>(r.primary().egress_packets));
  for (const double ms : delays_ms) {
    const double d = ms * 1e-3;
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 0.06);  // 50-packet queue ≈ 50 ms max
  }
}

TEST(Runner, StalledDetectsDeadTail) {
  // Link mode with opportunities only in the first second: the flow cannot
  // make progress afterwards → stalled.
  ScenarioConfig cfg = base_config();
  cfg.mode = FuzzMode::kLink;
  std::vector<TimeNs> trace;
  for (int i = 1; i < 1000; ++i) trace.emplace_back(TimeNs::millis(i));
  const auto r = run_scenario(cfg, cca::make_factory("reno"), trace);
  EXPECT_TRUE(r.stalled(DurationNs::millis(1500)));
  EXPECT_FALSE(r.stalled(DurationNs::seconds(3)));  // early egress exists
}

TEST(Runner, GoodputAccountsForLateFlowStart) {
  ScenarioConfig cfg = base_config();
  cfg.flows = {FlowSpec{.start = TimeNs::seconds(1)}};
  const auto r = run_scenario(cfg, cca::make_factory("reno"), {});
  // Goodput normalized over the 2 s of actual flow time.
  EXPECT_GT(r.goodput_mbps(), 8.0);
}

TEST(Runner, TotalSegmentsLimitsTransfer) {
  ScenarioConfig cfg = base_config();
  cfg.flows = {FlowSpec{.total_segments = 100}};
  const auto r = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_EQ(r.primary().segments_delivered, 100);
  EXPECT_LE(r.primary().sent, 120);  // a few retransmissions at most
}

TEST(Runner, BbrRunsCleanLink) {
  const auto r = run_scenario(base_config(), cca::make_factory("bbr"), {});
  EXPECT_GT(r.goodput_mbps(), 9.0) << "BBR must fill a clean 12 Mbps pipe";
  EXPECT_FALSE(r.stalled(DurationNs::millis(500)));
  // Model introspection: bandwidth estimate near 1000 pps.
  EXPECT_GT(r.primary().final_bw_estimate_pps, 800.0);
  EXPECT_LT(r.primary().final_bw_estimate_pps, 1400.0);
}

TEST(Runner, BbrKeepsQueueShorterThanCubic) {
  // BBR's design goal: high throughput with less standing queue than
  // loss-based CCAs on the same path.
  ScenarioConfig cfg = base_config();
  cfg.duration = TimeNs::seconds(5);
  cfg.record_mode = RecordMode::kFullEvents;  // raw delay samples
  const auto bbr = run_scenario(cfg, cca::make_factory("bbr"), {});
  const auto cubic = run_scenario(cfg, cca::make_factory("cubic"), {});
  const auto bbr_delays = analysis::flow_delay_series(bbr, 0).delay_ms;
  const auto cubic_delays = analysis::flow_delay_series(cubic, 0).delay_ms;
  ASSERT_FALSE(bbr_delays.empty());
  ASSERT_FALSE(cubic_delays.empty());
  double bbr_mean = 0, cubic_mean = 0;
  for (double d : bbr_delays) bbr_mean += d;
  for (double d : cubic_delays) cubic_mean += d;
  bbr_mean /= static_cast<double>(bbr_delays.size());
  cubic_mean /= static_cast<double>(cubic_delays.size());
  EXPECT_LT(bbr_mean, cubic_mean);
}

}  // namespace
}  // namespace ccfuzz::scenario
