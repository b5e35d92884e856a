// End-to-end regression tests for the paper's three findings (§4).
//
// Each finding is reproduced deterministically with a constructively
// crafted trace (scenario::crafted) rather than a GA search, so these run
// in seconds and fail loudly if any transport/CCA mechanism regresses.
#include <gtest/gtest.h>

#include "analysis/flow_metrics.h"
#include "analysis/timeline.h"
#include "cca/registry.h"
#include "scenario/crafted.h"
#include "scenario/runner.h"

namespace ccfuzz {
namespace {

scenario::ScenarioConfig stall_config() {
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(12);
  cfg.net.queue_capacity = 50;
  // Linux-scale receive buffer: with only ~87 segments the flow silences
  // itself (window closed) before the RTO fires and the §4.1 spurious-
  // retransmission chain never runs.
  cfg.receive_window_segments = 2000;
  return cfg;
}

// --- §4.1: BBR permanent stall --------------------------------------------

TEST(Finding41_BbrStall, RetransmissionKillerStallsBbrPermanently) {
  const auto crafted = scenario::crafted::craft_retransmission_killer(
      stall_config(), cca::make_factory("bbr"));
  const auto& run = crafted.final_run;
  // The flow dies shortly after the first burst (t = 2 s) and never comes
  // back within the horizon: zero bottleneck egress over the last 6 s.
  std::int64_t tail = 0;
  for (const auto& e : run.recorder.egress()) {
    if (e.flow == net::FlowId::kCcaData && e.time >= TimeNs::seconds(6)) {
      ++tail;
    }
  }
  EXPECT_EQ(tail, 0) << "BBR must be stuck for the rest of the run";
  EXPECT_TRUE(run.stalled(DurationNs::seconds(2)));
  EXPECT_LT(run.goodput_mbps(), 3.0);
  // The attack is minimal: a few hundred cross packets against a link that
  // carries ~12000 in the same period.
  EXPECT_LT(run.cross_sent, 800);
}

TEST(Finding41_BbrStall, StallChainDiagnosticsPresent) {
  const auto crafted = scenario::crafted::craft_retransmission_killer(
      stall_config(), cca::make_factory("bbr"));
  const auto d =
      analysis::stall_diagnostics(crafted.final_run.primary().tcp_log);
  // The §4.1 mechanism: RTOs, spurious retransmissions of data whose SACKs
  // were still in flight, and premature probe-round ends from restamped
  // prior_delivered.
  EXPECT_GE(d.rtos, 2);
  EXPECT_GT(d.spurious_retx, 5);
  EXPECT_GT(d.probe_round_ends, 10);
  EXPECT_GT(d.marks_lost, 50);
}

TEST(Finding41_BbrStall, CorruptedSamplesPoisonFilterDuringEpisode) {
  const auto crafted = scenario::crafted::craft_retransmission_killer(
      stall_config(), cca::make_factory("bbr"));
  // During the attack episode the accepted bandwidth samples include
  // collapsed values (~1 packet per RTT instead of ~1000 pps).
  double min_sample = 1e18;
  for (const auto& ev : crafted.final_run.primary().tcp_log.events()) {
    if (ev.type == tcp::TcpEventType::kBwSample &&
        ev.time > TimeNs::seconds(2)) {
      min_sample = std::min(min_sample, ev.value);
    }
  }
  EXPECT_LT(min_sample, 100.0)
      << "expected corrupted low-rate samples in the bandwidth filter";
}

TEST(Finding41_BbrStall, SameTraceLeavesRenoAlive) {
  // The kill train is tuned to BBR's retransmission schedule; Reno, with a
  // different recovery cadence, sails through the same trace — this is a
  // schedule-targeted failure, not generic starvation. (CUBIC's fast-
  // retransmit timing happens to coincide with BBR's here, so it is also
  // caught; crafting against CUBIC conversely spares BBR.)
  const auto crafted = scenario::crafted::craft_retransmission_killer(
      stall_config(), cca::make_factory("bbr"));
  const auto run = scenario::run_scenario(
      stall_config(), cca::make_factory("reno"), crafted.trace);
  EXPECT_FALSE(run.stalled(DurationNs::seconds(2)));
  EXPECT_GT(run.goodput_mbps(), 6.0);
}

// --- §4.2: ns-3 CUBIC slow-start bug ---------------------------------------

TEST(Finding42_CubicBug, BuggyCubicBurstsAfterRtoRecovery) {
  // Kill a packet and its fast retransmission; the RTO retransmission then
  // yields one huge cumulative ACK. The ns-3 CUBIC inflates cwnd by the
  // full ACKed count (no ssthresh clamp) and bursts, causing drops; the
  // fixed CUBIC does not.
  const auto buggy = scenario::crafted::craft_retransmission_killer(
      stall_config(), cca::make_factory("cubic-ns3bug"),
      {.max_bursts = 3});
  const auto fixed = scenario::run_scenario(
      stall_config(), cca::make_factory("cubic"), buggy.trace);
  // Same trace: the buggy variant suffers strictly more drops at the
  // bottleneck after the recovery point (the burst past ssthresh).
  EXPECT_GT(buggy.final_run.primary().drops, fixed.primary().drops);
}

// --- §4.3: Reno low-rate (shrew) attack ------------------------------------

TEST(Finding43_Shrew, AdaptiveKillerLocksRenoIntoBackoff) {
  const auto crafted = scenario::crafted::craft_retransmission_killer(
      stall_config(), cca::make_factory("reno"));
  const auto& run = crafted.final_run;
  EXPECT_TRUE(run.stalled(DurationNs::seconds(1)));
  EXPECT_LT(run.goodput_mbps(), 4.0);
  EXPECT_GE(run.primary().rto_count, 2);
  EXPECT_GE(run.primary().final_rto_backoff, 2)
      << "exponential backoff must engage";
}

TEST(Finding43_Shrew, OpenLoopPeriodicBurstsDegradeReno) {
  // The classic open-loop attack from [13]: bursts at ~the min-RTO period.
  // Open-loop bursts degrade Reno (periodic multiplicative decreases) but
  // full lockout needs the adaptive variant that also kills the
  // retransmissions — which is exactly what the GA / crafter finds.
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(10);
  cfg.net.queue_capacity = 50;
  const auto clean = scenario::run_scenario(cfg, cca::make_factory("reno"), {});
  const auto trace = scenario::crafted::shrew_trace(
      TimeNs::millis(1500), DurationNs::seconds(1), 60, cfg.duration);
  const auto run =
      scenario::run_scenario(cfg, cca::make_factory("reno"), trace);
  EXPECT_LT(run.goodput_mbps(), clean.goodput_mbps() - 1.0);
  EXPECT_GT(run.primary().drops, 0);
  // Attack efficiency: the attacker averages well under the link rate.
  const double attack_mbps = static_cast<double>(run.cross_sent) * 1500 * 8 /
                             cfg.duration.to_seconds() * 1e-6;
  EXPECT_LT(attack_mbps, 2.0);
}

// --- Fig 4e: standing-queue delay attack on BBR ----------------------------

TEST(Fig4e_Delay, StandingQueueInflatesBbrDelayFloor) {
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(5);
  cfg.flows = {scenario::FlowSpec{.start = TimeNs::millis(200)}};
  cfg.record_mode = scenario::RecordMode::kFullEvents;  // raw delay samples
  const auto clean = scenario::run_scenario(cfg, cca::make_factory("bbr"), {});
  const auto trace = scenario::crafted::standing_queue_trace(
      cfg.flows[0].start, cfg.net.queue_capacity, DurationNs::millis(2), 1,
      cfg.duration);
  const auto attacked =
      scenario::run_scenario(cfg, cca::make_factory("bbr"), trace);
  const auto p10 = [](const scenario::RunResult& r) {
    auto d = analysis::flow_delay_series(r, 0).delay_ms;
    std::sort(d.begin(), d.end());
    return d.empty() ? 0.0 : d[d.size() / 10] * 1e-3;  // seconds
  };
  // The queue is pre-filled before BBR starts, so BBR never observes the
  // true min RTT and its delay floor rises by an order of magnitude.
  EXPECT_GT(p10(attacked), 10 * p10(clean) + 0.001);
}

}  // namespace
}  // namespace ccfuzz
