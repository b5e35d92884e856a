// Multi-flow scenario tests: competing CCA flows over the shared bottleneck
// (FlowSpec topologies), per-flow results, presets, and the RunResult edge
// cases around late flow starts / short runs / RunContext reuse.
#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "cca/registry.h"
#include "scenario/presets.h"
#include "scenario/runner.h"

namespace ccfuzz::scenario {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Order-sensitive digest over everything observable from a multi-flow run:
/// per-flow counters plus the full bottleneck record streams (with real
/// flow ids).
std::uint64_t fingerprint(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, static_cast<std::int64_t>(r.flow_count()));
  for (const FlowResult& f : r.flows) {
    h = fnv1a(h, f.segments_delivered);
    h = fnv1a(h, f.egress_packets);
    h = fnv1a(h, f.sent);
    h = fnv1a(h, f.retransmissions);
    h = fnv1a(h, f.drops);
    h = fnv1a(h, f.rto_count);
    h = fnv1a(h, f.spurious_retx_count);
    h = fnv1a(h, f.final_rto_backoff);
  }
  h = fnv1a(h, r.cross_sent);
  h = fnv1a(h, r.cross_drops);
  for (const auto& e : r.recorder.ingress()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow));
    h = fnv1a(h, static_cast<std::int64_t>(e.flow_index));
  }
  for (const auto& e : r.recorder.egress()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow_index));
  }
  for (const auto& e : r.recorder.drops()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow_index));
  }
  for (const auto& d : r.recorder.delays()) {
    h = fnv1a(h, d.queue_delay.ns());
  }
  return h;
}

ScenarioConfig two_flow_config(TimeNs duration = TimeNs::seconds(3)) {
  ScenarioConfig cfg;
  cfg.duration = duration;
  cfg.flows.resize(2);
  // Several tests here digest the raw event streams or scan ingress times.
  cfg.record_mode = RecordMode::kFullEvents;
  return cfg;
}

TEST(MultiFlow, TwoRenoFlowsShareTheBottleneck) {
  const auto run =
      run_scenario(two_flow_config(), cca::make_factory("reno"), {});
  ASSERT_EQ(run.flow_count(), 2u);
  // Both flows make real progress and the link is still well utilized.
  EXPECT_GT(run.goodput_mbps(0), 2.0);
  EXPECT_GT(run.goodput_mbps(1), 2.0);
  EXPECT_GT(run.goodput_mbps(0) + run.goodput_mbps(1), 9.0);
  // Two homogeneous flows over the same path converge near-fair.
  EXPECT_GT(run.jain_fairness(), 0.8);
}

TEST(MultiFlow, PerFlowCountersMatchKindTotals) {
  const auto run =
      run_scenario(two_flow_config(), cca::make_factory("reno"), {});
  const auto& rec = run.recorder;
  EXPECT_EQ(rec.flow_egress_count(0) + rec.flow_egress_count(1),
            rec.egress_count(net::FlowId::kCcaData));
  EXPECT_EQ(rec.flow_drop_count(0) + rec.flow_drop_count(1),
            rec.drop_count(net::FlowId::kCcaData));
  EXPECT_EQ(run.flow(0).egress_packets, rec.flow_egress_count(0));
  EXPECT_EQ(run.flow(1).egress_packets, rec.flow_egress_count(1));
  // Per-flow drops sum to the queue's per-kind total too.
  EXPECT_EQ(run.flow(0).drops + run.flow(1).drops,
            run.queue_stats.dropped[static_cast<std::size_t>(
                net::FlowId::kCcaData)]);
}

TEST(MultiFlow, LateStarterJoinsMidRun) {
  ScenarioConfig cfg = two_flow_config(TimeNs::seconds(4));
  cfg.flows[1].start = TimeNs::seconds(2);
  const auto run = run_scenario(cfg, cca::make_factory("reno"), {});
  // No flow-1 packet before its start time.
  for (const auto& e : run.recorder.ingress()) {
    if (e.flow == net::FlowId::kCcaData && e.flow_index == 1) {
      EXPECT_GE(e.time, cfg.flows[1].start);
    }
  }
  EXPECT_GT(run.flow(1).sent, 0);
  EXPECT_EQ(run.flow(1).start, TimeNs::seconds(2));
  // The late flow's goodput is rated over its own active interval.
  EXPECT_GT(run.goodput_mbps(1), 1.0);
}

TEST(MultiFlow, StopTimeHaltsAFlow) {
  ScenarioConfig cfg = two_flow_config(TimeNs::seconds(4));
  cfg.flows[0].stop = TimeNs::seconds(1);
  const auto run = run_scenario(cfg, cca::make_factory("reno"), {});
  // Nothing from flow 0 enters the gateway (noticeably) after its stop: one
  // access-delay's worth of in-flight packets may still arrive.
  const TimeNs margin = cfg.flows[0].stop + DurationNs::millis(1);
  for (const auto& e : run.recorder.ingress()) {
    if (e.flow == net::FlowId::kCcaData && e.flow_index == 0) {
      EXPECT_LT(e.time, margin);
    }
  }
  // The survivor takes over the vacated bandwidth.
  EXPECT_GT(run.goodput_mbps(1), run.goodput_mbps(0));
  EXPECT_EQ(run.flow(0).stop, TimeNs::seconds(1));
}

TEST(MultiFlow, DegenerateStopBeforeStartNeverRuns) {
  // stop <= start is an empty active interval: the flow must not transmit
  // at all (and must not be reported as an idle flow that somehow sent).
  ScenarioConfig cfg = two_flow_config();
  cfg.flows[1].start = TimeNs::seconds(2);
  cfg.flows[1].stop = TimeNs::seconds(1);
  const auto run = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_EQ(run.flow(1).sent, 0);
  EXPECT_EQ(run.flow(1).segments_delivered, 0);
  EXPECT_EQ(run.flow(1).active(), DurationNs::zero());
  EXPECT_DOUBLE_EQ(run.goodput_mbps(1), 0.0);
  // The other flow is unaffected.
  EXPECT_GT(run.goodput_mbps(0), 8.0);
}

TEST(MultiFlow, RttHeterogeneityBiasesSharing) {
  // Same CCA, one flow with 4× path delays: the short-RTT flow wins (the
  // classic RTT-unfairness of loss-based control).
  ScenarioConfig cfg = two_flow_config(TimeNs::seconds(5));
  cfg.flows[1].access_delay = cfg.net.access_delay.scaled(4.0);
  cfg.flows[1].ack_path_delay = cfg.net.ack_path_delay.scaled(4.0);
  const auto run = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_GT(run.goodput_mbps(0), run.goodput_mbps(1));
  EXPECT_LT(run.jain_fairness(), 0.999);
}

TEST(MultiFlow, NamedFlowCcaOverridesPrimary) {
  // Flow 1 runs bbr while the primary factory is reno; BBR's bandwidth
  // estimator reports a real rate, Reno's reports none.
  ScenarioConfig cfg = two_flow_config();
  cfg.flows[1].cca = "bbr";
  const auto run = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_EQ(run.flow(1).cca, "bbr");
  EXPECT_GT(run.flow(1).final_bw_estimate_pps, 0.0);
  EXPECT_EQ(run.flow(0).final_bw_estimate_pps, 0.0);
  EXPECT_GT(run.goodput_mbps(0) + run.goodput_mbps(1), 8.0);
}

TEST(MultiFlow, CrossTrafficCarriesOwnFlowIndex) {
  ScenarioConfig cfg = two_flow_config();
  std::vector<TimeNs> trace;
  for (int i = 1; i <= 100; ++i) trace.emplace_back(TimeNs::millis(10 * i));
  const auto run = run_scenario(cfg, cca::make_factory("reno"), trace);
  EXPECT_EQ(run.cross_sent, 100);
  // The aggregate rides flow index 2 (one past the CCA flows).
  EXPECT_EQ(run.recorder.flow_ingress_count(2), 100);
  std::int64_t seen = 0;
  for (const auto& e : run.recorder.ingress()) {
    if (e.flow == net::FlowId::kCrossTraffic) {
      ++seen;
      EXPECT_EQ(e.flow_index, 2);
    }
  }
  EXPECT_EQ(seen, 100);
}

TEST(MultiFlow, FourFlowIncastIsDeterministic) {
  ScenarioConfig cfg = apply_preset("incast", ScenarioConfig{});
  cfg.duration = TimeNs::seconds(2);
  cfg.record_mode = RecordMode::kFullEvents;  // fingerprinted below
  const auto factory = cca::make_factory("cubic");
  const auto a = run_scenario(cfg, factory, {});
  const auto b = run_scenario(cfg, factory, {});
  ASSERT_EQ(a.flow_count(), 4u);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  // Armed audits only read state: the run is clean and bit-identical.
  cfg.invariants = true;
  const auto armed = run_scenario(cfg, factory, {});
  EXPECT_TRUE(armed.invariants.clean())
      << armed.invariants.total() << " violation(s)";
  EXPECT_EQ(fingerprint(armed), fingerprint(a));
  std::int64_t total = 0;
  for (const auto& f : a.flows) total += f.segments_delivered;
  EXPECT_GT(total, 1000);  // the pack still fills most of the 2 s × 12 Mbps
}

// --- RunContext reuse across alternating flow counts ------------------------

TEST(MultiFlow, RunContextAlternatingFlowCountsBitIdentical) {
  const auto factory = cca::make_factory("reno");
  ScenarioConfig one;
  one.duration = TimeNs::seconds(2);
  one.record_mode = RecordMode::kFullEvents;  // fingerprinted below
  const ScenarioConfig two = two_flow_config(TimeNs::seconds(2));

  RunContext cold;
  const std::uint64_t cold_two = fingerprint(cold.run(two, factory, {}));
  RunContext cold1;
  const std::uint64_t cold_one = fingerprint(cold1.run(one, factory, {}));

  // 2-flow after 1-flow on one warm context must equal the cold runs bit
  // for bit, and flipping back must too.
  RunContext warm;
  EXPECT_EQ(fingerprint(warm.run(one, factory, {})), cold_one);
  EXPECT_EQ(fingerprint(warm.run(two, factory, {})), cold_two);
  EXPECT_EQ(fingerprint(warm.run(one, factory, {})), cold_one);
  EXPECT_EQ(fingerprint(warm.run(two, factory, {})), cold_two);
}

// --- RunResult edge cases ----------------------------------------------------

TEST(RunResultEdge, StalledWithLateFlowStart) {
  // Flow starts 1 s into a 2 s run and transmits throughout its active
  // interval: a tail shorter than the active interval sees egress, a tail
  // covering the whole run must still not report a stall.
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.flows = {FlowSpec{.start = TimeNs::seconds(1)}};
  const auto run = run_scenario(cfg, cca::make_factory("reno"), {});
  ASSERT_GT(run.primary().sent, 0);
  EXPECT_FALSE(run.stalled(DurationNs::millis(500)));
  EXPECT_FALSE(run.stalled(DurationNs::seconds(2)));

  // A flow that starts late and sends into a dead link (link mode with no
  // service opportunities) is stalled for any tail.
  ScenarioConfig dead = cfg;
  dead.mode = FuzzMode::kLink;
  const auto stuck = run_scenario(dead, cca::make_factory("reno"), {});
  ASSERT_GT(stuck.primary().sent, 0);
  EXPECT_EQ(stuck.primary().egress_packets, 0);
  EXPECT_TRUE(stuck.stalled(DurationNs::millis(100)));
  EXPECT_TRUE(stuck.stalled(DurationNs::seconds(2)));
}

TEST(RunResultEdge, WindowedThroughputWithWindowLongerThanRun) {
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.metrics_window = DurationNs::seconds(10);  // metrics-only default
  const auto run = run_scenario(cfg, cca::make_factory("reno"), {});
  // One partial window normalized by the true span: it equals the overall
  // egress throughput.
  const auto w = run.windowed_throughput_mbps();
  ASSERT_EQ(w.size(), 1u);
  const double expected = static_cast<double>(run.primary().egress_packets) *
                          1500.0 * 8.0 / 2.0 * 1e-6;
  EXPECT_NEAR(w.front(), expected, 1e-9);
}

TEST(RunResultEdge, EmptyResultAccessorsAreNeutral) {
  RunResult r;
  EXPECT_EQ(r.flow_count(), 0u);
  EXPECT_EQ(r.primary().sent, 0);
  EXPECT_DOUBLE_EQ(r.goodput_mbps(), 0.0);
  EXPECT_FALSE(r.stalled(DurationNs::seconds(1)));
  EXPECT_DOUBLE_EQ(r.jain_fairness(), 1.0);
  r.config.duration = TimeNs::seconds(3);
  FlowResult primary;
  primary.stop = r.config.duration;
  primary.segments_delivered = 1000;
  r.flows.push_back(std::move(primary));
  EXPECT_EQ(r.flow_count(), 1u);
  EXPECT_GT(r.goodput_mbps(), 0.0);
}

// --- Presets -----------------------------------------------------------------

TEST(Presets, ShapesMatchTheirNames) {
  ScenarioConfig base;
  base.duration = TimeNs::seconds(6);

  const auto incast = apply_preset("incast", base);
  EXPECT_EQ(incast.flows.size(), 4u);
  for (const auto& f : incast.flows) {
    EXPECT_TRUE(f.cca.empty());
    EXPECT_EQ(f.start, TimeNs::zero());
  }

  const auto late = apply_preset("late_starter", base);
  ASSERT_EQ(late.flows.size(), 2u);
  EXPECT_EQ(late.flows[0].start, TimeNs::zero());
  EXPECT_EQ(late.flows[1].start, TimeNs::seconds(2));  // 6 s / 3

  const auto rtt = apply_preset("rtt_unfair", base);
  ASSERT_EQ(rtt.flows.size(), 2u);
  EXPECT_EQ(rtt.flows[1].access_delay, base.net.access_delay.scaled(4.0));
  EXPECT_EQ(rtt.flows[1].ack_path_delay, base.net.ack_path_delay.scaled(4.0));

  const auto inter = apply_preset("inter_protocol", base);
  ASSERT_EQ(inter.flows.size(), 2u);
  EXPECT_TRUE(inter.flows[0].cca.empty());
  EXPECT_EQ(inter.flows[1].cca, "bbr");

  PresetOptions opt;
  opt.competitor = "cubic";
  opt.incast_flows = 8;
  EXPECT_EQ(apply_preset("incast", base, opt).flows.size(), 8u);
  EXPECT_EQ(apply_preset("late_starter", base, opt).flows[1].cca, "cubic");
  EXPECT_EQ(apply_preset("inter_protocol", base, opt).flows[1].cca, "cubic");
}

TEST(Presets, UnknownNameThrowsListingKnownOnes) {
  try {
    apply_preset("nope", ScenarioConfig{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("incast"), std::string::npos);
    EXPECT_NE(msg.find("late_starter"), std::string::npos);
  }
  EXPECT_TRUE(is_known_preset("rtt_unfair"));
  EXPECT_FALSE(is_known_preset("nope"));
  EXPECT_EQ(known_presets().size(), 4u);
}

TEST(Presets, InvalidOptionsThrow) {
  PresetOptions opt;
  opt.incast_flows = 1;
  EXPECT_THROW(apply_preset("incast", ScenarioConfig{}, opt),
               std::invalid_argument);
  PresetOptions frac;
  frac.late_start_fraction = 1.5;
  EXPECT_THROW(apply_preset("late_starter", ScenarioConfig{}, frac),
               std::invalid_argument);
}

}  // namespace
}  // namespace ccfuzz::scenario
