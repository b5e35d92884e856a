// Golden equivalence for ScenarioConfig::record_mode: a metrics-only run and
// a full-events run of the same scenario must be indistinguishable to
// scoring — identical counters, identical streaming summaries, identical
// score values — and the streaming windowed bins must reproduce the legacy
// per-packet recomputation bit for bit.
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "cca/registry.h"
#include "fuzz/score.h"
#include "scenario/runner.h"
#include "trace/dist_packets.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ccfuzz::scenario {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}
std::uint64_t fnv_double(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

/// Everything scoring can observe, digested order-sensitively: per-flow
/// counters, the streaming summaries (bins, delay digest percentiles, stall
/// stamps), and every built-in score value.
std::uint64_t scoring_fingerprint(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, r.flow_count());
  for (std::size_t i = 0; i < r.flow_count(); ++i) {
    const FlowResult& f = r.flows[i];
    h = fnv1a(h, static_cast<std::uint64_t>(f.segments_delivered));
    h = fnv1a(h, static_cast<std::uint64_t>(f.egress_packets));
    h = fnv1a(h, static_cast<std::uint64_t>(f.sent));
    h = fnv1a(h, static_cast<std::uint64_t>(f.retransmissions));
    h = fnv1a(h, static_cast<std::uint64_t>(f.drops));
    h = fnv1a(h, static_cast<std::uint64_t>(f.rto_count));
    for (const double w : r.windowed_throughput_mbps(i)) {
      h = fnv_double(h, w);
    }
    h = fnv_double(h, r.queue_delay_percentile_s(10.0, i));
    h = fnv_double(h, r.queue_delay_percentile_s(50.0, i));
    h = fnv_double(h, r.queue_delay_percentile_s(100.0, i));
    h = fnv1a(h, r.stalled(DurationNs::seconds(1), i) ? 1 : 0);
    h = fnv1a(h, static_cast<std::uint64_t>(r.metrics.flow(i).egress_packets));
    h = fnv1a(h, static_cast<std::uint64_t>(r.metrics.flow(i).last_egress.ns()));
  }
  h = fnv1a(h, static_cast<std::uint64_t>(r.cross_sent));
  h = fnv1a(h, static_cast<std::uint64_t>(r.cross_drops));
  h = fnv_double(h, r.jain_fairness());
  return h;
}

std::vector<TimeNs> adversarial_trace(FuzzMode mode, TimeNs duration) {
  Rng rng(mode == FuzzMode::kLink ? 42 : 7);
  return trace::dist_packets(mode == FuzzMode::kLink ? 2000 : 1500,
                             TimeNs::zero(), duration, rng);
}

TEST(RecordMode, MetricsOnlyAndFullEventsScoreIdentically) {
  for (const char* cca : {"reno", "cubic", "bbr"}) {
    for (const FuzzMode mode : {FuzzMode::kLink, FuzzMode::kTraffic}) {
      SCOPED_TRACE(std::string(cca) + "/" + to_string(mode));
      ScenarioConfig cfg;
      cfg.duration = TimeNs::seconds(2);
      cfg.mode = mode;
      const auto factory = cca::make_factory(cca);
      const auto trace = adversarial_trace(mode, cfg.duration);

      cfg.record_mode = RecordMode::kMetricsOnly;
      const RunResult metrics_run = run_scenario(cfg, factory, trace);
      cfg.record_mode = RecordMode::kFullEvents;
      const RunResult events_run = run_scenario(cfg, factory, trace);

      // The metrics-only run kept no per-packet events...
      EXPECT_TRUE(metrics_run.recorder.egress().empty());
      EXPECT_FALSE(metrics_run.has_events());
      EXPECT_FALSE(events_run.recorder.egress().empty());
      // ...yet everything scoring observes is bit-identical.
      EXPECT_EQ(scoring_fingerprint(metrics_run),
                scoring_fingerprint(events_run));

      const fuzz::LowUtilizationScore low_util;
      const fuzz::HighDelayScore high_delay;
      const fuzz::HighLossScore high_loss;
      const fuzz::LowGoodputScore low_goodput;
      const fuzz::LowSendRateScore low_send;
      EXPECT_EQ(low_util.performance_score(metrics_run),
                low_util.performance_score(events_run));
      EXPECT_EQ(high_delay.performance_score(metrics_run),
                high_delay.performance_score(events_run));
      EXPECT_EQ(high_loss.performance_score(metrics_run),
                high_loss.performance_score(events_run));
      EXPECT_EQ(low_goodput.performance_score(metrics_run),
                low_goodput.performance_score(events_run));
      EXPECT_EQ(low_send.performance_score(metrics_run),
                low_send.performance_score(events_run));
    }
  }
}

TEST(RecordMode, StreamingBinsMatchLegacyEventRecomputation) {
  // The equivalence contract of analysis::StreamingMetrics: its bins must
  // reproduce the old post-hoc computation — per-packet double binning over
  // recorded egress times — bit for bit.
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(3);
  cfg.mode = FuzzMode::kTraffic;
  cfg.record_mode = RecordMode::kFullEvents;
  const auto run = run_scenario(cfg, cca::make_factory("reno"),
                                adversarial_trace(FuzzMode::kTraffic,
                                                  cfg.duration));

  std::vector<double> egress_times;
  for (const auto& e : run.recorder.egress()) {
    if (e.flow == net::FlowId::kCcaData && e.flow_index == 0) {
      egress_times.push_back(e.time.to_seconds());
    }
  }
  const auto rates = windowed_rate(egress_times,
                                   run.flow(0).start.to_seconds(),
                                   cfg.duration.to_seconds(),
                                   cfg.metrics_window.to_seconds());
  const double bits = static_cast<double>(cfg.net.packet_bytes) * 8.0;
  const auto streamed = run.windowed_throughput_mbps();
  ASSERT_EQ(streamed.size(), rates.size());
  for (std::size_t k = 0; k < rates.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(streamed[k]),
              std::bit_cast<std::uint64_t>(rates[k] * bits * 1e-6))
        << "window " << k;
  }
}

TEST(RecordMode, MetricsOnlyIsTheDefault) {
  EXPECT_EQ(ScenarioConfig{}.record_mode, RecordMode::kMetricsOnly);
  const auto run =
      run_scenario(ScenarioConfig{}, cca::make_factory("reno"), {});
  EXPECT_TRUE(run.recorder.egress().empty());
  EXPECT_TRUE(run.recorder.ingress().empty());
  EXPECT_TRUE(run.recorder.delays().empty());
  // O(1) counters and streaming summaries are still live.
  EXPECT_GT(run.recorder.egress_count(net::FlowId::kCcaData), 0);
  EXPECT_GT(run.metrics.flow(0).egress_packets, 0);
  EXPECT_GT(run.primary().egress_packets, 0);
}

}  // namespace
}  // namespace ccfuzz::scenario
