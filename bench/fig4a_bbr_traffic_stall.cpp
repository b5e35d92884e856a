// Figure 4a: a cross-traffic trace that causes BBR to get stuck.
// Prints ingress/egress/traffic/link-rate series (Mbps vs time) for the
// deterministic retransmission-killer trace, plus the stall summary.
#include <cstdio>
#include <iostream>

#include "analysis/flow_metrics.h"
#include "analysis/timeline.h"
#include "bench/bench_util.h"
#include "cca/registry.h"
#include "scenario/crafted.h"
#include "util/csv.h"

using namespace ccfuzz;

int main() {
  bench::banner("Figure 4a", "traffic trace that sticks BBR");
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(
      bench::env_long("CCFUZZ_DURATION_S", 8));
  cfg.net.queue_capacity = 50;
  cfg.receive_window_segments = 2000;  // Linux-scale buffers (see DESIGN.md)

  const auto crafted = scenario::crafted::craft_retransmission_killer(
      cfg, cca::make_factory("bbr"));
  const auto& run = crafted.final_run;

  const DurationNs w = DurationNs::millis(100);
  const auto ingress =
      analysis::rate_series(run, analysis::Stream::kIngress,
                            net::FlowId::kCcaData, w);
  const auto egress = analysis::rate_series(
      run, analysis::Stream::kEgress, net::FlowId::kCcaData, w);
  const auto traffic = analysis::rate_series(
      run, analysis::Stream::kIngress, net::FlowId::kCrossTraffic, w);
  const auto link = analysis::link_rate_series(run, crafted.trace, w);

  CsvWriter csv(std::cout,
                {"time_s", "ingress_mbps", "egress_mbps", "traffic_mbps",
                 "link_mbps"});
  for (std::size_t i = 0; i < egress.time_s.size(); ++i) {
    csv.row({egress.time_s[i], ingress.mbps[i], egress.mbps[i],
             traffic.mbps[i], link.mbps[i]});
  }

  const auto d = analysis::stall_diagnostics(run.primary().tcp_log);
  std::printf(
      "# summary: goodput=%.2f Mbps stalled=%d cross_packets=%lld bursts=%d "
      "rtos=%lld spurious_retx=%lld premature_round_ends=%lld\n",
      run.goodput_mbps(), run.stalled(DurationNs::seconds(2)) ? 1 : 0,
      static_cast<long long>(run.cross_sent), crafted.bursts,
      static_cast<long long>(d.rtos),
      static_cast<long long>(d.spurious_retx),
      static_cast<long long>(d.probe_round_ends));
  return 0;
}
