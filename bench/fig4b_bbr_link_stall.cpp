// Figure 4b: a LINK trace (bottleneck service curve) that causes BBR to get
// stuck. The paper's found trace (and ours) has a tell-tale shape: normal
// service until the attack point, one outage that opens a hole during
// recovery (dropping the fast retransmission into a full queue), then
// near-darkness with brief service spikes. The spikes deliver the RTO
// retransmissions just rarely enough that BBR's bandwidth model collapses
// and min-RTO backoff keeps the flow pinned — the link-mode twin of the
// Fig 4a burst train (an outage can only *drop* packets while other
// traffic fills the queue; in silence it can only *delay* them, so the
// lockout is maintained by darkness rather than drops, which is why the
// paper finds link traces "harder to reason about").
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/flow_metrics.h"
#include "bench/bench_util.h"
#include "cca/registry.h"
#include "scenario/runner.h"
#include "util/csv.h"

using namespace ccfuzz;

int main() {
  bench::banner("Figure 4b", "link trace that sticks BBR");
  scenario::ScenarioConfig cfg;
  cfg.mode = scenario::FuzzMode::kLink;
  cfg.duration = TimeNs::seconds(bench::env_long("CCFUZZ_DURATION_S", 8));
  // Steady-state BBR holds ~2×BDP in flight; a smaller gateway than the
  // traffic benches lets the recovery backlog overflow during the outage.
  cfg.net.queue_capacity = 25;
  cfg.receive_window_segments = 2000;
  cfg.log_tcp_events = true;

  // Uniform 12 Mbps until t=2 s; an 80 ms outage at 2 s (drops a flight
  // and the hole's fast retransmission lands in the still-full queue);
  // darkness afterwards except 30-opportunity spikes every ~1.5 s.
  std::vector<TimeNs> curve;
  const TimeNs outage_start = TimeNs::seconds(2);
  const TimeNs outage_end = outage_start + DurationNs::millis(140);
  for (TimeNs t = TimeNs::millis(1); t < outage_start;
       t += DurationNs::millis(1)) {
    curve.push_back(t);
  }
  // Brief post-outage service resumes long enough to SACK the survivors
  // and trigger the fast retransmission into the refilling queue.
  for (TimeNs t = outage_end; t < outage_end + DurationNs::millis(40);
       t += DurationNs::millis(1)) {
    curve.push_back(t);
  }
  for (TimeNs spike = TimeNs::millis(3500); spike < cfg.duration;
       spike += DurationNs::millis(1500)) {
    for (int i = 0; i < 30; ++i) {
      curve.push_back(spike + DurationNs::millis(i));
    }
  }

  cfg.record_mode = scenario::RecordMode::kFullEvents;  // figure reads events
  auto run = scenario::run_scenario(cfg, cca::make_factory("bbr"), curve);

  const DurationNs w = DurationNs::millis(100);
  const auto ingress = analysis::rate_series(
      run, analysis::Stream::kIngress, net::FlowId::kCcaData, w);
  const auto egress = analysis::rate_series(
      run, analysis::Stream::kEgress, net::FlowId::kCcaData, w);
  const auto link = analysis::link_rate_series(run, curve, w);

  CsvWriter csv(std::cout,
                {"time_s", "ingress_mbps", "egress_mbps", "link_mbps"});
  for (std::size_t i = 0; i < egress.time_s.size(); ++i) {
    csv.row({egress.time_s[i], ingress.mbps[i], egress.mbps[i], link.mbps[i]});
  }
  std::printf("# summary: goodput=%.2f Mbps stalled=%d rtos=%lld "
              "marks_lost=%lld drops=%lld\n",
              run.goodput_mbps(),
              run.stalled(DurationNs::seconds(1)) ? 1 : 0,
              static_cast<long long>(run.primary().rto_count),
              static_cast<long long>(
                  run.primary().tcp_log.count(tcp::TcpEventType::kMarkLost)),
              static_cast<long long>(run.primary().drops));
  std::printf("# shape check: egress collapses after the outage at t=2 s "
              "and the post-3.5 s service spikes go mostly unused.\n");
  return 0;
}
