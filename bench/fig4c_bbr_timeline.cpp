// Figure 4c: timeline of the events that trigger the BBR stall — RTO,
// spurious retransmissions, late SACKs ending probe rounds prematurely, and
// the bandwidth filter decaying.
#include <cstdio>
#include <iostream>

#include "analysis/timeline.h"
#include "bench/bench_util.h"
#include "cca/registry.h"
#include "scenario/crafted.h"

using namespace ccfuzz;

int main() {
  bench::banner("Figure 4c", "timeline of the BBR stall mechanism");
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(8);
  cfg.net.queue_capacity = 50;
  cfg.receive_window_segments = 2000;

  const auto crafted = scenario::crafted::craft_retransmission_killer(
      cfg, cca::make_factory("bbr"));
  const auto& run = crafted.final_run;
  const auto d = analysis::stall_diagnostics(run.primary().tcp_log);
  std::printf("# pinned head seq=%lld; rtos=%lld spurious_retx=%lld "
              "premature_round_ends=%lld bw_filter_drops=%lld\n",
              static_cast<long long>(crafted.pinned_seq),
              static_cast<long long>(d.rtos),
              static_cast<long long>(d.spurious_retx),
              static_cast<long long>(d.probe_round_ends),
              static_cast<long long>(d.bw_filter_drops));

  // Find the first RTO and print the window around it (the Fig 4c story).
  TimeNs rto_time = TimeNs::zero();
  for (const auto& ev : run.primary().tcp_log.events()) {
    if (ev.type == tcp::TcpEventType::kRto) {
      rto_time = ev.time;
      break;
    }
  }
  analysis::TimelineOptions opt;
  opt.from = rto_time - DurationNs::millis(20);
  opt.to = rto_time + DurationNs::millis(120);
  opt.diagnostics_only = true;
  opt.max_rows = static_cast<std::size_t>(bench::env_long("CCFUZZ_ROWS", 80));
  std::printf("# events around the first RTO (t=%.3f s):\n",
              rto_time.to_seconds());
  analysis::print_timeline(std::cout, run.primary().tcp_log, opt);
  return 0;
}
