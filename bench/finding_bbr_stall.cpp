// Finding §4.1: the BBR permanent stall, compared across BBR variants and
// loss-based CCAs on the same crafted trace.
#include <cstdio>
#include <iostream>

#include "analysis/timeline.h"
#include "bench/bench_util.h"
#include "campaign/panel.h"
#include "cca/registry.h"
#include "scenario/crafted.h"
#include "util/csv.h"

using namespace ccfuzz;

int main() {
  bench::banner("Finding 4.1", "BBR permanent stall — cross-CCA comparison");
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(12);
  cfg.net.queue_capacity = 50;
  cfg.receive_window_segments = 2000;

  const auto crafted = scenario::crafted::craft_retransmission_killer(
      cfg, cca::make_factory("bbr"));
  std::printf("# killer trace: %zu cross packets in %d bursts "
              "(~%.2f Mbps average attack rate)\n",
              crafted.trace.size(), crafted.bursts,
              static_cast<double>(crafted.trace.size()) * 1500 * 8 /
                  cfg.duration.to_seconds() * 1e-6);

  CsvWriter csv(std::cout, {"cca", "goodput_mbps", "stalled", "rtos",
                            "spurious_retx", "premature_round_ends"});
  const auto panel = campaign::evaluate_panel(
      cfg, {"bbr", "bbr-probertt-on-rto", "bbr-linux-strict", "reno", "cubic"},
      crafted.trace);
  for (const auto& row : panel) {
    const auto& run = row.run;
    const auto d = analysis::stall_diagnostics(run.primary().tcp_log);
    csv.row(row.label, {run.goodput_mbps(),
                        run.stalled(DurationNs::seconds(2)) ? 1.0 : 0.0,
                        static_cast<double>(d.rtos),
                        static_cast<double>(d.spurious_retx),
                        static_cast<double>(d.probe_round_ends)});
  }
  std::printf("# shape check: bbr stalls (goodput < 3); reno survives the "
              "same trace.\n");
  return 0;
}
