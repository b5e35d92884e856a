// Finding §4.2: ns-3's CUBIC slow-start bug — cwnd inflated past ssthresh
// by a large post-RTO cumulative ACK, bursting ~1 RTO of data and causing
// catastrophic loss. Compares the buggy and fixed variants on the same
// trace.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "campaign/panel.h"
#include "cca/registry.h"
#include "scenario/crafted.h"
#include "util/csv.h"

using namespace ccfuzz;

int main() {
  bench::banner("Finding 4.2", "ns-3 CUBIC slow-start CWND bug");
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(12);
  cfg.net.queue_capacity = 50;
  cfg.receive_window_segments = 2000;

  // Craft the double-loss (data + fast retransmission) against the buggy
  // CUBIC; the RTO recovery then produces the large cumulative ACK.
  const auto crafted = scenario::crafted::craft_retransmission_killer(
      cfg, cca::make_factory("cubic-ns3bug"), {.max_bursts = 3});

  CsvWriter csv(std::cout, {"cca", "goodput_mbps", "cca_drops",
                            "retransmissions", "rtos"});
  const auto panel =
      campaign::evaluate_panel(cfg, {"cubic-ns3bug", "cubic"}, crafted.trace);
  for (const auto& row : panel) {
    const auto& run = row.run;
    const auto& flow = run.primary();
    csv.row(row.label, {run.goodput_mbps(), static_cast<double>(flow.drops),
                        static_cast<double>(flow.retransmissions),
                        static_cast<double>(flow.rto_count)});
  }
  std::printf("# shape check: cubic-ns3bug suffers more drops than the "
              "clamped (Linux-correct) cubic on the identical trace.\n");
  return 0;
}
