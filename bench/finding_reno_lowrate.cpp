// Finding §4.3: the low-rate (shrew) attack against Reno — rediscovered by
// the adaptive retransmission killer and compared with the classic
// open-loop periodic-burst attack of Kuzmanovic & Knightly.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "campaign/panel.h"
#include "cca/registry.h"
#include "scenario/crafted.h"
#include "util/csv.h"

using namespace ccfuzz;

int main() {
  bench::banner("Finding 4.3", "low-rate TCP attack against Reno");
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(12);
  cfg.net.queue_capacity = 50;
  cfg.receive_window_segments = 2000;

  CsvWriter csv(std::cout, {"attack", "goodput_mbps", "attack_mbps",
                            "rtos", "final_backoff", "stalled"});

  // One panel: clean link plus the three open-loop shrew periods, all
  // against Reno. The adaptive killer's run comes from its construction.
  std::vector<campaign::PanelJob> jobs;
  jobs.push_back({"none", "reno", {}});
  for (int period_ms : {500, 1000, 1500}) {
    char label[32];
    std::snprintf(label, sizeof(label), "shrew-%dms", period_ms);
    jobs.push_back({label, "reno",
                    scenario::crafted::shrew_trace(TimeNs::millis(1500),
                                                   DurationNs::millis(period_ms),
                                                   60, cfg.duration)});
  }
  const auto panel = campaign::evaluate_panel(cfg, jobs);

  const auto attack_mbps = [&](const scenario::RunResult& run) {
    return static_cast<double>(run.cross_sent) * 1500 * 8 /
           cfg.duration.to_seconds() * 1e-6;
  };

  const auto& clean = panel[0].run.primary();
  csv.row(panel[0].label, {panel[0].run.goodput_mbps(), 0.0,
                           static_cast<double>(clean.rto_count),
                           static_cast<double>(clean.final_rto_backoff), 0.0});

  const auto crafted = scenario::crafted::craft_retransmission_killer(
      cfg, cca::make_factory("reno"));
  const auto& k = crafted.final_run;
  csv.row("adaptive-killer",
          {k.goodput_mbps(), attack_mbps(k),
           static_cast<double>(k.primary().rto_count),
           static_cast<double>(k.primary().final_rto_backoff),
           k.stalled(DurationNs::seconds(1)) ? 1.0 : 0.0});

  for (std::size_t i = 1; i < panel.size(); ++i) {
    const auto& run = panel[i].run;
    csv.row(panel[i].label,
            {run.goodput_mbps(), attack_mbps(run),
             static_cast<double>(run.primary().rto_count),
             static_cast<double>(run.primary().final_rto_backoff),
             run.stalled(DurationNs::seconds(1)) ? 1.0 : 0.0});
  }
  std::printf("# shape check: the adaptive killer locks Reno into RTO "
              "backoff at a tiny average attack rate; open-loop bursts "
              "degrade it less per attack byte.\n");
  return 0;
}
