// Figure 4e: a traffic vector inducing high queueing delay in BBR — fill
// the queue just before BBR starts (hiding the true min RTT) and keep
// refilling it. Prints the per-packet queueing delay of the BBR flow and of
// the cross traffic over time.
#include <cstdio>
#include <iostream>

#include "analysis/flow_metrics.h"
#include "bench/bench_util.h"
#include "cca/registry.h"
#include "scenario/crafted.h"
#include "scenario/runner.h"
#include "util/csv.h"
#include "util/stats.h"

using namespace ccfuzz;

int main() {
  bench::banner("Figure 4e", "traffic vector inducing high BBR delay");
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(5);
  cfg.flows = {scenario::FlowSpec{.start = TimeNs::millis(200)}};
  cfg.net.queue_capacity = 50;
  cfg.record_mode = scenario::RecordMode::kFullEvents;  // figure reads events

  const auto trace = scenario::crafted::standing_queue_trace(
      cfg.flows[0].start, cfg.net.queue_capacity, DurationNs::millis(2), 1,
      cfg.duration);
  const auto attacked =
      scenario::run_scenario(cfg, cca::make_factory("bbr"), trace);
  const auto clean = scenario::run_scenario(cfg, cca::make_factory("bbr"), {});

  const auto bbr_delay = analysis::delay_series(attacked, net::FlowId::kCcaData);
  const auto cross_delay =
      analysis::delay_series(attacked, net::FlowId::kCrossTraffic);

  CsvWriter csv(std::cout, {"series", "time_s", "queue_delay_ms"});
  for (std::size_t i = 0; i < bbr_delay.time_s.size(); ++i) {
    csv.row("bbr", {bbr_delay.time_s[i], bbr_delay.delay_ms[i]});
  }
  for (std::size_t i = 0; i < cross_delay.time_s.size(); ++i) {
    csv.row("cross", {cross_delay.time_s[i], cross_delay.delay_ms[i]});
  }

  std::printf("# summary: p10 delay attacked=%.1f ms clean=%.1f ms "
              "(score function: 10th-percentile delay)\n",
              percentile(analysis::flow_delay_series(attacked, 0).delay_ms, 10),
              percentile(analysis::flow_delay_series(clean, 0).delay_ms, 10));
  return 0;
}
