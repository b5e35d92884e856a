// Replay a saved adversarial trace against any CCA and print a diagnostic
// timeline — the workflow for debugging what the fuzzer found.
//
//   ./replay_trace <trace-file> [cca]
#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/timeline.h"
#include "campaign/panel.h"
#include "trace/trace_io.h"

using namespace ccfuzz;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace-file> [cca]\n", argv[0]);
    return 1;
  }
  const std::string cca_name = argc > 2 ? argv[2] : "bbr";
  const trace::Trace t = trace::load_trace(argv[1]);

  scenario::ScenarioConfig cfg;
  cfg.mode = t.kind == trace::TraceKind::kLink ? scenario::FuzzMode::kLink
                                               : scenario::FuzzMode::kTraffic;
  cfg.duration = t.duration;
  cfg.log_tcp_events = true;

  const auto rows = campaign::evaluate_panel(cfg, {cca_name}, t.stamps);
  const auto& run = rows.front().run;
  std::printf("%s vs %s trace (%zu stamps, %.1f s): goodput %.2f Mbps, "
              "%lld RTOs, stalled=%s\n",
              cca_name.c_str(),
              t.kind == trace::TraceKind::kLink ? "link" : "traffic",
              t.size(), t.duration.to_seconds(), run.goodput_mbps(),
              static_cast<long long>(run.primary().rto_count),
              run.stalled(DurationNs::seconds(1)) ? "yes" : "no");

  analysis::TimelineOptions opt;
  opt.diagnostics_only = true;
  opt.max_rows = 60;
  std::printf("--- diagnostic timeline (first %zu rows) ---\n", opt.max_rows);
  analysis::print_timeline(std::cout, run.primary().tcp_log, opt);
  return 0;
}
