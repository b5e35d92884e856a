#include "campaign/panel.h"

#include "cca/registry.h"
#include "util/thread_pool.h"

namespace ccfuzz::campaign {

std::vector<PanelRow> evaluate_panel(const scenario::ScenarioConfig& cfg,
                                     std::vector<PanelJob> jobs,
                                     bool parallel) {
  // Resolve factories up front: unknown names throw before any simulation.
  std::vector<tcp::CcaFactory> factories;
  factories.reserve(jobs.size());
  for (const PanelJob& j : jobs) factories.push_back(cca::make_factory(j.cca));

  // Panels exist for diagnostics: rows promise recorder access and
  // timelines, so the raw per-packet events are always kept.
  scenario::ScenarioConfig run_cfg = cfg;
  run_cfg.record_mode = scenario::RecordMode::kFullEvents;

  std::vector<PanelRow> rows(jobs.size());
  maybe_parallel_for(parallel, jobs.size(), [&](std::size_t i) {
    rows[i].label = jobs[i].label.empty() ? jobs[i].cca : jobs[i].label;
    rows[i].cca = jobs[i].cca;
    rows[i].run = scenario::run_scenario(run_cfg, factories[i], jobs[i].trace);
  });
  return rows;
}

std::vector<PanelRow> evaluate_panel(const scenario::ScenarioConfig& cfg,
                                     const std::vector<std::string>& ccas,
                                     const std::vector<TimeNs>& trace,
                                     bool parallel) {
  std::vector<PanelJob> jobs;
  jobs.reserve(ccas.size());
  for (const std::string& cca : ccas) jobs.push_back({"", cca, trace});
  return evaluate_panel(cfg, std::move(jobs), parallel);
}

}  // namespace ccfuzz::campaign
