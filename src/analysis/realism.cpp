#include "analysis/realism.h"

#include <algorithm>
#include <cassert>

#include "scenario/runner.h"

namespace ccfuzz::analysis {
namespace {

double utilization_of(const scenario::ScenarioConfig& cfg,
                      const tcp::CcaFactory& cca, const trace::Trace& t) {
  scenario::ScenarioConfig run_cfg = cfg;
  run_cfg.mode = scenario::FuzzMode::kLink;
  run_cfg.duration = t.duration;
  const scenario::RunResult& run =
      scenario::thread_run_context().run(run_cfg, cca, t.stamps);
  // Utilization relative to what the trace itself offered.
  const double offered_mbps =
      t.average_rate_bps(run_cfg.net.packet_bytes) * 1e-6;
  if (offered_mbps <= 0.0) return 0.0;
  return std::min(run.goodput_mbps() / offered_mbps, 1.0);
}

}  // namespace

RealismScorer::RealismScorer(
    Config cfg, std::vector<std::pair<std::string, tcp::CcaFactory>> panel)
    : cfg_(std::move(cfg)), panel_(std::move(panel)) {
  assert(!panel_.empty() && "realism panel needs at least one CCA");
}

RealismResult RealismScorer::score(const trace::Trace& t) const {
  RealismResult r;
  for (const auto& [name, factory] : panel_) {
    PanelEntry e;
    e.cca = name;
    e.utilization = utilization_of(cfg_.scenario, factory, t);
    r.score = std::max(r.score, e.utilization);
    r.panel.push_back(std::move(e));
  }
  r.accepted = r.score >= cfg_.accept_threshold;
  return r;
}

RealismResult RealismScorer::score_single(const trace::Trace& t,
                                          std::size_t pick) const {
  const auto& [name, factory] = panel_[pick % panel_.size()];
  RealismResult r;
  PanelEntry e;
  e.cca = name;
  e.utilization = utilization_of(cfg_.scenario, factory, t);
  r.score = e.utilization;
  r.panel.push_back(std::move(e));
  r.accepted = r.score >= cfg_.accept_threshold;
  return r;
}

}  // namespace ccfuzz::analysis
