#include "fuzz/evaluator.h"

#include <cmath>
#include <string>

#include "util/thread_pool.h"

namespace ccfuzz::fuzz {

namespace {

/// Finite stand-in for a non-finite score component: catastrophically bad
/// (never selected, never displaces an archive elite) but totally ordered,
/// so GA bookkeeping stays sane.
constexpr double kQuarantinePenalty = -1e30;

}  // namespace

scenario::RunResult TraceEvaluator::run_full(const trace::Trace& t) const {
  scenario::ScenarioConfig cfg = scenario_;
  cfg.record_mode = scenario::RecordMode::kFullEvents;
  return scenario::run_scenario(cfg, cca_, t.stamps);
}

Evaluation TraceEvaluator::evaluate(const trace::Trace& t) const {
  Evaluation e;
  evaluate_into(t, e);
  return e;
}

void TraceEvaluator::evaluate_into(const trace::Trace& t,
                                   Evaluation& e) const {
  // Run on this thread's warm context and summarize straight from the
  // context-owned result — no RunResult copy, no per-packet scans.
  evaluate_on(scenario::thread_run_context(), t, e);
}

void TraceEvaluator::evaluate_on(scenario::RunContext& ctx,
                                 const trace::Trace& t, Evaluation& e) const {
  const scenario::RunResult& run = ctx.run(scenario_, cca_, t.stamps);
  e.score.performance = score_->performance_score(run);
  e.score.trace = trace_weights_.trace_score(run);
  e.truncated = run.truncated;
  e.truncation = run.truncation;
  // NaN/inf quarantine: a non-finite fitness would corrupt every downstream
  // ordering (selection, elites, history). Substitute a huge finite penalty
  // and hand the genome to the quarantine recorder for offline replay.
  e.quarantined = false;
  if (!std::isfinite(e.score.performance) || !std::isfinite(e.score.trace)) {
    const std::string reason =
        std::string("non-finite score from '") + score_->name() + "'";
    if (!std::isfinite(e.score.performance)) {
      e.score.performance = kQuarantinePenalty;
    }
    if (!std::isfinite(e.score.trace)) e.score.trace = kQuarantinePenalty;
    e.quarantined = true;
    if (quarantine_) quarantine_->record(t, reason);
  }
  const scenario::FlowResult& primary = run.primary();
  e.goodput_mbps = primary.goodput_mbps();
  e.cca_sent = primary.sent;
  e.cca_delivered = primary.segments_delivered;
  e.cca_drops = primary.drops;
  e.cross_sent = run.cross_sent;
  e.cross_drops = run.cross_drops;
  e.rto_count = primary.rto_count;
  e.p10_delay_s = run.queue_delay_percentile_s(10.0);
  e.stalled = run.stalled(DurationNs::seconds(1));
  e.flow_goodput_mbps.clear();
  e.flow_goodput_mbps.reserve(run.flow_count());
  for (std::size_t i = 0; i < run.flow_count(); ++i) {
    e.flow_goodput_mbps.push_back(run.goodput_mbps(i));
  }
  e.jain_fairness = run.jain_fairness();
  e.coverage = run.coverage_signature();
}

void evaluate_batch(const std::vector<BatchItem>& items, bool parallel,
                    const std::function<void()>& lead) {
  const auto evaluate = [&](std::size_t i) {
    items[i].evaluator->evaluate_into(*items[i].trace, *items[i].out);
  };
  if (parallel) {
    global_thread_pool().parallel_for(items.size(), evaluate, lead);
    return;
  }
  if (lead) lead();
  for (std::size_t i = 0; i < items.size(); ++i) evaluate(i);
}

}  // namespace ccfuzz::fuzz
