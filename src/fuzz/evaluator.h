// Trace fitness evaluation: run the simulation, apply the scoring function,
// keep a compact per-trace summary for GA bookkeeping and reporting.
//
// Evaluations run on the thread's one warm scenario::RunContext and score
// its RunResult by reference. That `const RunResult&` is valid only until
// the next run on the thread, so a ScoreFunction must not start another
// simulation on that thread while it reads the result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coverage/probe.h"
#include "fuzz/quarantine.h"
#include "fuzz/score.h"
#include "scenario/config.h"
#include "scenario/runner.h"
#include "tcp/congestion_control.h"
#include "trace/trace.h"

namespace ccfuzz::fuzz {

/// Compact result of evaluating one trace (the context-owned RunResult is
/// summarized in place after scoring to keep populations small).
/// The scalar counters summarize the primary flow; multi-flow scenarios
/// additionally carry per-flow goodputs for fairness reporting.
struct Evaluation {
  Score score;
  double goodput_mbps = 0.0;
  std::int64_t cca_sent = 0;
  std::int64_t cca_delivered = 0;
  std::int64_t cca_drops = 0;
  std::int64_t cross_sent = 0;
  std::int64_t cross_drops = 0;
  std::int64_t rto_count = 0;
  double p10_delay_s = 0.0;
  bool stalled = false;
  /// Per-flow goodputs in flow-index order (one entry per scenario flow).
  std::vector<double> flow_goodput_mbps;
  /// Jain's fairness index over the flows (1.0 for single-flow runs).
  double jain_fairness = 1.0;
  /// Behavioral coverage of the primary flow — valid only when the scenario
  /// armed the probe (ScenarioConfig::coverage). Fixed-size POD: copying it
  /// into the population costs no allocations.
  coverage::CoverageSignature coverage;
  /// A run guard (ScenarioConfig::budget) stopped the simulation early;
  /// `truncation` says which one. The score reflects the truncated prefix.
  bool truncated = false;
  sim::TruncationReason truncation = sim::TruncationReason::kNone;
  /// The score function produced a non-finite value; it was replaced by a
  /// large finite penalty and the genome was handed to the evaluator's
  /// Quarantine (if any).
  bool quarantined = false;
};

/// Pure-function evaluator: thread-safe as long as the CCA factory and
/// score function are stateless (all built-ins are).
class TraceEvaluator {
 public:
  /// Throws std::logic_error when the score cannot work on this scenario
  /// (ScoreFunction::validate) — at construction, on the caller's thread,
  /// rather than per evaluation inside a pool worker.
  TraceEvaluator(scenario::ScenarioConfig scenario, tcp::CcaFactory cca,
                 std::shared_ptr<const ScoreFunction> score,
                 TraceScoreWeights trace_weights = {})
      : scenario_(std::move(scenario)),
        cca_(std::move(cca)),
        score_(std::move(score)),
        trace_weights_(trace_weights) {
    score_->validate(scenario_);
  }

  /// Runs the simulation for `t` and scores it, on this thread's warm
  /// context (scenario::thread_run_context). The context's RunResult is
  /// read by reference and summarized before evaluate returns, so nothing
  /// here outlives the next run on the thread.
  Evaluation evaluate(const trace::Trace& t) const;

  /// Like evaluate(), but reuses `out`'s storage (per-flow vectors) — with a
  /// warm thread RunContext and a metrics-only scenario this performs zero
  /// heap allocations, which is what makes GA throughput simulation-bound.
  void evaluate_into(const trace::Trace& t, Evaluation& out) const;

  /// Like evaluate_into(), but on a caller-owned context instead of this
  /// thread's warm one. The triage confirmation path uses
  /// this with fresh RunContexts to prove a finding does not depend on warm
  /// state carried over from the campaign.
  void evaluate_on(scenario::RunContext& ctx, const trace::Trace& t,
                   Evaluation& out) const;

  /// Runs the simulation and returns the full result for figure generation,
  /// with raw per-packet events recorded regardless of the scenario's
  /// record_mode (scores derive from the streaming summaries either way).
  scenario::RunResult run_full(const trace::Trace& t) const;

  const scenario::ScenarioConfig& scenario() const { return scenario_; }
  const ScoreFunction& score_function() const { return *score_; }

  /// Attaches a quarantine recorder: genomes whose score comes out NaN/inf
  /// get a large finite penalty instead (Evaluation::quarantined) and are
  /// saved through `q` for offline replay. Shared across evaluator copies.
  void set_quarantine(std::shared_ptr<Quarantine> q) {
    quarantine_ = std::move(q);
  }
  const std::shared_ptr<Quarantine>& quarantine() const { return quarantine_; }

 private:
  scenario::ScenarioConfig scenario_;
  tcp::CcaFactory cca_;
  std::shared_ptr<const ScoreFunction> score_;
  TraceScoreWeights trace_weights_;
  std::shared_ptr<Quarantine> quarantine_;
};

/// One unit of a heterogeneous evaluation batch: a trace to run under a
/// specific evaluator, with the result written through `out`.
struct BatchItem {
  const TraceEvaluator* evaluator = nullptr;
  const trace::Trace* trace = nullptr;
  Evaluation* out = nullptr;
};

/// Evaluates a mixed batch (items may reference different evaluators) with
/// results landing by index, so the output is deterministic regardless of
/// thread scheduling. When `parallel`, the batch is spread over the global
/// thread pool. This is the campaign scheduler's entry point:
/// all cells' pending members are flattened into one such batch, so cores
/// stay saturated even when a single cell or island has a long tail.
/// A `lead` task runs once alongside the batch, on one pool worker that then
/// joins it (ThreadPool::parallel_for); a serial batch runs it first. The
/// campaign driver publishes the previous generation's checkpoint there.
void evaluate_batch(const std::vector<BatchItem>& items, bool parallel = true,
                    const std::function<void()>& lead = {});

}  // namespace ccfuzz::fuzz
