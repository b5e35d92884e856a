// Scoring functions (paper §3.4).
//
// A trace's fitness has two parts: a performance score quantifying how badly
// the CCA behaved (higher = worse CCA performance = fitter trace), and a
// trace score rewarding desirable trace properties that are hard to enforce
// during generation (e.g. minimal cross-traffic vectors).
#pragma once

#include <cstdint>
#include <memory>

#include "scenario/runner.h"
#include "util/time.h"

namespace ccfuzz::fuzz {

/// Fitness breakdown for one evaluated trace.
struct Score {
  double performance = 0.0;
  double trace = 0.0;
  double total() const { return performance + trace; }
};

/// Performance-score strategy interface. Implementations must be pure
/// functions of the run result (thread-safe, no mutable state).
class ScoreFunction {
 public:
  virtual ~ScoreFunction() = default;
  /// Higher return = worse CCA behaviour = fitter adversarial trace.
  virtual double performance_score(const scenario::RunResult& run) const = 0;
  virtual const char* name() const = 0;
  /// Stable, process-independent identity of this scoring configuration —
  /// used in the campaign evaluation-cache key so cached evaluations survive
  /// checkpoint/resume (a pointer-based key would differ every process).
  /// Default: FNV-1a of name(). Parametrized scores MUST fold their
  /// parameters in (identity_base() then mix_identity per parameter), or two
  /// differently-tuned instances would wrongly share cache entries.
  virtual std::uint64_t identity() const { return identity_base(); }
  /// Throws std::logic_error when the score cannot work on runs of this
  /// scenario. TraceEvaluator calls it at construction, so misconfiguration
  /// surfaces on the driver thread instead of as an exception escaping a
  /// thread-pool worker. No built-in score overrides it.
  virtual void validate(const scenario::ScenarioConfig& scenario) const {
    (void)scenario;
  }

 protected:
  /// FNV-1a of name() — the starting point for identity().
  std::uint64_t identity_base() const;
  /// Mixes one 64-bit parameter word into an identity accumulator.
  static std::uint64_t mix_identity(std::uint64_t h, std::uint64_t v);
};

/// §3.4: windowed throughput, averaged over the lowest `fraction` of
/// windows, negated (low utilization ⇒ high score). Using the lowest-20%
/// windows instead of overall throughput avoids favouring traces that only
/// hurt the flow early, improving trace diversity. The window is the
/// scenario's metrics_window (default 500 ms): the score reads the
/// streaming windowed bins, identical in both record modes.
class LowUtilizationScore final : public ScoreFunction {
 public:
  explicit LowUtilizationScore(double fraction = 0.2) : fraction_(fraction) {}

  double performance_score(const scenario::RunResult& run) const override;
  const char* name() const override { return "low-utilization"; }
  std::uint64_t identity() const override;

 private:
  double fraction_;
};

/// §4.3 (Fig 4e): the p-th percentile of CCA queueing delay. A high low
/// percentile means the queue never drains — a persistent standing queue.
/// Estimated from the streaming delay digest (log-scale buckets of about
/// 3 % relative resolution, exact extremes), so it needs no per-packet
/// records and is identical in metrics-only and full-events runs.
class HighDelayScore final : public ScoreFunction {
 public:
  explicit HighDelayScore(double pct = 10.0) : pct_(pct) {}

  double performance_score(const scenario::RunResult& run) const override;
  const char* name() const override { return "high-delay"; }
  std::uint64_t identity() const override;

 private:
  double pct_;
};

/// Rewards CCA packet loss at the bottleneck (drops per second).
class HighLossScore final : public ScoreFunction {
 public:
  double performance_score(const scenario::RunResult& run) const override;
  const char* name() const override { return "high-loss"; }
};

/// Negated total goodput. Simpler than LowUtilizationScore; used by the
/// Fig 4d progress bench where the paper plots raw packets sent.
class LowGoodputScore final : public ScoreFunction {
 public:
  double performance_score(const scenario::RunResult& run) const override;
  const char* name() const override { return "low-goodput"; }
};

/// Negated packets *sent* by the CCA. This is the Fig 4d objective: a flow
/// that stops transmitting (the §4.1 BBR stall collapses the pacing rate)
/// scores higher than one that keeps sending into losses, steering the GA
/// toward send-side stalls rather than brute-force drop floods.
class LowSendRateScore final : public ScoreFunction {
 public:
  double performance_score(const scenario::RunResult& run) const override;
  const char* name() const override { return "low-send-rate"; }
};

/// Fairness-mode objective (§6 future work): 1 − Jain's fairness index over
/// the flows' goodputs. 0 = perfectly fair sharing, approaching 1 − 1/n as
/// one flow monopolizes the bottleneck; the GA maximizes unfairness. 0 for
/// single-flow scenarios (nothing to be unfair about).
class JainFairnessScore final : public ScoreFunction {
 public:
  double performance_score(const scenario::RunResult& run) const override;
  const char* name() const override { return "jain-unfairness"; }
};

/// Fairness-mode objective over a designated victim/attacker flow pair: the
/// attacker's share of the pair's combined goodput, in [0, 1]. 0.5 = fair
/// split, → 1 as the victim is starved; 0.5 (neutral) when both flows are
/// idle, 0 when the scenario has no such pair (e.g. single-flow cells).
/// Defaults fit the presets: flow 1 (the late starter / long-RTT /
/// competitor flow) is the victim of flow 0, the algorithm under test.
class ThroughputRatioScore final : public ScoreFunction {
 public:
  explicit ThroughputRatioScore(std::size_t victim_flow = 1,
                                std::size_t attacker_flow = 0)
      : victim_(victim_flow), attacker_(attacker_flow) {}

  double performance_score(const scenario::RunResult& run) const override;
  const char* name() const override { return "throughput-ratio"; }
  std::uint64_t identity() const override;

 private:
  std::size_t victim_;
  std::size_t attacker_;
};

/// Trace-score weights (traffic mode): negative weight on total injected
/// packets and on injected packets that were dropped, steering the GA
/// toward minimal adversarial vectors (§3.3–3.4).
struct TraceScoreWeights {
  double per_packet = 0.0;
  double per_drop = 0.0;

  double trace_score(const scenario::RunResult& run) const {
    return -per_packet * static_cast<double>(run.cross_sent) -
           per_drop * static_cast<double>(run.cross_drops);
  }
};

}  // namespace ccfuzz::fuzz
