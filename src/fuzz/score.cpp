#include "fuzz/score.h"

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/stats.h"

namespace ccfuzz::fuzz {

std::uint64_t ScoreFunction::identity_base() const {
  // FNV-1a over name(): stable across processes and builds, unlike the
  // object's address.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = name(); *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t ScoreFunction::mix_identity(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t LowUtilizationScore::identity() const {
  std::uint64_t h = identity_base();
  h = mix_identity(h, static_cast<std::uint64_t>(window_.ns()));
  h = mix_identity(h, std::bit_cast<std::uint64_t>(fraction_));
  return h;
}

std::uint64_t HighDelayScore::identity() const {
  return mix_identity(identity_base(), std::bit_cast<std::uint64_t>(pct_));
}

std::uint64_t ThroughputRatioScore::identity() const {
  std::uint64_t h = identity_base();
  h = mix_identity(h, static_cast<std::uint64_t>(victim_));
  h = mix_identity(h, static_cast<std::uint64_t>(attacker_));
  return h;
}

void LowUtilizationScore::validate(
    const scenario::ScenarioConfig& scenario) const {
  // A custom window only exists post-hoc in the raw events; in a
  // metrics-only run it would silently read as zero throughput for every
  // trace and degenerate the GA. Caught here, at evaluator construction.
  if (scenario.record_mode != scenario::RecordMode::kFullEvents &&
      window_ != scenario.metrics_window) {
    throw std::logic_error(
        "LowUtilizationScore window (" + std::to_string(window_.to_seconds()) +
        " s) does not match the scenario's metrics_window (" +
        std::to_string(scenario.metrics_window.to_seconds()) +
        " s) and metrics-only runs keep no raw events; align the two or use "
        "RecordMode::kFullEvents");
  }
}

double LowUtilizationScore::performance_score(
    const scenario::RunResult& run) const {
  // Same misconfiguration guard for direct (non-evaluator) callers. Runs
  // whose recorder actually holds events — full-events mode or hand-built
  // results — can serve any window post hoc.
  if (window_ != run.config.metrics_window && !run.has_events() &&
      run.recorder.egress().empty()) {
    validate(run.config);
  }
  // Scoring runs on the GA's zero-allocation path: the windowed series is
  // materialized into per-thread scratch (warm after the first evaluation)
  // and the lowest-fraction mean is computed in place.
  thread_local std::vector<double> scratch;
  run.windowed_throughput_mbps_into(window_, 0, scratch);
  if (scratch.empty()) return 0.0;
  return -mean_of_lowest_fraction_inplace(scratch, fraction_);
}

double HighDelayScore::performance_score(
    const scenario::RunResult& run) const {
  // Streaming delay digest: identical in metrics-only and full-events runs.
  // An empty digest (no CCA packet ever crossed the bottleneck) is neutral.
  return run.queue_delay_percentile_s(pct_, 0);
}

double HighLossScore::performance_score(const scenario::RunResult& run) const {
  const DurationNs active = run.primary().active();
  if (active <= DurationNs::zero()) return 0.0;
  return static_cast<double>(run.primary().drops) / active.to_seconds();
}

double LowGoodputScore::performance_score(
    const scenario::RunResult& run) const {
  return -run.goodput_mbps();
}

double LowSendRateScore::performance_score(
    const scenario::RunResult& run) const {
  const DurationNs active = run.primary().active();
  if (active <= DurationNs::zero()) return 0.0;
  return -static_cast<double>(run.primary().sent) / active.to_seconds();
}

double JainFairnessScore::performance_score(
    const scenario::RunResult& run) const {
  if (run.flow_count() < 2) return 0.0;
  return 1.0 - run.jain_fairness();
}

double ThroughputRatioScore::performance_score(
    const scenario::RunResult& run) const {
  if (victim_ >= run.flow_count() || attacker_ >= run.flow_count()) {
    // The designated pair does not exist in this scenario (e.g. a
    // single-flow cell): neutral, like JainFairnessScore — not a constant
    // "victim fully starved" that would blind the GA.
    return 0.0;
  }
  const double victim = run.goodput_mbps(victim_);
  const double attacker = run.goodput_mbps(attacker_);
  const double pair = victim + attacker;
  if (pair <= 0.0) return 0.5;  // both idle: neutral
  return attacker / pair;
}

}  // namespace ccfuzz::fuzz
