#include "fuzz/score.h"

#include <bit>
#include <vector>

#include "trace/hash.h"
#include "util/stats.h"

namespace ccfuzz::fuzz {

std::uint64_t ScoreFunction::identity_base() const {
  // Stable across processes and builds, unlike the object's address.
  return trace::fnv1a_str(trace::kFnvOffset, name());
}

std::uint64_t ScoreFunction::mix_identity(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t LowUtilizationScore::identity() const {
  std::uint64_t h = identity_base();
  // The retired window parameter, hashed at its only value in use, so every
  // evaluation-cache key and checkpointed entry holds.
  h = mix_identity(h, static_cast<std::uint64_t>(
                          DurationNs::millis(500).ns()));
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

double LowUtilizationScore::performance_score(
    const scenario::RunResult& run) const {
  // Scoring runs on the GA's zero-allocation path: the windowed series is
  // materialized into per-thread scratch (warm after the first evaluation)
  // and the lowest-fraction mean is computed in place.
  thread_local std::vector<double> scratch;
  run.windowed_throughput_mbps_into(0, scratch);
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
