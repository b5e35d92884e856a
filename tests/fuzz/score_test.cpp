// Tests for the scoring functions (paper §3.4), evaluated over real runs.
#include "fuzz/score.h"

#include <gtest/gtest.h>

#include "cca/registry.h"
#include "fuzz/evaluator.h"
#include "trace/hash.h"

namespace ccfuzz::fuzz {
namespace {

scenario::ScenarioConfig base_config() {
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(3);
  return cfg;
}

scenario::RunResult clean_run() {
  return scenario::run_scenario(base_config(), cca::make_factory("reno"), {});
}

scenario::RunResult choked_run() {
  // Link mode with opportunities only in the first 500 ms: terrible
  // utilization afterwards.
  scenario::ScenarioConfig cfg = base_config();
  cfg.mode = scenario::FuzzMode::kLink;
  std::vector<TimeNs> trace;
  for (int i = 1; i < 500; ++i) trace.emplace_back(TimeNs::millis(i));
  return scenario::run_scenario(cfg, cca::make_factory("reno"), trace);
}

TEST(LowUtilizationScore, RanksChokedAboveClean) {
  LowUtilizationScore score;
  EXPECT_GT(score.performance_score(choked_run()),
            score.performance_score(clean_run()));
}

TEST(LowUtilizationScore, CleanRunScoresNearNegativeLinkRate) {
  // Lowest-20% windows of a clean Reno run include slow start, so the
  // score sits between -12 and 0, closer to the link rate.
  LowUtilizationScore score;
  const double s = score.performance_score(clean_run());
  EXPECT_LT(s, -4.0);
  EXPECT_GT(s, -12.5);
}

TEST(LowUtilizationScore, UsesLowestWindows) {
  // A narrower "lowest fraction" must score >= the default (its mean can
  // only drop when averaging fewer, smaller windows).
  const auto run = clean_run();
  LowUtilizationScore narrow(0.1);
  LowUtilizationScore wide(0.9);
  EXPECT_GE(narrow.performance_score(run), wide.performance_score(run));
}

TEST(HighDelayScore, QueueBuildupScoresHigher) {
  // Fig 4e's premise: BBR alone keeps the queue shallow, but cross-traffic
  // refills force a standing queue even its 10th-percentile delay shows.
  scenario::ScenarioConfig cfg = base_config();
  const auto clean =
      scenario::run_scenario(cfg, cca::make_factory("bbr"), {});
  std::vector<TimeNs> trace;
  for (std::size_t i = 0; i < cfg.net.queue_capacity; ++i) {
    trace.emplace_back(TimeNs::zero());  // pre-fill the queue
  }
  for (int i = 1; i < 1500; ++i) {
    trace.emplace_back(TimeNs::millis(2 * i));  // 6 Mbps refill stream
  }
  const auto congested =
      scenario::run_scenario(cfg, cca::make_factory("bbr"), trace);
  HighDelayScore score(10.0);
  EXPECT_GT(score.performance_score(congested),
            score.performance_score(clean));
}

TEST(HighDelayScore, NoEgressIsNeutral) {
  scenario::RunResult empty;
  empty.config = base_config();
  HighDelayScore score;
  EXPECT_DOUBLE_EQ(score.performance_score(empty), 0.0);
}

TEST(HighLossScore, CountsCcaDropsPerSecond) {
  scenario::RunResult r;
  r.config = base_config();
  scenario::FlowResult primary;
  primary.stop = r.config.duration;
  primary.drops = 30;
  r.flows.push_back(std::move(primary));
  HighLossScore score;
  EXPECT_DOUBLE_EQ(score.performance_score(r), 10.0);  // 30 drops / 3 s
}

// Hand-builds an n-flow RunResult whose flows delivered the given segment
// counts over the full run.
scenario::RunResult fairness_run(std::initializer_list<std::int64_t> delivered) {
  scenario::RunResult r;
  r.config = base_config();
  for (const std::int64_t d : delivered) {
    scenario::FlowResult f;
    f.start = TimeNs::zero();
    f.stop = r.config.duration;
    f.packet_bytes = r.config.net.packet_bytes;
    f.segments_delivered = d;
    r.flows.push_back(std::move(f));
  }
  return r;
}

TEST(JainFairnessScore, EqualSharesScoreZero) {
  JainFairnessScore score;
  EXPECT_NEAR(score.performance_score(fairness_run({500, 500})), 0.0, 1e-12);
  EXPECT_NEAR(score.performance_score(fairness_run({300, 300, 300})), 0.0,
              1e-12);
}

TEST(JainFairnessScore, MonopolyApproachesOneMinusOneOverN) {
  JainFairnessScore score;
  EXPECT_NEAR(score.performance_score(fairness_run({1000, 0})), 0.5, 1e-12);
  EXPECT_NEAR(score.performance_score(fairness_run({1000, 0, 0, 0})), 0.75,
              1e-12);
}

TEST(JainFairnessScore, SingleFlowAndAllIdleAreNeutral) {
  JainFairnessScore score;
  EXPECT_DOUBLE_EQ(score.performance_score(fairness_run({1000})), 0.0);
  EXPECT_DOUBLE_EQ(score.performance_score(fairness_run({0, 0})), 0.0);
}

TEST(JainFairnessScore, RanksStarvedPairAboveFairPair) {
  // End-to-end: a late-starting bbr flow beside reno shares worse than two
  // symmetric reno flows.
  JainFairnessScore score;
  EXPECT_GT(score.performance_score(fairness_run({900, 100})),
            score.performance_score(fairness_run({480, 520})));
}

TEST(ThroughputRatioScore, AttackerShareOfPair) {
  ThroughputRatioScore score(/*victim_flow=*/1, /*attacker_flow=*/0);
  EXPECT_NEAR(score.performance_score(fairness_run({750, 250})), 0.75, 1e-12);
  EXPECT_NEAR(score.performance_score(fairness_run({500, 500})), 0.5, 1e-12);
  EXPECT_NEAR(score.performance_score(fairness_run({0, 400})), 0.0, 1e-12);
}

TEST(ThroughputRatioScore, BothIdleIsNeutral) {
  ThroughputRatioScore score;
  EXPECT_DOUBLE_EQ(score.performance_score(fairness_run({0, 0})), 0.5);
}

TEST(ThroughputRatioScore, MissingPairFlowIsNeutralNotStarved) {
  // A single-flow run has no victim at index 1: the score must be 0, not a
  // constant "victim fully starved" 1.0 that would blind the GA.
  ThroughputRatioScore score;
  EXPECT_DOUBLE_EQ(score.performance_score(fairness_run({800})), 0.0);
  EXPECT_DOUBLE_EQ(score.performance_score(scenario::RunResult{}), 0.0);
}

TEST(LowGoodputScore, NegatesGoodput) {
  const auto run = clean_run();
  LowGoodputScore score;
  EXPECT_DOUBLE_EQ(score.performance_score(run), -run.goodput_mbps());
}

TEST(TraceScoreWeights, PenalizesPacketsAndDrops) {
  scenario::RunResult r;
  r.cross_sent = 100;
  r.cross_drops = 20;
  TraceScoreWeights w{.per_packet = 0.01, .per_drop = 0.1};
  EXPECT_DOUBLE_EQ(w.trace_score(r), -(100 * 0.01 + 20 * 0.1));
}

TEST(TraceScoreWeights, ZeroWeightsAreNeutral) {
  scenario::RunResult r;
  r.cross_sent = 1000;
  TraceScoreWeights w{};
  EXPECT_DOUBLE_EQ(w.trace_score(r), 0.0);
}

TEST(Score, IdentitiesArePinned) {
  // identity() keys the campaign evaluation cache and every checkpointed
  // cache entry, so its values must not move across refactors.
  const struct {
    const char* name;
    std::shared_ptr<const ScoreFunction> score;
    const char* want;
  } cases[] = {
      {"low-utilization", std::make_shared<LowUtilizationScore>(),
       "41c02aaff893e59f"},
      {"low-utilization 0.1", std::make_shared<LowUtilizationScore>(0.1),
       "41f02aaff893e59f"},
      {"high-delay", std::make_shared<HighDelayScore>(), "430b0f1ff069ed53"},
      {"high-delay 50", std::make_shared<HighDelayScore>(50.0),
       "43260f1ff069ed53"},
      {"high-loss", std::make_shared<HighLossScore>(), "70e3473783a33cff"},
      {"low-goodput", std::make_shared<LowGoodputScore>(),
       "adc1baaa86d2dc3a"},
      {"low-send-rate", std::make_shared<LowSendRateScore>(),
       "d08ab7a8dc1533d7"},
      {"jain-unfairness", std::make_shared<JainFairnessScore>(),
       "536e18683860c978"},
      {"throughput-ratio", std::make_shared<ThroughputRatioScore>(),
       "81829966f68a9a96"},
      {"throughput-ratio 1,0", std::make_shared<ThroughputRatioScore>(1, 0),
       "81829966f68a9a96"},
      {"throughput-ratio 0,1", std::make_shared<ThroughputRatioScore>(0, 1),
       "81829966f68a9ad6"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(trace::hash_hex(c.score->identity()), c.want) << c.name;
  }
}

TEST(Score, TotalIsSumOfComponents) {
  Score s{.performance = 2.5, .trace = -0.5};
  EXPECT_DOUBLE_EQ(s.total(), 2.0);
}

}  // namespace
}  // namespace ccfuzz::fuzz
