// Tests for the GA driver: population mechanics, islands, migration,
// determinism, and actual convergence on a small adversarial search.
#include "fuzz/fuzzer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cca/registry.h"

namespace ccfuzz::fuzz {
namespace {

std::shared_ptr<const TraceModel> small_traffic_model() {
  trace::TrafficTraceModel m;
  m.max_packets = 300;
  m.duration = TimeNs::seconds(2);
  return std::make_shared<TrafficModel>(m);
}

TraceEvaluator small_evaluator() {
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.net.queue_capacity = 25;
  return TraceEvaluator(cfg, cca::make_factory("reno"),
                        std::make_shared<LowUtilizationScore>(),
                        TraceScoreWeights{.per_packet = 1e-4});
}

GaConfig small_config() {
  GaConfig cfg;
  cfg.population = 24;
  cfg.islands = 3;
  cfg.max_generations = 4;
  cfg.migration_interval = 2;
  cfg.seed = 99;
  return cfg;
}

TEST(Fuzzer, StepProducesStatsAndBest) {
  Fuzzer f(small_config(), small_traffic_model(), small_evaluator());
  const GenStats gs = f.step();
  EXPECT_EQ(gs.generation, 0);
  EXPECT_EQ(gs.evaluations, 24);
  EXPECT_GE(gs.best_score, gs.mean_score);
  EXPECT_TRUE(f.best().evaluated);
  // Single-flow cells carry a neutral fairness series.
  EXPECT_DOUBLE_EQ(gs.topk_mean_jain_fairness, 1.0);
  ASSERT_EQ(gs.topk_mean_flow_goodput_mbps.size(), 1u);
  EXPECT_NEAR(gs.topk_mean_flow_goodput_mbps[0], gs.topk_mean_goodput_mbps,
              1e-12);
}

TEST(Fuzzer, GenStatsCarryPerFlowFairnessSeries) {
  // A 2-flow fairness cell: the history series must expose both flows'
  // goodputs and a real Jain index (ROADMAP follow-up: GenStats were
  // primary-flow-centric).
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.flows.resize(2);
  cfg.flows[1].start = TimeNs::millis(500);
  TraceEvaluator ev(cfg, cca::make_factory("reno"),
                    std::make_shared<JainFairnessScore>());
  GaConfig ga = small_config();
  ga.max_generations = 1;
  Fuzzer f(ga, small_traffic_model(), std::move(ev));
  const GenStats gs = f.step();
  ASSERT_EQ(gs.topk_mean_flow_goodput_mbps.size(), 2u);
  EXPECT_GT(gs.topk_mean_flow_goodput_mbps[0], 0.0);
  EXPECT_GT(gs.topk_mean_flow_goodput_mbps[1], 0.0);
  EXPECT_GT(gs.topk_mean_jain_fairness, 0.0);
  EXPECT_LE(gs.topk_mean_jain_fairness, 1.0);
  // The late starter shares the mean goodput split.
  EXPECT_NEAR(gs.topk_mean_flow_goodput_mbps[0], gs.topk_mean_goodput_mbps,
              1e-12);
}

TEST(Fuzzer, PopulationSizeConservedAcrossGenerations) {
  Fuzzer f(small_config(), small_traffic_model(), small_evaluator());
  for (int g = 0; g < 3; ++g) f.step();
  const auto top = f.top_members(1000);
  // Members bred in the final step are unevaluated and excluded; elites
  // persist. The population itself stays at 24 (8 per island).
  EXPECT_GE(top.size(), 3u);  // at least the elites
}

TEST(Fuzzer, BestScoreNeverDecreasesWithElitism) {
  Fuzzer f(small_config(), small_traffic_model(), small_evaluator());
  double best = -1e300;
  for (int g = 0; g < 4; ++g) {
    const GenStats gs = f.step();
    EXPECT_GE(gs.best_score, best - 1e-9)
        << "elites must preserve the best trace";
    best = std::max(best, gs.best_score);
  }
}

TEST(Fuzzer, DeterministicForSeed) {
  auto run_once = [] {
    Fuzzer f(small_config(), small_traffic_model(), small_evaluator());
    f.step();
    f.step();
    return f.history();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].best_score, b[i].best_score);
    EXPECT_DOUBLE_EQ(a[i].mean_score, b[i].mean_score);
  }
}

std::string state_after_three_generations(GaConfig cfg, bool parallel,
                                          std::shared_ptr<const TraceModel> model,
                                          TraceEvaluator evaluator) {
  cfg.parallel = parallel;
  Fuzzer f(cfg, std::move(model), std::move(evaluator));
  for (int g = 0; g < 3; ++g) f.step();
  std::ostringstream os;
  f.save_state(os);
  return os.str();
}

TEST(Fuzzer, DeterministicRegardlessOfParallelism) {
  // Islands generate, evaluate and breed on the pool when parallel. Each
  // draws only from its own RNG stream, so the whole GA state — populations,
  // RNG streams, history, archive — must match a serial run byte for byte.
  // Seven islands is not a multiple of any pool size.
  GaConfig ga = small_config();
  ga.population = 23;
  ga.islands = 7;

  trace::LinkTraceModel lm;
  lm.total_packets = 2000;  // 12 Mbps over 2 s
  lm.duration = TimeNs::seconds(2);
  scenario::ScenarioConfig link;
  link.mode = scenario::FuzzMode::kLink;
  link.duration = TimeNs::seconds(2);
  const TraceEvaluator link_evaluator(link, cca::make_factory("reno"),
                                      std::make_shared<LowUtilizationScore>());

  scenario::ScenarioConfig probed;
  probed.duration = TimeNs::seconds(2);
  probed.net.queue_capacity = 25;
  probed.coverage = true;
  const TraceEvaluator probed_evaluator(
      probed, cca::make_factory("reno"),
      std::make_shared<LowUtilizationScore>(),
      TraceScoreWeights{.per_packet = 1e-4});
  GaConfig elites = ga;
  elites.search = SearchMode::kMapElites;
  elites.novelty_bonus = 0.5;

  GaConfig anneal = ga;
  anneal.anneal = true;
  anneal.anneal_cfg.sigma = 2.0;
  anneal.anneal_cfg.strength = 0.3;

  const auto check = [](const char* name, const GaConfig& cfg,
                        const std::shared_ptr<const TraceModel>& model,
                        const TraceEvaluator& evaluator) {
    const std::string par =
        state_after_three_generations(cfg, true, model, evaluator);
    const std::string ser =
        state_after_three_generations(cfg, false, model, evaluator);
    EXPECT_FALSE(par.empty()) << name;
    EXPECT_TRUE(par == ser) << name << ": parallel state differs from serial";
  };
  check("traffic", ga, small_traffic_model(), small_evaluator());
  check("link", ga, std::make_shared<LinkModel>(lm), link_evaluator);
  check("map-elites", elites, small_traffic_model(), probed_evaluator);
  check("anneal", anneal, small_traffic_model(), small_evaluator());
}

TEST(Fuzzer, DifferentSeedsDiverge) {
  GaConfig c1 = small_config();
  GaConfig c2 = small_config();
  c2.seed = 12345;
  Fuzzer f1(c1, small_traffic_model(), small_evaluator());
  Fuzzer f2(c2, small_traffic_model(), small_evaluator());
  f1.step();
  f2.step();
  EXPECT_NE(f1.history()[0].mean_score, f2.history()[0].mean_score);
}

TEST(Fuzzer, RunHonoursMaxGenerations) {
  Fuzzer f(small_config(), small_traffic_model(), small_evaluator());
  const auto& hist = f.run();
  EXPECT_EQ(hist.size(), 4u);
  EXPECT_EQ(f.generation(), 4);
}

TEST(Fuzzer, PatienceStopsEarlyOnPlateau) {
  GaConfig cfg = small_config();
  cfg.max_generations = 50;
  cfg.patience = 2;
  Fuzzer f(cfg, small_traffic_model(), small_evaluator());
  const auto& hist = f.run();
  EXPECT_LT(hist.size(), 50u);
}

TEST(Fuzzer, GaImprovesScoreOverGenerations) {
  // The core promise: evolution finds worse-for-the-CCA traces than random
  // initialization. Use a queue-choking objective against Reno.
  GaConfig cfg;
  cfg.population = 30;
  cfg.islands = 3;
  cfg.max_generations = 6;
  cfg.seed = 2024;
  Fuzzer f(cfg, small_traffic_model(), small_evaluator());
  const auto& hist = f.run();
  EXPECT_GT(hist.back().best_score, hist.front().mean_score)
      << "GA failed to improve over the random initial pool";
}

TEST(Fuzzer, LinkModeRunsWithoutCrossover) {
  trace::LinkTraceModel lm;
  lm.total_packets = 2000;  // 12 Mbps over 2 s
  lm.duration = TimeNs::seconds(2);
  GaConfig cfg = small_config();
  cfg.crossover_fraction = 0.5;  // must be ignored for link mode
  scenario::ScenarioConfig scfg;
  scfg.mode = scenario::FuzzMode::kLink;
  scfg.duration = TimeNs::seconds(2);
  TraceEvaluator ev(scfg, cca::make_factory("reno"),
                    std::make_shared<LowUtilizationScore>());
  Fuzzer f(cfg, std::make_shared<LinkModel>(lm), ev);
  const GenStats gs = f.step();
  EXPECT_EQ(gs.evaluations, 24);
  f.step();  // breeding with crossover disabled must still fill islands
  EXPECT_EQ(f.history().size(), 2u);
}

TEST(Fuzzer, AnnealingConfigRuns) {
  GaConfig cfg = small_config();
  cfg.anneal = true;
  cfg.anneal_cfg.sigma = 2.0;
  cfg.anneal_cfg.strength = 0.3;
  Fuzzer f(cfg, small_traffic_model(), small_evaluator());
  f.step();
  f.step();
  EXPECT_EQ(f.history().size(), 2u);
}

TEST(Fuzzer, StalledCountTracked) {
  Fuzzer f(small_config(), small_traffic_model(), small_evaluator());
  const GenStats gs = f.step();
  EXPECT_GE(gs.stalled_count, 0);
  EXPECT_LE(gs.stalled_count, 24);
}

TEST(Fuzzer, TopMembersSortedBestFirst) {
  Fuzzer f(small_config(), small_traffic_model(), small_evaluator());
  f.step();
  const auto top = f.top_members(10);
  ASSERT_GE(top.size(), 2u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].eval.score.total(), top[i].eval.score.total());
  }
}

TEST(Fuzzer, TopMembersMergeAcrossIslands) {
  // 24 members over 3 islands of 8: a global top-10 can only exist if the
  // ranking crosses island boundaries, and it must equal the best-first
  // sort of the whole evaluated population.
  Fuzzer f(small_config(), small_traffic_model(), small_evaluator());
  f.run();  // the trailing evaluate pass leaves the whole population ranked
  const auto all = f.top_members(1000);
  const auto top = f.top_members(10);
  ASSERT_EQ(top.size(), 10u);
  ASSERT_GT(all.size(), top.size()) << "more than one island must contribute";
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_DOUBLE_EQ(top[i].eval.score.total(), all[i].eval.score.total());
  }
  // No island-local ordering artifact: every returned member ranks at least
  // as high as every excluded one.
  for (std::size_t i = top.size(); i < all.size(); ++i) {
    EXPECT_LE(all[i].eval.score.total(), top.back().eval.score.total());
  }
  EXPECT_DOUBLE_EQ(top.front().eval.score.total(),
                   f.best().eval.score.total());
}

TEST(Fuzzer, StagedSteppingMatchesStep) {
  // The campaign scheduler's contract: pending_members → external fill →
  // advance_generation replays step() exactly.
  auto direct = Fuzzer(small_config(), small_traffic_model(),
                       small_evaluator());
  auto staged = Fuzzer(small_config(), small_traffic_model(),
                       small_evaluator());
  const TraceEvaluator ev = small_evaluator();
  for (int g = 0; g < 3; ++g) {
    const GenStats want = direct.step();
    const auto pending = staged.pending_members();
    for (Member* m : pending) {
      m->eval = ev.evaluate(m->genome);
      m->evaluated = true;
    }
    staged.note_external_evaluations(
        static_cast<std::int64_t>(pending.size()));
    const GenStats got = staged.advance_generation();
    EXPECT_DOUBLE_EQ(got.best_score, want.best_score);
    EXPECT_DOUBLE_EQ(got.mean_score, want.mean_score);
    EXPECT_EQ(got.evaluations, want.evaluations);
    EXPECT_EQ(got.generation, want.generation);
  }
}

}  // namespace
}  // namespace ccfuzz::fuzz
