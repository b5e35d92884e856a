// Tests for the GA population: population mechanics, islands, migration,
// termination and actual convergence on a small adversarial search. The GA
// runs through one-cell campaigns, its one driver; top_members is checked
// on an initial population evaluated through the staged interface.
#include "fuzz/fuzzer.h"

#include <gtest/gtest.h>

#include "campaign/campaign.h"

namespace ccfuzz::fuzz {
namespace {

campaign::CellConfig small_cell() {
  campaign::CellConfig cell;
  cell.cca = "reno";
  cell.scenario.duration = TimeNs::seconds(2);
  cell.scenario.net.queue_capacity = 25;
  cell.score = std::make_shared<LowUtilizationScore>();
  cell.trace_weights = {.per_packet = 1e-4};
  cell.traffic_model = {.max_packets = 300};
  cell.ga.population = 24;
  cell.ga.islands = 3;
  cell.ga.max_generations = 4;
  cell.ga.migration_interval = 2;
  cell.ga.seed = 99;
  return cell;
}

campaign::CellResult run_cell(const campaign::CellConfig& cell) {
  campaign::CampaignConfig cfg;
  cfg.add_cell(cell);
  return campaign::Campaign(cfg).run().cells.front();
}

TEST(Fuzzer, StepProducesStatsAndBest) {
  campaign::CellConfig cell = small_cell();
  cell.ga.max_generations = 1;
  const campaign::CellResult r = run_cell(cell);
  ASSERT_EQ(r.history.size(), 1u);
  const GenStats& gs = r.history.front();
  EXPECT_EQ(gs.generation, 0);
  EXPECT_EQ(gs.evaluations, 24);
  EXPECT_GE(gs.best_score, gs.mean_score);
  ASSERT_FALSE(r.winners.empty());
  EXPECT_GE(r.best_score(), gs.best_score);
  // Single-flow cells carry a neutral fairness series.
  EXPECT_DOUBLE_EQ(gs.topk_mean_jain_fairness, 1.0);
  ASSERT_EQ(gs.topk_mean_flow_goodput_mbps.size(), 1u);
  EXPECT_NEAR(gs.topk_mean_flow_goodput_mbps[0], gs.topk_mean_goodput_mbps,
              1e-12);
}

TEST(Fuzzer, GenStatsCarryPerFlowFairnessSeries) {
  // A 2-flow fairness cell: the history series must expose both flows'
  // goodputs and a real Jain index.
  campaign::CellConfig cell = small_cell();
  cell.scenario = scenario::ScenarioConfig{};
  cell.scenario.duration = TimeNs::seconds(2);
  cell.scenario.flows.resize(2);
  cell.scenario.flows[1].start = TimeNs::millis(500);
  cell.score = std::make_shared<JainFairnessScore>();
  cell.trace_weights = {};
  cell.ga.max_generations = 1;
  const GenStats gs = run_cell(cell).history.front();
  ASSERT_EQ(gs.topk_mean_flow_goodput_mbps.size(), 2u);
  EXPECT_GT(gs.topk_mean_flow_goodput_mbps[0], 0.0);
  EXPECT_GT(gs.topk_mean_flow_goodput_mbps[1], 0.0);
  EXPECT_GT(gs.topk_mean_jain_fairness, 0.0);
  EXPECT_LE(gs.topk_mean_jain_fairness, 1.0);
  // The primary flow's goodput is the scalar series.
  EXPECT_NEAR(gs.topk_mean_flow_goodput_mbps[0], gs.topk_mean_goodput_mbps,
              1e-12);
}

TEST(Fuzzer, PopulationSizeConservedAcrossGenerations) {
  // Breeding refills each island of 8 completely: after the initial 24,
  // every generation and the final pass evaluate all members except the 3
  // carried-over elites.
  const campaign::CellResult r = run_cell(small_cell());
  ASSERT_EQ(r.history.size(), 4u);
  for (std::size_t g = 0; g < r.history.size(); ++g) {
    EXPECT_EQ(r.history[g].evaluations,
              24 + 21 * static_cast<std::int64_t>(g));
  }
  EXPECT_EQ(r.simulations + r.cache_hits, 24 + 21 * 4);
}

TEST(Fuzzer, BestScoreNeverDecreasesWithElitism) {
  double best = -1e300;
  for (const GenStats& gs : run_cell(small_cell()).history) {
    EXPECT_GE(gs.best_score, best - 1e-9)
        << "elites must preserve the best trace";
    best = std::max(best, gs.best_score);
  }
}

TEST(Fuzzer, DeterministicForSeed) {
  const campaign::CellResult a = run_cell(small_cell());
  const campaign::CellResult b = run_cell(small_cell());
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].best_score, b.history[i].best_score);
    EXPECT_EQ(a.history[i].mean_score, b.history[i].mean_score);
  }
  ASSERT_FALSE(a.winners.empty());
  EXPECT_EQ(a.winners.front().trace_hash, b.winners.front().trace_hash);
}

TEST(Fuzzer, DifferentSeedsDiverge) {
  campaign::CellConfig c1 = small_cell();
  c1.ga.max_generations = 1;
  campaign::CellConfig c2 = c1;
  c2.ga.seed = 12345;
  EXPECT_NE(run_cell(c1).history[0].mean_score,
            run_cell(c2).history[0].mean_score);
}

TEST(Fuzzer, RunHonoursMaxGenerations) {
  const campaign::CellResult r = run_cell(small_cell());
  ASSERT_EQ(r.history.size(), 4u);
  EXPECT_EQ(r.history.back().generation, 3);
}

TEST(Fuzzer, PatienceStopsEarlyOnPlateau) {
  campaign::CellConfig cell = small_cell();
  cell.ga.max_generations = 50;
  cell.ga.patience = 2;
  const auto h = run_cell(cell).history;
  ASSERT_LT(h.size(), 50u);
  // The stop comes exactly `patience` generations after the last
  // improvement.
  ASSERT_GE(h.size(), 3u);
  const double plateau = h[h.size() - 3].best_score;
  EXPECT_LE(h[h.size() - 2].best_score, plateau + 1e-12);
  EXPECT_LE(h.back().best_score, plateau + 1e-12);
}

TEST(Fuzzer, GaImprovesScoreOverGenerations) {
  // The core promise: evolution finds worse-for-the-CCA traces than random
  // initialization. Use a queue-choking objective against Reno.
  campaign::CellConfig cell = small_cell();
  cell.ga = GaConfig{};
  cell.ga.population = 30;
  cell.ga.islands = 3;
  cell.ga.max_generations = 6;
  cell.ga.seed = 2024;
  const auto h = run_cell(cell).history;
  EXPECT_GT(h.back().best_score, h.front().mean_score)
      << "GA failed to improve over the random initial pool";
}

TEST(Fuzzer, LinkModeRunsWithoutCrossover) {
  // 12 Mbps over 2 s: the derived link budget is 2000 packets.
  campaign::CellConfig cell = small_cell();
  cell.scenario.mode = scenario::FuzzMode::kLink;
  cell.ga.crossover_fraction = 0.5;  // must be ignored for link mode
  cell.ga.max_generations = 2;
  const campaign::CellResult r = run_cell(cell);
  ASSERT_EQ(r.history.size(), 2u);
  EXPECT_EQ(r.history[0].evaluations, 24);
  // Breeding with crossover disabled must still fill the islands: 21 new
  // members (all but the 3 elites) per bred population.
  EXPECT_EQ(r.simulations + r.cache_hits, 24 + 21 * 2);
}

TEST(Fuzzer, AnnealingConfigRuns) {
  campaign::CellConfig cell = small_cell();
  cell.ga.anneal = true;
  cell.ga.anneal_cfg.sigma = 2.0;
  cell.ga.anneal_cfg.strength = 0.3;
  cell.ga.max_generations = 2;
  EXPECT_EQ(run_cell(cell).history.size(), 2u);
}

TEST(Fuzzer, StalledCountTracked) {
  for (const GenStats& gs : run_cell(small_cell()).history) {
    EXPECT_GE(gs.stalled_count, 0);
    EXPECT_LE(gs.stalled_count, 24);
  }
}

/// A fresh fuzzer whose initial population is evaluated by hand, the way a
/// driver fills pending members.
Fuzzer evaluated_initial_population() {
  const campaign::CellConfig cell = small_cell();
  Fuzzer f(cell.ga, campaign::make_trace_model(cell), /*coverage=*/false);
  const TraceEvaluator ev = campaign::make_evaluator(cell);
  for (Member* m : f.pending_members()) {
    ev.evaluate_into(m->genome, m->eval);
    m->evaluated = true;
  }
  return f;
}

TEST(Fuzzer, TopMembersSortedBestFirst) {
  const Fuzzer f = evaluated_initial_population();
  const auto top = f.top_members(10);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].eval.score.total(), top[i].eval.score.total());
  }
}

TEST(Fuzzer, TopMembersMergeAcrossIslands) {
  // 24 members over 3 islands of 8: a global top-10 can only exist if the
  // ranking crosses island boundaries, and it must equal the best-first
  // sort of the whole evaluated population.
  Fuzzer f = evaluated_initial_population();
  const auto all = f.top_members(1000);
  const auto top = f.top_members(10);
  ASSERT_EQ(all.size(), 24u);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_DOUBLE_EQ(top[i].eval.score.total(), all[i].eval.score.total());
  }
  // No island-local ordering artifact: every returned member ranks at least
  // as high as every excluded one.
  for (std::size_t i = top.size(); i < all.size(); ++i) {
    EXPECT_LE(all[i].eval.score.total(), top.back().eval.score.total());
  }
  // Advancing the generation records the population's leader as best().
  f.note_external_evaluations(24);
  f.advance_generation();
  EXPECT_DOUBLE_EQ(top.front().eval.score.total(),
                   f.best().eval.score.total());
}

}  // namespace
}  // namespace ccfuzz::fuzz
