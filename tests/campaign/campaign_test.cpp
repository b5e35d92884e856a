// Tests for the campaign layer: matrix expansion, the golden GA histories of
// the lockstep driver, parallel/serial equivalence, the evaluation cache,
// observers, and report serialization.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "campaign/panel.h"
#include "campaign/report.h"
#include "trace/hash.h"
#include "trace/trace_io.h"

namespace ccfuzz::campaign {
namespace {

fuzz::GaConfig tiny_ga() {
  fuzz::GaConfig ga;
  ga.population = 12;
  ga.islands = 2;
  ga.max_generations = 2;
  ga.seed = 99;
  return ga;
}

scenario::ScenarioConfig tiny_scenario() {
  scenario::ScenarioConfig s;
  s.duration = TimeNs::seconds(2);
  s.net.queue_capacity = 25;
  return s;
}

CellConfig tiny_cell(const char* cca = "reno") {
  CellConfig cell;
  cell.cca = cca;
  cell.scenario = tiny_scenario();
  cell.score = std::make_shared<fuzz::LowUtilizationScore>();
  cell.trace_weights = {.per_packet = 1e-4};
  cell.traffic_model.max_packets = 200;
  cell.ga = tiny_ga();
  return cell;
}

TEST(CampaignConfig, MatrixExpansionIsCcaMajorAndNamed) {
  CampaignConfig cfg;
  cfg.ccas({"bbr", "reno"})
      .modes({scenario::FuzzMode::kTraffic, scenario::FuzzMode::kLink})
      .base_scenario(tiny_scenario())
      .ga(tiny_ga());
  const auto cells = cfg.cells();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].name, "bbr.traffic.low-utilization");
  EXPECT_EQ(cells[1].name, "bbr.link.low-utilization");
  EXPECT_EQ(cells[2].name, "reno.traffic.low-utilization");
  EXPECT_EQ(cells[3].name, "reno.link.low-utilization");
  EXPECT_EQ(cells[1].scenario.mode, scenario::FuzzMode::kLink);
  // Matrix cells share the base seed → paired initial populations.
  EXPECT_EQ(cells[0].ga.seed, cells[2].ga.seed);
}

TEST(CampaignConfig, ScoreAndScenarioAxesMultiply) {
  CampaignConfig cfg;
  cfg.ccas({"reno"})
      .modes({scenario::FuzzMode::kTraffic})
      .add_scenario("deep", tiny_scenario())
      .add_scenario("shallow", tiny_scenario())
      .add_score("util", std::make_shared<fuzz::LowUtilizationScore>())
      .add_score("delay", std::make_shared<fuzz::HighDelayScore>())
      .ga(tiny_ga());
  const auto cells = cfg.cells();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].name, "reno.traffic.deep.util");
  EXPECT_EQ(cells[3].name, "reno.traffic.shallow.delay");
}

TEST(CampaignConfig, UnknownCcaThrowsListingKnownNames) {
  CampaignConfig cfg;
  cfg.ccas({"vegas"}).ga(tiny_ga());
  try {
    cfg.cells();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("vegas"), std::string::npos);
    EXPECT_NE(msg.find("reno"), std::string::npos);
    EXPECT_NE(msg.find("bbr-probertt-on-rto"), std::string::npos);
  }
}

TEST(CampaignConfig, EmptyCampaignThrows) {
  CampaignConfig cfg;
  EXPECT_THROW(cfg.cells(), std::invalid_argument);
}

TEST(CampaignConfig, DegenerateGaConfigThrowsInsteadOfCorruptingTheGa) {
  CellConfig cell = tiny_cell();
  cell.ga.population = 0;  // Fuzzer's own guard is a debug-only assert
  CampaignConfig cfg;
  cfg.add_cell(cell);
  EXPECT_THROW(cfg.cells(), std::invalid_argument);

  CellConfig lopsided = tiny_cell();
  lopsided.ga.population = 4;
  lopsided.ga.islands = 8;
  CampaignConfig cfg2;
  cfg2.add_cell(lopsided);
  EXPECT_THROW(cfg2.cells(), std::invalid_argument);

  // A non-positive metrics window leaves the windowed bins empty, so every
  // trace would score 0.
  for (const DurationNs window : {DurationNs::zero(), DurationNs::millis(-1)}) {
    CellConfig windowless = tiny_cell();
    windowless.scenario.metrics_window = window;
    CampaignConfig cfg3;
    cfg3.add_cell(windowless);
    EXPECT_THROW(cfg3.cells(), std::invalid_argument) << window.ns();
  }
}

TEST(CampaignConfig, NamesCollidingAfterSanitizationAreUniquified) {
  // "a/b" and "a_b" differ as display names but sanitize to the same
  // report directory; the second must be suffixed, not overwrite.
  CellConfig slash = tiny_cell();
  slash.name = "a/b";
  CellConfig underscore = tiny_cell();
  underscore.name = "a_b";
  CampaignConfig cfg;
  cfg.add_cell(slash).add_cell(underscore);
  const auto cells = cfg.cells();
  EXPECT_NE(sanitize_cell_name(cells[0].name),
            sanitize_cell_name(cells[1].name));
}

TEST(CampaignConfig, DuplicateCellNamesAreUniquified) {
  CampaignConfig cfg;
  cfg.add_cell(tiny_cell()).add_cell(tiny_cell());
  const auto cells = cfg.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].name, "reno.traffic.low-utilization");
  EXPECT_EQ(cells[1].name, "reno.traffic.low-utilization.2");
}

TEST(CellWiring, LinkBudgetDerivedFromScenarioBandwidth) {
  CellConfig cell = tiny_cell();
  cell.scenario.mode = scenario::FuzzMode::kLink;
  const auto model = make_trace_model(cell);
  Rng rng(1);
  const auto t = model->generate(rng);
  // 12 Mbps over 2 s at 1500 B/packet = 2000 service opportunities.
  EXPECT_EQ(t.size(), 2000u);
  EXPECT_EQ(t.duration, cell.scenario.duration);
  EXPECT_FALSE(model->supports_crossover());
}

TEST(CellWiring, TrafficModelTracksScenarioDuration) {
  CellConfig cell = tiny_cell();
  const auto model = make_trace_model(cell);
  Rng rng(1);
  EXPECT_EQ(model->generate(rng).duration, cell.scenario.duration);
  EXPECT_TRUE(model->supports_crossover());
}

// One line per generation: the GA outcome at full double precision, plus
// the final winner's hash and the cell's evaluation count (simulations +
// cache hits, final pass included) — everything a change to the GA driver
// could perturb.
std::string render_history(const CellResult& r) {
  std::string out;
  char line[192];
  for (const fuzz::GenStats& gs : r.history) {
    std::snprintf(line, sizeof line, "%d %.17g %.17g %lld %d %lld %lld\n",
                  gs.generation, gs.best_score, gs.mean_score,
                  static_cast<long long>(gs.evaluations), gs.stalled_count,
                  static_cast<long long>(gs.archive_cells),
                  static_cast<long long>(gs.coverage_bits));
    out += line;
  }
  std::snprintf(line, sizeof line, "winner %016llx evaluated %lld\n",
                r.winners.empty()
                    ? 0ULL
                    : static_cast<unsigned long long>(
                          r.winners.front().trace_hash),
                static_cast<long long>(r.simulations + r.cache_hits));
  return out + line;
}

// Pins the GenStats history, winner and evaluation count of one-cell
// campaigns: the GA's reference output. Any change to the GA driver must
// leave every line identical.
TEST(Campaign, GoldenGenStatsHistory) {
  CellConfig base = tiny_cell();
  base.ga.islands = 3;
  base.ga.max_generations = 6;
  base.ga.migration_interval = 2;

  CellConfig link = base;
  link.scenario.mode = scenario::FuzzMode::kLink;
  CellConfig elites = base;
  elites.ga.search = fuzz::SearchMode::kMapElites;
  elites.ga.novelty_bonus = 0.5;
  CellConfig anneal = base;
  anneal.ga.anneal = true;
  anneal.ga.anneal_cfg.sigma = 2.0;
  anneal.ga.anneal_cfg.strength = 0.3;
  CellConfig patience = base;
  patience.ga.max_generations = 50;
  patience.ga.patience = 2;
  CellConfig zero = base;
  zero.ga.max_generations = 0;

  const struct {
    const char* name;
    CellConfig cell;
    const char* want;
  } cases[] = {
      {"traffic", base,
       "0 -0.02 -7.0839999999999996 12 0 0 0\n"
       "1 -0.009300000000000001 -5.6878833333333327 21 0 0 0\n"
       "2 -0.009300000000000001 -4.1155416666666671 30 0 0 0\n"
       "3 -0.009300000000000001 -4.9350250000000004 39 0 0 0\n"
       "4 -0.009300000000000001 -3.4471583333333342 48 0 0 0\n"
       "5 -0.0061000000000000004 -2.6798499999999996 57 0 0 0\n"
       "winner 01a328c74f97be24 evaluated 66\n"},
      {"link", link,
       "0 -0 -1.7260000000000002 12 0 0 0\n"
       "1 -0 -0.72999999999999987 21 0 0 0\n"
       "2 -0 -0.38199999999999995 30 0 0 0\n"
       "3 -0 -1.0739999999999998 39 0 0 0\n"
       "4 -0 -1.008 48 0 0 0\n"
       "5 -0 -0.33800000000000002 57 0 0 0\n"
       "winner 75ca53624d53f923 evaluated 66\n"},
      {"map-elites+novelty", elites,
       "0 -0.02 -7.0839999999999996 12 0 5 97\n"
       "1 -0.0132 -5.424383333333334 21 0 7 122\n"
       "2 -0.0132 -4.0628916666666663 30 0 7 134\n"
       "3 -0.0091000000000000004 -3.5738833333333342 39 0 7 135\n"
       "4 -0.0091000000000000004 -5.7724749999999991 48 0 7 142\n"
       "5 -0.0091000000000000004 -4.6325666666666665 57 0 7 145\n"
       "winner 822c1231c60c3336 evaluated 66\n"},
      {"anneal", anneal,
       "0 -0.02 -7.0839999999999996 12 0 0 0\n"
       "1 -0.0071000000000000004 -4.0434416666666664 21 0 0 0\n"
       "2 -0.0071000000000000004 -3.2542333333333331 30 0 0 0\n"
       "3 -0.0071000000000000004 -3.2656583333333331 39 0 0 0\n"
       "4 -0.0071000000000000004 -5.4077916666666681 48 0 0 0\n"
       "5 -0.0071000000000000004 -5.3777416666666662 57 0 0 0\n"
       "winner 3a44523365e999d4 evaluated 66\n"},
      {"patience", patience,
       "0 -0.02 -7.0839999999999996 12 0 0 0\n"
       "1 -0.009300000000000001 -5.6878833333333327 21 0 0 0\n"
       "2 -0.009300000000000001 -4.1155416666666671 30 0 0 0\n"
       "3 -0.009300000000000001 -4.9350250000000004 39 0 0 0\n"
       "winner 46a0c83c7f78fb27 evaluated 48\n"},
      {"zero-generations", zero,
       "winner 79f63f3088c679e9 evaluated 12\n"},
  };
  for (const auto& c : cases) {
    CampaignConfig cfg;
    cfg.add_cell(c.cell);
    EXPECT_EQ(render_history(Campaign(cfg).run().cells.front()), c.want)
        << c.name;
  }
}

// Pins campaign::scenario_key, which checkpoints record in their cache keys
// and finding bundles record as scenario_hash: a change to how a scenario is
// described must leave every key a campaign builds unchanged.
TEST(Campaign, ScenarioKeysArePinned) {
  const scenario::ScenarioConfig traffic;
  scenario::ScenarioConfig link;
  link.mode = scenario::FuzzMode::kLink;
  scenario::ScenarioConfig armed;
  armed.coverage = true;
  armed.invariants = true;

  const struct {
    const char* name;
    scenario::ScenarioConfig cfg;
    const char* want;
  } cases[] = {
      {"default traffic", traffic, "3ad82737835d9902"},
      {"default link", link, "8e2d8daf85a8851b"},
      {"incast", scenario::apply_preset("incast", traffic),
       "0c4f6d736a89c5a6"},
      {"late_starter", scenario::apply_preset("late_starter", traffic),
       "8741fd687307b0f9"},
      {"rtt_unfair", scenario::apply_preset("rtt_unfair", traffic),
       "dede485dec698034"},
      {"inter_protocol", scenario::apply_preset("inter_protocol", traffic),
       "c61543ad5410e0de"},
      {"coverage+invariants", armed, "2192723f5afcae22"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(trace::hash_hex(scenario_key(c.cfg)), c.want) << c.name;
  }
}

TEST(Campaign, DeterministicAcrossRuns) {
  const auto run_once = [] {
    CampaignConfig cfg;
    cfg.ccas({"reno", "cubic"})
        .modes({scenario::FuzzMode::kTraffic})
        .base_scenario(tiny_scenario())
        .ga(tiny_ga());
    Campaign c(cfg);
    return c.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_EQ(a.cells[i].history.size(), b.cells[i].history.size());
    for (std::size_t g = 0; g < a.cells[i].history.size(); ++g) {
      EXPECT_DOUBLE_EQ(a.cells[i].history[g].best_score,
                       b.cells[i].history[g].best_score);
      EXPECT_DOUBLE_EQ(a.cells[i].history[g].mean_score,
                       b.cells[i].history[g].mean_score);
    }
    ASSERT_EQ(a.cells[i].winners.size(), b.cells[i].winners.size());
    for (std::size_t w = 0; w < a.cells[i].winners.size(); ++w) {
      EXPECT_EQ(a.cells[i].winners[w].trace_hash,
                b.cells[i].winners[w].trace_hash);
    }
  }
}

// Parallel breeding, seeding and cache keying change only the time taken:
// the report and the checkpoint (every cell's populations, RNG streams,
// history and archive, plus the cache) match a fully serial campaign byte
// for byte. Seven islands is not a multiple of any pool size; the explicit
// cells cover MAP-Elites with a novelty bonus and annealing.
TEST(Campaign, ParallelAndSerialWriteIdenticalBytes) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "ccfuzz_campaign_parallel_test";
  fs::remove_all(root);
  const auto run = [&](bool parallel) {
    fuzz::GaConfig ga = tiny_ga();
    ga.population = 15;
    ga.islands = 7;
    ga.max_generations = 3;
    CellConfig elites = tiny_cell();
    elites.name = "reno.map-elites";
    elites.ga = ga;
    elites.ga.search = fuzz::SearchMode::kMapElites;
    elites.ga.novelty_bonus = 0.5;
    CellConfig anneal = tiny_cell();
    anneal.name = "reno.anneal";
    anneal.ga = ga;
    anneal.ga.anneal = true;
    anneal.ga.anneal_cfg.sigma = 2.0;
    anneal.ga.anneal_cfg.strength = 0.3;
    const fs::path dir = root / (parallel ? "parallel" : "serial");
    CampaignConfig cfg;
    cfg.ccas({"reno", "cubic"})
        .modes({scenario::FuzzMode::kTraffic, scenario::FuzzMode::kLink})
        .base_scenario(tiny_scenario())
        .traffic_model({.max_packets = 200, .initial_packets = 100})
        .ga(ga)
        .add_cell(elites)
        .add_cell(anneal)
        .parallel(parallel)
        .output_dir(dir.string())
        .checkpoint_every(1);
    Campaign(cfg).run();
    return dir;
  };
  const auto slurp = [](const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  const fs::path par = run(true);
  const fs::path ser = run(false);
  for (const char* file : {"summary.json", "checkpoint/campaign.ckpt"}) {
    const std::string a = slurp(par / file);
    EXPECT_FALSE(a.empty()) << file;
    EXPECT_TRUE(a == slurp(ser / file))
        << file << " differs between parallel and serial campaigns";
  }
  fs::remove_all(root);
}

// Two cells with identical evaluation semantics (same CCA/scenario/score
// object/weights) and the same GA seed produce identical genomes, so the
// second cell must be served entirely from the cache.
TEST(Campaign, EquivalentCellsShareTheEvaluationCache) {
  const CellConfig cell = tiny_cell();
  CampaignConfig cfg;
  cfg.add_cell(cell).add_cell(cell);
  Campaign c(cfg);
  const auto& report = c.run();
  ASSERT_EQ(report.cells.size(), 2u);
  const auto& first = report.cells[0];
  const auto& second = report.cells[1];
  EXPECT_GT(first.simulations, 0);
  EXPECT_EQ(second.simulations, 0) << "identical cell must be fully cached";
  EXPECT_EQ(second.cache_hits, first.simulations + first.cache_hits);
  // And the cached cell's results are bit-identical.
  ASSERT_EQ(first.history.size(), second.history.size());
  for (std::size_t g = 0; g < first.history.size(); ++g) {
    EXPECT_DOUBLE_EQ(first.history[g].best_score,
                     second.history[g].best_score);
  }
}

TEST(Campaign, DifferentCcasDoNotShareTheCache) {
  CampaignConfig cfg;
  cfg.ccas({"reno", "cubic"})
      .modes({scenario::FuzzMode::kTraffic})
      .base_scenario(tiny_scenario())
      .ga(tiny_ga());
  Campaign c(cfg);
  const auto& report = c.run();
  // Paired populations: identical genomes flow to both cells, but the CCA
  // differs, so each cell must simulate its own evaluations (the odd
  // within-cell duplicate genome aside).
  for (const auto& cell : report.cells) {
    const auto evals = cell.simulations + cell.cache_hits;
    EXPECT_GT(cell.simulations, 0);
    EXPECT_GE(cell.simulations, (evals * 4) / 5)
        << "cross-CCA cache sharing detected";
  }
}

TEST(Campaign, WinnersAreDedupedAndSortedBestFirst) {
  CellConfig cell = tiny_cell();
  cell.winners = 8;
  CampaignConfig cfg;
  cfg.add_cell(cell);
  Campaign c(cfg);
  const auto& winners = c.run().cells.front().winners;
  ASSERT_GE(winners.size(), 2u);
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < winners.size(); ++i) {
    EXPECT_TRUE(seen.insert(winners[i].trace_hash).second);
    if (i > 0) {
      EXPECT_GE(winners[i - 1].eval.score.total(),
                winners[i].eval.score.total());
    }
  }
}

TEST(Campaign, WinnersKeepBestEverWithoutElitism) {
  // Without elites the best trace can be bred out of the final population;
  // the report must still lead with the best member ever observed.
  CellConfig cell = tiny_cell();
  cell.ga.elites_per_island = 0;
  cell.ga.max_generations = 4;
  CampaignConfig cfg;
  cfg.add_cell(cell);
  Campaign c(cfg);
  const auto& result = c.run().cells.front();
  ASSERT_FALSE(result.winners.empty());
  for (const auto& gs : result.history) {
    EXPECT_GE(result.best_score(), gs.best_score)
        << "a generation's best was lost from the winners";
  }
}

TEST(Campaign, PatienceStopsCellEarly) {
  CellConfig cell = tiny_cell();
  cell.ga.max_generations = 50;
  cell.ga.patience = 2;
  CampaignConfig cfg;
  cfg.add_cell(cell);
  Campaign c(cfg);
  EXPECT_LT(c.run().cells.front().history.size(), 50u);
}

class CountingObserver final : public CampaignObserver {
 public:
  void on_campaign_begin(const std::vector<CellConfig>& cells) override {
    begin_cells = cells.size();
  }
  void on_generation(const CellConfig&, const fuzz::GenStats&) override {
    ++generations;
  }
  void on_cell_end(const CellResult&) override { ++cells_ended; }
  void on_campaign_end(const CampaignReport& r) override {
    end_cells = r.cells.size();
  }

  std::size_t begin_cells = 0;
  int generations = 0;
  int cells_ended = 0;
  std::size_t end_cells = 0;
};

TEST(Campaign, ObserverSeesEveryLifecycleEvent) {
  CampaignConfig cfg;
  cfg.add_cell(tiny_cell()).add_cell(tiny_cell("cubic"));
  Campaign c(cfg);
  CountingObserver obs;
  c.add_observer(&obs);
  c.run();
  EXPECT_EQ(obs.begin_cells, 2u);
  EXPECT_EQ(obs.generations, 2 * tiny_ga().max_generations);
  EXPECT_EQ(obs.cells_ended, 2);
  EXPECT_EQ(obs.end_cells, 2u);
}

TEST(Campaign, RunIsIdempotent) {
  CampaignConfig cfg;
  cfg.add_cell(tiny_cell());
  Campaign c(cfg);
  const auto& a = c.run();
  const auto& b = c.run();
  EXPECT_EQ(&a, &b);
}

TEST(Report, JsonContainsEveryCellAndWinner) {
  CampaignConfig cfg;
  cfg.add_cell(tiny_cell());
  Campaign c(cfg);
  const std::string json = to_json(c.run());
  EXPECT_NE(json.find("\"name\": \"reno.traffic.low-utilization\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"traffic\""), std::string::npos);
  EXPECT_NE(json.find("\"winners\": ["), std::string::npos);
  EXPECT_NE(json.find("\"hash\": \""), std::string::npos);
}

TEST(Report, WritesSummaryHistoryAndReplayableWinners) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ccfuzz_campaign_report_test";
  fs::remove_all(dir);

  CampaignConfig cfg;
  cfg.add_cell(tiny_cell()).output_dir(dir.string());
  Campaign c(cfg);
  const auto& report = c.run();

  EXPECT_TRUE(fs::exists(dir / "summary.csv"));
  EXPECT_TRUE(fs::exists(dir / "summary.json"));
  const fs::path cell_dir = dir / "reno.traffic.low-utilization";
  EXPECT_TRUE(fs::exists(cell_dir / "history.csv"));
  ASSERT_FALSE(report.cells.front().winners.empty());
  const fs::path winner = cell_dir / "winner_0.trace";
  ASSERT_TRUE(fs::exists(winner));
  // Winner traces round-trip through trace_io, hash intact.
  const auto loaded = trace::load_trace(winner.string());
  EXPECT_EQ(trace::hash(loaded),
            report.cells.front().winners.front().trace_hash);

  fs::remove_all(dir);
}

TEST(Report, SummaryCsvQuotesFreeFormNames) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ccfuzz_csv_escape_test";
  fs::remove_all(dir);

  CellConfig cell = tiny_cell();
  cell.name = "reno, shallow \"queue\"";
  CampaignConfig cfg;
  cfg.add_cell(cell).output_dir(dir.string());
  Campaign c(cfg);
  c.run();

  std::ifstream is(dir / "summary.csv");
  std::string header, row;
  std::getline(is, header);
  std::getline(is, row);
  EXPECT_NE(row.find("\"reno, shallow \"\"queue\"\"\""), std::string::npos)
      << row;
  fs::remove_all(dir);
}

TEST(Report, SanitizesCellNamesForPaths) {
  EXPECT_EQ(sanitize_cell_name("bbr.traffic/low utilization"),
            "bbr.traffic_low_utilization");
  EXPECT_EQ(sanitize_cell_name("a-b_c.9"), "a-b_c.9");
}

TEST(Panel, RowsLandInJobOrderWithLabels) {
  auto cfg = tiny_scenario();
  const auto rows =
      evaluate_panel(cfg, {"reno", "cubic", "bbr"}, std::vector<TimeNs>{});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].label, "reno");
  EXPECT_EQ(rows[1].label, "cubic");
  EXPECT_EQ(rows[2].label, "bbr");
  // A clean 12 Mbps link: every CCA should move real data.
  for (const auto& row : rows) {
    EXPECT_GT(row.run.goodput_mbps(), 1.0) << row.label;
  }
}

TEST(Panel, ParallelAndSerialAgree) {
  auto cfg = tiny_scenario();
  const std::vector<TimeNs> trace{TimeNs::millis(500), TimeNs::millis(501)};
  const auto par = evaluate_panel(cfg, {"reno", "bbr"}, trace, true);
  const auto ser = evaluate_panel(cfg, {"reno", "bbr"}, trace, false);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_DOUBLE_EQ(par[i].run.goodput_mbps(), ser[i].run.goodput_mbps());
    EXPECT_EQ(par[i].run.primary().sent, ser[i].run.primary().sent);
  }
}

TEST(Panel, UnknownCcaThrowsBeforeRunning) {
  auto cfg = tiny_scenario();
  EXPECT_THROW(evaluate_panel(cfg, {"reno", "nope"}, std::vector<TimeNs>{}),
               std::invalid_argument);
}

// --- Scenario-preset axis ----------------------------------------------------

TEST(CampaignConfig, PresetAxisExpandsOverTheBaseScenario) {
  CampaignConfig cfg;
  cfg.ccas({"reno"})
      .base_scenario(tiny_scenario())
      .presets({"incast", "late_starter"})
      .ga(tiny_ga());
  const auto cells = cfg.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].name, "reno.traffic.incast.low-utilization");
  EXPECT_EQ(cells[0].scenario.flow_count(), 4u);
  EXPECT_EQ(cells[1].name, "reno.traffic.late_starter.low-utilization");
  ASSERT_EQ(cells[1].scenario.flows.size(), 2u);
  // Preset applied over the base: the tiny scenario's knobs survive.
  EXPECT_EQ(cells[1].scenario.net.queue_capacity, 25u);
  EXPECT_EQ(cells[1].scenario.flows[1].start,
            TimeNs::zero() +
                DurationNs(tiny_scenario().duration.ns()).scaled(1.0 / 3.0));
}

TEST(CampaignConfig, UnknownPresetThrowsFromCells) {
  CampaignConfig cfg;
  cfg.ccas({"reno"}).add_preset("bogus").ga(tiny_ga());
  EXPECT_THROW(cfg.cells(), std::invalid_argument);
}

TEST(CampaignConfig, UnknownFlowCcaThrowsFromCells) {
  CellConfig cell = tiny_cell();
  cell.scenario.flows.resize(2);
  cell.scenario.flows[1].cca = "vegas";
  CampaignConfig cfg;
  cfg.add_cell(cell);
  EXPECT_THROW(cfg.cells(), std::invalid_argument);
}

TEST(Campaign, PresetCellsDoNotShareCacheWithSingleFlowCells) {
  // Same CCA/score/GA seed, one cell single-flow and one incast: their
  // evaluation semantics differ, so every evaluation must be simulated.
  CellConfig plain = tiny_cell();
  CellConfig incast = tiny_cell();
  incast.scenario =
      scenario::apply_preset("incast", tiny_scenario());
  incast.name = "reno.incast";
  plain.score = incast.score;  // shared score object: keys differ by scenario
  CampaignConfig cfg;
  cfg.add_cell(plain).add_cell(incast);
  Campaign c(cfg);
  const auto& report = c.run();
  // Identical GA seeds breed identical genomes in both cells; if the cells
  // shared an evaluation key, every incast evaluation would be served from
  // the plain cell's batch entries and simulate nothing. (A handful of
  // intra-cell duplicate genomes may still hit the cache.)
  EXPECT_GT(report.cells[1].simulations, report.cells[1].cache_hits * 5);
  EXPECT_GT(report.cells[0].simulations, 0);
}

// --- Fairness campaign end-to-end --------------------------------------------

TEST(Campaign, FairnessCampaignReportsPerFlowGoodputs) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ccfuzz_fairness_test";
  fs::remove_all(dir);

  scenario::PresetOptions opt;
  opt.competitor = "bbr";
  CampaignConfig cfg;
  cfg.ccas({"reno"})
      .base_scenario(tiny_scenario())
      .add_preset("late_starter", opt)
      .score(std::make_shared<fuzz::JainFairnessScore>())
      .ga(tiny_ga())
      .traffic_model({.max_packets = 200, .initial_packets = 100})
      .output_dir(dir.string());
  Campaign c(cfg);
  const auto& report = c.run();

  ASSERT_EQ(report.cells.size(), 1u);
  const CellResult& cell = report.cells.front();
  EXPECT_EQ(cell.cell.scenario.flow_count(), 2u);
  ASSERT_FALSE(cell.winners.empty());
  const fuzz::Evaluation& best = cell.winners.front().eval;
  ASSERT_EQ(best.flow_goodput_mbps.size(), 2u);
  EXPECT_GE(best.jain_fairness, 0.0);
  EXPECT_LE(best.jain_fairness, 1.0);
  // The Jain score is exactly what the evaluation's fairness implies.
  EXPECT_NEAR(best.score.performance, 1.0 - best.jain_fairness, 1e-12);

  // Per-flow goodputs surface in the report tree.
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"flow_goodputs_mbps\": ["), std::string::npos);
  EXPECT_NE(json.find("\"jain_fairness\": "), std::string::npos);
  EXPECT_NE(json.find("\"flows\": 2"), std::string::npos);
  std::ifstream csv(dir / "summary.csv");
  std::string header;
  std::getline(csv, header);
  EXPECT_NE(header.find("best_flow_goodputs_mbps"), std::string::npos);
  EXPECT_NE(header.find("flows"), std::string::npos);
  std::string row;
  std::getline(csv, row);
  EXPECT_NE(row.find(';'), std::string::npos) << row;  // two joined goodputs

  fs::remove_all(dir);
}

// --- JsonlObserver -----------------------------------------------------------

TEST(JsonlObserver, StreamsOneEventPerLine) {
  std::ostringstream out;
  CampaignConfig cfg;
  cfg.add_cell(tiny_cell());
  Campaign c(cfg);
  JsonlObserver obs(out);
  c.add_observer(&obs);
  c.run();

  std::istringstream lines(out.str());
  std::string line;
  int begin = 0, generation = 0, cell_end = 0, campaign_end = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    begin += line.find("\"event\":\"campaign_begin\"") != std::string::npos;
    generation += line.find("\"event\":\"generation\"") != std::string::npos;
    cell_end += line.find("\"event\":\"cell_end\"") != std::string::npos;
    campaign_end +=
        line.find("\"event\":\"campaign_end\"") != std::string::npos;
  }
  EXPECT_EQ(begin, 1);
  EXPECT_EQ(generation, tiny_ga().max_generations);
  EXPECT_EQ(cell_end, 1);
  EXPECT_EQ(campaign_end, 1);
}

TEST(JsonlObserver, WritesAndTruncatesFile) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "ccfuzz_progress.jsonl";
  {
    std::ofstream pre(path);
    pre << "stale\n";
  }
  {
    CampaignConfig cfg;
    cfg.add_cell(tiny_cell());
    Campaign c(cfg);
    JsonlObserver obs(path.string());
    c.add_observer(&obs);
    c.run();
  }
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("campaign_begin"), std::string::npos);
  fs::remove(path);

  EXPECT_THROW(JsonlObserver("/nonexistent-dir/progress.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace ccfuzz::campaign
