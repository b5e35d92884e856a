// End-to-end triage: a real (tiny) campaign's winners become confirmed,
// minimized, classified bundles; replay passes on every bundle and catches
// a tampered expectation. This is the regression loop the CLI's `triage`
// and `replay` subcommands drive.
#include "triage/triage.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "fuzz/score.h"
#include "triage/bundle.h"
#include "util/fs.h"

namespace ccfuzz::triage {
namespace {

namespace stdfs = std::filesystem;

campaign::CellConfig tiny_cell(const std::string& cca) {
  campaign::CellConfig cell;
  cell.cca = cca;
  cell.name = cca + ".traffic.low-utilization";
  cell.scenario.duration = TimeNs::seconds(1);
  cell.score = std::make_shared<fuzz::LowUtilizationScore>();
  cell.traffic_model.max_packets = 200;
  cell.ga.population = 6;
  cell.ga.islands = 2;
  cell.ga.max_generations = 2;
  cell.winners = 2;
  return cell;
}

class TriagePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("ccfuzz_triage_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    stdfs::remove_all(dir_, ec);
  }

  std::vector<campaign::CellConfig> run_campaign() {
    campaign::CampaignConfig cfg;
    cfg.add_cell(tiny_cell("reno")).output_dir(dir_.string());
    campaign::Campaign c(cfg);
    c.run();
    return cfg.cells();
  }

  stdfs::path dir_;
};

TEST_F(TriagePipelineTest, WinnersBecomeReplayableBundles) {
  const std::vector<campaign::CellConfig> cells = run_campaign();

  TriageConfig tcfg;
  tcfg.confirm_runs = 3;
  // A loose band keeps ddmin effective on short GA winners: the point of
  // this test is the pipeline contract, not a specific minimization ratio.
  tcfg.tolerance = 0.5;
  tcfg.max_minimize_evals = 300;
  Result<TriageStats> stats = triage_report(cells, dir_.string(), tcfg);
  ASSERT_TRUE(stats) << stats.error().message;
  EXPECT_GT(stats->candidates, 0);
  EXPECT_EQ(stats->errors, 0);
  EXPECT_EQ(stats->flaky, 0);  // the simulator is deterministic
  ASSERT_GT(stats->bundles_written, 0);

  // Every bundle is internally consistent, and at least one minimized
  // strictly below its original (the acceptance bar for the pipeline).
  bool strictly_smaller = false;
  int bundles = 0;
  for (const auto& entry : stdfs::directory_iterator(dir_ / "findings")) {
    if (!entry.is_directory()) continue;
    ++bundles;
    Result<BundleManifest> m = load_manifest(entry.path().string());
    ASSERT_TRUE(m) << m.error().message;
    EXPECT_EQ(m->id, entry.path().filename().string());
    EXPECT_LE(m->minimized_events, m->original_events);
    EXPECT_EQ(m->confirm_runs, 3);
    EXPECT_FALSE(m->flaky);
    EXPECT_EQ(m->classification, "cca-weakness") << "on " << m->id;
    if (m->minimized_events < m->original_events) strictly_smaller = true;
  }
  EXPECT_EQ(bundles, stats->bundles_written);
  EXPECT_TRUE(strictly_smaller);

  // Replay passes bit-deterministically, twice.
  for (int i = 0; i < 2; ++i) {
    Result<ReplayStats> rp =
        replay_findings(cells, (dir_ / "findings").string());
    ASSERT_TRUE(rp) << rp.error().message;
    EXPECT_EQ(rp->bundles, stats->bundles_written);
    EXPECT_EQ(rp->drifted, 0);
    EXPECT_EQ(rp->broken, 0);
    EXPECT_EQ(rp->ok, rp->bundles);
  }

  // Re-triage is idempotent: same ids, no new bundles.
  Result<TriageStats> again = triage_report(cells, dir_.string(), tcfg);
  ASSERT_TRUE(again) << again.error().message;
  int bundles_after = 0;
  for (const auto& entry : stdfs::directory_iterator(dir_ / "findings")) {
    if (entry.is_directory()) ++bundles_after;
  }
  EXPECT_EQ(bundles_after, bundles);
}

TEST_F(TriagePipelineTest, ReplayCatchesATamperedExpectation) {
  const std::vector<campaign::CellConfig> cells = run_campaign();
  TriageConfig tcfg;
  tcfg.tolerance = 0.5;
  tcfg.max_minimize_evals = 60;
  Result<TriageStats> stats = triage_report(cells, dir_.string(), tcfg);
  ASSERT_TRUE(stats) << stats.error().message;
  ASSERT_GT(stats->bundles_written, 0);

  // Rewrite one manifest's expectation to an unreachable score.
  std::string victim;
  for (const auto& entry : stdfs::directory_iterator(dir_ / "findings")) {
    if (entry.is_directory()) {
      victim = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  Result<BundleManifest> m = load_manifest(victim);
  ASSERT_TRUE(m) << m.error().message;
  m->expected_score = m->expected_score + 100.0;
  m->tolerance = 1e-6;
  ASSERT_FALSE(write_file_atomic(victim + "/" + kManifestFile, to_json(*m),
                                 /*sync=*/false));

  Result<ReplayStats> rp = replay_findings(cells, (dir_ / "findings").string());
  ASSERT_TRUE(rp) << rp.error().message;
  EXPECT_EQ(rp->drifted, 1);
  EXPECT_EQ(rp->ok, rp->bundles - 1);
}

TEST_F(TriagePipelineTest, ReplayFlagsForeignMatrixAndScenarioDrift) {
  const std::vector<campaign::CellConfig> cells = run_campaign();
  TriageConfig tcfg;
  tcfg.tolerance = 0.5;
  tcfg.max_minimize_evals = 0;  // minimization off: bundles ship the original
  Result<TriageStats> stats = triage_report(cells, dir_.string(), tcfg);
  ASSERT_TRUE(stats) << stats.error().message;
  ASSERT_GT(stats->bundles_written, 0);

  // A matrix without the bundle's cell cannot vouch for it...
  std::vector<campaign::CellConfig> foreign = {tiny_cell("cubic")};
  Result<ReplayStats> rp =
      replay_findings(foreign, (dir_ / "findings").string());
  ASSERT_TRUE(rp) << rp.error().message;
  EXPECT_EQ(rp->broken, rp->bundles);

  // ...and a same-named cell with a drifted scenario is refused, not
  // silently re-scored.
  std::vector<campaign::CellConfig> drifted = cells;
  drifted.front().scenario.duration = TimeNs::seconds(3);
  rp = replay_findings(drifted, (dir_ / "findings").string());
  ASSERT_TRUE(rp) << rp.error().message;
  EXPECT_EQ(rp->broken, rp->bundles);
}

TEST_F(TriagePipelineTest, MissingReportIsTypedIo) {
  Result<TriageStats> stats =
      triage_report({}, (dir_ / "nope").string(), TriageConfig{});
  ASSERT_FALSE(stats);
  EXPECT_EQ(stats.error().code, Error::Code::kIo);
}

TEST_F(TriagePipelineTest, EmptyFindingsDirIsAnEmptyCorpus) {
  Result<ReplayStats> rp =
      replay_findings({}, (dir_ / "findings").string());
  ASSERT_TRUE(rp) << rp.error().message;
  EXPECT_EQ(rp->bundles, 0);
}

TEST(Confirm, DeterministicEvaluationsNeverFlagFlaky) {
  campaign::CellConfig cell = tiny_cell("reno");
  const fuzz::TraceEvaluator ev = campaign::make_evaluator(cell);
  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = cell.scenario.duration;
  for (int i = 0; i < 150; ++i) t.stamps.push_back(TimeNs::millis(i * 6));
  const Confirmation c = confirm(ev, t, 4);
  EXPECT_EQ(c.runs, 4);
  EXPECT_FALSE(c.flaky);
  EXPECT_EQ(c.drift, 0.0);
}

}  // namespace
}  // namespace ccfuzz::triage
