// End-to-end triage: a real (tiny) campaign's winners become confirmed,
// minimized, classified bundles; replay passes on every bundle and catches
// a tampered expectation. This is the regression loop the CLI's `triage`
// and `replay` subcommands drive.
#include "triage/triage.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../trace/to_v1.h"
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

/// Rewrites every `.trace` file under `dir` as v1; returns how many.
int rewrite_traces_as_v1(const stdfs::path& dir) {
  int n = 0;
  for (const auto& entry : stdfs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() != ".trace") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    in.close();
    EXPECT_TRUE(bytes.str().starts_with("# ccfuzz-trace v2\n"))
        << entry.path();
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
        << trace::to_v1(bytes.str());
    ++n;
  }
  return n;
}

TEST_F(TriagePipelineTest, V1WinnersTriageAndV1BundlesReplay) {
  // A report tree and findings written before stamps became deltas.
  const std::vector<campaign::CellConfig> cells = run_campaign();
  ASSERT_GT(rewrite_traces_as_v1(dir_), 0);
  TriageConfig tcfg;
  tcfg.tolerance = 0.5;
  tcfg.max_minimize_evals = 60;
  Result<TriageStats> stats = triage_report(cells, dir_.string(), tcfg);
  ASSERT_TRUE(stats) << stats.error().message;
  EXPECT_EQ(stats->errors, 0);
  ASSERT_GT(stats->bundles_written, 0);

  ASSERT_GT(rewrite_traces_as_v1(dir_ / "findings"), 0);
  Result<ReplayStats> rp = replay_findings(cells, (dir_ / "findings").string());
  ASSERT_TRUE(rp) << rp.error().message;
  EXPECT_EQ(rp->bundles, stats->bundles_written);
  EXPECT_EQ(rp->drifted, 0);
  EXPECT_EQ(rp->broken, 0);
  EXPECT_EQ(rp->ok, rp->bundles);
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

/// Everything triage_report wrote to its log stream.
class LogCapture {
 public:
  LogCapture() : f_(open_memstream(&buf_, &len_)) {}
  ~LogCapture() {
    if (f_ != nullptr) std::fclose(f_);
    std::free(buf_);
  }
  std::FILE* file() const { return f_; }
  std::string text() {
    std::fflush(f_);
    return std::string(buf_, len_);
  }

 private:
  char* buf_ = nullptr;
  std::size_t len_ = 0;
  std::FILE* f_ = nullptr;
};

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = 0; (at = s.find(from, at)) != std::string::npos;
       at += to.size()) {
    s.replace(at, from.size(), to);
  }
  return s;
}

// Pins triage_report's full output — log text, every manifest, the counters
// and the escaping exception — on a report tree with the awkward cases: an
// unloadable winner between good ones, two ranks holding the same genome
// (one bundle id, written twice), and a second cell whose evaluator cannot
// be built. The candidates' order, and what happens before the throwing
// candidate, must not depend on how triage schedules its work.
TEST_F(TriagePipelineTest, OutputIsPinnedAcrossAwkwardReportTrees) {
  const std::vector<campaign::CellConfig> cells = run_campaign();
  ASSERT_EQ(cells.size(), 1u);
  const stdfs::path good = dir_ / campaign::sanitize_cell_name(cells[0].name);
  ASSERT_TRUE(stdfs::exists(good / "winner_0.trace"));
  ASSERT_TRUE(stdfs::exists(good / "winner_1.trace"));
  ASSERT_FALSE(stdfs::exists(good / "winner_2.trace"));
  // winner_0, an unloadable winner_1, the old winner_1 as winner_2, and
  // winner_0 again as winner_3.
  stdfs::rename(good / "winner_1.trace", good / "winner_2.trace");
  {
    std::ofstream bad(good / "winner_1.trace");
    bad << "not a trace\n";
  }
  stdfs::copy_file(good / "winner_0.trace", good / "winner_3.trace");

  campaign::CellConfig broken = tiny_cell("no-such-cca");
  const stdfs::path broken_dir =
      dir_ / campaign::sanitize_cell_name(broken.name);
  stdfs::create_directories(broken_dir);
  stdfs::copy_file(good / "winner_0.trace", broken_dir / "winner_0.trace");

  TriageConfig tcfg;
  tcfg.tolerance = 0.5;
  tcfg.max_minimize_evals = 40;
  const auto scrub = [&](const std::string& s) {
    return replace_all(s, dir_.string(), "<report>");
  };

  LogCapture log;
  tcfg.log = log.file();
  Result<TriageStats> stats = triage_report(cells, dir_.string(), tcfg);
  ASSERT_TRUE(stats) << stats.error().message;
  const std::string first_log = scrub(log.text());
  EXPECT_EQ(first_log,
            "triage: winner reno.traffic.low-utilization/5fcc6bf92be3746f "
            "confirmed: 200 -> 57 events, score -1.08, cca-weakness\n"
            "triage: cannot load "
            "<report>/reno.traffic.low-utilization/winner_1.trace: line 1: "
            "expected '# kind' in 'not a trace'\n"
            "triage: winner reno.traffic.low-utilization/d37b1ea56c6ef6c5 "
            "confirmed: 200 -> 56 events, score -4.824, cca-weakness\n"
            "triage: winner reno.traffic.low-utilization/5fcc6bf92be3746f "
            "confirmed: 200 -> 57 events, score -1.08, cca-weakness\n");
  EXPECT_EQ(stats->candidates, 3);
  EXPECT_EQ(stats->confirmed, 3);
  EXPECT_EQ(stats->flaky, 0);
  EXPECT_EQ(stats->unreproduced, 0);
  EXPECT_EQ(stats->simulator_bugs, 0);
  EXPECT_EQ(stats->bundles_written, 3);
  EXPECT_EQ(stats->errors, 1);

  const auto manifests = [&] {
    std::vector<std::string> out;
    for (const auto& entry : stdfs::directory_iterator(dir_ / "findings")) {
      if (!entry.is_directory()) continue;
      Result<BundleManifest> m = load_manifest(entry.path().string());
      out.push_back(m ? to_json(*m) : m.error().message);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::string> pinned = {
      "{\n"
      "  \"ccfuzz_finding\": 1,\n"
      "  \"id\": \"5fcc6bf92be3746f\",\n"
      "  \"source\": \"winner\",\n"
      "  \"cell\": \"reno.traffic.low-utilization\",\n"
      "  \"cca\": \"reno\",\n"
      "  \"mode\": \"traffic\",\n"
      "  \"score\": \"low-utilization\",\n"
      "  \"scenario_hash\": \"2a176ad60da2fcaf\",\n"
      "  \"duration_ms\": 1000,\n"
      "  \"original_events\": 200,\n"
      "  \"minimized_events\": 57,\n"
      "  \"original_score\": -0.71999999999999997,\n"
      "  \"expected_score\": -1.0799999999999998,\n"
      "  \"tolerance\": 0.5,\n"
      "  \"expect_quarantined\": false,\n"
      "  \"confirm_runs\": 3,\n"
      "  \"flaky\": false,\n"
      "  \"truncated\": false,\n"
      "  \"classification\": \"cca-weakness\",\n"
      "  \"invariant_violations\": 0\n"
      "}\n",
      "{\n"
      "  \"ccfuzz_finding\": 1,\n"
      "  \"id\": \"d37b1ea56c6ef6c5\",\n"
      "  \"source\": \"winner\",\n"
      "  \"cell\": \"reno.traffic.low-utilization\",\n"
      "  \"cca\": \"reno\",\n"
      "  \"mode\": \"traffic\",\n"
      "  \"score\": \"low-utilization\",\n"
      "  \"scenario_hash\": \"2a176ad60da2fcaf\",\n"
      "  \"duration_ms\": 1000,\n"
      "  \"original_events\": 200,\n"
      "  \"minimized_events\": 56,\n"
      "  \"original_score\": -3.4079999999999999,\n"
      "  \"expected_score\": -4.8239999999999998,\n"
      "  \"tolerance\": 1.704,\n"
      "  \"expect_quarantined\": false,\n"
      "  \"confirm_runs\": 3,\n"
      "  \"flaky\": false,\n"
      "  \"truncated\": false,\n"
      "  \"classification\": \"cca-weakness\",\n"
      "  \"invariant_violations\": 0\n"
      "}\n",
  };
  EXPECT_EQ(manifests(), pinned);

  // The same tree under a matrix that adds the broken cell: every candidate
  // of the good cell is triaged and logged again, then the broken cell's
  // evaluator throws out of triage_report, leaving the bundles as they were.
  std::vector<campaign::CellConfig> with_broken = cells;
  with_broken.push_back(broken);
  LogCapture log2;
  tcfg.log = log2.file();
  std::string what;
  try {
    (void)triage_report(with_broken, dir_.string(), tcfg);
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  EXPECT_EQ(what,
            "unknown congestion control 'no-such-cca'; known: reno cubic "
            "cubic-ns3bug bbr bbr-linux-strict bbr-probertt-on-rto");
  EXPECT_EQ(scrub(log2.text()), first_log);
  EXPECT_EQ(manifests(), pinned);
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
