// The distributed merge: a 2-shard campaign run through the real worker
// driver, merged back, must be byte-identical to the single-process run of
// the identical matrix (summaries, per-cell artifacts, archives). Corrupt
// shard trees surface as typed Errors, never crashes.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "dist/merge.h"
#include "dist/shard_plan.h"
#include "dist/worker.h"
#include "fuzz/elite_archive.h"
#include "fuzz/score.h"

namespace ccfuzz::dist {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void write_text(const fs::path& p, const std::string& body) {
  fs::create_directories(p.parent_path());
  std::ofstream os(p, std::ios::binary);
  os << body;
  ASSERT_TRUE(os) << p;
}

/// The campaign matrix both runs share: three coverage-guided cells (three
/// CCAs) so the plan splits across two shards and every cell produces an
/// elite archive for the union step.
campaign::CampaignConfig matrix() {
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::seconds(1);

  fuzz::GaConfig ga;
  ga.population = 8;
  ga.islands = 2;
  ga.max_generations = 2;
  ga.seed = 21;
  ga.search = fuzz::SearchMode::kMapElites;

  campaign::CampaignConfig cfg;
  cfg.ccas({"reno", "cubic", "bbr"})
      .modes({scenario::FuzzMode::kTraffic})
      .base_scenario(sc)
      .score(std::make_shared<fuzz::LowUtilizationScore>())
      .ga(ga)
      .winners(2);
  return cfg;
}

class MergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("ccfuzz_merge_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path base_;
};

TEST_F(MergeTest, TwoShardRunMergesByteIdenticalToSingleProcess) {
  // Single-process reference.
  const std::string ref = (base_ / "ref").string();
  {
    campaign::CampaignConfig cfg = matrix();
    cfg.output_dir(ref);
    campaign::Campaign c(cfg);
    ASSERT_FALSE(c.run().interrupted);
  }

  // The same campaign through the real worker driver, one shard at a time.
  const std::string root = (base_ / "sharded").string();
  const ShardPlan plan = ShardPlan::build(matrix().cells(), 2);
  ASSERT_GT(plan.cell_count(0), 0u) << "plan left shard 0 empty";
  ASSERT_GT(plan.cell_count(1), 0u) << "plan left shard 1 empty";
  for (int k = 0; k < 2; ++k) {
    WorkerOptions w;
    w.shard = k;
    w.num_shards = 2;
    w.root = root;
    ASSERT_EQ(run_worker(matrix(), w), 0) << "shard " << k;
  }

  const Result<MergeStats> stats = merge_reports(root, plan, root);
  ASSERT_TRUE(stats) << stats.error().message;
  EXPECT_EQ(stats->cells, 3u);
  EXPECT_EQ(stats->shards_read, 2u);
  EXPECT_FALSE(stats->interrupted);

  // The merged report is the single-process report, byte for byte.
  for (const char* rel : {"summary.csv", "summary.json",
                          "reno.traffic.low-utilization/history.csv",
                          "cubic.traffic.low-utilization/history.csv",
                          "bbr.traffic.low-utilization/history.csv",
                          "reno.traffic.low-utilization/archive.txt",
                          "reno.traffic.low-utilization/winner_0.trace"}) {
    ASSERT_TRUE(fs::exists(fs::path(root) / rel)) << rel;
    EXPECT_EQ(slurp(fs::path(root) / rel), slurp(fs::path(ref) / rel))
        << rel << " diverged between sharded and single-process runs";
  }

  // The campaign-wide archive union exists and absorbed every cell.
  EXPECT_EQ(stats->archives_merged, 3u);
  EXPECT_GT(stats->archive_cells, 0u);
  const auto merged =
      fuzz::EliteArchive::try_load_file(root + "/archive_merged.txt");
  ASSERT_TRUE(merged) << merged.error().message;
  EXPECT_EQ(merged->filled(), stats->archive_cells);
  EXPECT_EQ(merged->union_bits(), stats->coverage_bits);
}

TEST_F(MergeTest, NewlineInCellNameMergesByteIdenticalToSingleProcess) {
  // csv_field quotes the name over two physical lines of summary.csv; the
  // row splitter must keep them one row.
  campaign::CellConfig cell = matrix().cells()[0];
  cell.name = "a\nb";
  campaign::CampaignConfig one;
  one.add_cell(cell);
  const std::string ref = (base_ / "ref").string();
  {
    campaign::CampaignConfig cfg = one;
    cfg.output_dir(ref);
    campaign::Campaign c(cfg);
    ASSERT_FALSE(c.run().interrupted);
  }
  const std::string root = (base_ / "sharded").string();
  WorkerOptions w;
  w.root = root;
  ASSERT_EQ(run_worker(one, w), 0);
  const Result<MergeStats> stats =
      merge_reports(root, ShardPlan::build(one.cells(), 1), root);
  ASSERT_TRUE(stats) << stats.error().message;
  EXPECT_EQ(stats->cells, 1u);
  for (const char* rel : {"summary.csv", "summary.json"}) {
    EXPECT_EQ(slurp(fs::path(root) / rel), slurp(fs::path(ref) / rel)) << rel;
  }
}

TEST_F(MergeTest, EmptyShardIsACompleteShard) {
  // One cell, two shards: one shard owns nothing. The worker still writes a
  // well-formed (empty) report tree, and the merge never reads it.
  campaign::CampaignConfig cfg = matrix();
  campaign::CampaignConfig one;
  one.add_cell(cfg.cells()[0]);
  const ShardPlan plan = ShardPlan::build(one.cells(), 2);
  const std::string root = (base_ / "root").string();
  for (int k = 0; k < 2; ++k) {
    WorkerOptions w;
    w.shard = k;
    w.num_shards = 2;
    w.root = root;
    ASSERT_EQ(run_worker(one, w), 0);
  }
  const Result<MergeStats> stats = merge_reports(root, plan, root);
  ASSERT_TRUE(stats) << stats.error().message;
  EXPECT_EQ(stats->cells, 1u);
  EXPECT_EQ(stats->shards_read, 1u);
  // Both shard trees exist and carry a parseable summary.
  for (int k = 0; k < 2; ++k) {
    EXPECT_TRUE(fs::exists(fs::path(shard_dir(root, k)) / "summary.csv")) << k;
  }
}

// --- Corrupt shard trees → typed errors --------------------------------------
// A one-cell plan over a handcrafted shard tree; each test mangles one layer.

ShardPlan tiny_plan() {
  campaign::CellConfig cell;
  cell.name = "a";
  return ShardPlan::build({cell}, 1);
}

/// Minimal well-formed shard summaries owning exactly cell "a".
void write_tiny_shard(const fs::path& root) {
  const fs::path shard = fs::path(shard_dir(root.string(), 0));
  write_text(shard / "summary.csv",
             std::string(campaign::summary_csv_header()) +
                 "a,reno,traffic,low-utilization,1,2,16,16,0,0,0,0,0,-,1,-\n");
  write_text(shard / "summary.json",
             "{\n  \"interrupted\": false,\n  \"cells\": [\n"
             "    {\n      \"name\": \"a\",\n      \"winners\": [\n"
             "      ]\n    }\n  ]\n}\n");
  write_text(shard / "a" / "history.csv", "generation\n0\n");
}

TEST_F(MergeTest, MissingShardSummaryIsKIo) {
  const auto r = merge_reports(base_.string(), tiny_plan(),
                               (base_ / "out").string());
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kIo);
}

TEST_F(MergeTest, MangledCsvHeaderIsKParse) {
  write_tiny_shard(base_);
  write_text(fs::path(shard_dir(base_.string(), 0)) / "summary.csv",
             "not,the,header\na,row\n");
  const auto r = merge_reports(base_.string(), tiny_plan(),
                               (base_ / "out").string());
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kParse);
}

TEST_F(MergeTest, BadSummaryJsonValuesAreKParse) {
  for (const char* header : {"  \"interrupted\": nottrue,\n",
                             "  \"interrupted\": false,\n"
                             "  \"quarantined\": abc,\n",
                             "  \"interrupted\": false,\n"
                             "  \"quarantined\": -1,\n"}) {
    write_tiny_shard(base_);
    write_text(fs::path(shard_dir(base_.string(), 0)) / "summary.json",
               std::string("{\n") + header +
                   "  \"cells\": [\n    {\n      \"name\": \"a\",\n"
                   "      \"winners\": [\n      ]\n    }\n  ]\n}\n");
    const auto r = merge_reports(base_.string(), tiny_plan(),
                                 (base_ / "out").string());
    ASSERT_FALSE(r) << header;
    EXPECT_EQ(r.error().code, Error::Code::kParse) << header;
  }
}

TEST_F(MergeTest, TruncatedSummaryJsonIsKTruncated) {
  write_tiny_shard(base_);
  write_text(fs::path(shard_dir(base_.string(), 0)) / "summary.json",
             "{\n  \"interrupted\": false,\n  \"cells\": [\n"
             "    {\n      \"name\": \"a\",\n");
  const auto r = merge_reports(base_.string(), tiny_plan(),
                               (base_ / "out").string());
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kTruncated);
}

TEST_F(MergeTest, PlannedCellMissingFromShardSummaryIsKMismatch) {
  write_tiny_shard(base_);
  campaign::CellConfig extra;
  extra.name = "ghost";
  ShardPlan plan = tiny_plan();
  plan.entries.push_back({extra.name, 0});
  const auto r =
      merge_reports(base_.string(), plan, (base_ / "out").string());
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kMismatch);
}

TEST_F(MergeTest, MissingCellDirectoryIsKCorrupt) {
  write_tiny_shard(base_);
  fs::remove_all(fs::path(shard_dir(base_.string(), 0)) / "a");
  const auto r = merge_reports(base_.string(), tiny_plan(),
                               (base_ / "out").string());
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

TEST_F(MergeTest, CorruptArchiveDegradesToAWarningNotAnError) {
  write_tiny_shard(base_);
  write_text(fs::path(shard_dir(base_.string(), 0)) / "a" / "archive.txt",
             "garbage, not an archive\n");
  const auto r = merge_reports(base_.string(), tiny_plan(),
                               (base_ / "out").string());
  ASSERT_TRUE(r) << r.error().message;
  EXPECT_EQ(r->archives_merged, 0u);
  EXPECT_FALSE(fs::exists(base_ / "out" / "archive_merged.txt"));
}

}  // namespace
}  // namespace ccfuzz::dist
