// Campaign archive persistence: coverage cells write their MAP-Elites
// archive into the report tree, and a second campaign pointed at that tree
// (resume_dir) reloads it and keeps filling cells instead of starting cold.
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "fuzz/elite_archive.h"
#include "fuzz/score.h"

namespace ccfuzz::campaign {
namespace {

CellConfig coverage_cell(std::uint64_t seed) {
  CellConfig cell;
  cell.cca = "reno";
  cell.scenario.duration = TimeNs::seconds(1);
  cell.score = std::make_shared<fuzz::LowUtilizationScore>();
  cell.traffic_model.max_packets = 150;
  cell.ga.population = 8;
  cell.ga.islands = 2;
  cell.ga.max_generations = 3;
  cell.ga.seed = seed;
  cell.ga.search = fuzz::SearchMode::kMapElites;
  return cell;
}

TEST(CampaignArchive, PersistsAndResumesAcrossCampaigns) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ccfuzz_archive_resume";
  fs::remove_all(dir);

  std::size_t first_filled = 0;
  {
    CampaignConfig cfg;
    cfg.add_cell(coverage_cell(1)).output_dir(dir.string());
    Campaign c(cfg);
    const auto& report = c.run();
    ASSERT_NE(report.cells.front().archive, nullptr);
    first_filled = report.cells.front().archive->filled();
    ASSERT_GT(first_filled, 0u);
  }

  const fs::path archive_path =
      dir / "reno.traffic.low-utilization" / "archive.txt";
  ASSERT_TRUE(fs::exists(archive_path));
  EXPECT_EQ(fuzz::EliteArchive::load_file(archive_path.string()).filled(),
            first_filled);

  // Second campaign, different GA seed, resumed from the first's tree: it
  // starts from the saved cells and only grows from there.
  {
    CampaignConfig cfg;
    cfg.add_cell(coverage_cell(2))
        .resume_dir(dir.string())
        .output_dir(dir.string());
    Campaign c(cfg);
    const auto& report = c.run();
    const auto& r = report.cells.front();
    ASSERT_NE(r.archive, nullptr);
    EXPECT_GE(r.archive->filled(), first_filled);
    ASSERT_FALSE(r.history.empty());
    EXPECT_GE(r.history.front().archive_cells,
              static_cast<std::int64_t>(first_filled));
  }

  // The resumed campaign rewrote the archive in place; it reloads and has
  // at least the original occupancy.
  EXPECT_GE(fuzz::EliteArchive::load_file(archive_path.string()).filled(),
            first_filled);
  fs::remove_all(dir);
}

TEST(CampaignArchive, MissingResumeFileIsAColdStart) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ccfuzz_archive_cold";
  fs::remove_all(dir);

  CampaignConfig cfg;
  cfg.add_cell(coverage_cell(1)).resume_dir(dir.string());
  // Nothing at the resume path: construction and the run succeed cold.
  Campaign c(cfg);
  const auto& report = c.run();
  ASSERT_NE(report.cells.front().archive, nullptr);
  EXPECT_GT(report.cells.front().archive->filled(), 0u);
}

TEST(CampaignArchive, CorruptResumeArchiveDegradesToFreshNotAbort) {
  // A crash can leave a partial or garbage archive.txt in the report tree.
  // Resuming over it must warn and start that cell's archive cold — never
  // throw out of the campaign constructor or run().
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ccfuzz_archive_corrupt";
  fs::remove_all(dir);

  {
    CampaignConfig cfg;
    cfg.add_cell(coverage_cell(1)).output_dir(dir.string());
    Campaign c(cfg);
    c.run();
  }
  const fs::path archive_path =
      dir / "reno.traffic.low-utilization" / "archive.txt";
  ASSERT_TRUE(fs::exists(archive_path));
  {
    std::ofstream os(archive_path, std::ios::binary);
    os << "# ccfuzz-archive v1\n# garbage that is not an entry\n\x03\x07";
  }

  CampaignConfig cfg;
  cfg.add_cell(coverage_cell(2))
      .resume_dir(dir.string())
      .output_dir(dir.string());
  Campaign c(cfg);  // must not throw
  const auto& report = c.run();
  ASSERT_NE(report.cells.front().archive, nullptr);
  EXPECT_GT(report.cells.front().archive->filled(), 0u);  // cold start filled
  fs::remove_all(dir);
}

TEST(CampaignArchive, PartialResumeArchiveDegradesToFreshNotAbort) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ccfuzz_archive_partial";
  fs::remove_all(dir);

  std::size_t first_filled = 0;
  {
    CampaignConfig cfg;
    cfg.add_cell(coverage_cell(1)).output_dir(dir.string());
    Campaign c(cfg);
    first_filled = c.run().cells.front().archive->filled();
  }
  const fs::path archive_path =
      dir / "reno.traffic.low-utilization" / "archive.txt";
  // Truncate to half: the tail entry is cut mid-genome.
  std::string bytes;
  {
    std::ifstream is(archive_path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 2u);
  {
    std::ofstream os(archive_path, std::ios::binary);
    os << bytes.substr(0, bytes.size() / 2);
  }

  CampaignConfig cfg;
  cfg.add_cell(coverage_cell(2))
      .resume_dir(dir.string())
      .output_dir(dir.string());
  Campaign c(cfg);
  const auto& report = c.run();
  ASSERT_NE(report.cells.front().archive, nullptr);
  EXPECT_GT(report.cells.front().archive->filled(), 0u);
  (void)first_filled;
  fs::remove_all(dir);
}

TEST(CampaignArchive, ProbelessCellsCarryNoArchive) {
  CellConfig cell = coverage_cell(1);
  cell.ga.search = fuzz::SearchMode::kScore;  // cells() won't arm coverage
  CampaignConfig cfg;
  cfg.add_cell(cell);
  Campaign c(cfg);
  const auto& report = c.run();
  EXPECT_EQ(report.cells.front().archive, nullptr);
}

}  // namespace
}  // namespace ccfuzz::campaign
