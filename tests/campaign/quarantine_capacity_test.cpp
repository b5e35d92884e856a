// Coverage for the quarantine plumbing: Quarantine's capacity cap and
// stored() (the resume-surviving on-disk count), and the `quarantined`
// field both report serializations carry.
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "fuzz/quarantine.h"
#include "fuzz/score.h"

namespace ccfuzz::campaign {
namespace {

namespace stdfs = std::filesystem;

CellConfig quick_cell() {
  CellConfig cell;
  cell.cca = "reno";
  cell.name = "reno.traffic.low-utilization";
  cell.scenario.duration = TimeNs::seconds(1);
  cell.score = std::make_shared<fuzz::LowUtilizationScore>();
  cell.traffic_model.max_packets = 120;
  cell.ga.population = 6;
  cell.ga.islands = 2;
  cell.ga.max_generations = 1;
  return cell;
}

TEST(QuarantineCapacity, StoredCountsTraceFilesOnDisk) {
  const stdfs::path dir = stdfs::temp_directory_path() /
                          ("ccfuzz_qcap_" + std::to_string(::getpid()));
  stdfs::remove_all(dir);
  fuzz::Quarantine q(dir.string(), 3);
  EXPECT_EQ(q.stored(), 0u);  // missing directory: empty, not an error
  EXPECT_EQ(q.capacity(), 3u);

  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = TimeNs::seconds(1);
  for (int i = 0; i < 5; ++i) {
    t.stamps.push_back(TimeNs::millis(i));
    q.record(t, "synthetic");
  }
  // Capped at 3 distinct genomes; stored() reads the directory, so a fresh
  // Quarantine over the same dir (a resume) sees the same count.
  EXPECT_EQ(q.recorded(), 3u);
  EXPECT_EQ(q.stored(), 3u);
  fuzz::Quarantine resumed(dir.string(), 3);
  EXPECT_EQ(resumed.recorded(), 0u);
  EXPECT_EQ(resumed.stored(), 3u);

  std::error_code ec;
  stdfs::remove_all(dir, ec);
}

TEST(QuarantineCapacity, SummaryJsonCarriesTheQuarantinedCount) {
  CampaignConfig cfg;
  cfg.add_cell(quick_cell());
  Campaign c(cfg);
  const CampaignReport& report = c.run();
  EXPECT_EQ(report.quarantined, 0u);  // finite scores all the way down
  EXPECT_NE(to_json(report).find("\"quarantined\": 0"), std::string::npos);
}

}  // namespace
}  // namespace ccfuzz::campaign
