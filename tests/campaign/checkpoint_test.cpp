// Crash-safe campaigns: checkpoint_every + resume_dir restore mid-campaign
// state so an interrupted campaign finishes with a report tree bit-identical
// to one that never stopped; corrupt checkpoints degrade to a fresh start.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/report.h"
#include "faultinject/fault_plan.h"
#include "util/record.h"

namespace ccfuzz::campaign {
namespace {

namespace fs = std::filesystem;

fuzz::GaConfig tiny_ga() {
  fuzz::GaConfig ga;
  ga.population = 12;
  ga.islands = 2;
  ga.max_generations = 5;
  ga.seed = 77;
  return ga;
}

CampaignConfig tiny_campaign(const std::string& dir) {
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::seconds(1);
  CampaignConfig cfg;
  cfg.ccas({"reno", "cubic"})
      .modes({scenario::FuzzMode::kTraffic})
      .base_scenario(sc)
      .score(std::make_shared<fuzz::LowUtilizationScore>())
      .traffic_model({.max_packets = 150, .initial_packets = 75})
      .ga(tiny_ga())
      .winners(3)
      .output_dir(dir)
      .checkpoint_every(1);
  return cfg;
}

/// tiny_campaign with four islands of four per cell.
CampaignConfig four_island_campaign(const std::string& dir) {
  fuzz::GaConfig ga = tiny_ga();
  ga.population = 16;
  ga.islands = 4;
  CampaignConfig cfg = tiny_campaign(dir);
  cfg.ga(ga);
  return cfg;
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Raises the campaign stop flag after `n` generation events.
class StopAfterObserver final : public CampaignObserver {
 public:
  explicit StopAfterObserver(int n) : remaining_(n) {}
  void on_generation(const CellConfig&, const fuzz::GenStats&) override {
    if (--remaining_ == 0) request_stop();
  }

 private:
  int remaining_;
};

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_stop_flag();
    base_ = fs::temp_directory_path() /
            ("ccfuzz_ckpt_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(base_);
  }
  void TearDown() override {
    reset_stop_flag();
    fs::remove_all(base_);
  }

  fs::path base_;
};

TEST_F(CheckpointTest, CheckpointFileAppearsAndCampaignCompletes) {
  const std::string dir = (base_ / "out").string();
  Campaign c(tiny_campaign(dir));
  const auto& report = c.run();
  EXPECT_FALSE(report.interrupted);
  EXPECT_FALSE(c.resumed());
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint" / "campaign.ckpt"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "summary.json"));
}

TEST_F(CheckpointTest, InterruptedThenResumedReportIsBitIdentical) {
  // Reference: straight through.
  const std::string ref_dir = (base_ / "ref").string();
  Campaign ref(tiny_campaign(ref_dir));
  ASSERT_FALSE(ref.run().interrupted);

  // Interrupted: stop mid-campaign (after 3 generation events of 2×5).
  const std::string dir = (base_ / "out").string();
  {
    Campaign c(tiny_campaign(dir));
    StopAfterObserver stopper(3);
    c.add_observer(&stopper);
    const auto& partial = c.run();
    EXPECT_TRUE(partial.interrupted);
    ASSERT_TRUE(fs::exists(fs::path(dir) / "checkpoint" / "campaign.ckpt"));
  }
  reset_stop_flag();

  // Resume from the checkpoint and finish.
  {
    CampaignConfig cfg = tiny_campaign(dir);
    cfg.resume_dir(dir);
    Campaign c(cfg);
    EXPECT_TRUE(c.resumed());
    const auto& report = c.run();
    EXPECT_FALSE(report.interrupted);
  }

  // The resumed tree is byte-identical to the uninterrupted one.
  for (const char* rel :
       {"summary.csv", "summary.json",
        "reno.traffic.low-utilization/history.csv",
        "cubic.traffic.low-utilization/history.csv",
        "reno.traffic.low-utilization/winner_0.trace",
        "cubic.traffic.low-utilization/winner_0.trace"}) {
    ASSERT_TRUE(fs::exists(fs::path(dir) / rel)) << rel;
    EXPECT_EQ(slurp(fs::path(dir) / rel), slurp(fs::path(ref_dir) / rel))
        << rel;
  }
}

TEST_F(CheckpointTest, ResumingAFinishedCampaignRewritesTheSameReport) {
  const std::string dir = (base_ / "out").string();
  Campaign first(tiny_campaign(dir));
  first.run();
  const std::string summary = slurp(fs::path(dir) / "summary.json");

  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  Campaign again(cfg);
  EXPECT_TRUE(again.resumed());
  const auto& report = again.run();
  EXPECT_FALSE(report.interrupted);
  // All cells were restored done: nothing re-simulated.
  for (const auto& cell : report.cells) EXPECT_FALSE(cell.winners.empty());
  EXPECT_EQ(slurp(fs::path(dir) / "summary.json"), summary);
}

TEST_F(CheckpointTest, CorruptCheckpointDegradesToFreshStart) {
  const std::string dir = (base_ / "out").string();
  fs::create_directories(fs::path(dir) / "checkpoint");
  std::ofstream(fs::path(dir) / "checkpoint" / "campaign.ckpt")
      << "not a checkpoint at all\n\x01\x02gibberish";

  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  Campaign c(cfg);
  EXPECT_FALSE(c.resumed());
  const auto& report = c.run();
  EXPECT_FALSE(report.interrupted);
  for (const auto& cell : report.cells) {
    EXPECT_FALSE(cell.winners.empty());
    EXPECT_EQ(cell.history.size(), 5u);
  }
}

TEST_F(CheckpointTest, TruncatedCheckpointDegradesToFreshStart) {
  const std::string dir = (base_ / "out").string();
  {
    Campaign c(tiny_campaign(dir));
    c.run();
  }
  const fs::path ckpt = fs::path(dir) / "checkpoint" / "campaign.ckpt";
  const std::string full = slurp(ckpt);
  ASSERT_GT(full.size(), 100u);
  std::ofstream(ckpt, std::ios::binary) << full.substr(0, full.size() / 3);
  // Rotation would rescue the truncated head from campaign.ckpt.prev (see
  // checkpoint_rotation_test.cpp); remove it so this pins the last rung of
  // the degradation ladder: no usable snapshot at all → fresh start.
  fs::remove(fs::path(ckpt.string() + ".prev"));

  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  Campaign c(cfg);
  EXPECT_FALSE(c.resumed());
  EXPECT_FALSE(c.run().interrupted);
}

TEST_F(CheckpointTest, MismatchedCellConfigurationDegradesToFreshStart) {
  // Checkpoint a 2-cell campaign, try to resume a campaign whose first cell
  // differs: the restore must refuse (config drift), not graft state.
  const std::string dir = (base_ / "out").string();
  {
    Campaign c(tiny_campaign(dir));
    c.run();
  }
  CampaignConfig cfg = tiny_campaign(dir);
  cfg.resume_dir(dir);
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::seconds(1);
  cfg.ccas({"bbr", "cubic"}).base_scenario(sc);
  Campaign c(cfg);
  EXPECT_FALSE(c.resumed());
}

/// Leaves the checkpoint of four_island_campaign(dir) stopped after three
/// generation events (mid-run: bred, unevaluated children) in `dir`.
void checkpoint_mid_run(const std::string& dir) {
  Campaign c(four_island_campaign(dir));
  StopAfterObserver stopper(3);
  c.add_observer(&stopper);
  ASSERT_TRUE(c.run().interrupted);
  reset_stop_flag();
}

TEST_F(CheckpointTest, ParallelAndSerialRestoresRewriteTheSameBytes) {
  const std::string dir = (base_ / "out").string();
  checkpoint_mid_run(dir);
  std::string rewritten[2];
  for (const bool parallel : {false, true}) {
    // Resumed into another directory with the stop flag up, the campaign
    // writes the state it restored there and stops.
    const std::string out = (base_ / (parallel ? "par" : "ser")).string();
    CampaignConfig cfg = four_island_campaign(out);
    cfg.resume_dir(dir).parallel(parallel);
    Campaign c(cfg);
    ASSERT_TRUE(c.resumed());
    request_stop();
    EXPECT_TRUE(c.run().interrupted);
    reset_stop_flag();
    rewritten[parallel] = slurp(fs::path(out) / "checkpoint" / "campaign.ckpt");
  }
  ASSERT_FALSE(rewritten[0].empty());
  EXPECT_EQ(rewritten[1], rewritten[0]);
}

TEST_F(CheckpointTest, ParallelAndSerialRestoresReportTheSameError) {
  const std::string dir = (base_ / "out").string();
  checkpoint_mid_run(dir);
  const fs::path head = fs::path(dir) / "checkpoint" / "campaign.ckpt";
  fs::remove(head.string() + ".prev");
  const std::string ckpt = slurp(head);
  // Island 2 of the second cell.
  const std::size_t island = ckpt.find("# island 2 ", ckpt.find("# cell 1\n"));
  const std::size_t close = ckpt.find("# end island\n", island);
  ASSERT_NE(close, std::string::npos);
  // From the middle of the island on, the first stamp line below another,
  // cut after its first digit: a smaller stamp than the one above it.
  const auto is_stamp = [&](std::size_t at) {
    const std::size_t end = ckpt.find('\n', at);
    return end > at + 1 &&
           ckpt.find_first_not_of("0123456789", at) == end;
  };
  std::size_t above = ckpt.find('\n', (island + close) / 2) + 1;
  std::size_t stamp = ckpt.find('\n', above) + 1;
  while (stamp < close && !(is_stamp(above) && is_stamp(stamp))) {
    above = stamp;
    stamp = ckpt.find('\n', stamp) + 1;
  }
  ASSERT_LT(stamp, close);
  std::string flipped = ckpt;
  flipped[close + 3] = static_cast<char>(flipped[close + 3] ^ 0x01);
  std::string doubled = ckpt;
  doubled.insert(close, "# end island\n");
  for (const auto& [what, bytes] :
       std::vector<std::pair<std::string, std::string>>{
           {"truncated",
            ckpt.substr(0, ckpt.find('\n', (island + close) / 2) + 1)},
           {"cut mid-line", ckpt.substr(0, stamp + 1)},
           {"flipped", flipped},
           {"doubled", doubled}}) {
    SCOPED_TRACE(what);
    std::string warning[2];
    for (const bool parallel : {false, true}) {
      std::ofstream(head, std::ios::binary | std::ios::trunc) << bytes;
      CampaignConfig cfg = four_island_campaign(dir);
      cfg.resume_dir(dir).parallel(parallel);
      ::testing::internal::CaptureStderr();
      const bool resumed = Campaign(cfg).resumed();
      warning[parallel] = ::testing::internal::GetCapturedStderr();
      EXPECT_FALSE(resumed);
    }
    EXPECT_NE(warning[0].find("unusable"), std::string::npos) << warning[0];
    EXPECT_NE(warning[0].find("line "), std::string::npos) << warning[0];
    if (what == "cut mid-line") {
      EXPECT_NE(warning[0].find("before the stamp above it"),
                std::string::npos)
          << warning[0];
    }
    EXPECT_EQ(warning[1], warning[0]);
  }
}

TEST_F(CheckpointTest, FallbackWarningNamesTheStepTaken) {
  const std::string dir = (base_ / "out").string();
  Campaign(tiny_campaign(dir)).run();
  const fs::path head = fs::path(dir) / "checkpoint" / "campaign.ckpt";
  const std::string prev = head.string() + ".prev";
  ASSERT_TRUE(fs::exists(prev));
  std::ofstream(head, std::ios::binary | std::ios::trunc)
      << "not a checkpoint\n";
  for (const bool with_prev : {true, false}) {
    SCOPED_TRACE(with_prev ? "with .prev" : "without .prev");
    if (!with_prev) fs::remove(prev);
    CampaignConfig cfg = tiny_campaign(dir);
    cfg.resume_dir(dir);
    ::testing::internal::CaptureStderr();
    const bool resumed = Campaign(cfg).resumed();
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resumed, with_prev);
    EXPECT_NE(warning.find("campaign.ckpt unusable"), std::string::npos)
        << warning;
    EXPECT_EQ(warning.find("falling back to the previous snapshot") !=
                  std::string::npos,
              with_prev)
        << warning;
    EXPECT_EQ(warning.find("starting the campaign fresh") != std::string::npos,
              !with_prev)
        << warning;
  }
}

/// four_island_campaign with populations and traces large enough that each
/// checkpoint passes record::Writer::kSpillBytes: it streams to disk in
/// several chunks.
CampaignConfig multi_chunk_campaign(const std::string& dir) {
  fuzz::GaConfig ga = tiny_ga();
  ga.population = 96;
  ga.islands = 4;
  ga.max_generations = 4;
  CampaignConfig cfg = tiny_campaign(dir);
  cfg.ga(ga).traffic_model({.max_packets = 1200, .initial_packets = 900});
  return cfg;
}

/// Arms a fault plan on the first generation event of the third lockstep
/// generation, whose checkpoint it fails, keeping the checkpoint files as
/// they were; on the first event of the fourth it keeps them again.
class FaultThirdCheckpoint final : public CampaignObserver {
 public:
  FaultThirdCheckpoint(std::string spec, fs::path head)
      : spec_(std::move(spec)), head_(std::move(head)) {}
  void on_generation(const CellConfig&, const fuzz::GenStats&) override {
    ++events_;
    if (events_ == 5) {
      before_ = files();
      Result<faultinject::FaultPlan> plan =
          faultinject::FaultPlan::parse(spec_);
      ASSERT_TRUE(plan) << plan.error().message;
      faultinject::arm(std::move(*plan));
    } else if (events_ == 7) {
      after_ = files();
    }
  }
  /// The head, .prev and .tmp ("" when absent).
  std::vector<std::string> files() const {
    std::vector<std::string> out;
    for (const char* suffix : {"", ".prev", ".tmp"}) {
      const fs::path p = head_.string() + suffix;
      out.push_back(fs::exists(p) ? slurp(p) : "");
    }
    return out;
  }

  std::vector<std::string> before_, after_;

 private:
  std::string spec_;
  fs::path head_;
  int events_ = 0;
};

TEST_F(CheckpointTest, FaultedMultiChunkCheckpointKeepsBothSnapshots) {
  for (const char* spec :
       {"enospc@1", "short_write@1", "fsync@1", "rename@1"}) {
    SCOPED_TRACE(spec);
    faultinject::disarm();
    const std::string dir = (base_ / "out").string();
    fs::remove_all(dir);
    const fs::path head = fs::path(dir) / "checkpoint" / "campaign.ckpt";
    FaultThirdCheckpoint fault(spec, head);
    Campaign c(multi_chunk_campaign(dir));
    c.add_observer(&fault);
    ::testing::internal::CaptureStderr();
    const CampaignReport& report = c.run();
    const std::string log = ::testing::internal::GetCapturedStderr();
    faultinject::disarm();
    ASSERT_EQ(fault.before_.size(), 3u);
    ASSERT_EQ(fault.after_.size(), 3u);
    const std::string& old_head = fault.before_[0];
    EXPECT_GT(old_head.size(), record::Writer::kSpillBytes);
    EXPECT_FALSE(fault.before_[1].empty());
    // The failed checkpoint changed neither snapshot.
    EXPECT_EQ(fault.after_[0], old_head);
    EXPECT_EQ(fault.after_[1], fault.before_[1]);
    // What it left in .tmp: nothing, a torn prefix, or the whole unpublished
    // file.
    const std::string& tmp = fault.after_[2];
    const std::string spec_name = spec;
    if (spec_name == "enospc@1") {
      EXPECT_TRUE(tmp.empty());
    } else if (spec_name == "short_write@1") {
      EXPECT_TRUE(tmp.starts_with("# ccfuzz-checkpoint v1\n"));
      EXPECT_LT(tmp.size(), record::Writer::kSpillBytes);
      EXPECT_FALSE(tmp.ends_with("# end checkpoint\n"));
    } else {
      EXPECT_GT(tmp.size(), old_head.size());
      EXPECT_TRUE(tmp.ends_with("# end checkpoint\n"));
    }
    // One warning, and the campaign ran on and checkpointed again.
    std::size_t warnings = 0;
    for (std::size_t at = log.find("checkpoint: write failed");
         at != std::string::npos;
         at = log.find("checkpoint: write failed", at + 1)) {
      ++warnings;
    }
    EXPECT_EQ(warnings, 1u) << log;
    EXPECT_FALSE(report.interrupted);
    for (const auto& cell : report.cells) EXPECT_EQ(cell.history.size(), 4u);
    EXPECT_FALSE(validate_checkpoint_file(head.string()));
    EXPECT_NE(slurp(head), old_head);
  }
}

TEST_F(CheckpointTest, NoCheckpointWrittenWhenDisabled) {
  const std::string dir = (base_ / "out").string();
  CampaignConfig cfg = tiny_campaign(dir);
  cfg.checkpoint_every(0);
  Campaign c(cfg);
  c.run();
  EXPECT_FALSE(fs::exists(fs::path(dir) / "checkpoint"));
}

TEST(StopFlag, RequestAndResetRoundTrip) {
  reset_stop_flag();
  EXPECT_FALSE(stop_requested());
  request_stop();
  EXPECT_TRUE(stop_requested());
  reset_stop_flag();
  EXPECT_FALSE(stop_requested());
  install_stop_signal_handlers();  // idempotent, must not throw
  install_stop_signal_handlers();
}

TEST(StopFlag, InterruptedCampaignReportsPartialStateAndExitsCleanly) {
  reset_stop_flag();
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::seconds(1);
  CampaignConfig cfg;
  cfg.ccas({"reno"})
      .base_scenario(sc)
      .score(std::make_shared<fuzz::LowUtilizationScore>())
      .traffic_model({.max_packets = 150, .initial_packets = 75})
      .ga(tiny_ga());
  Campaign c(cfg);
  StopAfterObserver stopper(2);
  c.add_observer(&stopper);
  const auto& report = c.run();
  EXPECT_TRUE(report.interrupted);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_LT(report.cells.front().history.size(), 5u);
  EXPECT_GT(report.cells.front().history.size(), 0u);
  reset_stop_flag();
}

}  // namespace
}  // namespace ccfuzz::campaign
