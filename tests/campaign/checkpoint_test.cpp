// Crash-safe campaigns: checkpoint_every + resume_dir restore mid-campaign
// state so an interrupted campaign finishes with a report tree bit-identical
// to one that never stopped; corrupt checkpoints degrade to a fresh start.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../trace/to_v1.h"
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

TEST_F(CheckpointTest, V1CheckpointResumesLikeItsV2Twin) {
  const std::string dir = (base_ / "out").string();
  checkpoint_mid_run(dir);
  const std::string v2 =
      slurp(fs::path(dir) / "checkpoint" / "campaign.ckpt");
  // The same checkpoint as written before stamps became deltas.
  const std::string v1 = trace::to_v1(v2);
  ASSERT_NE(v1.find("# ccfuzz-trace v1\n"), std::string::npos);
  ASSERT_EQ(v1.find("# ccfuzz-trace v2\n"), std::string::npos);
  const std::vector<std::string> files = {
      "checkpoint/campaign.ckpt",
      "summary.csv",
      "summary.json",
      "reno.traffic.low-utilization/history.csv",
      "cubic.traffic.low-utilization/history.csv",
      "reno.traffic.low-utilization/winner_0.trace",
      "cubic.traffic.low-utilization/winner_0.trace"};
  std::vector<std::string> tree[2];
  for (const bool old : {false, true}) {
    // Each resumes from its own copy and finishes there.
    const fs::path out = base_ / (old ? "v1" : "v2");
    fs::create_directories(out / "checkpoint");
    std::ofstream(out / "checkpoint" / "campaign.ckpt", std::ios::binary)
        << (old ? v1 : v2);
    CampaignConfig cfg = four_island_campaign(out.string());
    cfg.resume_dir(out.string());
    Campaign c(cfg);
    ASSERT_TRUE(c.resumed());
    ASSERT_FALSE(c.run().interrupted);
    for (const std::string& rel : files) {
      ASSERT_TRUE(fs::exists(out / rel)) << rel;
      tree[old].push_back(slurp(out / rel));
    }
  }
  EXPECT_TRUE(tree[0][0].starts_with("# ccfuzz-checkpoint v1\n"));
  EXPECT_NE(tree[0][0].find("# ccfuzz-trace v2\n"), std::string::npos);
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(tree[1][i], tree[0][i]) << files[i];
  }
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
  // From the middle of the island on, the first stamp line (v2: deltas
  // separated by spaces), cut after the first digit of its second delta:
  // the trace ends short of its `# stamps` count.
  const auto is_stamps = [&](std::size_t at) {
    const std::size_t end = ckpt.find('\n', at);
    return end > at + 1 && ckpt.find(' ', at) < end &&
           ckpt.find_first_not_of("0123456789 ", at) == end;
  };
  std::size_t stamps = ckpt.find('\n', (island + close) / 2) + 1;
  while (stamps < close && !is_stamps(stamps)) {
    stamps = ckpt.find('\n', stamps) + 1;
  }
  ASSERT_LT(stamps, close);
  std::string flipped = ckpt;
  flipped[close + 3] = static_cast<char>(flipped[close + 3] ^ 0x01);
  std::string doubled = ckpt;
  doubled.insert(close, "# end island\n");
  for (const auto& [what, bytes] :
       std::vector<std::pair<std::string, std::string>>{
           {"truncated",
            ckpt.substr(0, ckpt.find('\n', (island + close) / 2) + 1)},
           {"cut mid-line", ckpt.substr(0, ckpt.find(' ', stamps) + 2)},
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
      // "(truncated: line N: trace: <read> of <count> stamps)"
      EXPECT_NE(warning[0].find("(truncated: line "), std::string::npos)
          << warning[0];
      EXPECT_NE(warning[0].find(" stamps)"), std::string::npos) << warning[0];
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
  ga.population = 128;
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

TEST_F(CheckpointTest, FailedOverlappedCheckpointKeepsSnapshotsAndReport) {
  const std::string ref_dir = (base_ / "ref").string();
  ASSERT_FALSE(Campaign(four_island_campaign(ref_dir)).run().interrupted);
  const std::string dir = (base_ / "out").string();
  const fs::path head = fs::path(dir) / "checkpoint" / "campaign.ckpt";
  // The third generation's checkpoint is published while the fourth
  // simulates, and fails.
  FaultThirdCheckpoint fault("enospc@1", head);
  Campaign c(four_island_campaign(dir));
  c.add_observer(&fault);
  ::testing::internal::CaptureStderr();
  const bool interrupted = c.run().interrupted;
  const std::string log = ::testing::internal::GetCapturedStderr();
  faultinject::disarm();
  EXPECT_FALSE(interrupted);
  ASSERT_EQ(fault.before_.size(), 3u);
  ASSERT_EQ(fault.after_.size(), 3u);
  EXPECT_FALSE(fault.before_[0].empty());
  EXPECT_FALSE(fault.before_[1].empty());
  EXPECT_EQ(fault.after_[0], fault.before_[0]);
  EXPECT_EQ(fault.after_[1], fault.before_[1]);
  std::size_t warnings = 0;
  for (std::size_t at = log.find("checkpoint: write failed");
       at != std::string::npos;
       at = log.find("checkpoint: write failed", at + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1u) << log;
  // The run went on to the report, and the final checkpoint, of one that
  // never failed.
  for (const char* rel :
       {"summary.csv", "summary.json", "checkpoint/campaign.ckpt",
        "reno.traffic.low-utilization/history.csv",
        "cubic.traffic.low-utilization/history.csv",
        "reno.traffic.low-utilization/winner_0.trace",
        "cubic.traffic.low-utilization/winner_0.trace"}) {
    EXPECT_EQ(slurp(fs::path(dir) / rel), slurp(fs::path(ref_dir) / rel))
        << rel;
  }
}

/// The `# generation` of the first cell in the checkpoint head at every
/// generation event, with that event's generation; -1 while there is no
/// head.
class HeadGenerationRecorder final : public CampaignObserver {
 public:
  explicit HeadGenerationRecorder(fs::path head) : head_(std::move(head)) {}
  void on_generation(const CellConfig&, const fuzz::GenStats& gs) override {
    int in_head = -1;
    if (fs::exists(head_)) {
      const std::string text = slurp(head_);
      const std::size_t at = text.find("# generation ");
      if (at != std::string::npos) {
        in_head = std::stoi(text.substr(at + std::strlen("# generation ")));
      }
    }
    seen.emplace_back(gs.generation, in_head);
  }

  std::vector<std::pair<int, int>> seen;

 private:
  fs::path head_;
};

TEST_F(CheckpointTest, AllCacheHitGenerationStillPublishesItsCheckpoint) {
  // A finished run's cache holds every evaluation the campaign makes.
  const std::string full = (base_ / "full").string();
  ASSERT_FALSE(Campaign(tiny_campaign(full)).run().interrupted);
  const std::string full_ckpt =
      slurp(fs::path(full) / "checkpoint" / "campaign.ckpt");
  const std::size_t full_cache = full_ckpt.find("# cache ");
  ASSERT_NE(full_cache, std::string::npos);
  // Stopped after its first generation, a run holds bred, unevaluated
  // children; hand it that cache.
  const std::string mid = (base_ / "mid").string();
  {
    Campaign c(tiny_campaign(mid));
    StopAfterObserver stopper(2);
    c.add_observer(&stopper);
    ASSERT_TRUE(c.run().interrupted);
    reset_stop_flag();
  }
  const fs::path mid_head = fs::path(mid) / "checkpoint" / "campaign.ckpt";
  std::string ckpt = slurp(mid_head);
  const std::size_t mid_cache = ckpt.find("# cache ");
  ASSERT_NE(mid_cache, std::string::npos);
  ckpt = ckpt.substr(0, mid_cache) + full_ckpt.substr(full_cache);
  std::ofstream(mid_head, std::ios::binary | std::ios::trunc) << ckpt;
  fs::remove(mid_head.string() + ".prev");
  std::vector<std::int64_t> restored_sims;
  for (std::size_t at = ckpt.find("# simulations "); at != std::string::npos;
       at = ckpt.find("# simulations ", at + 1)) {
    restored_sims.push_back(
        std::stoll(ckpt.substr(at + std::strlen("# simulations "))));
  }
  ASSERT_EQ(restored_sims.size(), 2u);

  // Resumed into another directory, every member of every generation is a
  // cache hit, so every batch is empty.
  const std::string out = (base_ / "out").string();
  CampaignConfig cfg = tiny_campaign(out);
  cfg.resume_dir(mid);
  Campaign c(cfg);
  ASSERT_TRUE(c.resumed());
  HeadGenerationRecorder recorder(fs::path(out) / "checkpoint" /
                                  "campaign.ckpt");
  c.add_observer(&recorder);
  const CampaignReport& report = c.run();
  ASSERT_EQ(report.cells.size(), 2u);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].simulations, restored_sims[i]);
    EXPECT_GT(report.cells[i].cache_hits, 0);
  }
  // Four generations remain, two cells each. The first writes no head; from
  // the second on, the head holds the state that generation started from.
  ASSERT_EQ(recorder.seen.size(), 8u);
  EXPECT_EQ(recorder.seen[0].second, -1);
  EXPECT_EQ(recorder.seen[1].second, -1);
  for (std::size_t i = 2; i < recorder.seen.size(); ++i) {
    SCOPED_TRACE("generation event " + std::to_string(i));
    EXPECT_EQ(recorder.seen[i].second, recorder.seen[i].first);
  }
  for (const char* rel : {"reno.traffic.low-utilization/history.csv",
                          "cubic.traffic.low-utilization/history.csv"}) {
    EXPECT_EQ(slurp(fs::path(out) / rel), slurp(fs::path(full) / rel)) << rel;
  }
}

/// Records the checkpoint head and .prev ("" when absent) at every
/// generation event.
class SnapshotRecorder final : public CampaignObserver {
 public:
  explicit SnapshotRecorder(fs::path head) : head_(std::move(head)) {}
  void on_generation(const CellConfig&, const fuzz::GenStats&) override {
    snapshots.push_back(files());
  }
  std::pair<std::string, std::string> files() const {
    const fs::path prev = head_.string() + ".prev";
    return {fs::exists(head_) ? slurp(head_) : "",
            fs::exists(prev) ? slurp(prev) : ""};
  }

  std::vector<std::pair<std::string, std::string>> snapshots;

 private:
  fs::path head_;
};

TEST_F(CheckpointTest, OverlappedHeadsMatchSerialHeads) {
  std::vector<std::pair<std::string, std::string>> seen[2];
  std::pair<std::string, std::string> last[2];
  for (const bool parallel : {false, true}) {
    const std::string dir = (base_ / (parallel ? "par" : "ser")).string();
    CampaignConfig cfg = four_island_campaign(dir);
    cfg.parallel(parallel);
    SnapshotRecorder recorder(fs::path(dir) / "checkpoint" / "campaign.ckpt");
    Campaign c(cfg);
    c.add_observer(&recorder);
    ASSERT_FALSE(c.run().interrupted);
    seen[parallel] = std::move(recorder.snapshots);
    last[parallel] = recorder.files();
  }
  // Two cells, five generations each.
  ASSERT_EQ(seen[0].size(), 10u);
  ASSERT_EQ(seen[1].size(), seen[0].size());
  for (std::size_t i = 0; i < seen[0].size(); ++i) {
    SCOPED_TRACE("generation event " + std::to_string(i));
    EXPECT_EQ(seen[1][i].first, seen[0][i].first);
    EXPECT_EQ(seen[1][i].second, seen[0][i].second);
  }
  // From the second lockstep generation on, a head has landed.
  EXPECT_FALSE(seen[0][2].first.empty());
  EXPECT_FALSE(seen[0][4].second.empty());
  EXPECT_FALSE(last[0].first.empty());
  EXPECT_EQ(last[1].first, last[0].first);
  EXPECT_EQ(last[1].second, last[0].second);
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
