// Checkpoint rotation: the previous snapshot survives as campaign.ckpt.prev,
// a corrupt head degrades to it (losing at most one checkpoint generation,
// never the campaign), and only both files corrupting forces a fresh start —
// which, being deterministic, still converges to the identical report.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

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

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void corrupt(const fs::path& p) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os << "# ccfuzz-checkpoint v1\ngarbage where cells should be\n";
}

/// Makes the last RNG word of the first island read `c-24…` (the `ca24…` →
/// `c-24…` flip), which a stream parser once took as a member count of -24.
void flip_island_word(const fs::path& p) {
  std::string bytes = slurp(p);
  std::size_t pos = bytes.find("# island 0 ");
  ASSERT_NE(pos, std::string::npos);
  pos += std::string("# island 0 ").size();
  for (int word = 0; word < 3; ++word) pos = bytes.find(' ', pos) + 1;
  bytes.replace(pos, 4, "c-24");
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
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

class CheckpointRotationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_stop_flag();
    base_ = fs::temp_directory_path() /
            ("ccfuzz_rot_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(base_);
  }
  void TearDown() override {
    reset_stop_flag();
    fs::remove_all(base_);
  }

  /// Runs the reference campaign and an interrupted one (stopped after 3
  /// generation events), leaving head + .prev checkpoints in `dir`.
  void run_reference_and_interrupted(const std::string& ref_dir,
                                     const std::string& dir) {
    Campaign ref(tiny_campaign(ref_dir));
    ASSERT_FALSE(ref.run().interrupted);
    Campaign c(tiny_campaign(dir));
    StopAfterObserver stopper(3);
    c.add_observer(&stopper);
    ASSERT_TRUE(c.run().interrupted);
    reset_stop_flag();
    ASSERT_TRUE(fs::exists(head(dir)));
    ASSERT_TRUE(fs::exists(head(dir) + ".prev"));
  }

  void resume_and_expect_reference(const std::string& dir,
                                   const std::string& ref_dir,
                                   bool expect_resumed) {
    CampaignConfig cfg = tiny_campaign(dir);
    cfg.resume_dir(dir);
    Campaign c(cfg);
    EXPECT_EQ(c.resumed(), expect_resumed);
    EXPECT_FALSE(c.run().interrupted);
    for (const char* f : {"summary.csv", "summary.json"}) {
      EXPECT_EQ(slurp(fs::path(dir) / f), slurp(fs::path(ref_dir) / f)) << f;
    }
  }

  static std::string head(const std::string& dir) {
    return dir + "/checkpoint/campaign.ckpt";
  }

  fs::path base_;
};

TEST_F(CheckpointRotationTest, RotationKeepsAValidPreviousSnapshot) {
  const std::string dir = (base_ / "out").string();
  Campaign c(tiny_campaign(dir));
  ASSERT_FALSE(c.run().interrupted);
  EXPECT_FALSE(validate_checkpoint_file(head(dir)));
  EXPECT_FALSE(validate_checkpoint_file(head(dir) + ".prev"));
}

TEST_F(CheckpointRotationTest, CorruptHeadResumesFromPrevBitIdentical) {
  // Garbage in place of the records, and a one-byte flip deep inside a
  // cell's fuzzer state.
  for (const auto mangle : {corrupt, flip_island_word}) {
    const std::string ref_dir = (base_ / "ref").string();
    const std::string dir = (base_ / "out").string();
    fs::remove_all(base_);
    run_reference_and_interrupted(ref_dir, dir);
    mangle(head(dir));
    resume_and_expect_reference(dir, ref_dir, /*expect_resumed=*/true);
  }
}

TEST_F(CheckpointRotationTest, PrevHoldsTheGenerationBeforeTheHead) {
  // Neither the stop path nor the end of a run writes the head again, so
  // .prev keeps the generation before it.
  const std::string ref_dir = (base_ / "ref").string();
  const std::string dir = (base_ / "out").string();
  run_reference_and_interrupted(ref_dir, dir);
  EXPECT_NE(slurp(head(dir)), slurp(head(dir) + ".prev"));
  const std::string ref_head = slurp(head(ref_dir));
  const std::string ref_prev = slurp(head(ref_dir) + ".prev");
  EXPECT_NE(ref_head, ref_prev);

  // A finished campaign resumed from its head writes no checkpoint.
  {
    CampaignConfig cfg = tiny_campaign(ref_dir);
    cfg.resume_dir(ref_dir);
    Campaign c(cfg);
    ASSERT_TRUE(c.resumed());
    EXPECT_FALSE(c.run().interrupted);
  }
  EXPECT_EQ(slurp(head(ref_dir)), ref_head);
  EXPECT_EQ(slurp(head(ref_dir) + ".prev"), ref_prev);

  // The interrupted one resumes to the reference, and finishes the same
  // way.
  resume_and_expect_reference(dir, ref_dir, /*expect_resumed=*/true);
  EXPECT_NE(slurp(head(dir)), slurp(head(dir) + ".prev"));
}

TEST_F(CheckpointRotationTest, BothSnapshotsCorruptDegradesToFresh) {
  const std::string ref_dir = (base_ / "ref").string();
  const std::string dir = (base_ / "out").string();
  run_reference_and_interrupted(ref_dir, dir);
  corrupt(head(dir));
  corrupt(head(dir) + ".prev");
  // Fresh start (resumed() false), but determinism still converges the
  // report to the reference bytes.
  resume_and_expect_reference(dir, ref_dir, /*expect_resumed=*/false);
}

TEST_F(CheckpointRotationTest, ValidateReportsTypedFailureModes) {
  const std::string dir = (base_ / "out").string();
  fs::create_directories(dir);
  const std::string path = dir + "/campaign.ckpt";

  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kIo);  // missing

  std::ofstream(path, std::ios::binary) << "not a checkpoint\n";
  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kParse);

  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << "# ccfuzz-checkpoint v9\n# end checkpoint\n";
  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kVersion);

  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << "# ccfuzz-checkpoint v1\n# cells 2\ntorn mid-wr";
  EXPECT_EQ(validate_checkpoint_file(path).code, Error::Code::kTruncated);

  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << "# ccfuzz-checkpoint v1\n# cells 0\n# cache 0\n# end checkpoint\n";
  EXPECT_FALSE(validate_checkpoint_file(path));
}

}  // namespace
}  // namespace ccfuzz::campaign
