// Filesystem fault matrix: every injectable fs fault must surface as a typed
// error while the published target file stays untouched — atomic writes may
// lose the *new* data, never the old.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/report.h"
#include "faultinject/fault_plan.h"
#include "fuzz/elite_archive.h"
#include "trace/trace_io.h"
#include "util/fs.h"

namespace ccfuzz {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void arm_spec(const std::string& spec) {
  Result<faultinject::FaultPlan> plan = faultinject::FaultPlan::parse(spec);
  ASSERT_TRUE(plan) << plan.error().message;
  faultinject::arm(std::move(*plan));
}

class FaultFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faultinject::disarm();
    faultinject::set_role("");
    base_ = fs::temp_directory_path() /
            ("ccfuzz_faultfs_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
    target_ = (base_ / "file.txt").string();
  }
  void TearDown() override {
    faultinject::disarm();
    fs::remove_all(base_);
  }

  /// Seeds the target with known-good content a fault must not disturb.
  void seed_target() {
    ASSERT_FALSE(write_file_atomic(target_, "old complete content\n"));
  }

  fs::path base_;
  std::string target_;
};

TEST_F(FaultFsTest, EnospcIsTypedAndLeavesTheTargetUntouched) {
  seed_target();
  arm_spec("enospc@1");
  Error e = write_file_atomic(target_, "new content\n");
  EXPECT_EQ(e.code, Error::Code::kNoSpace);
  EXPECT_EQ(slurp(target_), "old complete content\n");
}

TEST_F(FaultFsTest, ShortWriteLeavesATornTmpAndTheTargetUntouched) {
  seed_target();
  arm_spec("short_write@1");
  const std::string body = "0123456789abcdef\n";
  Error e = write_file_atomic(target_, body);
  EXPECT_EQ(e.code, Error::Code::kIo);
  EXPECT_EQ(slurp(target_), "old complete content\n");
  // The torn tmp is the crash artifact: a strict prefix, never published.
  const std::string tmp = slurp(target_ + ".tmp");
  EXPECT_EQ(tmp, body.substr(0, body.size() / 2));
}

TEST_F(FaultFsTest, FsyncFailureIsTypedAndLeavesTheTargetUntouched) {
  seed_target();
  arm_spec("fsync@1");
  Error e = write_file_atomic(target_, "new content\n");
  EXPECT_EQ(e.code, Error::Code::kIo);
  EXPECT_EQ(slurp(target_), "old complete content\n");
  // sync=false skips the fsync entirely, so the same rule cannot fire there.
  EXPECT_FALSE(write_file_atomic(target_, "unsynced\n", /*sync=*/false));
  EXPECT_EQ(slurp(target_), "unsynced\n");
}

TEST_F(FaultFsTest, RenameFailureIsTypedAndLeavesTheTargetUntouched) {
  seed_target();
  arm_spec("rename@1");
  Error e = write_file_atomic(target_, "new content\n");
  EXPECT_EQ(e.code, Error::Code::kIo);
  EXPECT_EQ(slurp(target_), "old complete content\n");
  // Once the rule's window passes, the very next write succeeds.
  EXPECT_FALSE(write_file_atomic(target_, "new content\n"));
  EXPECT_EQ(slurp(target_), "new content\n");
}

TEST_F(FaultFsTest, RotatingWritePreservesThePreviousSnapshot) {
  ASSERT_FALSE(write_file_rotating(target_, "v1\n"));
  EXPECT_EQ(slurp(target_), "v1\n");
  EXPECT_FALSE(fs::exists(target_ + ".prev"));  // first write: nothing to keep

  ASSERT_FALSE(write_file_rotating(target_, "v2\n"));
  EXPECT_EQ(slurp(target_), "v2\n");
  EXPECT_EQ(slurp(target_ + ".prev"), "v1\n");

  ASSERT_FALSE(write_file_rotating(target_, "v3\n"));
  EXPECT_EQ(slurp(target_), "v3\n");
  EXPECT_EQ(slurp(target_ + ".prev"), "v2\n");
}

TEST_F(FaultFsTest, RotatingWriteFaultKeepsBothSnapshotsIntact) {
  ASSERT_FALSE(write_file_rotating(target_, "v1\n"));
  ASSERT_FALSE(write_file_rotating(target_, "v2\n"));
  // The tmp write fails before any rename: head and .prev both survive.
  arm_spec("enospc@1");
  Error e = write_file_rotating(target_, "v3\n");
  EXPECT_EQ(e.code, Error::Code::kNoSpace);
  EXPECT_EQ(slurp(target_), "v2\n");
  EXPECT_EQ(slurp(target_ + ".prev"), "v1\n");
}

// save_trace and EliteArchive::save_file write triage bundles, quarantined
// genomes, winners and archives: a failed write must throw, and leave no
// file, or the old one whole, at the target.
TEST_F(FaultFsTest, SaveTraceThrowsOnAFailedWriteAndLeavesNoPartialFile) {
  trace::Trace t;
  t.duration = TimeNs::seconds(1);
  for (std::int64_t ms = 0; ms < 200; ++ms) {
    t.stamps.push_back(TimeNs::millis(ms));
  }
  for (const char* spec : {"enospc@1", "short_write@1"}) {
    SCOPED_TRACE(spec);
    arm_spec(spec);
    EXPECT_THROW(trace::save_trace(target_, t), std::runtime_error);
    faultinject::disarm();
    EXPECT_FALSE(fs::exists(target_));
  }
  trace::save_trace(target_, t);
  const std::string whole = slurp(target_);
  arm_spec("short_write@1");
  t.stamps.pop_back();
  EXPECT_THROW(trace::save_trace(target_, t), std::runtime_error);
  EXPECT_EQ(slurp(target_), whole);
}

TEST_F(FaultFsTest, ArchiveSaveFileThrowsOnAFailedWriteAndLeavesNoFile) {
  for (const char* spec : {"enospc@1", "short_write@1"}) {
    SCOPED_TRACE(spec);
    arm_spec(spec);
    EXPECT_THROW(fuzz::EliteArchive().save_file(target_), std::runtime_error);
    faultinject::disarm();
    EXPECT_FALSE(fs::exists(target_));
  }
}

// write_report writes summary.csv, summary.json and each cell's history.csv
// whole or not at all.
TEST_F(FaultFsTest, WriteReportThrowsOnAFailedWriteAndLeavesNoPartialFile) {
  campaign::CampaignReport report;
  campaign::CellResult& cell = report.cells.emplace_back();
  cell.cell.name = "reno.traffic.low-utilization";
  cell.cell.cca = "reno";
  for (int g = 0; g < 3; ++g) {
    fuzz::GenStats& gs = cell.history.emplace_back();
    gs.generation = g;
    gs.best_score = 0.25 * g;
  }
  const fs::path dir = base_ / "report";
  campaign::write_report(report, dir.string());
  const std::vector<std::string> files = {
      "summary.csv", "summary.json", "reno.traffic.low-utilization/history.csv"};
  std::vector<std::string> whole;
  for (const std::string& f : files) whole.push_back(slurp(dir / f));

  for (const char* site : {"enospc", "short_write"}) {
    for (std::size_t k = 0; k < files.size(); ++k) {
      const std::string spec =
          std::string(site).append("@").append(std::to_string(k + 1));
      SCOPED_TRACE(spec);
      fs::remove_all(dir);
      arm_spec(spec);
      EXPECT_THROW(campaign::write_report(report, dir.string()),
                   std::runtime_error);
      faultinject::disarm();
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(slurp(dir / files[j]), whole[j]) << files[j];
      }
      EXPECT_FALSE(fs::exists(dir / files[k])) << files[k];
    }
  }
}

TEST_F(FaultFsTest, LowDiskFaultReportsZeroFreeBytes) {
  Result<std::uint64_t> real = free_bytes(base_.string());
  ASSERT_TRUE(real);
  EXPECT_GT(*real, 0u);
  arm_spec("low_disk@1");
  Result<std::uint64_t> faked = free_bytes(base_.string());
  ASSERT_TRUE(faked);
  EXPECT_EQ(*faked, 0u);
}

TEST_F(FaultFsTest, TruncateTornTailRepairsOnlyTornFiles) {
  // Clean file: untouched, 0 dropped.
  {
    std::ofstream(target_, std::ios::binary) << "a\nb\n";
    Result<std::uint64_t> dropped = truncate_torn_tail(target_);
    ASSERT_TRUE(dropped);
    EXPECT_EQ(*dropped, 0u);
    EXPECT_EQ(slurp(target_), "a\nb\n");
  }
  // Torn final line: truncated back to the last complete line.
  {
    std::ofstream(target_, std::ios::binary) << "a\nb\ntorn";
    Result<std::uint64_t> dropped = truncate_torn_tail(target_);
    ASSERT_TRUE(dropped);
    EXPECT_EQ(*dropped, 4u);
    EXPECT_EQ(slurp(target_), "a\nb\n");
  }
  // A file that is nothing but a torn line empties out.
  {
    std::ofstream(target_, std::ios::binary) << "no newline at all";
    Result<std::uint64_t> dropped = truncate_torn_tail(target_);
    ASSERT_TRUE(dropped);
    EXPECT_EQ(*dropped, 17u);
    EXPECT_EQ(slurp(target_), "");
  }
  // Empty and missing files are clean no-ops.
  {
    std::ofstream(target_, std::ios::binary | std::ios::trunc);
    Result<std::uint64_t> dropped = truncate_torn_tail(target_);
    ASSERT_TRUE(dropped);
    EXPECT_EQ(*dropped, 0u);
  }
  {
    Result<std::uint64_t> dropped =
        truncate_torn_tail((base_ / "never_existed").string());
    ASSERT_TRUE(dropped);
    EXPECT_EQ(*dropped, 0u);
  }
}

}  // namespace
}  // namespace ccfuzz
