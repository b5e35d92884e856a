// Supervisor backoff, observed through the injected fake clock: a worker
// that dies instantly (/bin/false) is respawned on an exponential schedule
// (base doubling, jitter disabled) until the sliding-window budget runs out,
// at which point the shard is marked failed and run() returns 1. Also pins
// the pid-triage refusal (a live worker pid running the supervisor's own
// worker binary blocks a double-run before anything is spawned) and the
// feed: a torn final line is dropped before appending, and a feed that
// cannot be opened stops the run before any worker starts.
#include "dist/supervisor.h"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"

namespace ccfuzz::dist {
namespace {

namespace fs = std::filesystem;

/// Advances `i` past one JSON value in `s`; false if there is none there.
bool skip_json_value(std::string_view s, std::size_t& i) {
  const auto ws = [&] {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  };
  const auto string = [&] {
    if (i >= s.size() || s[i] != '"') return false;
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  };
  ws();
  if (i >= s.size()) return false;
  const char open = s[i];
  if (open == '"') return string();
  if (open == '{' || open == '[') {
    const char close = open == '{' ? '}' : ']';
    ++i;
    ws();
    if (i < s.size() && s[i] == close) return ++i, true;
    while (true) {
      if (open == '{') {
        ws();
        if (!string()) return false;
        ws();
        if (i >= s.size() || s[i++] != ':') return false;
      }
      if (!skip_json_value(s, i)) return false;
      ws();
      if (i >= s.size()) return false;
      if (s[i] == close) return ++i, true;
      if (s[i++] != ',') return false;
    }
  }
  for (const std::string_view word : {"true", "false", "null"}) {
    if (s.substr(i, word.size()) == word) return i += word.size(), true;
  }
  const std::size_t start = i;
  while (i < s.size() && std::string_view("+-.0123456789eE").find(s[i]) !=
                             std::string_view::npos) {
    ++i;
  }
  return i > start;
}

/// True when `line` is exactly one JSON object.
bool is_json_object(std::string_view line) {
  std::size_t i = 0;
  return !line.empty() && line.front() == '{' &&
         skip_json_value(line, i) && i == line.size();
}

class SupervisorBackoffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    campaign::reset_stop_flag();
    base_ = fs::temp_directory_path() /
            ("ccfuzz_backoff_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    campaign::reset_stop_flag();
    if (devnull_) {
      std::fclose(devnull_);
      devnull_ = nullptr;
    }
    fs::remove_all(base_);
  }

  SupervisorOptions crash_loop_options() {
    SupervisorOptions opt;
    opt.binary = "/bin/false";  // execs fine, exits 1 instantly
    opt.root = base_.string();
    opt.restart.budget = 3;
    opt.restart.base_delay_s = 0.25;
    opt.restart.max_delay_s = 30.0;
    opt.restart.window_s = 300.0;
    opt.restart.jitter = 0.0;  // exact delays, no [1, 1.25) scaling
    opt.heartbeat_timeout_s = 0.0;
    opt.min_free_bytes = 0;  // keep the test off the real disk state
    // Fake clock: every scheduling read advances virtual time, so backoff
    // deadlines pass in a few poll iterations instead of real seconds.
    opt.clock = [this] { return fake_now_ += 0.05; };
    opt.log = devnull_ = std::fopen("/dev/null", "w");
    return opt;
  }

  static ShardPlan one_cell_plan() {
    ShardPlan plan;
    plan.num_shards = 1;
    plan.entries = {{"cell-a", 0}};
    return plan;
  }

  /// Feed lines containing `needle`.
  int feed_count(const std::string& needle) {
    std::ifstream is(base_ / "progress.jsonl");
    std::string line;
    int n = 0;
    while (std::getline(is, line)) {
      if (line.find(needle) != std::string::npos) ++n;
    }
    return n;
  }

  /// `delay_s` values of the worker_backoff events, in feed order.
  std::vector<double> backoff_delays() {
    std::vector<double> out;
    std::ifstream is(base_ / "progress.jsonl");
    std::string line;
    const std::string tag = "\"delay_s\":";
    while (std::getline(is, line)) {
      if (line.find("\"event\":\"worker_backoff\"") == std::string::npos) {
        continue;
      }
      const std::size_t at = line.find(tag);
      if (at == std::string::npos) {
        ADD_FAILURE() << "backoff event without delay_s: " << line;
        continue;
      }
      out.push_back(std::atof(line.c_str() + at + tag.size()));
    }
    return out;
  }

  fs::path base_;
  double fake_now_ = 0.0;
  std::FILE* devnull_ = nullptr;
};

TEST_F(SupervisorBackoffTest, CrashLoopBacksOffExponentiallyThenFails) {
  Supervisor s(crash_loop_options(), one_cell_plan());
  EXPECT_EQ(s.run(), 1);
  EXPECT_FALSE(s.interrupted());

  // Budget 3 in the window: three paced restarts, then the fourth death is
  // refused. The delays are the pure doubling sequence — observable only
  // because the clock is fake and jitter is off.
  const std::vector<double> delays = backoff_delays();
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_DOUBLE_EQ(delays[0], 0.25);
  EXPECT_DOUBLE_EQ(delays[1], 0.5);
  EXPECT_DOUBLE_EQ(delays[2], 1.0);

  // 1 initial spawn + 3 restarts = 4 worker_start events.
  EXPECT_EQ(feed_count("\"event\":\"worker_start\""), 4);
  EXPECT_EQ(feed_count("\"event\":\"worker_restart\""), 3);
  EXPECT_EQ(feed_count("\"event\":\"worker_exit\""), 4);
}

TEST_F(SupervisorBackoffTest, TornFeedTailIsDroppedBeforeAppending) {
  // A previous supervisor died mid-line: two whole lines, then a fragment.
  const std::vector<std::string> kept = {
      R"({"event":"campaign_begin","shard":0,"cells":[]})",
      R"({"event":"generation","shard":0,"cell":"cell-a","generation":0})"};
  const std::string torn = R"({"event":"generation","shard":0,"ce)";
  ASSERT_FALSE(is_json_object(torn));
  std::ofstream(base_ / "progress.jsonl")
      << kept[0] << "\n" << kept[1] << "\n" << torn;

  Supervisor s(crash_loop_options(), one_cell_plan());
  EXPECT_EQ(s.run(), 1);

  std::ifstream is(base_ / "progress.jsonl");
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), kept.size());
  EXPECT_EQ(lines[0], kept[0]);
  EXPECT_EQ(lines[1], kept[1]);
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_json_object(line)) << line;
  }
  // The appended run is the whole crash loop, not a fragment of it.
  EXPECT_EQ(feed_count("\"event\":\"worker_start\""), 4);
  EXPECT_EQ(backoff_delays().size(), 3u);
}

TEST_F(SupervisorBackoffTest, UnopenableFeedRefusesToStart) {
  fs::create_directories(base_ / "progress.jsonl");  // a directory, not a file
  Supervisor s(crash_loop_options(), one_cell_plan());
  EXPECT_EQ(s.run(), 1);
  EXPECT_FALSE(fs::exists(base_ / "shards")) << "a worker was spawned";
}

TEST_F(SupervisorBackoffTest, LiveSiblingWorkerPidBlocksDoubleRun) {
  // A long-lived /bin/sleep stands in for the sibling campaign's worker.
  const pid_t sibling = ::fork();
  ASSERT_GE(sibling, 0);
  if (sibling == 0) {
    ::execl("/bin/sleep", "sleep", "600", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // Until the child has exec'd, its exe is this test binary and pid triage
  // rightly calls it stale; wait for the exec (bounded) before planting it.
  const fs::path sleep_exe = fs::weakly_canonical("/bin/sleep");
  const fs::path proc_exe = "/proc/" + std::to_string(sibling) + "/exe";
  for (int i = 0; i < 500; ++i) {
    std::error_code ec;
    if (fs::read_symlink(proc_exe, ec) == sleep_exe) break;
    ::usleep(10'000);
  }
  const fs::path shard_dir = base_ / "shards" / "0";
  fs::create_directories(shard_dir);
  std::ofstream(shard_dir / "worker.pid") << sibling << "\n";

  SupervisorOptions opt = crash_loop_options();
  opt.binary = "/bin/sleep";  // the pid's exe matches our worker binary
  Supervisor s(opt, one_cell_plan());
  EXPECT_EQ(s.run(), 1);  // refused before spawning anything
  EXPECT_EQ(feed_count("\"event\":\"worker_start\""), 0);

  // The refusal never reclaimed (deleted) the sibling's pid file.
  std::ifstream pid_is(shard_dir / "worker.pid");
  pid_t recorded = 0;
  pid_is >> recorded;
  EXPECT_EQ(recorded, sibling);

  ASSERT_EQ(::kill(sibling, SIGKILL), 0);
  int status = 0;
  ::waitpid(sibling, &status, 0);
}

TEST_F(SupervisorBackoffTest, StalePidFilesAreReclaimedAndTheRunProceeds) {
  // A reaped child's pid is dead: triage says kMissing, the supervisor
  // reclaims the shard and the (crash-looping) run proceeds to its budget.
  const pid_t gone = ::fork();
  ASSERT_GE(gone, 0);
  if (gone == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(gone, &status, 0), gone);

  const fs::path shard_dir = base_ / "shards" / "0";
  fs::create_directories(shard_dir);
  std::ofstream(shard_dir / "worker.pid") << gone << "\n";

  Supervisor s(crash_loop_options(), one_cell_plan());
  EXPECT_EQ(s.run(), 1);  // crash loop exhausts the budget — but it *ran*
  EXPECT_EQ(feed_count("\"event\":\"worker_start\""), 4);
}

}  // namespace
}  // namespace ccfuzz::dist
