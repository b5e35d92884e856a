// The ccfuzz CLI parses numeric flags strictly: a malformed value is a usage
// error (exit 2) before any command runs, never a silent 0 or a prefix.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

const char* ccfuzz_binary() { return CCFUZZ_TOOLS_DIR "/ccfuzz"; }

TEST(CcfuzzCli, NonNumericWorkersIsAUsageError) {
  if (!fs::exists(ccfuzz_binary())) {
    GTEST_SKIP() << "ccfuzz CLI not built at " << ccfuzz_binary();
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("ccfuzz_cli_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string err = (dir / "stderr.txt").string();
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::dup2(fd, STDERR_FILENO);
    ::execl(ccfuzz_binary(), "ccfuzz", "plan", "--output", dir.c_str(),
            "--workers", "abc", static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_FALSE(fs::exists(dir / "shard_plan.json"));
  std::ostringstream text;
  text << std::ifstream(err).rdbuf();
  EXPECT_NE(text.str().find("ccfuzz: --workers needs an integer, got 'abc'"),
            std::string::npos)
      << text.str();
  fs::remove_all(dir);
}

}  // namespace
