// One corruption sweep over the checkpoint family of on-disk formats.
//
// Each format's loader gets every mangling of a small real sample: every
// truncation prefix, every byte replaced by each character of a fixed
// substitute set, every line duplicated, and every adjacent pair of lines
// swapped. The contract: a typed Error or a successful load, never an
// exception (or, in the sanitizer build, a sanitizer report). Two stricter
// rules: where the format says where it ends (a footer, or the archive's
// `# cells` count) every prefix that drops a non-blank byte is an error, and
// a substitution inside a record tag (`# <tag>`, or a whole `# end <what>`
// line) is always an error.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <string_view>
#include <vector>

#include "record_samples.h"
#include "util/logging.h"

namespace ccfuzz {
namespace {

namespace fs = std::filesystem;

/// Loads `bytes`: true on success, false on a typed error.
using Loader = std::function<bool(const std::string& bytes)>;

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

void sweep(const std::string& sample, bool cuts_fail, const Loader& load) {
  int failures = 0;
  const auto check = [&](const std::string& bytes, bool must_fail,
                         const char* kind, std::size_t at) {
    std::string problem;
    try {
      if (load(bytes) && must_fail) problem = "loaded";
    } catch (const std::exception& e) {
      problem = std::string("threw: ") + e.what();
    }
    // The first few failures are enough to debug; the total says how many.
    if (!problem.empty() && ++failures <= 5) {
      ADD_FAILURE() << kind << " at " << at << " " << problem << "\n"
                    << bytes;
    }
  };

  for (std::size_t n = 0; n < sample.size(); ++n) {
    const bool drops_content =
        sample.find_first_not_of(" \n", n) != std::string::npos;
    check(sample.substr(0, n), cuts_fail && drops_content, "prefix", n);
  }

  // Lines with their newlines; tag[i] marks the bytes of record tags.
  std::vector<std::string> lines;
  std::vector<bool> tag;
  for (std::size_t b = 0; b < sample.size(); b = sample.find('\n', b) + 1) {
    lines.push_back(sample.substr(b, sample.find('\n', b) + 1 - b));
    const std::string_view line = lines.back();
    std::size_t n = 0;
    if (line.starts_with("# ")) n = std::min(line.find(' ', 2), line.size() - 1);
    if (line.starts_with("# end ")) n = line.size() - 1;
    for (std::size_t k = 0; k < line.size(); ++k) tag.push_back(k < n);
  }

  std::string bytes = sample;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const char flipped = static_cast<char>(sample[i] ^ 0x01);
    for (const char c : {'-', '9', 'x', ' ', '\n', '#', flipped}) {
      if (c == sample[i]) continue;
      bytes[i] = c;
      check(bytes, tag[i], "substitution", i);
    }
    bytes[i] = sample[i];
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> mangled = lines;
    mangled.insert(mangled.begin() + i, lines[i]);
    check(joined(mangled), false, "duplicated line", i);
    if (i + 1 == lines.size()) continue;
    mangled = lines;
    std::swap(mangled[i], mangled[i + 1]);
    check(joined(mangled), false, "swapped lines", i);
  }
  EXPECT_EQ(failures, 0);
}

TEST(RecordSweep, Trace) {
  sweep(record_samples::trace_bytes(), /*cuts_fail=*/false,
        [](const std::string& b) {
          std::istringstream is(b);
          return trace::try_read_trace(is).ok();
        });
}

TEST(RecordSweep, Member) {
  sweep(record_samples::member_bytes(), /*cuts_fail=*/true,
        [](const std::string& b) {
          std::istringstream is(b);
          record::Reader r(is);
          fuzz::Member m;
          return !fuzz::state_io::read_member(r, m);
        });
}

TEST(RecordSweep, FuzzerState) {
  // One target serves every case: a restore overwrites all of the state it
  // reads, and island count and archive presence come from the config.
  fuzz::Fuzzer target = record_samples::evaluated_fuzzer();
  sweep(record_samples::fuzzer_state_bytes(), /*cuts_fail=*/true,
        [&](const std::string& b) {
          std::istringstream is(b);
          return !target.restore_state(is);
        });
}

TEST(RecordSweep, Archive) {
  // No footer, but the `# cells` count flags every cut, one inside an entry
  // included.
  sweep(record_samples::archive_bytes(), /*cuts_fail=*/true,
        [](const std::string& b) {
          std::istringstream is(b);
          return fuzz::EliteArchive::try_load(is).ok();
        });
}

TEST(RecordSweep, Checkpoint) {
  // Loads through Campaign resume, which degrades a bad checkpoint to a
  // fresh start with a warning; resumed() tells the two apart.
  const fs::path dir = fs::temp_directory_path() / "ccfuzz_record_sweep";
  const std::string sample = record_samples::checkpoint_bytes(dir.string());
  campaign::CampaignConfig cfg =
      record_samples::checkpoint_campaign(dir.string());
  cfg.resume_dir(dir.string());
  const fs::path head = dir / "checkpoint" / "campaign.ckpt";
  fs::remove(head.string() + ".prev");
  set_log_level(LogLevel::kError);
  sweep(sample, /*cuts_fail=*/true, [&](const std::string& b) {
    std::ofstream(head, std::ios::binary | std::ios::trunc) << b;
    return campaign::Campaign(cfg).resumed();
  });
  set_log_level(LogLevel::kWarn);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ccfuzz
