// One corruption sweep over every on-disk format.
//
// Each format's loader gets every mangling of a small real sample: every
// truncation prefix, every byte replaced by each character of a fixed
// substitute set, every line duplicated, and every adjacent pair of lines
// swapped. The contract: a typed Error or a successful load, never an
// exception (or, in the sanitizer build, a sanitizer report). Two stricter
// rules: where the format says where it ends (a footer, the archive's
// `# cells` count, the closing `}` of a JSON file) every prefix that drops a
// non-blank byte is an error, and a substitution inside a framing word is
// always an error: a record tag (`# <tag>`, or a whole `# end <what>` line)
// or a JSON key the reader checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <string_view>
#include <vector>

#include "../trace/to_v1.h"
#include "dist/merge.h"
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

/// Marks the bytes of record tags: `# <tag>`, or a whole `# end <what>` line.
std::vector<bool> record_tags(const std::string& sample) {
  std::vector<bool> tag;
  for (std::size_t b = 0; b < sample.size(); b = sample.find('\n', b) + 1) {
    const std::string_view line =
        std::string_view(sample).substr(b, sample.find('\n', b) + 1 - b);
    std::size_t n = 0;
    if (line.starts_with("# ")) n = std::min(line.find(' ', 2), line.size() - 1);
    if (line.starts_with("# end ")) n = line.size() - 1;
    for (std::size_t k = 0; k < line.size(); ++k) tag.push_back(k < n);
  }
  return tag;
}

/// Marks the bytes of every `<key>` in `"<key>": ` for the given keys.
std::vector<bool> json_keys(const std::string& sample,
                            std::initializer_list<std::string_view> keys) {
  std::vector<bool> marked(sample.size());
  for (const std::string_view key : keys) {
    const std::string pattern = '"' + std::string(key) + "\": ";
    for (std::size_t at = sample.find(pattern); at != std::string::npos;
         at = sample.find(pattern, at + 1)) {
      std::fill_n(marked.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                  key.size(), true);
    }
  }
  return marked;
}

/// `framing` marks the bytes whose substitution must fail.
void sweep(const std::string& sample, bool cuts_fail,
           const std::vector<bool>& framing, const Loader& load) {
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

  std::vector<std::string> lines;  // with their newlines
  for (std::size_t b = 0; b < sample.size(); b = sample.find('\n', b) + 1) {
    lines.push_back(sample.substr(b, sample.find('\n', b) + 1 - b));
  }

  std::string bytes = sample;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const char flipped = static_cast<char>(sample[i] ^ 0x01);
    for (const char c : {'-', '9', 'x', ' ', '\n', '#', flipped}) {
      if (c == sample[i]) continue;
      bytes[i] = c;
      check(bytes, framing[i], "substitution", i);
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

bool loads_trace(const std::string& bytes) {
  std::istringstream is(bytes);
  return trace::try_read_trace(is).ok();
}

TEST(RecordSweep, Trace) {
  const std::string sample = record_samples::trace_bytes();
  sweep(sample, /*cuts_fail=*/false, record_tags(sample), loads_trace);
}

// Traces written before v2 still load, so the v1 read path keeps its sweep.
TEST(RecordSweep, TraceV1) {
  const std::string sample =
      trace::to_v1(record_samples::trace_bytes());
  sweep(sample, /*cuts_fail=*/false, record_tags(sample), loads_trace);
}

TEST(RecordSweep, Member) {
  const std::string sample = record_samples::member_bytes();
  sweep(sample, /*cuts_fail=*/true, record_tags(sample),
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
  const std::string sample = record_samples::fuzzer_state_bytes();
  sweep(sample, /*cuts_fail=*/true, record_tags(sample),
        [&](const std::string& b) {
          std::istringstream is(b);
          return !target.restore_state(is);
        });
}

TEST(RecordSweep, Archive) {
  // No footer, but the `# cells` count flags every cut, one inside an entry
  // included.
  const std::string sample = record_samples::archive_bytes();
  sweep(sample, /*cuts_fail=*/true, record_tags(sample),
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
  sweep(sample, /*cuts_fail=*/true, record_tags(sample),
        [&](const std::string& b) {
          std::ofstream(head, std::ios::binary | std::ios::trunc) << b;
          return campaign::Campaign(cfg).resumed();
        });
  set_log_level(LogLevel::kWarn);
  fs::remove_all(dir);
}

TEST(RecordSweep, ShardPlan) {
  const std::string sample = record_samples::shard_plan_bytes();
  sweep(sample, /*cuts_fail=*/true,
        json_keys(sample, {"num_shards", "cells", "cell", "shard"}),
        [](const std::string& b) {
          std::istringstream is(b);
          return dist::ShardPlan::try_load(is).ok();
        });
}

TEST(RecordSweep, Manifest) {
  const std::string sample = record_samples::manifest_bytes();
  sweep(sample, /*cuts_fail=*/true,
        json_keys(sample,
                  {"ccfuzz_finding", "id", "source", "cell", "cca", "mode",
                   "score", "scenario_hash", "duration_ms", "original_events",
                   "minimized_events", "original_score", "expected_score",
                   "tolerance", "expect_quarantined", "confirm_runs", "flaky",
                   "truncated", "classification", "invariant_violations"}),
        [](const std::string& b) { return triage::parse_manifest(b).ok(); });
}

TEST(RecordSweep, ShardSummary) {
  // Both halves of a shard summary through the parse merge_reports runs,
  // each mangled while the other stays intact. Cell blocks are spliced
  // verbatim, so only `name` inside them is framing; a cut summary.csv can
  // lose whole rows and still parse.
  const fs::path dir = fs::temp_directory_path() / "ccfuzz_record_sweep_summary";
  const auto [json, csv] = record_samples::summary_bytes(dir.string());
  fs::remove_all(dir);
  const auto load = [](const std::string& c, const std::string& j) {
    std::istringstream csv_is(c);
    std::istringstream json_is(j);
    return dist::read_shard_summary(csv_is, json_is).ok();
  };
  sweep(json, /*cuts_fail=*/true,
        json_keys(json, {"interrupted", "quarantined", "cells", "name"}),
        [&](const std::string& b) { return load(csv, b); });
  std::vector<bool> header(csv.size());  // the CSV header is exact
  std::fill_n(header.begin(), csv.find('\n'), true);
  sweep(csv, /*cuts_fail=*/false, header,
        [&](const std::string& b) { return load(b, json); });
}

}  // namespace
}  // namespace ccfuzz
