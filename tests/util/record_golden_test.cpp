// Pins the bytes the checkpoint-family writers emit: a trace, a coverage-on
// Fuzzer's saved state, a one-cell campaign's elite archive, and a two-cell
// campaign's checkpoint. Reader refactors must leave every writer
// byte-identical (a format change needs a version bump, not a new golden).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "record_samples.h"

namespace ccfuzz {
namespace {

std::string fingerprint(const std::string& bytes) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx %zu",
                static_cast<unsigned long long>(record_samples::fnv1a(bytes)),
                bytes.size());
  return buf;
}

TEST(RecordGolden, WriterBytesArePinned) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ccfuzz_record_golden")
          .string();
  EXPECT_EQ(fingerprint(record_samples::trace_bytes()),
            "8477fdd08c12ab33 293");
  EXPECT_EQ(fingerprint(record_samples::fuzzer_state_bytes()),
            "26390107f2cd04e9 4526");
  EXPECT_EQ(fingerprint(record_samples::archive_bytes()),
            "643c3456b1481826 2158");
  EXPECT_EQ(fingerprint(record_samples::checkpoint_bytes(dir)),
            "73f020dac38dfd4c 8700");
  std::filesystem::remove_all(dir);
}

/// `ckpt` with its evaluation-cache records sorted: the writer emits them in
/// hash-map order, which a restored map need not reproduce.
std::string with_sorted_cache(const std::string& ckpt) {
  const std::size_t begin = ckpt.find("# cachekey ");
  const std::size_t end = ckpt.rfind("# end checkpoint");
  if (begin == std::string::npos || end == std::string::npos) return ckpt;
  std::vector<std::string> records;
  for (std::size_t at = begin; at < end;) {
    const std::size_t next = std::min(ckpt.find("# cachekey ", at + 1), end);
    records.push_back(ckpt.substr(at, next - at));
    at = next;
  }
  std::sort(records.begin(), records.end());
  std::string out = ckpt.substr(0, begin);
  for (const std::string& r : records) out += r;
  return out + ckpt.substr(end);
}

// Each sample written back after loading is the sample itself: readers
// lose nothing the writers emit.
TEST(RecordGolden, SamplesRoundTripByteIdentically) {
  using record_samples::written;
  const std::string trace = record_samples::trace_bytes();
  std::istringstream trace_in(trace);
  EXPECT_EQ(written([&](std::ostream& os) {
              trace::write_trace(os, trace::read_trace(trace_in));
            }),
            trace);

  const std::string member_bytes = record_samples::member_bytes();
  std::istringstream member_in(member_bytes);
  record::Reader member_reader(member_in);
  fuzz::Member member;
  ASSERT_FALSE(fuzz::state_io::read_member(member_reader, member));
  EXPECT_EQ(written([&](std::ostream& os) {
              fuzz::state_io::write_member(os, member);
            }),
            member_bytes);

  const std::string state = record_samples::fuzzer_state_bytes();
  std::istringstream state_in(state);
  fuzz::Fuzzer fuzzer = record_samples::evaluated_fuzzer();
  ASSERT_FALSE(fuzzer.restore_state(state_in));
  EXPECT_EQ(written([&](std::ostream& os) { fuzzer.save_state(os); }), state);

  const std::string archive = record_samples::archive_bytes();
  std::istringstream archive_in(archive);
  EXPECT_EQ(written([&](std::ostream& os) {
              fuzz::EliteArchive::load(archive_in).save(os);
            }),
            archive);

  // A finished campaign resumed from its checkpoint rewrites it on exit.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ccfuzz_record_round_trip")
          .string();
  const std::string checkpoint = record_samples::checkpoint_bytes(dir);
  campaign::CampaignConfig cfg = record_samples::checkpoint_campaign(dir);
  campaign::Campaign resumed(cfg.resume_dir(dir));
  ASSERT_TRUE(resumed.resumed());
  resumed.run();
  EXPECT_EQ(with_sorted_cache(
                record_samples::slurp(dir + "/checkpoint/campaign.ckpt")),
            with_sorted_cache(checkpoint));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ccfuzz
