// Pins the bytes the checkpoint-family writers emit: a trace, a coverage-on
// Fuzzer's saved state, a one-cell campaign's elite archive, a two-cell
// campaign's checkpoint, and a paper-scale MAP-Elites checkpoint. Reader and
// writer refactors must leave every writer byte-identical (a format change
// needs a version bump, not a new golden).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
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
  EXPECT_EQ(written([&](record::Writer& w) {
              trace::write_trace(w, trace::read_trace(trace_in));
            }),
            trace);

  const std::string member_bytes = record_samples::member_bytes();
  std::istringstream member_in(member_bytes);
  record::Reader member_reader(member_in);
  fuzz::Member member;
  ASSERT_FALSE(fuzz::state_io::read_member(member_reader, member));
  EXPECT_EQ(written([&](record::Writer& w) {
              fuzz::state_io::write_member(w, member);
            }),
            member_bytes);

  const std::string state = record_samples::fuzzer_state_bytes();
  std::istringstream state_in(state);
  fuzz::Fuzzer fuzzer = record_samples::evaluated_fuzzer();
  ASSERT_FALSE(fuzzer.restore_state(state_in));
  EXPECT_EQ(written([&](record::Writer& w) { fuzzer.save_state(w); }), state);

  const std::string archive = record_samples::archive_bytes();
  std::istringstream archive_in(archive);
  EXPECT_EQ(written([&](record::Writer& w) {
              fuzz::EliteArchive::load(archive_in).save(w);
            }),
            archive);

  // A finished campaign resumed from its checkpoint writes it on exit, into
  // an output directory other than the one it resumed from (it does not
  // rewrite the head it was restored from).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ccfuzz_record_round_trip")
          .string();
  const std::string checkpoint = record_samples::checkpoint_bytes(dir);
  campaign::CampaignConfig cfg =
      record_samples::checkpoint_campaign(dir + "/resumed");
  campaign::Campaign resumed(cfg.resume_dir(dir));
  ASSERT_TRUE(resumed.resumed());
  resumed.run();
  EXPECT_EQ(with_sorted_cache(record_samples::slurp(
                dir + "/resumed/checkpoint/campaign.ckpt")),
            with_sorted_cache(checkpoint));
  std::filesystem::remove_all(dir);
}

/// A two-cell MAP-Elites campaign (reno, cubic) at population 200 over three
/// generations, checkpointing every generation into `dir`: its checkpoint
/// holds hundreds of members with their stamps and covmaps, archive entries
/// and a cache of hundreds of evaluations. The traffic model is the
/// benchmark's durable one, which never puts a stamp at the trace end.
campaign::CampaignConfig paper_scale_campaign(const std::string& dir) {
  campaign::CellConfig cell = record_samples::tiny_cell("reno", true);
  cell.ga.search = fuzz::SearchMode::kMapElites;
  cell.ga.population = 200;
  cell.ga.islands = 4;
  cell.ga.max_generations = 3;
  cell.ga.migration_interval = 2;
  cell.traffic_model = {.max_packets = 120, .initial_packets = 60};
  cell.traffic_model.dist = {.k_agg = DurationNs(1), .rate_low = 0.0,
                             .rate_high = 1e12, .rate_constraints = true};
  campaign::CellConfig cubic = cell;
  cubic.cca = "cubic";
  campaign::CampaignConfig cfg;
  cfg.add_cell(cell).add_cell(cubic).parallel(false).output_dir(dir)
      .checkpoint_every(1);
  return cfg;
}

TEST(RecordGolden, PaperScaleCheckpointIsPinned) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ccfuzz_record_paper_scale")
          .string();
  std::filesystem::remove_all(dir);
  campaign::Campaign(paper_scale_campaign(dir)).run();
  const std::string path = dir + "/checkpoint/campaign.ckpt";
  const std::string checkpoint = record_samples::slurp(path);
  EXPECT_EQ(fingerprint(checkpoint), "20503ff1780fba63 1065465");

  // Restored and written back on exit (into another directory), it is the
  // same checkpoint.
  campaign::CampaignConfig cfg = paper_scale_campaign(dir + "/resumed");
  campaign::Campaign resumed(cfg.resume_dir(dir));
  ASSERT_TRUE(resumed.resumed());
  resumed.run();
  EXPECT_EQ(with_sorted_cache(
                record_samples::slurp(dir + "/resumed/checkpoint/campaign.ckpt")),
            with_sorted_cache(checkpoint));
  std::filesystem::remove_all(dir);
}

/// The longest line of `bytes`, newline included: no writer of the family
/// appends across a newline, so no one append is longer.
std::size_t longest_line(const std::string& bytes) {
  std::size_t longest = 0;
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t end = std::min(bytes.find('\n', at), bytes.size() - 1);
    longest = std::max(longest, end + 1 - at);
    at = end + 1;
  }
  return longest;
}

/// Each sample's writer, run on a Writer that spills at `bound`, hands its
/// sink the in-memory bytes, in chunks that pass the bound by less than one
/// append.
void expect_spills_whole(const std::string& what,
                         const std::function<void(record::Writer&)>& write) {
  const std::string whole = record_samples::written(write);
  const std::size_t append = longest_line(whole);
  for (const std::size_t bound : {std::size_t{1}, std::size_t{4096},
                                  record::Writer::kSpillBytes}) {
    SCOPED_TRACE(what + " at " + std::to_string(bound));
    std::string joined;
    record::Writer w(
        [&](std::string_view bytes) {
          EXPECT_LT(bytes.size(), bound + append);
          joined += bytes;
        },
        bound);
    write(w);
    w.flush();
    EXPECT_EQ(joined, whole);
  }
}

TEST(RecordGolden, SpillingWritersWriteTheInMemoryBytes) {
  using namespace record_samples;
  std::istringstream trace_in(trace_bytes());
  const trace::Trace trace = trace::read_trace(trace_in);
  expect_spills_whole("trace",
                      [&](record::Writer& w) { trace::write_trace(w, trace); });
  const fuzz::Fuzzer fuzzer = evaluated_fuzzer();
  expect_spills_whole("member", [&](record::Writer& w) {
    fuzz::state_io::write_member(w, fuzzer.best());
  });
  expect_spills_whole("fuzzer state",
                      [&](record::Writer& w) { fuzzer.save_state(w); });
  std::istringstream archive_in(archive_bytes());
  const fuzz::EliteArchive archive = fuzz::EliteArchive::load(archive_in);
  expect_spills_whole("archive",
                      [&](record::Writer& w) { archive.save(w); });

  // Each campaign's save_checkpoint() after its run writes the checkpoint
  // it published last, a paper-scale one of more than kSpillBytes included.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ccfuzz_record_spill")
          .string();
  for (const bool paper_scale : {false, true}) {
    std::filesystem::remove_all(dir);
    campaign::Campaign c(paper_scale ? paper_scale_campaign(dir)
                                     : checkpoint_campaign(dir));
    c.run();
    const std::string published = slurp(dir + "/checkpoint/campaign.ckpt");
    EXPECT_EQ(published.size() > record::Writer::kSpillBytes, paper_scale);
    const auto save = [&](record::Writer& w) { c.save_checkpoint(w); };
    EXPECT_EQ(written(save), published);
    expect_spills_whole(paper_scale ? "paper-scale checkpoint" : "checkpoint",
                        save);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ccfuzz
