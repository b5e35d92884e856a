// Round-trip tests for the GA state serialization (state_io + Fuzzer
// save_state/restore_state).
#include "fuzz/state_io.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "campaign/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/score.h"
#include "trace/hash.h"

namespace ccfuzz::fuzz {
namespace {

Evaluation sample_eval() {
  Evaluation e;
  e.score = {-3.25, 0.125};
  e.goodput_mbps = 7.123456789012345;
  e.cca_sent = 1234;
  e.cca_delivered = 1200;
  e.cca_drops = 34;
  e.cross_sent = 55;
  e.cross_drops = 5;
  e.rto_count = 2;
  e.p10_delay_s = 0.004321;
  e.stalled = true;
  e.truncated = true;
  e.truncation = sim::TruncationReason::kEventLimit;
  e.quarantined = true;
  e.jain_fairness = 0.875;
  e.flow_goodput_mbps = {3.5, 3.623456789};
  e.coverage.valid = true;
  e.coverage.bits = 42;
  e.coverage.descriptor.state_transitions = 3;
  e.coverage.descriptor.rtt_spread = 7;
  e.coverage.bitmap.words[0] = 0xdeadbeefULL;
  e.coverage.bitmap.words[coverage::CoverageBitmap::kWords - 1] = 0x1;
  return e;
}

TEST(StateIo, EvalRoundTripsExactly) {
  const Evaluation in = sample_eval();
  record::Writer w;
  state_io::write_eval(w, in);
  Evaluation out;
  record::Reader r(w.str());
  ASSERT_FALSE(state_io::read_eval(r, out));
  EXPECT_EQ(out.score.performance, in.score.performance);
  EXPECT_EQ(out.score.trace, in.score.trace);
  EXPECT_EQ(out.goodput_mbps, in.goodput_mbps);
  EXPECT_EQ(out.cca_sent, in.cca_sent);
  EXPECT_EQ(out.stalled, in.stalled);
  EXPECT_EQ(out.truncated, in.truncated);
  EXPECT_EQ(out.truncation, in.truncation);
  EXPECT_EQ(out.quarantined, in.quarantined);
  EXPECT_EQ(out.jain_fairness, in.jain_fairness);
  EXPECT_EQ(out.flow_goodput_mbps, in.flow_goodput_mbps);
  EXPECT_EQ(out.coverage.valid, in.coverage.valid);
  EXPECT_EQ(out.coverage.bits, in.coverage.bits);
  EXPECT_EQ(out.coverage.descriptor.state_transitions,
            in.coverage.descriptor.state_transitions);
  EXPECT_EQ(out.coverage.bitmap.words[0], in.coverage.bitmap.words[0]);
}

TEST(StateIo, MemberRoundTripsGenomeByHash) {
  Member m;
  m.genome.kind = trace::TraceKind::kTraffic;
  m.genome.duration = TimeNs::seconds(2);
  m.genome.stamps = {TimeNs::millis(10), TimeNs::millis(20),
                     TimeNs::millis(1999)};
  m.eval = sample_eval();
  m.evaluated = true;
  m.novelty = 0.25;

  record::Writer w;
  state_io::write_member(w, m);
  Member out;
  record::Reader r(w.str());
  ASSERT_FALSE(state_io::read_member(r, out));
  EXPECT_EQ(out.evaluated, m.evaluated);
  EXPECT_EQ(out.novelty, m.novelty);
  EXPECT_EQ(trace::hash(out.genome), trace::hash(m.genome));
  EXPECT_EQ(out.eval.score.performance, m.eval.score.performance);
}

TEST(StateIo, GenStatsRoundTripExactly) {
  GenStats gs;
  gs.generation = 7;
  gs.best_score = -1.2345678901234567;
  gs.mean_score = -5.5;
  gs.topk_mean_packets_sent = 812.5;
  gs.topk_mean_goodput_mbps = 3.25;
  gs.topk_mean_jain_fairness = 0.99;
  gs.topk_mean_flow_goodput_mbps = {1.5, 1.75};
  gs.stalled_count = 3;
  gs.evaluations = 640;
  gs.archive_cells = 12;
  gs.archive_new_cells = 2;
  gs.archive_improved = 1;
  gs.coverage_bits = 99;

  record::Writer w;
  state_io::write_genstats(w, gs);
  GenStats out;
  record::Reader r(w.str());
  ASSERT_FALSE(state_io::read_genstats(r, out));
  EXPECT_EQ(out.generation, gs.generation);
  EXPECT_EQ(out.best_score, gs.best_score);
  EXPECT_EQ(out.mean_score, gs.mean_score);
  EXPECT_EQ(out.topk_mean_flow_goodput_mbps, gs.topk_mean_flow_goodput_mbps);
  EXPECT_EQ(out.evaluations, gs.evaluations);
  EXPECT_EQ(out.coverage_bits, gs.coverage_bits);
}

TEST(StateIo, ReadEvalRejectsGarbage) {
  std::istringstream empty("");
  record::Reader empty_reader(empty);
  Evaluation e;
  EXPECT_EQ(state_io::read_eval(empty_reader, e).code,
            Error::Code::kTruncated);
  std::istringstream junk("# eval not-a-number\n");
  record::Reader junk_reader(junk);
  EXPECT_EQ(state_io::read_eval(junk_reader, e).code, Error::Code::kParse);
}

// --- Fuzzer save/restore -----------------------------------------------------
// Continuing a restored search bit-identically is a campaign property:
// CheckpointTest.InterruptedThenResumedReportIsBitIdentical covers it. These
// cases cover the Fuzzer block on its own.

campaign::CellConfig tiny_cell(bool coverage) {
  campaign::CellConfig cell;
  cell.cca = "reno";
  cell.scenario.duration = TimeNs::seconds(1);
  cell.scenario.coverage = coverage;
  cell.score = std::make_shared<LowGoodputScore>();
  cell.traffic_model.max_packets = 150;
  cell.traffic_model.initial_packets = 75;
  cell.ga.population = 12;
  cell.ga.islands = 2;
  cell.ga.max_generations = 3;
  cell.ga.seed = 31;
  return cell;
}

Fuzzer make_fuzzer(const campaign::CellConfig& cell) {
  return Fuzzer(cell.ga, campaign::make_trace_model(cell),
                cell.scenario.coverage);
}

std::string saved_state(const Fuzzer& f) {
  record::Writer w;
  f.save_state(w);
  return w.str();
}

TEST(FuzzerState, CoverageArchiveSurvivesTheRoundTrip) {
  // A real archive, filled by a three-generation campaign.
  const campaign::CellConfig cell = tiny_cell(/*coverage=*/true);
  campaign::CampaignConfig cfg;
  cfg.add_cell(cell);
  const auto archive = campaign::Campaign(cfg).run().cells.front().archive;
  ASSERT_NE(archive, nullptr);
  ASSERT_GT(archive->filled(), 0u);

  Fuzzer a = make_fuzzer(cell);
  a.seed_archive(*archive);
  std::istringstream snapshot(saved_state(a));
  Fuzzer b = make_fuzzer(cell);
  ASSERT_FALSE(b.restore_state(snapshot));
  ASSERT_NE(b.archive(), nullptr);
  EXPECT_EQ(b.archive()->filled(), archive->filled());
  EXPECT_EQ(b.archive()->union_bits(), archive->union_bits());
  // The restored fuzzer writes back the same bytes.
  EXPECT_EQ(saved_state(b), saved_state(a));
}

TEST(FuzzerState, RestoreRejectsShapeMismatch) {
  std::istringstream snapshot(saved_state(make_fuzzer(tiny_cell(false))));
  campaign::CellConfig other = tiny_cell(false);
  other.ga.islands = 3;
  Fuzzer b = make_fuzzer(other);
  EXPECT_EQ(b.restore_state(snapshot).code, Error::Code::kMismatch);
}

TEST(FuzzerState, IslandRngWordFlipIsATypedError) {
  // The last RNG word of island 0 reading `c-24…` (the `ca24…` → `c-24…`
  // flip): a stream parser once took `-24` as the member count, and the
  // reserve for it threw out of restore_state.
  std::string state = saved_state(make_fuzzer(tiny_cell(false)));
  std::size_t pos = state.find("# island 0 ");
  ASSERT_NE(pos, std::string::npos);
  pos += std::string("# island 0 ").size();
  for (int word = 0; word < 3; ++word) pos = state.find(' ', pos) + 1;
  state.replace(pos, 4, "c-24");
  std::istringstream snapshot(state);
  Fuzzer b = make_fuzzer(tiny_cell(false));
  EXPECT_EQ(b.restore_state(snapshot).code, Error::Code::kParse);
}

}  // namespace
}  // namespace ccfuzz::fuzz
