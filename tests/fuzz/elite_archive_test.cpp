// EliteArchive semantics: cell replacement rules, union-coverage novelty
// accounting, trace_io round-tripping, and coverage-guided search through
// one-cell campaigns (kMapElites parent selection, archive seeding for
// resume).
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "fuzz/elite_archive.h"
#include "fuzz/fuzzer.h"
#include "fuzz/score.h"
#include "trace/hash.h"
#include "util/rng.h"

namespace ccfuzz::fuzz {
namespace {

trace::Trace make_trace(std::uint64_t seed, std::size_t n = 16) {
  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = TimeNs::seconds(2);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t.stamps.push_back(TimeNs(rng.uniform_int(0, t.duration.ns() - 1)));
  }
  std::sort(t.stamps.begin(), t.stamps.end());
  return t;
}

Evaluation make_eval(double score, unsigned transitions, unsigned rtt_spread,
                     std::uint32_t first_bit = 0) {
  Evaluation e;
  e.score.performance = score;
  e.coverage.valid = true;
  e.coverage.descriptor.state_transitions =
      static_cast<std::uint8_t>(transitions);
  e.coverage.descriptor.rtt_spread = static_cast<std::uint8_t>(rtt_spread);
  e.coverage.bitmap.set(first_bit);
  e.coverage.bitmap.set(first_bit + 1);
  e.coverage.bits = 2;
  return e;
}

TEST(EliteArchive, InsertFillsImprovesAndKeepsTiedIncumbents) {
  EliteArchive a;
  const trace::Trace t1 = make_trace(1), t2 = make_trace(2),
                     t3 = make_trace(3);

  const auto r1 = a.insert(t1, make_eval(1.0, 2, 3, 0));
  EXPECT_TRUE(r1.new_cell);
  EXPECT_FALSE(r1.improved);
  EXPECT_EQ(r1.fresh_bits, 2u);
  EXPECT_EQ(a.filled(), 1u);

  // Same cell, same score: the incumbent stands (elites never churn).
  const auto r2 = a.insert(t2, make_eval(1.0, 2, 3, 0));
  EXPECT_FALSE(r2.new_cell);
  EXPECT_FALSE(r2.improved);
  EXPECT_EQ(r2.fresh_bits, 0u);
  EXPECT_EQ(trace::hash(a.cell(r2.cell).genome), trace::hash(t1));

  // Same cell, higher score: displaced. New bitmap bits still count.
  const auto r3 = a.insert(t3, make_eval(2.0, 2, 3, 8));
  EXPECT_FALSE(r3.new_cell);
  EXPECT_TRUE(r3.improved);
  EXPECT_EQ(r3.fresh_bits, 2u);
  EXPECT_EQ(trace::hash(a.cell(r3.cell).genome), trace::hash(t3));
  EXPECT_EQ(a.filled(), 1u);
  EXPECT_EQ(a.union_bits(), 4u);

  // Different descriptor: a second cell.
  const auto r4 = a.insert(t2, make_eval(0.1, 7, 3, 0));
  EXPECT_TRUE(r4.new_cell);
  EXPECT_NE(r4.cell, r3.cell);
  EXPECT_EQ(a.filled(), 2u);
}

TEST(EliteArchive, InvalidCoverageIsIgnored) {
  EliteArchive a;
  Evaluation e;  // coverage.valid == false
  e.score.performance = 5.0;
  const auto r = a.insert(make_trace(1), e);
  EXPECT_FALSE(r.new_cell);
  EXPECT_EQ(a.filled(), 0u);
  EXPECT_EQ(a.union_bits(), 0u);
}

TEST(EliteArchive, CellIndexSaturatesHeavyTails) {
  coverage::BehaviorDescriptor d{};
  d.state_transitions = 200;  // far past the last bucket
  d.rtt_spread = 200;
  d.max_backoff = 200;
  d.cwnd_span = 200;
  EXPECT_EQ(EliteArchive::cell_index(d), EliteArchive::kCells - 1);
  EXPECT_EQ(EliteArchive::cell_index(coverage::BehaviorDescriptor{}), 0u);
}

TEST(EliteArchive, SaveLoadRoundTripsThroughTraceIo) {
  EliteArchive a;
  a.insert(make_trace(1, 8), make_eval(1.5, 1, 2, 0));
  a.insert(make_trace(2, 32), make_eval(-0.5, 4, 0, 40));
  a.insert(make_trace(3, 1), make_eval(3.25, 7, 7, 80));

  record::Writer w;
  a.save(w);
  std::stringstream ss(w.str());
  const EliteArchive b = EliteArchive::load(ss);

  ASSERT_EQ(b.filled(), a.filled());
  EXPECT_EQ(b.union_bits(), a.union_bits());
  EXPECT_TRUE(b.union_map() == a.union_map());
  ASSERT_EQ(b.occupied_cells(), a.occupied_cells());
  for (const std::uint16_t idx : a.occupied_cells()) {
    const auto& ca = a.cell(idx);
    const auto& cb = b.cell(idx);
    EXPECT_EQ(trace::hash(cb.genome), trace::hash(ca.genome));
    EXPECT_EQ(cb.genome.duration, ca.genome.duration);
    EXPECT_DOUBLE_EQ(cb.eval.score.total(), ca.eval.score.total());
    EXPECT_EQ(EliteArchive::cell_index(cb.eval.coverage.descriptor), idx);
    EXPECT_TRUE(cb.eval.coverage.bitmap == ca.eval.coverage.bitmap);
  }

  // A loaded archive keeps its replacement semantics: a known behavior with
  // a lower score is still rejected, a new behavior still fills a cell.
  EliteArchive c = b;
  EXPECT_FALSE(c.insert(make_trace(9), make_eval(1.0, 1, 2, 0)).new_cell);
  EXPECT_TRUE(c.insert(make_trace(9), make_eval(1.0, 2, 2, 0)).new_cell);
  EXPECT_EQ(c.filled(), b.filled() + 1);
}

TEST(EliteArchive, LoadRejectsMalformedInput) {
  std::istringstream no_magic("# not-an-archive\n");
  EXPECT_THROW(EliteArchive::load(no_magic), std::runtime_error);

  std::istringstream truncated(
      "# ccfuzz-archive v1\n# entry 3\n# score 1 0\n");
  EXPECT_THROW(EliteArchive::load(truncated), std::runtime_error);
}

// --- merge_from (distributed report merge) -----------------------------------

TEST(EliteArchiveMerge, UnionsBitmapAndKeepsBestPerCell) {
  const trace::Trace ta = make_trace(1), tb = make_trace(2),
                     tc = make_trace(3), td = make_trace(4);
  EliteArchive a;
  a.insert(ta, make_eval(1.0, 2, 3, 0));   // shared cell, lower score
  a.insert(tb, make_eval(5.0, 7, 0, 8));   // a-only cell

  EliteArchive b;
  b.insert(tc, make_eval(2.0, 2, 3, 16));  // shared cell, higher score
  b.insert(td, make_eval(0.5, 0, 7, 24));  // b-only cell

  const std::size_t changed = a.merge_from(b);
  EXPECT_EQ(changed, 2u);  // shared cell improved + b-only cell filled
  EXPECT_EQ(a.filled(), 3u);
  // Union bitmap covers all four disjoint 2-bit groups.
  EXPECT_EQ(a.union_bits(), 8u);
  // The shared cell now holds b's higher-scoring elite...
  const std::size_t shared = EliteArchive::cell_index(
      make_eval(0, 2, 3).coverage.descriptor);
  EXPECT_EQ(trace::hash(a.cell(shared).genome), trace::hash(tc));
  // ...and a's own cell is untouched.
  const std::size_t a_only = EliteArchive::cell_index(
      make_eval(0, 7, 0).coverage.descriptor);
  EXPECT_EQ(trace::hash(a.cell(a_only).genome), trace::hash(tb));
}

TEST(EliteArchiveMerge, TieKeepsThisArchivesIncumbent) {
  const trace::Trace mine = make_trace(1), theirs = make_trace(2);
  EliteArchive a, b;
  a.insert(mine, make_eval(1.0, 2, 3, 0));
  b.insert(theirs, make_eval(1.0, 2, 3, 0));

  EXPECT_EQ(a.merge_from(b), 0u);
  EXPECT_EQ(a.filled(), 1u);
  const std::size_t cell = EliteArchive::cell_index(
      make_eval(0, 2, 3).coverage.descriptor);
  EXPECT_EQ(trace::hash(a.cell(cell).genome), trace::hash(mine));
}

TEST(EliteArchiveMerge, IntoEmptyArchiveReproducesSaveBytes) {
  EliteArchive b;
  b.insert(make_trace(1, 8), make_eval(1.5, 1, 2, 0));
  b.insert(make_trace(2, 32), make_eval(-0.5, 4, 0, 40));
  b.insert(make_trace(3, 1), make_eval(3.25, 7, 7, 80));

  EliteArchive a;
  EXPECT_EQ(a.merge_from(b), b.filled());

  record::Writer wa, wb;
  a.save(wa);
  b.save(wb);
  EXPECT_EQ(wa.str(), wb.str());
}

TEST(EliteArchiveMerge, IsIdempotent) {
  EliteArchive a, b;
  b.insert(make_trace(1), make_eval(2.0, 3, 1, 4));
  a.merge_from(b);
  const std::uint32_t bits = a.union_bits();
  EXPECT_EQ(a.merge_from(b), 0u);
  EXPECT_EQ(a.filled(), 1u);
  EXPECT_EQ(a.union_bits(), bits);
}

// --- Coverage-guided search ------------------------------------------------

campaign::CellConfig coverage_cell(SearchMode search = SearchMode::kMapElites) {
  campaign::CellConfig cell;
  cell.cca = "reno";
  cell.scenario.duration = TimeNs::seconds(2);
  cell.scenario.coverage = true;
  cell.score = std::make_shared<LowUtilizationScore>();
  cell.trace_weights = {.per_packet = 1e-4};
  cell.traffic_model = {.max_packets = 400};
  cell.ga.population = 12;
  cell.ga.islands = 2;
  cell.ga.max_generations = 4;
  cell.ga.search = search;
  return cell;
}

campaign::CellResult run_cell(const campaign::CellConfig& cell) {
  campaign::CampaignConfig cfg;
  cfg.add_cell(cell);
  return campaign::Campaign(cfg).run().cells.front();
}

TEST(Fuzzer, CoverageGuidedModesRequireTheProbe) {
  const campaign::CellConfig cell = coverage_cell();
  const auto model = campaign::make_trace_model(cell);
  EXPECT_THROW(Fuzzer(cell.ga, model, /*coverage=*/false), std::logic_error);
  GaConfig bonus = coverage_cell(SearchMode::kScore).ga;
  bonus.novelty_bonus = 0.5;
  EXPECT_THROW(Fuzzer(bonus, model, /*coverage=*/false), std::logic_error);
  EXPECT_EQ(Fuzzer(coverage_cell(SearchMode::kScore).ga, model,
                   /*coverage=*/false)
                .archive(),
            nullptr);
}

TEST(Fuzzer, MapElitesFillsArchiveAndReportsGrowth) {
  const campaign::CellResult r = run_cell(coverage_cell());
  const auto& history = r.history;

  ASSERT_NE(r.archive, nullptr);
  EXPECT_GT(r.archive->filled(), 0u);
  EXPECT_GT(r.archive->union_bits(), 0u);
  ASSERT_FALSE(history.empty());
  EXPECT_GT(history.front().archive_cells, 0);
  EXPECT_EQ(history.front().archive_new_cells, history.front().archive_cells);
  // Occupancy is monotone: cells are never vacated.
  for (std::size_t g = 1; g < history.size(); ++g) {
    EXPECT_GE(history[g].archive_cells, history[g - 1].archive_cells);
    EXPECT_GE(history[g].coverage_bits, history[g - 1].coverage_bits);
  }
  EXPECT_EQ(history.back().archive_cells,
            static_cast<std::int64_t>(r.archive->filled()));
}

TEST(Fuzzer, SeededArchiveResumesFilling) {
  const campaign::CellResult first = run_cell(coverage_cell());
  const std::size_t carried = first.archive->filled();
  ASSERT_GT(carried, 0u);
  const std::string path = (std::filesystem::temp_directory_path() /
                            "ccfuzz_seeded_archive_test.txt")
                               .string();
  first.archive->save_file(path);

  campaign::CellConfig resumed = coverage_cell();
  resumed.ga.seed ^= 0x9E3779B97F4A7C15ULL;  // a fresh population
  resumed.resume_archive = path;
  const campaign::CellResult r = run_cell(resumed);
  std::filesystem::remove(path);
  // The seeded cells survive; the resumed campaign only adds to them.
  EXPECT_GE(r.archive->filled(), carried);
  EXPECT_GE(r.history.front().archive_cells,
            static_cast<std::int64_t>(carried));
}

// --- Corrupt / truncated archive files ---------------------------------------
// Archive files are crash artifacts as often as clean saves (campaign
// checkpoints embed them; resume loads them after a kill). Every mangling
// must surface as a typed Error from try_load, never a crash.

TEST(EliteArchiveErrors, EmptyStreamIsKTruncated) {
  std::istringstream empty("");
  const auto r = EliteArchive::try_load(empty);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kTruncated);
}

TEST(EliteArchiveErrors, WrongVersionIsKVersion) {
  std::istringstream is("# ccfuzz-archive v7\n");
  const auto r = EliteArchive::try_load(is);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kVersion);
}

TEST(EliteArchiveErrors, MissingMagicIsKParse) {
  std::istringstream is("totally not an archive\n");
  const auto r = EliteArchive::try_load(is);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kParse);
}

TEST(EliteArchiveErrors, MissingFileIsKIo) {
  const auto r = EliteArchive::try_load_file("/nonexistent/archive.txt");
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kIo);
}

TEST(EliteArchiveErrors, RenamedScoreTagIsKParse) {
  // `# score` → `# scorf` once loaded with the score silently zeroed.
  record::Writer full;
  run_cell(coverage_cell()).archive->save(full);
  std::string bytes = full.str();
  const std::size_t pos = bytes.find("# score ");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 6] = 'f';
  std::istringstream is(bytes);
  const auto r = EliteArchive::try_load(is);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kParse);
}

TEST(EliteArchiveErrors, ThrowingLoadersStillThrowOnCorruptInput) {
  std::istringstream is("# ccfuzz-archive v7\n");
  EXPECT_THROW(EliteArchive::load(is), std::runtime_error);
  EXPECT_THROW(EliteArchive::load_file("/nonexistent/archive.txt"),
               std::runtime_error);
}

TEST(Fuzzer, NoveltyBonusBiasesSelectionNotReporting) {
  // Same population, same evaluations: the bonus must leave reported scores
  // untouched (GenStats reads raw totals), and a fuzzer with a bonus still
  // tracks the identical archive (inserts are pre-selection).
  campaign::CellConfig plain = coverage_cell(SearchMode::kScore);
  plain.ga.max_generations = 1;
  campaign::CellConfig bonus = plain;
  bonus.ga.novelty_bonus = 10.0;

  const GenStats ga_first = run_cell(plain).history.front();
  const GenStats gb_first = run_cell(bonus).history.front();
  // Generation 0 is the same seeded population → identical raw stats.
  EXPECT_DOUBLE_EQ(ga_first.best_score, gb_first.best_score);
  EXPECT_DOUBLE_EQ(ga_first.mean_score, gb_first.mean_score);
  EXPECT_EQ(ga_first.archive_cells, gb_first.archive_cells);
  EXPECT_EQ(ga_first.coverage_bits, gb_first.coverage_bits);
}

}  // namespace
}  // namespace ccfuzz::fuzz
