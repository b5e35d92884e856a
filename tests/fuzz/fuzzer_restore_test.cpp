// The resume constructor and the parallel island parse: a restored fuzzer
// generates no population, and islands read on the pool by sub-readers give
// the state, and the errors, of one Reader reading them in place.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/score.h"

namespace ccfuzz::fuzz {
namespace {

/// Counts the genomes a Fuzzer generates; the rest passes through.
class CountingModel final : public TraceModel {
 public:
  explicit CountingModel(std::shared_ptr<const TraceModel> inner)
      : inner_(std::move(inner)) {}

  trace::Trace generate(Rng& rng) const override {
    generated.fetch_add(1, std::memory_order_relaxed);
    return inner_->generate(rng);
  }
  trace::Trace mutate(const trace::Trace& t, Rng& rng) const override {
    return inner_->mutate(t, rng);
  }
  std::optional<trace::Trace> crossover(const trace::Trace& a,
                                        const trace::Trace& b,
                                        Rng& rng) const override {
    return inner_->crossover(a, b, rng);
  }
  bool supports_crossover() const override {
    return inner_->supports_crossover();
  }
  const char* name() const override { return inner_->name(); }

  mutable std::atomic<int> generated{0};

 private:
  std::shared_ptr<const TraceModel> inner_;
};

/// Four islands of three members, coverage on: the state holds history, a
/// best member and an archive around the island blocks.
campaign::CellConfig four_island_cell() {
  campaign::CellConfig cell;
  cell.cca = "reno";
  cell.scenario.duration = TimeNs::seconds(1);
  cell.scenario.coverage = true;
  cell.score = std::make_shared<LowUtilizationScore>();
  cell.traffic_model = {.max_packets = 20, .initial_packets = 12};
  cell.ga.population = 12;
  cell.ga.islands = 4;
  cell.ga.max_generations = 3;
  cell.ga.migration_interval = 1;
  cell.ga.seed = 2024;
  return cell;
}

std::shared_ptr<CountingModel> counting_model() {
  return std::make_shared<CountingModel>(
      campaign::make_trace_model(four_island_cell()));
}

Fuzzer fresh(std::shared_ptr<const TraceModel> model, bool parallel) {
  return Fuzzer(four_island_cell().ga, std::move(model), /*coverage=*/true,
                parallel);
}

std::string saved(const Fuzzer& f) {
  record::Writer w;
  f.save_state(w);
  return w.str();
}

/// A fuzzer's state after one generation through the staged interface.
std::string evaluated_state() {
  const campaign::CellConfig cell = four_island_cell();
  Fuzzer f = fresh(campaign::make_trace_model(cell), /*parallel=*/false);
  const TraceEvaluator ev = campaign::make_evaluator(cell);
  const std::vector<Member*> pending = f.pending_members();
  for (Member* m : pending) {
    ev.evaluate_into(m->genome, m->eval);
    m->evaluated = true;
  }
  f.note_external_evaluations(static_cast<std::int64_t>(pending.size()));
  f.advance_generation();
  return saved(f);
}

/// The resume constructor over `text`: its error, and the state it holds.
struct Restored {
  Error error;
  std::string state;
};

Restored restore(const std::string& text, bool parallel,
                 std::shared_ptr<const TraceModel> model =
                     campaign::make_trace_model(four_island_cell())) {
  record::Reader r(text);
  Fuzzer f(four_island_cell().ga, std::move(model), /*coverage=*/true,
           parallel, r);
  return {r.error(), r.ok() ? saved(f) : std::string()};
}

/// The error of one Reader reading `text` in place: a Reader of a stream
/// has no sub-readers.
Error in_place(const std::string& text) {
  std::istringstream is(text);
  record::Reader r(is);
  Fuzzer f =
      fresh(campaign::make_trace_model(four_island_cell()), /*parallel=*/false);
  return f.restore_state(r);
}

/// Parallel, serial and in-place reads of `text` agree, to the line number.
void expect_same_outcome(const std::string& text, const std::string& what) {
  SCOPED_TRACE(what);
  const Restored par = restore(text, /*parallel=*/true);
  const Restored ser = restore(text, /*parallel=*/false);
  const Error ref = in_place(text);
  EXPECT_EQ(par.error.code, ref.code);
  EXPECT_EQ(par.error.message, ref.message);
  EXPECT_EQ(ser.error.code, ref.code);
  EXPECT_EQ(ser.error.message, ref.message);
  EXPECT_EQ(par.state, ser.state);
}

/// Where each `# end island` line starts, in order.
std::vector<std::size_t> island_ends(const std::string& text) {
  std::vector<std::size_t> at;
  for (std::size_t p = text.find("\n# end island\n"); p != std::string::npos;
       p = text.find("\n# end island\n", p + 1)) {
    at.push_back(p + 1);
  }
  return at;
}

TEST(FuzzerRestore, ResumeGeneratesNoPopulation) {
  const int population = four_island_cell().ga.population;
  const auto first = counting_model();
  const std::string state = saved(fresh(first, /*parallel=*/true));
  EXPECT_EQ(first->generated.load(), population);

  for (const bool parallel : {true, false}) {
    const auto model = counting_model();
    const Restored r = restore(state, parallel, model);
    EXPECT_FALSE(r.error) << r.error.message;
    EXPECT_EQ(r.state, state);
    EXPECT_EQ(model->generated.load(), 0);
  }

  // A failed restore generates nothing either; the fresh fuzzer that
  // replaces it draws the same initial population as a first start.
  const auto model = counting_model();
  const Restored bad = restore(state.substr(0, island_ends(state)[2]),
                               /*parallel=*/true, model);
  EXPECT_EQ(bad.error.code, Error::Code::kTruncated);
  EXPECT_EQ(model->generated.load(), 0);
  EXPECT_EQ(saved(fresh(model, /*parallel=*/true)), state);
  EXPECT_EQ(model->generated.load(), population);
}

TEST(FuzzerRestore, ParallelSerialAndInPlaceReadsAgree) {
  const std::string state = evaluated_state();
  const std::vector<std::size_t> ends = island_ends(state);
  ASSERT_EQ(ends.size(), 4u);
  expect_same_outcome(state, "intact");
  EXPECT_FALSE(restore(state, /*parallel=*/true).error);

  // Truncated at every line start and mid-line inside the islands.
  const std::size_t first = state.find("# island 0 ");
  const std::size_t last = ends.back() + std::string("# end island\n").size();
  for (std::size_t b = first; b < last; b = state.find('\n', b) + 1) {
    const std::size_t e = state.find('\n', b);
    for (const std::size_t cut : {b, b + (e - b) / 2}) {
      const std::string text = state.substr(0, cut);
      expect_same_outcome(text, "cut at " + std::to_string(cut));
      EXPECT_TRUE(restore(text, /*parallel=*/true).error);
    }
  }

  const std::size_t end_len = std::string("# end island").size();
  for (std::size_t k = 0; k < ends.size(); ++k) {
    // A flipped byte anywhere in island k's close line.
    for (std::size_t i = 0; i < end_len; ++i) {
      std::string text = state;
      text[ends[k] + i] = static_cast<char>(text[ends[k] + i] ^ 0x01);
      expect_same_outcome(text, "island " + std::to_string(k) + " byte " +
                                    std::to_string(i) + " flipped");
      EXPECT_TRUE(restore(text, /*parallel=*/true).error);
    }
    // The close line twice.
    std::string text = state;
    text.insert(ends[k], "# end island\n");
    expect_same_outcome(text, "island " + std::to_string(k) + " closed twice");
    EXPECT_EQ(restore(text, /*parallel=*/true).error.code,
              Error::Code::kParse);
  }
}

}  // namespace
}  // namespace ccfuzz::fuzz
