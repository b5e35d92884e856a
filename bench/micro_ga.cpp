// Micro-benchmarks for the GA machinery: trace evolution operators, rank
// selection, per-member evaluation and elite-archive inserts (evaluation
// dominates; operators must be noise). Whole GA generations are timed end
// to end by the campaign benchmark (benchmark/, `matrix` workload).
#include <benchmark/benchmark.h>

#include <memory>

#include "campaign/campaign.h"
#include "fuzz/elite_archive.h"
#include "fuzz/selection.h"

using namespace ccfuzz;

namespace {

trace::TrafficTraceModel traffic_model() {
  trace::TrafficTraceModel m;
  m.max_packets = 3000;
  m.duration = TimeNs::seconds(5);
  return m;
}

void BM_TrafficMutation(benchmark::State& state) {
  const auto model = traffic_model();
  Rng rng(3);
  trace::Trace t = model.generate(rng);
  for (auto _ : state) {
    t = model.mutate(t, rng);
    benchmark::DoNotOptimize(t.stamps.data());
  }
}
BENCHMARK(BM_TrafficMutation);

void BM_TrafficCrossover(benchmark::State& state) {
  const auto model = traffic_model();
  Rng rng(5);
  const trace::Trace a = model.generate(rng);
  const trace::Trace b = model.generate(rng);
  for (auto _ : state) {
    auto child = model.crossover(a, b, rng);
    benchmark::DoNotOptimize(child.stamps.data());
  }
}
BENCHMARK(BM_TrafficCrossover);

void BM_RankSelection(benchmark::State& state) {
  fuzz::RankSelector sel(500);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.pick(rng));
  }
}
BENCHMARK(BM_RankSelection);

void BM_EvaluateBatch(benchmark::State& state) {
  // The number the GA actually pays per member: mutate a genome, run the
  // 2 s simulation on the warm thread context, score it and summarize —
  // serial, so the per-evaluation cost is visible (the campaign scheduler
  // fans the same work out over the pool). Steady state allocates nothing
  // (tests/sim/steady_state_alloc_test.cpp pins that).
  constexpr std::size_t kBatch = 8;
  const auto model = traffic_model();
  campaign::CellConfig cell;
  cell.cca = "reno";
  cell.scenario.duration = TimeNs::seconds(2);
  const fuzz::TraceEvaluator evaluator = campaign::make_evaluator(cell);

  Rng rng(13);
  std::vector<trace::Trace> traces;
  traces.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) traces.push_back(model.generate(rng));
  std::vector<fuzz::Evaluation> out(kBatch);
  std::vector<fuzz::BatchItem> items(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    items[i] = {&evaluator, &traces[i], &out[i]};
  }

  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      traces[i] = model.mutate(traces[i], rng);
    }
    fuzz::evaluate_batch(items, /*parallel=*/false);
    benchmark::DoNotOptimize(out.front().score.performance);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EvaluateBatch)->Unit(benchmark::kMillisecond);

void BM_EliteArchive(benchmark::State& state) {
  // Warm-archive insert throughput on the worst-case path: synthetic
  // signatures spread across many lattice cells, and every offer strictly
  // outscores the incumbent so each insert pays the full union-map merge
  // plus genome/eval copy-assign into the cell (zero allocations once the
  // genome high-water mark is reached — the steady-state test pins that).
  constexpr std::size_t kPool = 256;
  const auto model = traffic_model();
  Rng rng(17);
  std::vector<trace::Trace> genomes;
  genomes.reserve(kPool);
  std::vector<fuzz::Evaluation> evals(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    genomes.push_back(model.generate(rng));
    fuzz::Evaluation& e = evals[i];
    auto& sig = e.coverage;
    sig.valid = true;
    sig.descriptor.state_transitions = static_cast<std::uint8_t>(i % 16);
    sig.descriptor.rtt_spread = static_cast<std::uint8_t>((i / 16) % 16);
    sig.descriptor.max_backoff = static_cast<std::uint8_t>(i % 5);
    sig.descriptor.cwnd_span = static_cast<std::uint8_t>((i * 7) % 16);
    for (std::size_t k = 0; k < 32; ++k) {
      sig.bitmap.set((i * 37 + k * 59) % coverage::CoverageBitmap::kBits);
    }
    sig.bits = sig.bitmap.count();
  }

  fuzz::EliteArchive archive;
  for (std::size_t i = 0; i < kPool; ++i) archive.insert(genomes[i], evals[i]);

  for (auto _ : state) {
    for (std::size_t i = 0; i < kPool; ++i) {
      evals[i].score.performance += 1.0;  // strict improvement every offer
      benchmark::DoNotOptimize(archive.insert(genomes[i], evals[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * kPool);
}
BENCHMARK(BM_EliteArchive);

}  // namespace

BENCHMARK_MAIN();
