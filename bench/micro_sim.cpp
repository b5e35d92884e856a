// Micro-benchmarks for the simulation substrate: event throughput, full
// dumbbell simulation speed, trace generation, and the BBR bandwidth
// filter. These quantify why simulation-based fuzzing parallelizes well
// (paper §3.6).
#include <benchmark/benchmark.h>

#include <deque>

#include "cca/registry.h"
#include "scenario/runner.h"
#include "sim/simulator.h"
#include "trace/dist_packets.h"
#include "util/rng.h"
#include "util/windowed_filter.h"

using namespace ccfuzz;

namespace {

void BM_EventQueueChurn(benchmark::State& state) {
  // Steady-state event churn, matching how production drives the core since
  // scenario::RunContext landed: a warm simulator reused across runs, a
  // bounded live set of near events (packet transmissions/deliveries), an
  // RTO-style far-future sim::Timer re-armed every tenth step, and
  // run_until() stepping the clock. Before the reusable contexts, every
  // run_scenario() hit a cold queue — that profile is kept as
  // BM_EventQueueChurnCold below.
  sim::Simulator sim;
  std::int64_t fired = 0;
  sim::Timer timer(sim, [&fired] { ++fired; });
  for (auto _ : state) {
    sim.reset();
    for (int i = 0; i < 100; ++i) {
      sim.schedule_in(DurationNs::micros(i), [&fired] { ++fired; });
    }
    for (int i = 0; i < 9'800; ++i) {
      sim.run_until(sim.now() + DurationNs::micros(1));
      sim.schedule_in(DurationNs::micros(100), [&fired] { ++fired; });
      if (i % 10 == 0) timer.arm(DurationNs::millis(1));
    }
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueChurn);

void BM_EventQueueChurnCold(benchmark::State& state) {
  // Cold-queue bulk churn: 10k events scheduled up front into a fresh
  // simulator, then drained. This was the pre-RunContext production profile
  // (and the original BM_EventQueueChurn body).
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_in(DurationNs::micros((i * 37) % 1000),
                      [&fired] { ++fired; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueChurnCold);

void BM_TimerRearmHeavy(benchmark::State& state) {
  // RTO-heavy churn: every simulated "ACK" re-arms one of 16 flows' RTO
  // timers a full second out, on top of the steady near-event churn, the way
  // TcpSender re-arms its RTO through sim::Timer::arm. Virtually none of the
  // far timers survive to their expiry. A re-arm a second out only moves
  // the timer's key, so the heap holds the near events plus one handle per
  // flow.
  sim::Simulator sim;
  constexpr int kFlows = 16;
  std::int64_t fired = 0;
  std::deque<sim::Timer> rto;
  for (int f = 0; f < kFlows; ++f) rto.emplace_back(sim, [&fired] { ++fired; });
  for (auto _ : state) {
    sim.reset();
    for (int i = 0; i < 100; ++i) {
      sim.schedule_in(DurationNs::micros(i), [&fired] { ++fired; });
    }
    for (int i = 0; i < 9'800; ++i) {
      sim.run_until(sim.now() + DurationNs::micros(1));
      sim.schedule_in(DurationNs::micros(100), [&fired] { ++fired; });
      rto[i % kFlows].arm(DurationNs::seconds(1));
    }
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_TimerRearmHeavy);

void BM_DumbbellSimulatedSecond(benchmark::State& state) {
  // Cost of one simulated second of a full Reno-over-dumbbell run — the
  // GA's unit of work (~5 of these per trace evaluation).
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(1);
  const auto factory = cca::make_factory("reno");
  for (auto _ : state) {
    const auto run = scenario::run_scenario(cfg, factory, {});
    benchmark::DoNotOptimize(run.primary().segments_delivered);
  }
}
BENCHMARK(BM_DumbbellSimulatedSecond);

void BM_DumbbellBbrSimulatedSecond(benchmark::State& state) {
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(1);
  const auto factory = cca::make_factory("bbr");
  for (auto _ : state) {
    const auto run = scenario::run_scenario(cfg, factory, {});
    benchmark::DoNotOptimize(run.primary().segments_delivered);
  }
}
BENCHMARK(BM_DumbbellBbrSimulatedSecond);

void BM_Dumbbell4FlowSimulatedSecond(benchmark::State& state) {
  // The fairness-mode unit of work: four competing Reno flows sharing the
  // bottleneck for one simulated second, metrics-only like the GA runs it.
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(1);
  cfg.flows.resize(4);
  const auto factory = cca::make_factory("reno");
  for (auto _ : state) {
    const auto run = scenario::run_scenario(cfg, factory, {});
    benchmark::DoNotOptimize(run.primary().segments_delivered);
  }
}
BENCHMARK(BM_Dumbbell4FlowSimulatedSecond);

void BM_Dumbbell16FlowSimulatedSecond(benchmark::State& state) {
  // Incast-scale timer pressure: sixteen competing flows re-arm sixteen RTO
  // timers on every ACK while the shared bottleneck multiplies the
  // near-event churn.
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(1);
  cfg.flows.resize(16);
  const auto factory = cca::make_factory("reno");
  for (auto _ : state) {
    const auto run = scenario::run_scenario(cfg, factory, {});
    benchmark::DoNotOptimize(run.primary().segments_delivered);
  }
}
BENCHMARK(BM_Dumbbell16FlowSimulatedSecond);

void BM_DumbbellCrossTrafficSimulatedSecond(benchmark::State& state) {
  // Traffic fuzzing's unit of work: Reno against a fixed-seed DistPackets
  // cross-traffic trace at the campaign's initial density (1500 packets per
  // 5 s), so the injection lane and the bursts it leaves in the bottleneck
  // queue are timed. Every other dumbbell bench runs an empty trace.
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(1);
  cfg.mode = scenario::FuzzMode::kTraffic;
  Rng rng(7);
  const auto trace =
      trace::dist_packets(300, TimeNs::zero(), cfg.duration, rng);
  const auto factory = cca::make_factory("reno");
  for (auto _ : state) {
    const auto run = scenario::run_scenario(cfg, factory, trace);
    benchmark::DoNotOptimize(run.primary().segments_delivered);
  }
}
BENCHMARK(BM_DumbbellCrossTrafficSimulatedSecond);

void BM_DumbbellFullEventsSimulatedSecond(benchmark::State& state) {
  // The figure/replay configuration: identical run with the raw per-packet
  // event vectors recorded and copied into the result. The delta against
  // BM_DumbbellSimulatedSecond is what metrics-only fuzzing saves per run.
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(1);
  cfg.record_mode = scenario::RecordMode::kFullEvents;
  const auto factory = cca::make_factory("reno");
  for (auto _ : state) {
    const auto run = scenario::run_scenario(cfg, factory, {});
    benchmark::DoNotOptimize(run.primary().segments_delivered);
  }
}
BENCHMARK(BM_DumbbellFullEventsSimulatedSecond);

void BM_DistPackets5000(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    auto stamps =
        trace::dist_packets(5000, TimeNs::zero(), TimeNs::seconds(5), rng);
    benchmark::DoNotOptimize(stamps.data());
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_DistPackets5000);

void BM_WindowedMaxFilter(benchmark::State& state) {
  WindowedMax<double, std::int64_t> filter(10);
  std::int64_t round = 0;
  double v = 100.0;
  for (auto _ : state) {
    v = v * 1.000001 + 1.0;
    benchmark::DoNotOptimize(filter.update(v, ++round));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedMaxFilter);

}  // namespace

BENCHMARK_MAIN();
