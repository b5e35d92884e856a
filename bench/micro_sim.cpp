// Micro-benchmarks for the simulation substrate: event throughput, full
// dumbbell simulation speed, trace generation, and the BBR bandwidth
// filter. These quantify why simulation-based fuzzing parallelizes well
// (paper §3.6).
#include <benchmark/benchmark.h>

#include <deque>

#include "cca/registry.h"
#include "net/delay_pipe.h"
#include "scenario/runner.h"
#include "sim/simulator.h"
#include "trace/dist_packets.h"
#include "util/rng.h"
#include "util/windowed_filter.h"

using namespace ccfuzz;

namespace {

/// Counts the packets a DelayPipe delivers.
class CountSink final : public net::PacketSink {
 public:
  void receive(net::Packet&&) override { ++delivered; }
  std::int64_t delivered = 0;
};

void BM_EventQueueChurn(benchmark::State& state) {
  // Steady-state event churn on the event sources a dumbbell run uses: a
  // warm simulator reused across runs, a DelayPipe lane carrying the near
  // events (one packet per simulated microsecond, 100 in flight), 16
  // pacing timers that each re-arm from their own expiry, an RTO-style
  // far-future sim::Timer re-armed every tenth step, and run_until()
  // stepping the clock. The cold-queue profile is BM_EventQueueChurnCold
  // below.
  sim::Simulator sim;
  CountSink sink;
  net::DelayPipe pipe(sim, DurationNs::micros(100), sink);
  std::int64_t fired = 0;
  sim::Timer rto(sim, [&fired] { ++fired; });
  std::deque<sim::Timer> pacing;
  for (int f = 0; f < 16; ++f) {
    const DurationNs period = DurationNs::micros(10 + f);
    pacing.emplace_back(sim, [&fired, &pacing, f, period] {
      ++fired;
      pacing[f].arm(period);
    });
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim.reset();
    for (auto& t : pacing) t.arm(DurationNs::zero());
    for (int i = 0; i < 9'800; ++i) {
      sim.run_until(sim.now() + DurationNs::micros(1));
      pipe.receive(net::Packet{});
      if (i % 10 == 0) rto.arm(DurationNs::millis(1));
    }
    sim.run_until(sim.now() + DurationNs::micros(100));
    events += sim.events_executed();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueChurn);

void BM_EventQueueChurnCold(benchmark::State& state) {
  // Cold-queue churn: each iteration builds a fresh simulator with four
  // DelayPipes (1 us to 1 ms) and a feeder timer that re-arms every
  // microsecond and sends one packet down the next pipe, 10k sends in all,
  // then drains. The heap, the lane table and the pipe rings all grow from
  // empty, as in the first run of a fresh scenario::RunContext.
  for (auto _ : state) {
    sim::Simulator sim;
    CountSink sink;
    std::deque<net::DelayPipe> pipes;
    for (const std::int64_t us : {1, 10, 100, 1000}) {
      pipes.emplace_back(sim, DurationNs::micros(us), sink);
    }
    int sent = 0;
    sim::Timer feeder(sim, [&] {
      pipes[static_cast<std::size_t>(sent % 4)].receive(net::Packet{});
      if (++sent < 10'000) feeder.arm(DurationNs::micros(1));
    });
    feeder.arm(DurationNs::zero());
    sim.run_all();
    benchmark::DoNotOptimize(sink.delivered);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_EventQueueChurnCold);

void BM_TimerRearmHeavy(benchmark::State& state) {
  // RTO-heavy churn: every simulated "ACK" re-arms one of 16 flows' RTO
  // timers a full second out, on top of a DelayPipe's steady near-event
  // churn, the way TcpSender re-arms its RTO through sim::Timer::arm.
  // Virtually none of the far timers survive to their expiry. A re-arm a
  // second out only moves the timer's key, so the heap holds the pipe's
  // handle plus one handle per flow.
  sim::Simulator sim;
  CountSink sink;
  net::DelayPipe pipe(sim, DurationNs::micros(100), sink);
  constexpr int kFlows = 16;
  std::int64_t fired = 0;
  std::deque<sim::Timer> rto;
  for (int f = 0; f < kFlows; ++f) rto.emplace_back(sim, [&fired] { ++fired; });
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim.reset();
    for (int i = 0; i < 9'800; ++i) {
      sim.run_until(sim.now() + DurationNs::micros(1));
      pipe.receive(net::Packet{});
      rto[i % kFlows].arm(DurationNs::seconds(1));
    }
    sim.run_all();
    events += sim.events_executed();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
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
