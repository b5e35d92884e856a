// Proves the simulation hot path is allocation-free in steady state: once
// the event heap and the delay pipes' in-flight rings have reached their
// high-water marks, timer arms and re-arms, runs and packet movement
// through the pipe lanes never touch the allocator.
//
// The global operator new/delete replacements below count every allocation
// in this test binary; gtest runs each TEST in its own process under ctest,
// so the counter is only observed by this file's tests.
#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "cca/fixed_window.h"
#include "cca/registry.h"
#include "fuzz/elite_archive.h"
#include "fuzz/evaluator.h"
#include "fuzz/score.h"
#include "../net/sinks.h"
#include "net/delay_pipe.h"
#include "../scenario/dumbbell_rig.h"
#include "scenario/runner.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"
#include "trace/mutation.h"
#include "util/recycle.h"
#include "util/rng.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
// The deletes stay out of line: inlined into a caller that also calls the
// replaced operator new, GCC would see std::free() release what operator new
// returned and warn (-Wmismatched-new-delete), though the pairs match.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ccfuzz::sim {
namespace {

/// Dumbbell-shaped churn over the event sources a run uses: 64 one-shot
/// timers armed once per round, a DelayPipe lane carrying the near events,
/// a re-armed far timer, and interleaved clock stepping. The timers and the
/// pipe are built once, outside any measured round.
class Churn {
 public:
  explicit Churn(Simulator& sim) : sim_(sim) {
    for (int i = 0; i < 64; ++i) shots_.emplace_back(sim_, [this] { ++fired_; });
  }

  void round() {
    fired_ = 0;
    for (std::size_t i = 0; i < shots_.size(); ++i) {
      shots_[i].arm(DurationNs::micros(static_cast<std::int64_t>(i)));
    }
    for (int i = 0; i < 2'000; ++i) {
      sim_.run_until(sim_.now() + DurationNs::micros(1));
      pipe_.receive(net::Packet{});
      if (i % 8 == 0) rto_.arm(DurationNs::millis(1));
    }
    sim_.run_all();
    ASSERT_EQ(fired_, 64 + 2'000 + 1);
  }

 private:
  void on_delivery(net::Packet&&) { ++fired_; }

  Simulator& sim_;
  std::int64_t fired_ = 0;
  net::PortSink<Churn, &Churn::on_delivery> delivery_{*this};
  net::DelayPipe pipe_{sim_, DurationNs::micros(64), delivery_};
  Timer rto_{sim_, [this] { ++fired_; }};
  std::deque<Timer> shots_;
};

TEST(SteadyStateAllocation, EventQueueScheduleNeverAllocatesWhenWarm) {
  Simulator sim;
  Churn churn(sim);
  churn.round();  // reach the heap and pipe-ring high-water marks
  sim.reset();

  const std::size_t before = g_allocations.load();
  churn.round();
  EXPECT_EQ(g_allocations.load(), before)
      << "warm timer arm/re-arm, pipe send and run_until must not allocate";
}

TEST(SteadyStateAllocation, DelayPipeReusesRingSlots) {
  Simulator sim;
  std::int64_t delivered = 0;
  net::FnSink count([&delivered](net::Packet&&) { ++delivered; });
  net::DelayPipe pipe(sim, DurationNs::millis(1), count);

  auto round = [&] {
    for (int i = 0; i < 200; ++i) {
      net::Packet p;
      p.id = static_cast<std::uint64_t>(i);
      pipe.receive(std::move(p));
      sim.run_until(sim.now() + DurationNs::micros(100));
    }
    sim.run_all();
  };
  round();  // warm ring + heap
  sim.reset();

  const std::size_t before = g_allocations.load();
  round();
  EXPECT_EQ(g_allocations.load(), before)
      << "packet flight through a warm pipe must not allocate";
  EXPECT_EQ(delivered, 400);
  EXPECT_EQ(pipe.in_flight(), 0);
}

TEST(SteadyStateAllocation, SenderSegmentRingNeverAllocatesWhenWarm) {
  // A sender wired straight to a receiver through two delay pipes: once
  // the seq-keyed segment ring has grown to the flow's in-flight high-water
  // mark (and the event heap and pipe rings are warm), continued ack-clocked sending
  // must not touch the allocator — the deque predecessor allocated a chunk
  // every few segments forever.
  Simulator sim;
  // The loop closes at the receiver, which is built last.
  tcp::TcpReceiver* receiver_ptr = nullptr;
  net::FnSink to_receiver(
      [&receiver_ptr](net::Packet&& p) { receiver_ptr->receive(std::move(p)); });
  net::DelayPipe data_pipe(sim, DurationNs::millis(10), to_receiver);
  tcp::TcpSender sender(sim, tcp::TcpSender::Config{},
                        std::make_unique<cca::FixedWindow>(40), data_pipe);
  net::DelayPipe ack_pipe(sim, DurationNs::millis(10), sender);
  tcp::TcpReceiver receiver(sim, tcp::TcpReceiver::Config{}, ack_pipe);
  receiver_ptr = &receiver;

  sender.start(TimeNs::zero());
  // Segment ring/slab/pipe ring high-water mark: the whole window leaves at
  // once, so one one-way delay (10 ms, until the first ACKs enter their
  // pipe) is the shortest whole-millisecond warm-up after which nothing
  // allocates. A timer that filed a new heap handle on every delayed-ACK
  // re-arm would grow the heap past this point and fail the test.
  sim.run_until(TimeNs::millis(10));

  const std::size_t before = g_allocations.load();
  const std::int64_t sent_before = sender.total_sent();
  sim.run_until(TimeNs::seconds(9));
  EXPECT_EQ(g_allocations.load(), before)
      << "warm ack-clocked sending must not allocate";
  EXPECT_GT(sender.total_sent(), sent_before + 1000);
  EXPECT_EQ(sender.total_retransmissions(), 0);
}

TEST(SteadyStateAllocation, FourFlowScenarioSteadyStateIsAllocationFree) {
  // A 4-flow dumbbell on warm RunContext-style buffers: after one full run
  // (slab/recorder high-water marks) and the new run's slow-start
  // transient (fresh senders grow their segment rings once), the multi-flow
  // simulation loop proper allocates nothing.
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(3);
  cfg.net.queue_capacity = 500;  // 4 × rwnd (87) fits: lossless steady state
  cfg.flows.resize(4);
  const auto factory = cca::make_factory("reno");

  scenario::DumbbellRig rig;
  auto run_once = [&](TimeNs measure_from) {
    rig.sim.reset();
    // Arm every run guard (generously — no golden run hits them): the
    // budget checks must stay branch-only, never allocating per event.
    Budget budget;
    budget.max_events = 1'000'000'000ull;
    budget.max_wall_time = DurationNs::seconds(300);
    rig.sim.arm_budget(budget);
    rig.recorder.clear();
    // A fresh Dumbbell (queue, links, pipes, senders, metrics) per run, over
    // the rig's warm simulator and recorder.
    analysis::StreamingMetrics metrics;
    scenario::Dumbbell db(rig.sim, rig.recorder, metrics);
    db.setup(cfg, factory, {});
    db.start();
    rig.sim.run_until(measure_from);
    const std::size_t before = g_allocations.load();
    rig.sim.run_until(cfg.duration);
    const std::size_t after = g_allocations.load();
    std::int64_t delivered = 0;
    for (std::size_t i = 0; i < db.flow_count(); ++i) {
      delivered += db.receiver(i).segments_received();
    }
    EXPECT_GT(delivered, 1000);
    EXPECT_EQ(db.queue().stats().total_dropped(), 0);
    return after - before;
  };

  run_once(cfg.duration);  // warm everything: slab, recorder vectors
  const std::size_t steady = run_once(TimeNs::seconds(1));
  EXPECT_EQ(steady, 0u)
      << "4-flow steady state (post slow-start) must not allocate";
}

TEST(SteadyStateAllocation, EvaluateBatchGenerationIsAllocationFree) {
  // The ISSUE-4 acceptance bar: one full GA evaluation batch — run the
  // simulation end to end, score it, summarize into Evaluations — on a warm
  // thread context in metrics-only mode performs ZERO heap allocations.
  // This covers the whole pipeline: trace ingestion, Dumbbell component
  // reuse (queue/link/pipes/senders/receivers reset in place), recycled CCA
  // instances, lossy-run receiver reordering on flat buffers, streaming
  // metrics, scoring from incremental aggregates, and the result handoff
  // through the context-owned RunResult.
  if (!util::kRecycleEnabled) {
    GTEST_SKIP() << "CCA recycling is bypassed in sanitized builds";
  }
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  // Guards armed (generously, never hit): the budget checks on the event
  // loop must not cost an allocation on the warm path either.
  cfg.budget.max_events = 1'000'000'000ull;
  cfg.budget.max_wall_time = DurationNs::seconds(300);
  fuzz::TraceEvaluator evaluator(
      cfg, cca::make_factory("reno"),
      std::make_shared<fuzz::LowUtilizationScore>(),
      fuzz::TraceScoreWeights{.per_packet = 1e-4, .per_drop = 1e-3});

  trace::TrafficTraceModel model;
  model.duration = cfg.duration;
  model.max_packets = 1200;
  Rng rng(29);
  std::vector<trace::Trace> traces;
  for (int i = 0; i < 8; ++i) traces.push_back(model.generate(rng));

  std::vector<fuzz::Evaluation> out(traces.size());
  std::vector<fuzz::BatchItem> items(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    items[i] = {&evaluator, &traces[i], &out[i]};
  }

  // Two warm-up generations: the first takes every buffer (slab, pipe rings,
  // segment rings, reorder buffers, metric bins, Evaluation vectors) to its
  // high-water mark across the whole batch.
  fuzz::evaluate_batch(items, /*parallel=*/false);
  fuzz::evaluate_batch(items, /*parallel=*/false);

  const std::size_t before = g_allocations.load();
  fuzz::evaluate_batch(items, /*parallel=*/false);
  EXPECT_EQ(g_allocations.load(), before)
      << "a warm metrics-only evaluation generation must not allocate";

  // The generation really simulated: adversarial traffic induced losses and
  // the scores moved away from the clean-link value.
  EXPECT_GT(out.front().cca_sent, 0);
  std::int64_t drops = 0;
  for (const auto& e : out) drops += e.cca_drops;
  EXPECT_GT(drops, 0) << "warm-path coverage needs lossy runs";
}

TEST(SteadyStateAllocation, AlternatingCellBatchIsAllocationFreeWhenWarm) {
  // The cross-cell campaign pattern: one worker thread alternates between
  // cells whose ScenarioConfigs have wildly different shapes — single-flow
  // vs 4-flow with staggered starts, different CCAs, a different metrics
  // window. Both evaluators share the worker's one warm RunContext, whose
  // buffers keep the high-water mark of every shape they have held, so
  // interleaving them reshapes nothing: a warm mixed generation performs
  // zero heap allocations, exactly like a homogeneous one.
  if (!util::kRecycleEnabled) {
    GTEST_SKIP() << "CCA recycling is bypassed in sanitized builds";
  }
  scenario::ScenarioConfig single;
  single.duration = TimeNs::seconds(2);
  fuzz::TraceEvaluator eval_single(single, cca::make_factory("reno"),
                                   std::make_shared<fuzz::LowUtilizationScore>());

  scenario::ScenarioConfig multi;
  multi.duration = TimeNs::seconds(2);
  multi.metrics_window = DurationNs::millis(250);
  multi.flows.resize(4);
  multi.flows[1].cca = "cubic";
  multi.flows[1].start = TimeNs::millis(250);
  multi.flows[2].cca = "bbr";
  multi.flows[2].start = TimeNs::millis(500);
  multi.flows[3].start = TimeNs::millis(750);
  fuzz::TraceEvaluator eval_multi(multi, cca::make_factory("reno"),
                                  std::make_shared<fuzz::JainFairnessScore>());

  trace::TrafficTraceModel model;
  model.duration = TimeNs::seconds(2);
  model.max_packets = 800;
  Rng rng(37);
  std::vector<trace::Trace> traces;
  for (int i = 0; i < 6; ++i) traces.push_back(model.generate(rng));

  // An interleaved batch: single, multi, single, multi, ...
  std::vector<fuzz::Evaluation> out(traces.size());
  std::vector<fuzz::BatchItem> items(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    items[i] = {i % 2 == 0 ? &eval_single : &eval_multi, &traces[i], &out[i]};
  }

  fuzz::evaluate_batch(items, /*parallel=*/false);
  fuzz::evaluate_batch(items, /*parallel=*/false);

  const std::size_t before = g_allocations.load();
  fuzz::evaluate_batch(items, /*parallel=*/false);
  EXPECT_EQ(g_allocations.load(), before)
      << "a warm alternating-cell generation must not allocate";

  EXPECT_EQ(out[0].flow_goodput_mbps.size(), 1u);
  EXPECT_EQ(out[1].flow_goodput_mbps.size(), 4u);
  EXPECT_GT(out[1].cca_sent, 0);
}

TEST(SteadyStateAllocation, MapElitesGenerationIsAllocationFreeWhenWarm) {
  // Coverage-guided cells ride the same zero-allocation hot path: with the
  // behavior probe armed, a warm generation — evaluate the batch (probe
  // accumulation included) and offer every member to the MAP-Elites archive
  // — performs zero heap allocations. The probe is fixed-size state inside
  // the context-owned RunResult; archive replacement copy-assigns into the
  // incumbent cell's buffers, so once genome sizes and Evaluation vectors
  // have hit their high-water marks nothing touches the allocator.
  if (!util::kRecycleEnabled) {
    GTEST_SKIP() << "CCA recycling is bypassed in sanitized builds";
  }
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.coverage = true;
  fuzz::TraceEvaluator evaluator(
      cfg, cca::make_factory("reno"),
      std::make_shared<fuzz::LowUtilizationScore>(),
      fuzz::TraceScoreWeights{.per_packet = 1e-4, .per_drop = 1e-3});

  trace::TrafficTraceModel model;
  model.duration = cfg.duration;
  model.max_packets = 1000;
  model.initial_packets = 1000;  // fixed-size genomes: warm inserts reuse
  Rng rng(43);
  std::vector<trace::Trace> traces;
  for (int i = 0; i < 8; ++i) traces.push_back(model.generate(rng));

  std::vector<fuzz::Evaluation> out(traces.size());
  std::vector<fuzz::BatchItem> items(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    items[i] = {&evaluator, &traces[i], &out[i]};
  }
  fuzz::EliteArchive archive;

  auto generation = [&](double score_shift) {
    fuzz::evaluate_batch(items, /*parallel=*/false);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      // Shift scores so later rounds displace incumbents: replacement (the
      // genome + Evaluation copy into the cell) is the allocating candidate,
      // not the no-op tie path.
      out[i].score.performance += score_shift;
      archive.insert(traces[i], out[i]);
    }
  };

  generation(0.0);  // warm: contexts, probe, archive cells
  generation(1.0);  // warm the replacement path too

  const std::size_t before = g_allocations.load();
  generation(2.0);
  EXPECT_EQ(g_allocations.load(), before)
      << "a warm MAP-Elites generation (probe + archive insert) must not "
         "allocate";

  EXPECT_GT(archive.filled(), 0u);
  EXPECT_GT(archive.union_bits(), 0u);
  ASSERT_TRUE(out.front().coverage.valid);
  EXPECT_GT(out.front().coverage.bits, 0u);
}

TEST(SteadyStateAllocation, MultiFlowEvaluateIsAllocationFreeWhenWarm) {
  // Fairness-mode cells run multi-flow scenarios through the same path; a
  // 2-flow late-starter evaluation must be allocation-free too once warm.
  if (!util::kRecycleEnabled) {
    GTEST_SKIP() << "CCA recycling is bypassed in sanitized builds";
  }
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.flows.resize(2);
  cfg.flows[1].start = TimeNs::millis(500);
  fuzz::TraceEvaluator evaluator(cfg, cca::make_factory("reno"),
                                 std::make_shared<fuzz::JainFairnessScore>());

  trace::TrafficTraceModel model;
  model.duration = cfg.duration;
  model.max_packets = 600;
  Rng rng(31);
  const trace::Trace t = model.generate(rng);

  fuzz::Evaluation e;
  evaluator.evaluate_into(t, e);
  evaluator.evaluate_into(t, e);

  const std::size_t before = g_allocations.load();
  evaluator.evaluate_into(t, e);
  EXPECT_EQ(g_allocations.load(), before)
      << "warm 2-flow fairness evaluation must not allocate";
  EXPECT_EQ(e.flow_goodput_mbps.size(), 2u);
}

}  // namespace
}  // namespace ccfuzz::sim
