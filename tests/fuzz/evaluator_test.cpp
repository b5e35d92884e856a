// Tests for the TraceEvaluator (simulation + scoring glue).
#include "fuzz/evaluator.h"

#include <gtest/gtest.h>

#include "cca/registry.h"
#include "trace/mutation.h"
#include "util/rng.h"

namespace ccfuzz::fuzz {
namespace {

TraceEvaluator make_evaluator(const char* cca = "reno") {
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(3);
  return TraceEvaluator(cfg, cca::make_factory(cca),
                        std::make_shared<LowUtilizationScore>(),
                        TraceScoreWeights{.per_packet = 1e-4, .per_drop = 1e-3});
}

TEST(TraceEvaluator, EmptyTraceGivesCleanRun) {
  auto ev = make_evaluator();
  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = TimeNs::seconds(3);
  const Evaluation e = ev.evaluate(t);
  EXPECT_GT(e.goodput_mbps, 9.0);
  EXPECT_EQ(e.cross_sent, 0);
  EXPECT_DOUBLE_EQ(e.score.trace, 0.0);
  EXPECT_FALSE(e.stalled);
}

TEST(TraceEvaluator, DeterministicEvaluation) {
  auto ev = make_evaluator();
  Rng rng(3);
  trace::TrafficTraceModel model;
  model.duration = TimeNs::seconds(3);
  model.max_packets = 1000;
  const trace::Trace t = model.generate(rng);
  const Evaluation a = ev.evaluate(t);
  const Evaluation b = ev.evaluate(t);
  EXPECT_DOUBLE_EQ(a.score.total(), b.score.total());
  EXPECT_EQ(a.cca_sent, b.cca_sent);
  EXPECT_EQ(a.cross_drops, b.cross_drops);
}

TEST(TraceEvaluator, TraceScorePenalizesHeavyTraffic) {
  auto ev = make_evaluator();
  trace::Trace light, heavy;
  light.kind = heavy.kind = trace::TraceKind::kTraffic;
  light.duration = heavy.duration = TimeNs::seconds(3);
  for (int i = 0; i < 10; ++i) light.stamps.emplace_back(TimeNs::millis(i));
  for (int i = 0; i < 2000; ++i) {
    heavy.stamps.emplace_back(TimeNs::millis(i));
  }
  const Evaluation el = ev.evaluate(light);
  const Evaluation eh = ev.evaluate(heavy);
  EXPECT_GT(el.score.trace, eh.score.trace);
}

TEST(TraceEvaluator, RunFullExposesRecorder) {
  auto ev = make_evaluator();
  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = TimeNs::seconds(3);
  const auto run = ev.run_full(t);
  EXPECT_FALSE(run.recorder.egress().empty());
}

TEST(TraceEvaluator, SummaryFieldsPopulated) {
  auto ev = make_evaluator();
  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = TimeNs::seconds(3);
  for (int i = 0; i < 500; ++i) t.stamps.emplace_back(TimeNs::millis(2 * i));
  const Evaluation e = ev.evaluate(t);
  EXPECT_GT(e.cca_sent, 0);
  EXPECT_GT(e.cca_delivered, 0);
  EXPECT_EQ(e.cross_sent, 500);
  EXPECT_GE(e.p10_delay_s, 0.0);
}

std::vector<trace::Trace> batch_traces(int n) {
  trace::TrafficTraceModel model;
  model.max_packets = 300;
  model.duration = TimeNs::seconds(3);
  Rng rng(17);
  std::vector<trace::Trace> ts;
  for (int i = 0; i < n; ++i) ts.push_back(model.generate(rng));
  return ts;
}

/// Evaluates every trace under `ev` as one batch.
std::vector<Evaluation> batch_of(const TraceEvaluator& ev,
                                 const std::vector<trace::Trace>& ts,
                                 bool parallel) {
  std::vector<Evaluation> out(ts.size());
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    items.push_back({&ev, &ts[i], &out[i]});
  }
  evaluate_batch(items, parallel);
  return out;
}

TEST(TraceEvaluator, BatchMatchesElementwiseEvaluate) {
  auto ev = make_evaluator();
  const auto ts = batch_traces(6);
  const auto batch = batch_of(ev, ts, /*parallel=*/true);
  ASSERT_EQ(batch.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Evaluation single = ev.evaluate(ts[i]);
    EXPECT_DOUBLE_EQ(batch[i].score.total(), single.score.total());
    EXPECT_EQ(batch[i].cca_sent, single.cca_sent);
    EXPECT_EQ(batch[i].rto_count, single.rto_count);
  }
}

TEST(TraceEvaluator, BatchDeterministicAcrossCallsAndParallelism) {
  auto ev = make_evaluator();
  const auto ts = batch_traces(8);
  const auto a = batch_of(ev, ts, /*parallel=*/true);
  const auto b = batch_of(ev, ts, /*parallel=*/true);
  const auto serial = batch_of(ev, ts, /*parallel=*/false);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].score.total(), b[i].score.total());
    EXPECT_DOUBLE_EQ(a[i].score.total(), serial[i].score.total());
    EXPECT_EQ(a[i].cca_sent, serial[i].cca_sent);
  }
}

TEST(EvaluateBatch, MixedEvaluatorsLandByIndex) {
  auto reno = make_evaluator("reno");
  auto bbr = make_evaluator("bbr");
  const auto ts = batch_traces(4);
  std::vector<Evaluation> out(2 * ts.size());
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    items.push_back({&reno, &ts[i], &out[2 * i]});
    items.push_back({&bbr, &ts[i], &out[2 * i + 1]});
  }
  evaluate_batch(items);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[2 * i].score.total(),
                     reno.evaluate(ts[i]).score.total());
    EXPECT_DOUBLE_EQ(out[2 * i + 1].score.total(),
                     bbr.evaluate(ts[i]).score.total());
  }
}

TEST(EvaluateBatch, EmptyBatchIsANoop) {
  evaluate_batch({});
  evaluate_batch({}, /*parallel=*/false);
}

}  // namespace
}  // namespace ccfuzz::fuzz
