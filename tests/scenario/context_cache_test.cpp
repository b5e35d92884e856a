// The per-thread RunContext cache is LRU-bounded: many-cell campaigns
// allocate one ContextKey per evaluator, and without a cap every worker
// would pin a warm context (slab + pool + recorder buffers) per cell
// forever. These tests pin the eviction/recreation contract.
#include <gtest/gtest.h>

#include "cca/registry.h"
#include "scenario/runner.h"
#include "trace/dist_packets.h"
#include "util/rng.h"

namespace ccfuzz::scenario {
namespace {

ScenarioConfig tiny_config() {
  ScenarioConfig cfg;
  cfg.duration = TimeNs::millis(200);
  return cfg;
}

std::vector<TimeNs> tiny_trace(TimeNs duration) {
  Rng rng(11);
  return trace::dist_packets(50, TimeNs::zero(), duration, rng);
}

/// Runs one evaluation on `key`'s warm context, returning packets sent.
std::int64_t run_on(ContextKey key) {
  const ScenarioConfig cfg = tiny_config();
  return thread_run_context(key)
      .run(cfg, cca::make_factory("reno"), tiny_trace(cfg.duration))
      .primary().sent;
}

class ContextCacheTest : public ::testing::Test {
 protected:
  // The cap is sticky thread-local state; isolate it from other tests that
  // may share this gtest worker thread.
  void SetUp() override { saved_ = thread_context_capacity(); }
  void TearDown() override { set_thread_context_capacity(saved_); }
  std::size_t saved_;
};

TEST_F(ContextCacheTest, EvictsLeastRecentlyUsedPastTheCap) {
  const ContextKey a = allocate_context_key();
  const ContextKey b = allocate_context_key();
  const ContextKey c = allocate_context_key();

  set_thread_context_capacity(2);
  const std::size_t base = thread_context_count();

  run_on(a);
  run_on(b);
  EXPECT_LE(thread_context_count(), 2u);
  RunContext* ctx_b = &thread_run_context(b);

  // Touch order is now (a, b): materializing c must evict a, not b.
  run_on(c);
  EXPECT_LE(thread_context_count(), 2u);
  EXPECT_EQ(&thread_run_context(b), ctx_b) << "recently-used context evicted";

  // The evicted key is transparently re-created and still evaluates
  // correctly — eviction costs warmth, never correctness.
  const std::int64_t sent = run_on(a);
  EXPECT_GT(sent, 0);
  EXPECT_EQ(sent, run_on(a));
  EXPECT_LE(thread_context_count(), 2u);
  (void)base;
}

TEST_F(ContextCacheTest, LoweringTheCapEvictsImmediately) {
  const ContextKey keys[4] = {allocate_context_key(), allocate_context_key(),
                              allocate_context_key(), allocate_context_key()};
  set_thread_context_capacity(8);
  for (const ContextKey k : keys) run_on(k);
  EXPECT_GE(thread_context_count(), 4u);

  set_thread_context_capacity(1);
  EXPECT_EQ(thread_context_count(), 1u);
  EXPECT_EQ(thread_context_capacity(), 1u);

  // A zero request clamps to 1: the active context must always fit.
  set_thread_context_capacity(0);
  EXPECT_EQ(thread_context_capacity(), 1u);
  EXPECT_GT(run_on(keys[0]), 0);
  EXPECT_EQ(thread_context_count(), 1u);
}

TEST_F(ContextCacheTest, EvictionPreservesDeterminism) {
  // A context rebuilt after eviction replays the exact run a never-evicted
  // warm context produces (the determinism contract does not depend on
  // cache residency).
  const ContextKey key = allocate_context_key();
  set_thread_context_capacity(64);
  const std::int64_t warm = run_on(key);

  set_thread_context_capacity(1);
  const ContextKey churn = allocate_context_key();
  run_on(churn);  // evicts `key`
  EXPECT_EQ(run_on(key), warm);
}

}  // namespace
}  // namespace ccfuzz::scenario
