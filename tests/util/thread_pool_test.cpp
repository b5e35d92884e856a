// Unit tests for the fork/join thread pool used by the parallel evaluator.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ccfuzz {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ResultsByIndexAreDeterministic) {
  ThreadPool pool(8);
  std::vector<std::uint64_t> out(500);
  pool.parallel_for(500, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, EmptyBatchReturnsImmediately) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SequentialBatchesDoNotInterfere) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 4950);
  sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> out(50, 0);
  pool.parallel_for(50, [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 50);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = global_thread_pool();
  ThreadPool& b = global_thread_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
}

TEST(ThreadPool, NestedWorkFromCallerThread) {
  // parallel_for must be callable repeatedly with work that itself takes
  // non-trivial time, without deadlocking.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(64, [&](std::size_t) {
      volatile double x = 1.0;
      for (int i = 0; i < 1000; ++i) x = x * 1.000001;
      total++;
    });
  }
  EXPECT_EQ(total.load(), 20 * 64);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A pool task that calls parallel_for on its own pool (a Fuzzer built or
  // stepped inside a pool task) must run the inner loop on its own thread
  // rather than wait for a batch that counts the caller's own task.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 16);
  std::atomic<int> moved{0};
  pool.parallel_for(8, [&](std::size_t i) {
    const std::thread::id self = std::this_thread::get_id();
    pool.parallel_for(16, [&](std::size_t j) {
      if (std::this_thread::get_id() != self) moved++;
      hits[i * 16 + j]++;
    });
  });
  EXPECT_EQ(moved.load(), 0);
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, LeadRunsOnceOnAWorker) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> leads{0};
  std::thread::id lead_thread;
  std::vector<std::atomic<int>> hits(200);
  pool.parallel_for(
      hits.size(), [&](std::size_t i) { hits[i]++; },
      [&] {
        leads++;
        lead_thread = std::this_thread::get_id();
      });
  EXPECT_EQ(leads.load(), 1);
  EXPECT_NE(lead_thread, caller);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, LeadRunsWhileOtherWorkersTakeTheLoop) {
  // The lead waits for the whole loop: the other worker must run it.
  ThreadPool pool(2);
  constexpr std::size_t kN = 8;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  bool waited = false;
  pool.parallel_for(
      kN,
      [&](std::size_t) {
        std::lock_guard<std::mutex> lk(mu);
        ++done;
        cv.notify_all();
      },
      [&] {
        std::unique_lock<std::mutex> lk(mu);
        waited = cv.wait_for(lk, std::chrono::seconds(10),
                             [&] { return done == kN; });
      });
  EXPECT_TRUE(waited);
  EXPECT_EQ(done, kN);
}

TEST(ThreadPool, LeadWorkerJoinsTheLoop) {
  // One worker: the lead's thread runs every index after it.
  ThreadPool pool(1);
  std::thread::id lead_thread;
  std::vector<std::thread::id> ran(16);
  pool.parallel_for(
      ran.size(),
      [&](std::size_t i) { ran[i] = std::this_thread::get_id(); },
      [&] { lead_thread = std::this_thread::get_id(); });
  EXPECT_NE(lead_thread, std::this_thread::get_id());
  for (const auto& id : ran) ASSERT_EQ(id, lead_thread);
}

TEST(ThreadPool, LeadRunsInlineBeforeTinyAndNestedLoops) {
  ThreadPool pool(2);
  for (const std::size_t n : {0u, 1u}) {
    SCOPED_TRACE(n);
    std::vector<std::string> order;
    std::thread::id lead_thread;
    pool.parallel_for(
        n, [&](std::size_t) { order.push_back("index"); },
        [&] {
          order.push_back("lead");
          lead_thread = std::this_thread::get_id();
        });
    EXPECT_EQ(lead_thread, std::this_thread::get_id());
    ASSERT_EQ(order.size(), n + 1);
    EXPECT_EQ(order.front(), "lead");
  }
  // From a pool task: inline on that worker, before its loop.
  std::atomic<int> misplaced{0};
  pool.parallel_for(4, [&](std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    bool led = false;
    pool.parallel_for(
        8,
        [&](std::size_t) {
          if (!led || std::this_thread::get_id() != self) misplaced++;
        },
        [&] {
          if (std::this_thread::get_id() != self) misplaced++;
          led = true;
        });
    if (!led) misplaced++;
  });
  EXPECT_EQ(misplaced.load(), 0);
}

TEST(ThreadPool, ThrowingLeadIsRethrownAfterTheLoop) {
  ThreadPool pool(3);
  for (const std::size_t n : {1u, 100u}) {
    SCOPED_TRACE(n);
    std::vector<std::atomic<int>> hits(n);
    try {
      pool.parallel_for(
          n, [&](std::size_t i) { hits[i]++; },
          [] { throw std::runtime_error("lead failed"); });
      ADD_FAILURE() << "the exception must reach the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "lead failed");
    }
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
  // The pool is still usable.
  std::atomic<int> after{0};
  pool.parallel_for(50, [&](std::size_t) { after++; });
  EXPECT_EQ(after.load(), 50);
}

TEST(OrderedParallelFor, CommitsInIndexOrderOneAtATime) {
  constexpr std::size_t kN = 300;
  std::vector<std::uint64_t> results(kN, 0);  // written by work, read by commit
  std::vector<std::size_t> committed;
  std::atomic<bool> in_commit{false};
  std::atomic<int> overlaps{0};
  ordered_parallel_for(
      kN,
      [&](std::size_t i) {
        // Uneven work, so later indices often finish first.
        volatile std::uint64_t x = i;
        for (std::size_t k = 0; k < (kN - i) * 200; ++k) x = x * 31 + k;
        results[i] = i * i + 1;
      },
      [&](std::size_t i) {
        if (in_commit.exchange(true)) overlaps++;
        EXPECT_EQ(results[i], i * i + 1) << "commit " << i;
        committed.push_back(i);
        in_commit = false;
      });
  EXPECT_EQ(overlaps.load(), 0);
  ASSERT_EQ(committed.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(committed[i], i);

  ordered_parallel_for(
      0, [](std::size_t) { FAIL() << "no work for an empty range"; },
      [](std::size_t) { FAIL() << "no commit for an empty range"; });
}

TEST(OrderedParallelFor, ThrowingWorkCommitsThePrefixAndRethrows) {
  constexpr std::size_t kN = 100;
  std::vector<std::size_t> committed;
  try {
    ordered_parallel_for(
        kN,
        [&](std::size_t i) {
          if (i == 37) throw std::runtime_error("work 37");
          if (i == 60) throw std::runtime_error("work 60");
        },
        [&](std::size_t i) { committed.push_back(i); });
    ADD_FAILURE() << "the exception must reach the caller";
  } catch (const std::runtime_error& e) {
    // The lowest failing index wins, as in the serial loop.
    EXPECT_EQ(std::string(e.what()), "work 37");
  }
  ASSERT_EQ(committed.size(), 37u);
  for (std::size_t i = 0; i < committed.size(); ++i) {
    ASSERT_EQ(committed[i], i);
  }
}

TEST(OrderedParallelFor, ThrowingCommitStopsLaterCommits) {
  std::vector<std::size_t> committed;
  EXPECT_THROW(ordered_parallel_for(
                   50, [](std::size_t) {},
                   [&](std::size_t i) {
                     if (i == 12) throw std::logic_error("commit 12");
                     committed.push_back(i);
                   }),
               std::logic_error);
  EXPECT_EQ(committed.size(), 12u);
}

TEST(OrderedParallelFor, CommitsStreamWhileLaterWorkRuns) {
  // On one thread the serial loop passes this by construction, which says
  // nothing about streaming.
  if (global_thread_pool().thread_count() == 1) {
    GTEST_SKIP() << "single-thread pool";
  }
  // work(i) waits for commit(i - 1): a helper that committed only after
  // all work would time out here instead.
  constexpr std::size_t kN = 16;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t commits = 0;
  std::atomic<int> timeouts{0};
  ordered_parallel_for(
      kN,
      [&](std::size_t i) {
        std::unique_lock<std::mutex> lk(mu);
        if (!cv.wait_for(lk, std::chrono::seconds(10),
                         [&] { return commits >= i; })) {
          timeouts++;
        }
      },
      [&](std::size_t) {
        std::lock_guard<std::mutex> lk(mu);
        ++commits;
        cv.notify_all();
      });
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(commits, kN);
}

TEST(ThreadPool, ParsesThreadCountStrictly) {
  EXPECT_EQ(parse_thread_count(nullptr), 0u);
  EXPECT_EQ(parse_thread_count("0"), 0u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("16"), 16u);
  // Rejected values mean all cores (0), never a prefix of the text.
  for (const char* bad : {"4x", "abc", "-2", "", " 4", "+4", "4.0",
                          "99999999999999999999999"}) {
    EXPECT_EQ(parse_thread_count(bad), 0u) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace ccfuzz
