// Unit tests for the discrete-event queue, especially the determinism
// contract (FIFO tie-break at equal timestamps). Plain events cannot be
// cancelled; the cancellation tests drive sim::Timer, the queue's one-entry
// lane, through a Simulator.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace ccfuzz::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimeNs::millis(30), [&] { order.push_back(3); });
  q.schedule(TimeNs::millis(10), [&] { order.push_back(1); });
  q.schedule(TimeNs::millis(20), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(TimeNs::millis(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  Timer t(sim, [&] { fired = true; });
  t.arm(DurationNs::millis(1));
  t.cancel();
  EXPECT_TRUE(sim.events().empty());
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelMiddleEventSkipsOnlyIt) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(DurationNs::millis(1), [&] { order.push_back(1); });
  Timer t(sim, [&] { order.push_back(2); });
  t.arm(DurationNs::millis(2));
  sim.schedule_in(DurationNs::millis(3), [&] { order.push_back(3); });
  t.cancel();
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
  Simulator sim;
  EventQueue& q = sim.events();
  EXPECT_TRUE(q.next_time().is_infinite());
  Timer t(sim, [] {});
  t.arm(DurationNs::millis(5));
  q.schedule(TimeNs::millis(9), [] {});
  EXPECT_EQ(q.next_time(), TimeNs::millis(5));
  t.cancel();  // its handle stays filed; next_time() must skip it
  EXPECT_EQ(q.next_time(), TimeNs::millis(9));
}

TEST(EventQueue, RunNextReturnsTimestamp) {
  EventQueue q;
  q.schedule(TimeNs::millis(7), [] {});
  EXPECT_EQ(q.run_next(), TimeNs::millis(7));
}

TEST(EventQueue, EventsScheduledDuringExecutionRun) {
  EventQueue q;
  int fired = 0;
  q.schedule(TimeNs::millis(1), [&] {
    ++fired;
    q.schedule(TimeNs::millis(2), [&] { ++fired; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SizeExcludesCancelled) {
  Simulator sim;
  Timer t(sim, [] {});
  t.arm(DurationNs::millis(1));
  sim.schedule_in(DurationNs::millis(2), [] {});
  EXPECT_EQ(sim.events().size(), 2u);
  t.cancel();
  EXPECT_EQ(sim.events().size(), 1u);
}

TEST(EventQueue, SizeUnaffectedByCancellingFiredId) {
  // Regression: cancelling an expiry that already fired must not touch the
  // count; an old heap-size-minus-cancelled-set accounting let size() wrap
  // to huge values.
  Simulator sim;
  Timer t(sim, [] {});
  t.arm(DurationNs::millis(1));
  sim.run_all();  // the timer fires
  EXPECT_EQ(sim.events().size(), 0u);
  t.cancel();  // must be a no-op
  EXPECT_EQ(sim.events().size(), 0u);
  sim.schedule_in(DurationNs::millis(2), [] {});
  EXPECT_EQ(sim.events().size(), 1u);
  EXPECT_FALSE(sim.events().empty());
}

TEST(EventQueue, RunNextDueRespectsDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule(TimeNs::millis(5), [&] { ++fired; });
  q.schedule(TimeNs::millis(10), [&] { ++fired; });
  TimeNs clock = TimeNs::zero();
  EXPECT_TRUE(q.run_next_due(TimeNs::millis(7), clock));
  EXPECT_EQ(clock, TimeNs::millis(5));
  EXPECT_FALSE(q.run_next_due(TimeNs::millis(7), clock));
  EXPECT_EQ(clock, TimeNs::millis(5));  // untouched on refusal
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ResetDiscardsPendingEvents) {
  EventQueue q;
  bool fired = false;
  q.schedule(TimeNs::millis(1), [&] { fired = true; });
  q.schedule(TimeNs::millis(2), [&] { fired = true; });
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.next_time().is_infinite());
  EXPECT_FALSE(fired);
  // The queue is fully usable after reset, with FIFO order intact.
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    q.schedule(TimeNs::millis(3), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, CancelDuringDrainKeepsOrder) {
  // Cancelling deep-in-heap expiries interleaved with pops must not disturb
  // the firing order of live events.
  Simulator sim;
  std::vector<int> order;
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < 100; ++i) {
    timers.push_back(
        std::make_unique<Timer>(sim, [&order, i] { order.push_back(i); }));
    timers.back()->arm(DurationNs::millis(i));
  }
  // Cancel every third timer up front and every seventh mid-drain.
  for (std::size_t i = 0; i < timers.size(); i += 3) timers[i]->cancel();
  EventQueue& q = sim.events();
  int popped = 0;
  while (!q.empty()) {
    q.run_next();
    if (++popped % 5 == 0) {
      timers[static_cast<std::size_t>(popped * 7 % 100)]->cancel();
    }
  }
  ASSERT_GT(order.size(), 40u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LT(order[i - 1], order[i]);
  }
  for (const int i : order) ASSERT_NE(i % 3, 0);
}

// --- Far-future events --------------------------------------------------------
//
// Events from microseconds to many seconds out, mixed in one queue: FIFO ties
// between events scheduled long before and just before their time, timer
// cancellation early and late, the RTO-style re-arm chain, and reset with
// distant events pending. (The queue once parked distant events in a
// separate far band; these tests pinned its boundaries and now guard the
// same behaviour on the single heap.)

TEST(EventQueue, MixedBandEventsFireInTimeOrder) {
  EventQueue q;
  std::vector<std::int64_t> fired;
  // Interleave schedules from milliseconds to seconds out.
  const std::int64_t times_ms[] = {5000, 1, 700, 12, 2300, 90, 450,
                                   8000, 3,  160, 999, 30,  1500};
  for (const std::int64_t t : times_ms) {
    q.schedule(TimeNs::millis(t), [&fired, t] { fired.push_back(t); });
  }
  while (!q.empty()) q.run_next();
  ASSERT_EQ(fired.size(), std::size(times_ms));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LT(fired[i - 1], fired[i]);
  }
}

TEST(EventQueue, EqualTimestampFifoSurvivesBandMigration) {
  // A is scheduled while its timestamp is far in the future; the clock then
  // walks close to it and B is scheduled at the *same* timestamp. FIFO order
  // (A first) must hold: A keeps its original sequence number.
  EventQueue q;
  std::vector<int> order;
  const TimeNs t = TimeNs::millis(500);
  q.schedule(t, [&] { order.push_back(1) ; });      // far at schedule time
  q.schedule(TimeNs::millis(490), [&] { order.push_back(0); });
  q.run_next();  // clock reaches 490 ms
  q.schedule(t, [&] { order.push_back(2); });       // near at schedule time
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelFarEventBeforeMigration) {
  Simulator sim;
  bool fired = false;
  Timer t(sim, [&] { fired = true; });
  t.arm(DurationNs::millis(800));
  EXPECT_EQ(sim.events().size(), 1u);
  t.cancel();  // long before it is due
  EXPECT_TRUE(sim.events().empty());
  EXPECT_TRUE(sim.events().next_time().is_infinite());
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelFarEventAfterMigration) {
  // Drive the clock to just short of the far expiry, then cancel it.
  Simulator sim;
  bool fired = false;
  Timer t(sim, [&] { fired = true; });
  t.arm(DurationNs::millis(500));
  int fillers = 0;
  sim.schedule_in(DurationNs::millis(496), [&] { ++fillers; });
  sim.run_until(TimeNs::millis(496));
  EXPECT_EQ(sim.events().size(), 1u);
  t.cancel();
  EXPECT_TRUE(sim.events().empty());
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(fillers, 1);
}

TEST(EventQueue, RescheduleAcrossTheMigrationHorizon) {
  // The RTO re-arm pattern: move the pending far expiry — far again, then
  // finally near. Only the last arm fires, exactly once, at its own time.
  Simulator sim;
  std::vector<std::int64_t> fired;
  Timer rto(sim, [&] { fired.push_back(sim.now().to_millis()); });
  rto.arm(DurationNs::millis(900));
  for (int i = 1; i <= 5; ++i) rto.arm(DurationNs::millis(900 + i));
  rto.arm(DurationNs::millis(10));
  sim.schedule_in(DurationNs::millis(20),
                  [&] { fired.push_back(-sim.now().to_millis()); });
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, -20}));
}

TEST(EventQueue, ResetWithPopulatedFarBand) {
  Simulator sim;
  bool fired = false;
  // Events from 1 ms to 100 s out, with a cancelled timer in between.
  Timer far(sim, [&] { fired = true; });
  sim.schedule_in(DurationNs::millis(1), [&] { fired = true; });
  sim.schedule_in(DurationNs::millis(300), [&] { fired = true; });
  far.arm(DurationNs::millis(700));
  sim.schedule_in(DurationNs::seconds(5), [&] { fired = true; });
  sim.schedule_in(DurationNs::seconds(100), [&] { fired = true; });
  far.cancel();
  EXPECT_EQ(sim.events().size(), 4u);

  sim.reset();
  EXPECT_TRUE(sim.events().empty());
  EXPECT_EQ(sim.events().size(), 0u);
  EXPECT_TRUE(sim.events().next_time().is_infinite());
  EXPECT_FALSE(fired);

  // The recycled queue keeps FIFO ties intact, and the timer's handle filed
  // before the reset is gone with it.
  std::vector<int> order;
  sim.schedule_in(DurationNs::millis(600), [&order] { order.push_back(2); });
  sim.schedule_in(DurationNs::millis(600), [&order] { order.push_back(3); });
  sim.schedule_in(DurationNs::millis(2), [&order] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, OverflowBandRedistributesAndFires) {
  // Events seconds out fire in time order; a timer among them is cancelled
  // long before it is due.
  Simulator sim;
  std::vector<int> order;
  Timer dead(sim, [&] { order.push_back(-1); });
  sim.schedule_in(DurationNs::seconds(2), [&] { order.push_back(2); });
  dead.arm(DurationNs::seconds(3));
  sim.schedule_in(DurationNs::seconds(4), [&] { order.push_back(4); });
  sim.schedule_in(DurationNs::seconds(10), [&] { order.push_back(10); });
  sim.schedule_in(DurationNs::millis(5), [&] { order.push_back(0); });
  dead.cancel();
  EXPECT_EQ(sim.events().size(), 4u);
  EXPECT_EQ(sim.events().next_time(), TimeNs::millis(5));
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 10}));
}

TEST(EventQueue, CancelledOverflowMinimumDoesNotDisturbLaterEvents) {
  // The earliest far expiry is cancelled long before it is due (the RTO
  // backoff pattern): when the clock passes its would-be expiry, the stale
  // handle is dropped and the queue must carry on — near events keep
  // firing and the surviving later event still fires at its own time,
  // exactly once.
  Simulator sim;
  std::vector<int> order;
  Timer dead(sim, [&] { order.push_back(-1); });
  dead.arm(DurationNs::seconds(3));
  sim.schedule_in(DurationNs::seconds(9), [&] { order.push_back(9); });
  dead.cancel();
  // Walk the clock across 3 s in small steps so the cancelled expiry's time
  // is passed mid-run.
  for (int i = 1; i <= 80; ++i) {
    sim.schedule_in(DurationNs::millis(50 * i), [&order, i] {
      if (i % 20 == 0) order.push_back(i / 20);
    });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 9}));
}

TEST(EventQueue, StressMixedBandsWithCancellations) {
  // Pseudo-random times over 0..8 s; every third event is a timer, cancelled
  // up front: the plain events must fire in exact (time, seq) order.
  Simulator sim;
  std::vector<std::pair<std::int64_t, int>> fired;
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<std::pair<std::int64_t, int>> expected;
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t t =
        static_cast<std::int64_t>((static_cast<std::uint64_t>(i) *
                                   2654435761u) %
                                  8'000'000'000ull);
    const auto fire = [&fired, t, i] { fired.push_back({t, i}); };
    if (i % 3 == 0) {
      timers.push_back(std::make_unique<Timer>(sim, fire));
      timers.back()->arm(DurationNs(t));
    } else {
      sim.schedule_in(DurationNs(t), fire);
      expected.push_back({t, i});
    }
  }
  for (auto& timer : timers) timer->cancel();
  EXPECT_EQ(sim.events().size(), expected.size());
  sim.run_all();
  std::stable_sort(expected.begin(), expected.end());
  ASSERT_EQ(fired.size(), expected.size());
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, StressManyEventsStayOrdered) {
  EventQueue q;
  std::vector<std::int64_t> times;
  // Deterministic pseudo-shuffled schedule.
  for (std::int64_t i = 0; i < 5000; ++i) {
    const std::int64_t t = (i * 2654435761u) % 100000;
    q.schedule(TimeNs(t), [&times, t] { times.push_back(t); });
  }
  while (!q.empty()) q.run_next();
  ASSERT_EQ(times.size(), 5000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    ASSERT_LE(times[i - 1], times[i]);
  }
}

// --- Lanes --------------------------------------------------------------------
//
// A lane is a FIFO event source whose entries take their seq at push time;
// these tests pin that lane entries and plain events fire in exactly the
// (time, seq) order plain schedule() calls would give, heads far in the
// future included.

/// Test lane: a FIFO of (time, label) entries; firing hands the label to a
/// sink (by default, appends it to a vector).
class FifoLane final : public Lane {
 public:
  FifoLane(EventQueue& q, std::function<void(int)> sink)
      : Lane(q), sink_(std::move(sink)) {}
  FifoLane(EventQueue& q, std::vector<int>& out)
      : FifoLane(q, [&out](int label) { out.push_back(label); }) {}

  void push_entry(TimeNs at, int label) {
    entries_.push_back({at, push(at), label});
  }
  using Lane::pending;

 private:
  struct Entry {
    TimeNs at;
    std::uint32_t seq;
    int label;
  };
  void fire() override {
    const Entry head = entries_.front();
    entries_.pop_front();
    if (entries_.empty()) {
      drained();
    } else {
      rekey(entries_.front().at, entries_.front().seq);
    }
    sink_(head.label);
  }
  void clear() override { entries_.clear(); }

  std::function<void(int)> sink_;
  std::deque<Entry> entries_;
};

void drain(EventQueue& q) {
  while (!q.empty()) q.run_next();
}

TEST(EventQueueLane, EqualTimestampsFireInPushOrderAcrossLanesAndEvents) {
  EventQueue q;
  std::vector<int> order;
  FifoLane a(q, order);
  FifoLane b(q, order);
  const TimeNs t = TimeNs::millis(5);
  q.schedule(t, [&] { order.push_back(0); });
  a.push_entry(t, 1);
  b.push_entry(t, 2);
  q.schedule(t, [&] { order.push_back(3); });
  a.push_entry(t, 4);
  q.schedule(TimeNs::millis(1), [&] { order.push_back(-1); });
  b.push_entry(t, 5);
  a.push_entry(TimeNs::millis(6), 7);
  q.schedule(t, [&] { order.push_back(6); });
  EXPECT_EQ(q.size(), 9u);
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(a.pending(), 0u);
}

TEST(EventQueueLane, HeadBeyondTheWheelSpanKeepsFifoTies) {
  // The lane's first head is seconds out, and a later head is re-keyed from
  // the heap top to seconds out again.
  EventQueue q;
  std::vector<int> order;
  FifoLane lane(q, order);
  const TimeNs far = TimeNs::seconds(3);
  q.schedule(far, [&] { order.push_back(0); });
  lane.push_entry(far, 1);
  q.schedule(far, [&] { order.push_back(2); });
  lane.push_entry(far, 3);
  lane.push_entry(TimeNs::seconds(5), 5);
  q.schedule(TimeNs::seconds(5), [&] { order.push_back(6); });
  q.schedule(TimeNs::millis(2), [&] {
    order.push_back(-1);
    q.schedule(TimeNs::seconds(5), [&] { order.push_back(7); });
  });
  // A second lane whose next head is far when its first one fires.
  FifoLane hop(q, order);
  hop.push_entry(TimeNs::millis(1), -2);
  hop.push_entry(far, 4);
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{-2, -1, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueLane, NextTimeAndDeadlineSeeLaneHeads) {
  EventQueue q;
  std::vector<int> order;
  FifoLane lane(q, order);
  lane.push_entry(TimeNs::millis(4), 1);
  q.schedule(TimeNs::millis(9), [&] { order.push_back(2); });
  EXPECT_EQ(q.next_time(), TimeNs::millis(4));
  TimeNs clock = TimeNs::zero();
  EXPECT_FALSE(q.run_next_due(TimeNs::millis(3), clock));
  EXPECT_TRUE(q.run_next_due(TimeNs::millis(4), clock));
  EXPECT_EQ(clock, TimeNs::millis(4));
  EXPECT_EQ(q.next_time(), TimeNs::millis(9));
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(EventQueueLane, ResetEmptiesEveryLane) {
  EventQueue q;
  std::vector<int> order;
  FifoLane lane(q, order);
  lane.push_entry(TimeNs::millis(1), 1);
  lane.push_entry(TimeNs::seconds(4), 2);  // far in the future
  q.schedule(TimeNs::millis(2), [&] { order.push_back(3); });
  EXPECT_EQ(q.size(), 3u);
  q.reset();
  EXPECT_EQ(lane.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.next_time().is_infinite());
  // The lane works again after the reset, FIFO ties included.
  q.schedule(TimeNs::millis(3), [&] { order.push_back(10); });
  lane.push_entry(TimeNs::millis(3), 11);
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{10, 11}));
}

TEST(EventQueueLane, DestroyedLaneDropsItsEntriesAndFreesItsId) {
  EventQueue q;
  std::vector<int> order;
  FifoLane keep(q, order);
  for (int i = 0; i < 100; ++i) {
    FifoLane temp(q, order);
    temp.push_entry(TimeNs::millis(i + 1), -1);  // pending at destruction
    temp.push_entry(TimeNs::seconds(3), -2);
  }
  EXPECT_EQ(q.lane_slots(), 2u);
  EXPECT_TRUE(q.empty());
  keep.push_entry(TimeNs::millis(50), 1);
  q.schedule(TimeNs::millis(60), [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Differential harness: a closed system of packet "sends" in which every
// fired send spawns sends and plain timers at quantized times, so exact-time
// ties between lanes and events are common. Sends are plain schedule() calls
// or pushes onto one of four fixed-delay lanes; one delay is 1.5 s.
constexpr int kDifferentialLabels = 10'000;

class SendSystem {
 public:
  explicit SendSystem(bool lanes) : lanes_(lanes) {
    for (int i = 0; i < 4; ++i) {
      pipes_.push_back(std::make_unique<FifoLane>(
          q_, [this](int label) { on_fire(label); }));
    }
  }

  /// Runs to quiescence; returns every (time, label) in firing order.
  std::vector<std::pair<std::int64_t, int>> run() {
    for (int i = 0; i < 50; ++i) timer(TimeNs::millis(i % 7), next_label_++);
    while (q_.run_next_due(TimeNs::infinite(), now_)) {
    }
    return log_;
  }

 private:
  void timer(TimeNs at, int label) {
    q_.schedule(at, [this, label] { on_fire(label); });
  }
  void send(std::size_t pipe, int label) {
    static constexpr std::int64_t kDelayMs[4] = {0, 1, 20, 1500};
    const TimeNs at = now_ + DurationNs::millis(kDelayMs[pipe]);
    if (lanes_) {
      pipes_[pipe]->push_entry(at, label);
    } else {
      timer(at, label);
    }
  }
  void on_fire(int label) {
    log_.emplace_back(now_.ns(), label);
    const unsigned spawns = rng_() % 3;
    for (unsigned k = 0; k < spawns && next_label_ < kDifferentialLabels; ++k) {
      send(rng_() % 4, next_label_++);
    }
    if (rng_() % 4 == 0 && next_label_ < kDifferentialLabels) {
      const auto ms = static_cast<std::int64_t>(rng_() % 5);
      timer(now_ + DurationNs::millis(ms), next_label_++);
    }
  }

  const bool lanes_;
  EventQueue q_;
  TimeNs now_ = TimeNs::zero();
  std::mt19937 rng_{12345};
  int next_label_ = 0;
  std::vector<std::pair<std::int64_t, int>> log_;
  std::vector<std::unique_ptr<FifoLane>> pipes_;
};

TEST(EventQueueLane, RandomizedSendsMatchPlainSchedules) {
  const auto want = SendSystem(/*lanes=*/false).run();
  const auto got = SendSystem(/*lanes=*/true).run();
  ASSERT_EQ(want.size(), static_cast<std::size_t>(kDifferentialLabels));
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace ccfuzz::sim
