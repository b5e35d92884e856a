// Unit tests for the discrete-event queue, especially the determinism
// contract (FIFO tie-break at equal timestamps). Every event rides a lane:
// scripted one-shot sim::Timers stand for plain events, the cancellation
// tests drive re-armed and cancelled timers, and the lane tests add FIFO
// lanes of many entries.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "scripted_events.h"
#include "sim/simulator.h"

namespace ccfuzz::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  Simulator sim;
  Script s(sim);
  std::vector<int> order;
  s.at(TimeNs::millis(30), [&] { order.push_back(3); });
  s.at(TimeNs::millis(10), [&] { order.push_back(1); });
  s.at(TimeNs::millis(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsFireInInsertionOrder) {
  Simulator sim;
  Script s(sim);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(TimeNs::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
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
  Script s(sim);
  std::vector<int> order;
  s.in(DurationNs::millis(1), [&] { order.push_back(1); });
  Timer t(sim, [&] { order.push_back(2); });
  t.arm(DurationNs::millis(2));
  s.in(DurationNs::millis(3), [&] { order.push_back(3); });
  t.cancel();
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
  // run_next_due() sees the earliest live event: nothing on an empty queue,
  // and after a cancel the next live event, not the cancelled timer's
  // handle that is still filed.
  Simulator sim;
  Script s(sim);
  EventQueue& q = sim.events();
  TimeNs clock = TimeNs::zero();
  EXPECT_FALSE(q.run_next_due(TimeNs::infinite(), clock));
  std::vector<int> order;
  Timer t(sim, [&] { order.push_back(5); });
  t.arm(DurationNs::millis(5));
  s.at(TimeNs::millis(9), [&] { order.push_back(9); });
  EXPECT_FALSE(q.run_next_due(TimeNs::millis(4), clock));
  t.cancel();  // its handle stays filed; the queue must skip it
  EXPECT_FALSE(q.run_next_due(TimeNs::millis(8), clock));
  EXPECT_EQ(clock, TimeNs::zero());
  EXPECT_TRUE(q.run_next_due(TimeNs::millis(9), clock));
  EXPECT_EQ(clock, TimeNs::millis(9));
  EXPECT_EQ(order, (std::vector<int>{9}));
}

TEST(EventQueue, EventsScheduledDuringExecutionRun) {
  Simulator sim;
  Script s(sim);
  int fired = 0;
  s.at(TimeNs::millis(1), [&] {
    ++fired;
    s.at(TimeNs::millis(2), [&] { ++fired; });
  });
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SizeExcludesCancelled) {
  Simulator sim;
  Script s(sim);
  Timer t(sim, [] {});
  t.arm(DurationNs::millis(1));
  s.in(DurationNs::millis(2), [] {});
  EXPECT_EQ(sim.events().size(), 2u);
  t.cancel();
  EXPECT_EQ(sim.events().size(), 1u);
}

TEST(EventQueue, SizeUnaffectedByCancellingFiredId) {
  // Regression: cancelling an expiry that already fired must not touch the
  // count; an old heap-size-minus-cancelled-set accounting let size() wrap
  // to huge values.
  Simulator sim;
  Script s(sim);
  Timer t(sim, [] {});
  t.arm(DurationNs::millis(1));
  sim.run_all();  // the timer fires
  EXPECT_EQ(sim.events().size(), 0u);
  t.cancel();  // must be a no-op
  EXPECT_EQ(sim.events().size(), 0u);
  s.in(DurationNs::millis(2), [] {});
  EXPECT_EQ(sim.events().size(), 1u);
  EXPECT_FALSE(sim.events().empty());
}

TEST(EventQueue, RunNextDueRespectsDeadline) {
  Simulator sim;
  Script s(sim);
  EventQueue& q = sim.events();
  int fired = 0;
  s.at(TimeNs::millis(5), [&] { ++fired; });
  s.at(TimeNs::millis(10), [&] { ++fired; });
  TimeNs clock = TimeNs::zero();
  EXPECT_TRUE(q.run_next_due(TimeNs::millis(7), clock));
  EXPECT_EQ(clock, TimeNs::millis(5));
  EXPECT_FALSE(q.run_next_due(TimeNs::millis(7), clock));
  EXPECT_EQ(clock, TimeNs::millis(5));  // untouched on refusal
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ResetDiscardsPendingEvents) {
  Simulator sim;
  Script s(sim);
  EventQueue& q = sim.events();
  bool fired = false;
  s.at(TimeNs::millis(1), [&] { fired = true; });
  s.at(TimeNs::millis(2), [&] { fired = true; });
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  TimeNs clock = TimeNs::zero();
  EXPECT_FALSE(q.run_next_due(TimeNs::infinite(), clock));
  EXPECT_FALSE(fired);
  // The queue is fully usable after reset, with FIFO order intact.
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    s.at(TimeNs::millis(3), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
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
  TimeNs clock = TimeNs::zero();
  int popped = 0;
  while (q.run_next_due(TimeNs::infinite(), clock)) {
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
// between events created long before and just before their time, timer
// cancellation early and late, the RTO-style re-arm chain, and reset with
// distant events pending. (The queue once parked distant events in a
// separate far band; these tests pinned its boundaries and now guard the
// same behaviour on the single heap.)

TEST(EventQueue, MixedBandEventsFireInTimeOrder) {
  Simulator sim;
  Script s(sim);
  std::vector<std::int64_t> fired;
  // Interleave events from milliseconds to seconds out.
  const std::int64_t times_ms[] = {5000, 1, 700, 12, 2300, 90, 450,
                                   8000, 3,  160, 999, 30,  1500};
  for (const std::int64_t t : times_ms) {
    s.at(TimeNs::millis(t), [&fired, t] { fired.push_back(t); });
  }
  sim.run_all();
  ASSERT_EQ(fired.size(), std::size(times_ms));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LT(fired[i - 1], fired[i]);
  }
}

TEST(EventQueue, EqualTimestampFifoSurvivesBandMigration) {
  // A is created while its timestamp is far in the future; the clock then
  // walks close to it and B is created at the *same* timestamp. FIFO order
  // (A first) must hold: A keeps its original sequence number.
  Simulator sim;
  Script s(sim);
  std::vector<int> order;
  const TimeNs t = TimeNs::millis(500);
  s.at(t, [&] { order.push_back(1); });  // far when created
  s.at(TimeNs::millis(490), [&] { order.push_back(0); });
  sim.run_until(TimeNs::millis(490));
  s.at(t, [&] { order.push_back(2); });  // near when created
  sim.run_all();
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
  EXPECT_EQ(sim.run_all(), 0u);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelFarEventAfterMigration) {
  // Drive the clock to just short of the far expiry, then cancel it.
  Simulator sim;
  Script s(sim);
  bool fired = false;
  Timer t(sim, [&] { fired = true; });
  t.arm(DurationNs::millis(500));
  int fillers = 0;
  s.in(DurationNs::millis(496), [&] { ++fillers; });
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
  Script s(sim);
  std::vector<std::int64_t> fired;
  Timer rto(sim, [&] { fired.push_back(sim.now().to_millis()); });
  rto.arm(DurationNs::millis(900));
  for (int i = 1; i <= 5; ++i) rto.arm(DurationNs::millis(900 + i));
  rto.arm(DurationNs::millis(10));
  s.in(DurationNs::millis(20),
       [&] { fired.push_back(-sim.now().to_millis()); });
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, -20}));
}

TEST(EventQueue, ResetWithPopulatedFarBand) {
  Simulator sim;
  Script s(sim);
  bool fired = false;
  // Events from 1 ms to 100 s out, with a cancelled timer in between.
  Timer far(sim, [&] { fired = true; });
  s.in(DurationNs::millis(1), [&] { fired = true; });
  s.in(DurationNs::millis(300), [&] { fired = true; });
  far.arm(DurationNs::millis(700));
  s.in(DurationNs::seconds(5), [&] { fired = true; });
  s.in(DurationNs::seconds(100), [&] { fired = true; });
  far.cancel();
  EXPECT_EQ(sim.events().size(), 4u);

  sim.reset();
  EXPECT_TRUE(sim.events().empty());
  EXPECT_EQ(sim.events().size(), 0u);
  EXPECT_EQ(sim.run_all(), 0u);
  EXPECT_FALSE(fired);

  // The recycled queue keeps FIFO ties intact, and the timer's handle filed
  // before the reset is gone with it.
  std::vector<int> order;
  s.in(DurationNs::millis(600), [&order] { order.push_back(2); });
  s.in(DurationNs::millis(600), [&order] { order.push_back(3); });
  s.in(DurationNs::millis(2), [&order] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, OverflowBandRedistributesAndFires) {
  // Events seconds out fire in time order; a timer among them is cancelled
  // long before it is due.
  Simulator sim;
  Script s(sim);
  std::vector<int> order;
  Timer dead(sim, [&] { order.push_back(-1); });
  s.in(DurationNs::seconds(2), [&] { order.push_back(2); });
  dead.arm(DurationNs::seconds(3));
  s.in(DurationNs::seconds(4), [&] { order.push_back(4); });
  s.in(DurationNs::seconds(10), [&] { order.push_back(10); });
  s.in(DurationNs::millis(5), [&] { order.push_back(0); });
  dead.cancel();
  EXPECT_EQ(sim.events().size(), 4u);
  EXPECT_EQ(sim.run_until(TimeNs::millis(4)), 0u);
  EXPECT_EQ(sim.run_until(TimeNs::millis(5)), 1u);
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
  Script s(sim);
  std::vector<int> order;
  Timer dead(sim, [&] { order.push_back(-1); });
  dead.arm(DurationNs::seconds(3));
  s.in(DurationNs::seconds(9), [&] { order.push_back(9); });
  dead.cancel();
  // Walk the clock across 3 s in small steps so the cancelled expiry's time
  // is passed mid-run.
  for (int i = 1; i <= 80; ++i) {
    s.in(DurationNs::millis(50 * i), [&order, i] {
      if (i % 20 == 0) order.push_back(i / 20);
    });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 9}));
}

TEST(EventQueue, StressMixedBandsWithCancellations) {
  // Pseudo-random times over 0..8 s; every third event is a timer, cancelled
  // up front: the other events must fire in exact (time, seq) order.
  Simulator sim;
  Script s(sim);
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
      s.in(DurationNs(t), fire);
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
  Simulator sim;
  Script s(sim);
  std::vector<std::int64_t> times;
  // Deterministic pseudo-shuffled events.
  for (std::int64_t i = 0; i < 5000; ++i) {
    const std::int64_t t = (i * 2654435761u) % 100000;
    s.at(TimeNs(t), [&times, t] { times.push_back(t); });
  }
  sim.run_all();
  ASSERT_EQ(times.size(), 5000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    ASSERT_LE(times[i - 1], times[i]);
  }
}

// --- Lanes --------------------------------------------------------------------
//
// A lane is a FIFO event source whose entries take their seq at push time;
// these tests pin that lane entries and one-shot events fire in exactly the
// (time, seq) order of the moments they were created, heads far in the
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

TEST(EventQueueLane, EqualTimestampsFireInPushOrderAcrossLanesAndEvents) {
  Simulator sim;
  EventQueue& q = sim.events();
  std::vector<int> order;
  FifoLane a(q, order);
  FifoLane b(q, order);
  Script s(sim);
  const TimeNs t = TimeNs::millis(5);
  s.at(t, [&] { order.push_back(0); });
  a.push_entry(t, 1);
  b.push_entry(t, 2);
  s.at(t, [&] { order.push_back(3); });
  a.push_entry(t, 4);
  s.at(TimeNs::millis(1), [&] { order.push_back(-1); });
  b.push_entry(t, 5);
  a.push_entry(TimeNs::millis(6), 7);
  s.at(t, [&] { order.push_back(6); });
  EXPECT_EQ(q.size(), 9u);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(a.pending(), 0u);
}

TEST(EventQueueLane, HeadBeyondTheWheelSpanKeepsFifoTies) {
  // The lane's first head is seconds out, and a later head is re-keyed from
  // the heap top to seconds out again.
  Simulator sim;
  EventQueue& q = sim.events();
  std::vector<int> order;
  FifoLane lane(q, order);
  Script s(sim);
  const TimeNs far = TimeNs::seconds(3);
  s.at(far, [&] { order.push_back(0); });
  lane.push_entry(far, 1);
  s.at(far, [&] { order.push_back(2); });
  lane.push_entry(far, 3);
  lane.push_entry(TimeNs::seconds(5), 5);
  s.at(TimeNs::seconds(5), [&] { order.push_back(6); });
  s.at(TimeNs::millis(2), [&] {
    order.push_back(-1);
    s.at(TimeNs::seconds(5), [&] { order.push_back(7); });
  });
  // A second lane whose next head is far when its first one fires.
  FifoLane hop(q, order);
  hop.push_entry(TimeNs::millis(1), -2);
  hop.push_entry(far, 4);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{-2, -1, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueLane, NextTimeAndDeadlineSeeLaneHeads) {
  Simulator sim;
  EventQueue& q = sim.events();
  std::vector<int> order;
  FifoLane lane(q, order);
  Script s(sim);
  lane.push_entry(TimeNs::millis(4), 1);
  s.at(TimeNs::millis(9), [&] { order.push_back(2); });
  TimeNs clock = TimeNs::zero();
  EXPECT_FALSE(q.run_next_due(TimeNs::millis(3), clock));
  EXPECT_TRUE(q.run_next_due(TimeNs::millis(4), clock));
  EXPECT_EQ(clock, TimeNs::millis(4));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_FALSE(q.run_next_due(TimeNs::millis(8), clock));
  EXPECT_TRUE(q.run_next_due(TimeNs::millis(9), clock));
  EXPECT_EQ(clock, TimeNs::millis(9));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueLane, ResetEmptiesEveryLane) {
  Simulator sim;
  EventQueue& q = sim.events();
  std::vector<int> order;
  FifoLane lane(q, order);
  Script s(sim);
  lane.push_entry(TimeNs::millis(1), 1);
  lane.push_entry(TimeNs::seconds(4), 2);  // far in the future
  s.at(TimeNs::millis(2), [&] { order.push_back(3); });
  EXPECT_EQ(q.size(), 3u);
  q.reset();
  EXPECT_EQ(lane.pending(), 0u);
  EXPECT_TRUE(q.empty());
  TimeNs clock = TimeNs::zero();
  EXPECT_FALSE(q.run_next_due(TimeNs::infinite(), clock));
  // The lane works again after the reset, FIFO ties included.
  s.at(TimeNs::millis(3), [&] { order.push_back(10); });
  lane.push_entry(TimeNs::millis(3), 11);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{10, 11}));
}

TEST(EventQueueLane, DestroyedLaneDropsItsEntriesAndFreesItsId) {
  Simulator sim;
  EventQueue& q = sim.events();
  std::vector<int> order;
  FifoLane keep(q, order);
  for (int i = 0; i < 100; ++i) {
    FifoLane temp(q, order);
    temp.push_entry(TimeNs::millis(i + 1), -1);  // pending at destruction
    temp.push_entry(TimeNs::seconds(3), -2);
  }
  EXPECT_EQ(q.lane_slots(), 2u);
  EXPECT_TRUE(q.empty());
  Script s(sim);
  keep.push_entry(TimeNs::millis(50), 1);
  s.at(TimeNs::millis(60), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Differential harness: a closed system of packet "sends" in which every
// fired send spawns sends, one-shot timers and watchdog re-arms at quantized
// times, so exact-time ties between lanes and timers are common. Sends go
// onto one of four fixed-delay lanes (one delay is 1.5 s); three watchdog
// sim::Timers are re-armed earlier, later or at the same time, and
// cancelled. The reference system adds one fresh one-shot timer per send
// and per watchdog arm() (ReferenceTimer), each armed once, so it never
// takes the lane re-key or timer re-arm paths.
constexpr int kDifferentialLabels = 10'000;

template <bool kLanes>
class SendSystem {
 public:
  SendSystem() {
    for (int i = 0; i < 4; ++i) {
      pipes_.push_back(std::make_unique<FifoLane>(
          sim_.events(), [this](int label) { on_fire(label); }));
    }
    for (int i = 0; i < kWatchdogs; ++i) {
      watchdogs_.push_back(std::make_unique<Watchdog>(
          sim_, [this, i] { on_fire(kWatchdogLabel + i); }));
    }
  }

  /// Runs to quiescence; returns every (time, label) in firing order.
  std::vector<std::pair<std::int64_t, int>> run() {
    for (int i = 0; i < 50; ++i) timer(TimeNs::millis(i % 7), next_label_++);
    sim_.run_all();
    return log_;
  }

 private:
  using Watchdog = std::conditional_t<kLanes, Timer, ReferenceTimer>;
  static constexpr int kWatchdogs = 8;
  static constexpr int kWatchdogLabel = 1'000'000;

  void timer(TimeNs at, int label) {
    script_.at(at, [this, label] { on_fire(label); });
  }
  void send(std::size_t pipe, int label) {
    static constexpr std::int64_t kDelayMs[4] = {0, 1, 20, 1500};
    const TimeNs at = sim_.now() + DurationNs::millis(kDelayMs[pipe]);
    if constexpr (kLanes) {
      pipes_[pipe]->push_entry(at, label);
    } else {
      timer(at, label);
    }
  }
  void on_fire(int label) {
    log_.emplace_back(sim_.now().ns(), label);
    if (next_label_ >= kDifferentialLabels) return;
    const unsigned spawns = rng_() % 3;
    for (unsigned k = 0; k < spawns && next_label_ < kDifferentialLabels; ++k) {
      send(rng_() % 4, next_label_++);
    }
    if (rng_() % 4 == 0 && next_label_ < kDifferentialLabels) {
      const auto ms = static_cast<std::int64_t>(rng_() % 5);
      timer(sim_.now() + DurationNs::millis(ms), next_label_++);
    }
    if (rng_() % 6 == 0) {
      Watchdog& w = *watchdogs_[rng_() % kWatchdogs];
      if (rng_() % 5 == 0) {
        w.cancel();
      } else {
        w.arm(DurationNs::millis(static_cast<std::int64_t>(rng_() % 8)));
      }
    }
  }

  Simulator sim_;
  Script script_{sim_};
  std::mt19937 rng_{12345};
  int next_label_ = 0;
  std::vector<std::pair<std::int64_t, int>> log_;
  std::vector<std::unique_ptr<FifoLane>> pipes_;
  std::vector<std::unique_ptr<Watchdog>> watchdogs_;
};

TEST(EventQueueLane, RandomizedSendsMatchPlainSchedules) {
  const auto want = SendSystem</*kLanes=*/false>().run();
  const auto got = SendSystem</*kLanes=*/true>().run();
  const auto sends = std::count_if(want.begin(), want.end(), [](const auto& f) {
    return f.second < kDifferentialLabels;
  });
  ASSERT_EQ(sends, kDifferentialLabels);
  ASSERT_GT(want.size() - static_cast<std::size_t>(sends), 200u);  // watchdogs
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace ccfuzz::sim
