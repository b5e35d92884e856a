// Unit tests for the discrete-event queue, especially the determinism
// contract (FIFO tie-break at equal timestamps).
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
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(TimeNs::millis(1), [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoOp) {
  EventQueue q;
  q.cancel(123456);  // must not crash or affect anything
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelMiddleEventSkipsOnlyIt) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimeNs::millis(1), [&] { order.push_back(1); });
  const EventId id = q.schedule(TimeNs::millis(2), [&] { order.push_back(2); });
  q.schedule(TimeNs::millis(3), [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
  EventQueue q;
  EXPECT_TRUE(q.next_time().is_infinite());
  const EventId id = q.schedule(TimeNs::millis(5), [] {});
  q.schedule(TimeNs::millis(9), [] {});
  EXPECT_EQ(q.next_time(), TimeNs::millis(5));
  q.cancel(id);
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
  EventQueue q;
  const EventId a = q.schedule(TimeNs::millis(1), [] {});
  q.schedule(TimeNs::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, SizeUnaffectedByCancellingFiredId) {
  // Regression: cancel() accepts ids of already-fired events; the old
  // heap-size-minus-cancelled-set accounting let size() wrap to huge values.
  EventQueue q;
  const EventId a = q.schedule(TimeNs::millis(1), [] {});
  q.run_next();  // `a` fires
  EXPECT_EQ(q.size(), 0u);
  q.cancel(a);  // must be a no-op
  EXPECT_EQ(q.size(), 0u);
  q.schedule(TimeNs::millis(2), [] {});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelTwiceIsNoOp) {
  EventQueue q;
  const EventId a = q.schedule(TimeNs::millis(1), [] {});
  q.schedule(TimeNs::millis(2), [] {});
  q.cancel(a);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, StaleIdDoesNotCancelRecycledSlot) {
  // After an event fires, its slot is recycled for later events; the old id
  // must not cancel the new occupant (generation tag mismatch).
  EventQueue q;
  const EventId a = q.schedule(TimeNs::millis(1), [] {});
  q.run_next();
  bool fired = false;
  q.schedule(TimeNs::millis(2), [&] { fired = true; });
  q.cancel(a);  // stale id, possibly aliasing the recycled slot
  while (!q.empty()) q.run_next();
  EXPECT_TRUE(fired);
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

TEST(EventQueue, IdHeldAcrossResetCannotCancelNewEvent) {
  // Regression: slot indices and FIFO seqs restart after reset(), so an id
  // kept across reset() could alias the first event of the next run; the
  // per-slot generation counter (which survives reset) must reject it.
  EventQueue q;
  const EventId a = q.schedule(TimeNs::millis(1), [] {});
  q.run_next();
  q.reset();
  bool fired = false;
  q.schedule(TimeNs::millis(1), [&] { fired = true; });
  q.cancel(a);  // pre-reset id: guaranteed no-op
  while (!q.empty()) q.run_next();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelDuringDrainKeepsOrder) {
  // Cancelling deep-in-heap events interleaved with pops must not disturb
  // the firing order of live events.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(
        q.schedule(TimeNs::millis(i), [&order, i] { order.push_back(i); }));
  }
  // Cancel every third event up front and every seventh mid-drain.
  for (int i = 0; i < 100; i += 3) q.cancel(ids[static_cast<std::size_t>(i)]);
  int popped = 0;
  while (!q.empty()) {
    q.run_next();
    if (++popped % 5 == 0) {
      const int victim = popped * 7 % 100;
      q.cancel(ids[static_cast<std::size_t>(victim)]);
    }
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LT(order[i - 1], order[i]);
  }
}

// --- Far-future events --------------------------------------------------------
//
// Events from microseconds to many seconds out, mixed in one queue: FIFO ties
// between events scheduled long before and just before their time,
// cancellation early and late, the RTO-style cancel + reschedule chain, and
// reset with distant events pending. (The queue once parked distant events
// in a separate far band; these tests pinned its boundaries and now guard
// the same behaviour on the single heap.)

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
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(TimeNs::millis(800), [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.cancel(id);  // long before it is due
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.next_time().is_infinite());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelFarEventAfterMigration) {
  // Drive the clock to just short of the far event, then cancel by the id
  // handed out at schedule time: the id stays valid while the event waits.
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(TimeNs::millis(500), [&] { fired = true; });
  int fillers = 0;
  q.schedule(TimeNs::millis(496), [&] { ++fillers; });
  q.run_next();  // clock at 496 ms
  EXPECT_EQ(q.size(), 1u);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
  EXPECT_EQ(fillers, 1);
}

TEST(EventQueue, RescheduleAcrossTheMigrationHorizon) {
  // The RTO re-arm pattern: cancel the pending far timer and schedule a
  // replacement — far again, then finally near. Only the last incarnation
  // fires, exactly once, at its own time.
  EventQueue q;
  std::vector<int> order;
  EventId rto = q.schedule(TimeNs::millis(900), [&] { order.push_back(-1); });
  for (int i = 1; i <= 5; ++i) {
    q.cancel(rto);
    rto = q.schedule(TimeNs::millis(900 + i), [&] { order.push_back(-2); });
  }
  q.cancel(rto);
  rto = q.schedule(TimeNs::millis(10), [&] { order.push_back(1); });
  q.schedule(TimeNs::millis(20), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ResetWithPopulatedFarBand) {
  EventQueue q;
  bool fired = false;
  // Events from 1 ms to 100 s out, with a cancel in between.
  q.schedule(TimeNs::millis(1), [&] { fired = true; });
  q.schedule(TimeNs::millis(300), [&] { fired = true; });
  const EventId far_id = q.schedule(TimeNs::millis(700), [&] { fired = true; });
  q.schedule(TimeNs::seconds(5), [&] { fired = true; });
  q.schedule(TimeNs::seconds(100), [&] { fired = true; });
  q.cancel(far_id);
  EXPECT_EQ(q.size(), 4u);

  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.next_time().is_infinite());
  EXPECT_FALSE(fired);

  // Pre-reset ids (including far-future ones) must not cancel new events,
  // and the recycled queue keeps FIFO ties intact.
  std::vector<int> order;
  q.schedule(TimeNs::millis(600), [&order] { order.push_back(2); });
  q.schedule(TimeNs::millis(600), [&order] { order.push_back(3); });
  q.schedule(TimeNs::millis(2), [&order] { order.push_back(1); });
  q.cancel(far_id);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, OverflowBandRedistributesAndFires) {
  // Events seconds out fire in time order; one of them is cancelled long
  // before it is due.
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimeNs::seconds(2), [&] { order.push_back(2); });
  const EventId dead = q.schedule(TimeNs::seconds(3), [&] { order.push_back(-1); });
  q.schedule(TimeNs::seconds(4), [&] { order.push_back(4); });
  q.schedule(TimeNs::seconds(10), [&] { order.push_back(10); });
  q.schedule(TimeNs::millis(5), [&] { order.push_back(0); });
  q.cancel(dead);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.next_time(), TimeNs::millis(5));
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 10}));
}

TEST(EventQueue, CancelledOverflowMinimumDoesNotDisturbLaterEvents) {
  // The earliest far event is cancelled long before it is due (the RTO
  // backoff pattern): when the clock passes its would-be expiry, the stale
  // handle is dropped and the queue must carry on — near events keep
  // firing and the surviving later event still fires at its own time,
  // exactly once.
  EventQueue q;
  std::vector<int> order;
  const EventId dead = q.schedule(TimeNs::seconds(3), [&] { order.push_back(-1); });
  q.schedule(TimeNs::seconds(9), [&] { order.push_back(9); });
  q.cancel(dead);
  // Walk the clock across 3 s in small steps so the cancelled event's time
  // is passed mid-run.
  for (int i = 1; i <= 80; ++i) {
    q.schedule(TimeNs::millis(50 * i), [&order, i] {
      if (i % 20 == 0) order.push_back(i / 20);
    });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 9}));
}

TEST(EventQueue, StressMixedBandsWithCancellations) {
  // Pseudo-random times over 0..8 s, every third event cancelled up front:
  // survivors must fire in exact (time, seq) order.
  EventQueue q;
  std::vector<std::pair<std::int64_t, int>> fired;
  std::vector<EventId> ids;
  std::vector<std::pair<std::int64_t, int>> expected;
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t t =
        static_cast<std::int64_t>((static_cast<std::uint64_t>(i) *
                                   2654435761u) %
                                  8'000'000'000ull);
    ids.push_back(q.schedule(TimeNs(t), [&fired, t, i] {
      fired.push_back({t, i});
    }));
    if (i % 3 != 0) expected.push_back({t, i});
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), expected.size());
  while (!q.empty()) q.run_next();
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
