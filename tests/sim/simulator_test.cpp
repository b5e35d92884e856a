// Unit tests for the Simulator clock/driver and the restartable Timer.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/delay_pipe.h"

namespace ccfuzz::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimeNs::zero());
  std::vector<std::int64_t> seen;
  sim.schedule_in(DurationNs::millis(10),
                  [&] { seen.push_back(sim.now().to_millis()); });
  sim.schedule_in(DurationNs::millis(5),
                  [&] { seen.push_back(sim.now().to_millis()); });
  sim.run_all();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(sim.now(), TimeNs::millis(10));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(DurationNs::millis(5), [&] { ++fired; });
  sim.schedule_in(DurationNs::millis(50), [&] { ++fired; });
  sim.run_until(TimeNs::millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimeNs::millis(20));  // clock parked at the deadline
  sim.run_until(TimeNs::millis(100));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtDeadlineFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(TimeNs::millis(10), [&] { fired = true; });
  sim.run_until(TimeNs::millis(10));
  EXPECT_TRUE(fired);
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.schedule_in(DurationNs::millis(10), [] {});
  sim.run_all();
  bool fired = false;
  sim.schedule_at(TimeNs::millis(1), [&] { fired = true; });  // in the past
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), TimeNs::millis(10));  // clock never went backwards
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(DurationNs::millis(i), [] {});
  EXPECT_EQ(sim.run_all(), 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_in(DurationNs::millis(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Timer, FiresAfterDelay) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(DurationNs::millis(3));
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.expiry(), TimeNs::millis(3));
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator sim;
  std::vector<std::int64_t> fire_times;
  Timer t(sim, [&] { fire_times.push_back(sim.now().to_millis()); });
  t.arm(DurationNs::millis(5));
  t.arm(DurationNs::millis(10));  // replaces the 5 ms expiry
  sim.run_all();
  EXPECT_EQ(fire_times, (std::vector<std::int64_t>{10}));
}

TEST(Timer, CancelStopsPending) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(DurationNs::millis(5));
  t.cancel();
  EXPECT_FALSE(t.pending());
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CanRearmFromItsOwnCallback) {
  Simulator sim;
  int fired = 0;
  Timer* tp = nullptr;
  Timer t(sim, [&] {
    if (++fired < 3) tp->arm(DurationNs::millis(1));
  });
  tp = &t;
  t.arm(DurationNs::millis(1));
  sim.run_all();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), TimeNs::millis(3));
}

TEST(Simulator, DeterministicReplay) {
  // Two identical schedules must produce identical execution traces.
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_in(DurationNs::millis((i * 37) % 50),
                      [&order, i] { order.push_back(i); });
    }
    sim.run_all();
    return order;
  };
  EXPECT_EQ(run(), run());
}

// --- Lanes through the Simulator (net::DelayPipe is the lane) ---------------

TEST(SimulatorLane, ResetEmptiesEveryPipe) {
  Simulator sim;
  int delivered = 0;
  net::DelayPipe pipe(sim, DurationNs::millis(10),
                      [&](net::Packet&&) { ++delivered; });
  for (int i = 0; i < 5; ++i) pipe.send(net::Packet{});
  sim.schedule_in(DurationNs::millis(1), [] {});
  EXPECT_EQ(pipe.in_flight(), 5);
  sim.reset();
  EXPECT_EQ(pipe.in_flight(), 0);
  EXPECT_EQ(sim.run_all(), 0u);
  EXPECT_EQ(delivered, 0);
  pipe.reset(DurationNs::millis(3));
  pipe.send(net::Packet{});
  sim.run_all();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sim.now(), TimeNs::millis(3));
}

TEST(SimulatorLane, ThousandShortLivedPipesGrowNothing) {
  // Pipes come and go (a fresh Dumbbell per run): each deregisters its lane
  // on destruction, dropping whatever it still carries, and the next pipe
  // reuses the lane id.
  Simulator sim;
  int delivered = 0;
  net::DelayPipe keep(sim, DurationNs::millis(1),
                      [&](net::Packet&&) { ++delivered; });
  for (int i = 0; i < 1000; ++i) {
    net::DelayPipe temp(sim, DurationNs::millis(2),
                        [&](net::Packet&&) { ++delivered; });
    temp.send(net::Packet{});
    temp.send(net::Packet{});
    keep.send(net::Packet{});
    if (i % 2 == 0) sim.run_until(sim.now() + DurationNs::micros(1500));
  }
  EXPECT_EQ(sim.events().lane_slots(), 2u);
  sim.run_all();
  EXPECT_EQ(delivered, 1000);  // keep's packets only: temp's died with it
  EXPECT_EQ(sim.events().size(), 0u);
}

TEST(SimulatorLane, EventBudgetTruncatesAtTheSameEvent) {
  // One schedule of sends and timers, delivered once through a pipe and once
  // as plain events: an event budget must stop both after the same event.
  struct Run {
    explicit Run(bool l) : lane(l) {}
    bool lane;
    Simulator sim;
    std::vector<int> fired;
    net::DelayPipe pipe{sim, DurationNs::millis(2), [this](net::Packet&& p) {
                          fired.push_back(static_cast<int>(p.id));
                        }};
  };
  auto run = [](bool lane, std::uint64_t max_events) {
    Run r(lane);
    for (int i = 0; i < 40; ++i) {
      r.sim.schedule_at(TimeNs::millis(i % 5), [&r, i] {
        r.fired.push_back(-i);
        if (r.lane) {
          net::Packet p;
          p.id = static_cast<std::uint64_t>(i);
          r.pipe.send(std::move(p));
        } else {
          r.sim.schedule_in(DurationNs::millis(2),
                            [&r, i] { r.fired.push_back(i); });
        }
      });
    }
    Budget b;
    b.max_events = max_events;
    r.sim.arm_budget(b);
    r.sim.run_all();
    EXPECT_EQ(r.sim.truncation(), TruncationReason::kEventLimit);
    EXPECT_EQ(r.sim.events_executed(), max_events);
    return std::make_pair(r.fired, r.sim.now());
  };
  for (const std::uint64_t limit : {1u, 37u, 41u, 79u}) {
    SCOPED_TRACE(limit);
    EXPECT_EQ(run(true, limit), run(false, limit));
  }
}

}  // namespace
}  // namespace ccfuzz::sim
