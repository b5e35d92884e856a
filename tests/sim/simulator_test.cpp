// Unit tests for the Simulator clock/driver and the restartable Timer.
// Plain events are scripted one-shot timers (scripted_events.h).
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "../net/sinks.h"
#include "net/delay_pipe.h"
#include "scripted_events.h"

namespace ccfuzz::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Script s(sim);
  EXPECT_EQ(sim.now(), TimeNs::zero());
  std::vector<std::int64_t> seen;
  s.in(DurationNs::millis(10), [&] { seen.push_back(sim.now().to_millis()); });
  s.in(DurationNs::millis(5), [&] { seen.push_back(sim.now().to_millis()); });
  sim.run_all();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(sim.now(), TimeNs::millis(10));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  Script s(sim);
  int fired = 0;
  s.in(DurationNs::millis(5), [&] { ++fired; });
  s.in(DurationNs::millis(50), [&] { ++fired; });
  sim.run_until(TimeNs::millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimeNs::millis(20));  // clock parked at the deadline
  sim.run_until(TimeNs::millis(100));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtDeadlineFires) {
  Simulator sim;
  Script s(sim);
  bool fired = false;
  s.at(TimeNs::millis(10), [&] { fired = true; });
  sim.run_until(TimeNs::millis(10));
  EXPECT_TRUE(fired);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  Script s(sim);
  for (int i = 0; i < 7; ++i) s.in(DurationNs::millis(i), [] {});
  EXPECT_EQ(sim.run_all(), 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Timer, FiresAfterDelay) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {
    ++fired;
    EXPECT_EQ(sim.now(), TimeNs::millis(3));
  });
  t.arm(DurationNs::millis(3));
  EXPECT_TRUE(t.pending());
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

TEST(Timer, ArmAtPastClampsToNow) {
  // An expiry already in the past fires now, through arm_at() and through a
  // negative arm() delay alike: the clock never runs backwards.
  Simulator sim;
  Script s(sim);
  s.in(DurationNs::millis(10), [] {});
  sim.run_all();
  std::vector<std::int64_t> fired;
  Timer t(sim, [&] { fired.push_back(sim.now().to_millis()); });
  t.arm_at(TimeNs::millis(1));  // in the past
  sim.run_all();
  t.arm(DurationNs::millis(-3));
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 10}));
  EXPECT_EQ(sim.now(), TimeNs::millis(10));  // clock never went backwards
}

TEST(Timer, DestroyedWhileArmedNeverFires) {
  Simulator sim;
  int dead = 0;
  int live = 0;
  {
    Timer t(sim, [&] { ++dead; });
    t.arm(DurationNs::millis(5));
    EXPECT_EQ(sim.events().size(), 1u);
  }
  EXPECT_EQ(sim.events().size(), 0u);
  // A timer constructed next reuses the dead one's lane id; only it fires.
  Timer u(sim, [&] { ++live; });
  u.arm(DurationNs::millis(10));
  EXPECT_EQ(sim.run_all(), 1u);
  EXPECT_EQ(dead, 0);
  EXPECT_EQ(live, 1);
  EXPECT_EQ(sim.now(), TimeNs::millis(10));
}

// Differential harness: random timer traffic driven once through sim::Timer
// and once through ReferenceTimer, which adds one fresh one-shot timer per
// arm(), as Timer behaved before it became a lane. Timers are re-armed
// later, earlier and at the same time, cancelled, cancelled then re-armed,
// and re-armed from their own callback, mixed with one-shot events and a
// delay pipe, across a Simulator::reset. Times are whole milliseconds, so
// exact-time ties are common; both runs must fire the same events in the
// same order with the same queue size.

template <typename T>
class TimerSystem {
 public:
  /// (time ns, label, queue size when it fired)
  using Fire = std::tuple<std::int64_t, int, std::size_t>;

  TimerSystem() {
    for (int i = 0; i < kTimers; ++i) {
      timers_.push_back(std::make_unique<T>(sim_, [this, i] {
        if (actions_ < kActions && rng_() % 3 == 0) {
          ++actions_;
          arm(i, DurationNs::millis(rng_() % 4));  // from its own callback
        }
        on_fire(kTimerLabel + i);
      }));
    }
  }

  /// Two phases split by a reset; returns every fire plus, per phase, the
  /// events executed (as pseudo-fires labelled -1).
  std::vector<Fire> run() {
    seed();
    sim_.run_until(TimeNs::millis(400));
    log_.emplace_back(-1, -1, events_executed());
    queued_at_reset_ = size();
    sim_.reset();
    pipe_.reset(DurationNs::millis(3));
    for (auto& t : timers_) {
      if constexpr (kReference) {
        t->forget_events();
      } else {
        t->cancel();  // as TcpSender::reset does
      }
    }
    seed();
    sim_.run_all();
    log_.emplace_back(-1, -1, events_executed());
    return log_;
  }

  int actions() const { return actions_; }
  std::size_t queued_at_reset() const { return queued_at_reset_; }

 private:
  static constexpr bool kReference = std::is_same_v<T, ReferenceTimer>;
  static constexpr int kTimers = 6;
  static constexpr int kActions = 20'000;  // per system, over both phases
  static constexpr int kTimerLabel = 1'000'000;

  void seed() {
    for (int i = 0; i < kTimers; ++i) arm(i, DurationNs::millis(i % 3));
    for (int i = 0; i < 4; ++i) plain(DurationNs::millis(i));
  }
  void arm(int i, DurationNs delay) {
    timers_[i]->arm(delay);
    expiry_[i] = sim_.now() + delay;
  }
  void plain(DurationNs delay) {
    const int label = next_label_++;
    script_.in(delay, [this, label] { on_fire(label); });
  }
  /// The queue's size and events run, less the reference's stale events.
  std::size_t size() {
    std::size_t n = sim_.events().size();
    if constexpr (kReference) {
      for (const auto& t : timers_) n -= t->stale_pending();
    }
    return n;
  }
  std::uint64_t events_executed() const {
    std::uint64_t n = sim_.events_executed();
    if constexpr (kReference) {
      for (const auto& t : timers_) n -= t->stale_fired();
    }
    return n;
  }
  void on_delivery(net::Packet&& p) { on_fire(static_cast<int>(p.id)); }
  void on_fire(int label) {
    log_.emplace_back(sim_.now().ns(), label, size());
    for (unsigned k = 1 + rng_() % 3; k > 0 && actions_ < kActions; --k) {
      ++actions_;
      act();
    }
  }
  void act() {
    const int i = static_cast<int>(rng_() % kTimers);
    T& t = *timers_[i];
    // Time to the pending expiry (never negative, even for a queue that
    // fires a timer late).
    const DurationNs left =
        t.pending() ? std::max(expiry_[i] - sim_.now(), DurationNs::zero())
                    : DurationNs::millis(rng_() % 3);
    const auto ms = [this](unsigned n) {
      return DurationNs::millis(rng_() % n);
    };
    switch (rng_() % 8) {
      case 0:  // later, now and then RTO-far
        arm(i, left + (rng_() % 16 == 0 ? DurationNs::seconds(1) : ms(4)) +
                   DurationNs::millis(1));
        break;
      case 1:  // earlier (or now)
        arm(i, DurationNs::millis(rng_() % (left.ns() / 1'000'000 + 1)));
        break;
      case 2:  // the same time
        arm(i, left);
        break;
      case 3:
        t.cancel();
        break;
      case 4:
        t.cancel();
        arm(i, ms(5));
        break;
      case 5:
        arm(i, ms(6));
        break;
      case 6:
        plain(ms(5));
        break;
      default: {
        net::Packet p;
        p.id = static_cast<std::uint64_t>(next_label_++);
        pipe_.receive(std::move(p));
      }
    }
  }

  Simulator sim_;
  Script script_{sim_};
  std::mt19937 rng_{2024};
  int actions_ = 0;
  int next_label_ = 0;
  std::size_t queued_at_reset_ = 0;
  std::vector<Fire> log_;
  std::array<TimeNs, kTimers> expiry_{};
  net::PortSink<TimerSystem, &TimerSystem::on_delivery> delivery_{*this};
  net::DelayPipe pipe_{sim_, DurationNs::millis(2), delivery_};
  std::vector<std::unique_ptr<T>> timers_;
};

TEST(Timer, RandomizedRearmsMatchCancelAndSchedule) {
  TimerSystem<ReferenceTimer> reference;
  TimerSystem<Timer> lanes;
  const auto want = reference.run();
  const auto got = lanes.run();
  ASSERT_GT(want.size(), 5000u);
  EXPECT_GT(reference.queued_at_reset(), 0u);
  EXPECT_EQ(reference.actions(), lanes.actions());
  EXPECT_EQ(got, want);
}

TEST(Simulator, DeterministicReplay) {
  // Two identical schedules must produce identical execution traces.
  auto run = [] {
    Simulator sim;
    Script s(sim);
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      s.in(DurationNs::millis((i * 37) % 50),
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
  Script s(sim);
  int delivered = 0;
  net::FnSink count([&](net::Packet&&) { ++delivered; });
  net::DelayPipe pipe(sim, DurationNs::millis(10), count);
  for (int i = 0; i < 5; ++i) pipe.receive(net::Packet{});
  s.in(DurationNs::millis(1), [] {});
  EXPECT_EQ(pipe.in_flight(), 5);
  sim.reset();
  EXPECT_EQ(pipe.in_flight(), 0);
  EXPECT_EQ(sim.run_all(), 0u);
  EXPECT_EQ(delivered, 0);
  pipe.reset(DurationNs::millis(3));
  pipe.receive(net::Packet{});
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
  net::FnSink count([&](net::Packet&&) { ++delivered; });
  net::DelayPipe keep(sim, DurationNs::millis(1), count);
  for (int i = 0; i < 1000; ++i) {
    net::DelayPipe temp(sim, DurationNs::millis(2), count);
    temp.receive(net::Packet{});
    temp.receive(net::Packet{});
    keep.receive(net::Packet{});
    if (i % 2 == 0) sim.run_until(sim.now() + DurationNs::micros(1500));
  }
  EXPECT_EQ(sim.events().lane_slots(), 2u);
  sim.run_all();
  EXPECT_EQ(delivered, 1000);  // keep's packets only: temp's died with it
  EXPECT_EQ(sim.events().size(), 0u);
}

TEST(SimulatorLane, EventBudgetTruncatesAtTheSameEvent) {
  // One schedule of sends and timers, delivered once through a pipe and once
  // as one-shot events: an event budget must stop both after the same event.
  struct Run {
    explicit Run(bool l) : lane(l) {}
    void on_delivery(net::Packet&& p) {
      fired.push_back(static_cast<int>(p.id));
    }
    bool lane;
    Simulator sim;
    Script script{sim};
    std::vector<int> fired;
    net::PortSink<Run, &Run::on_delivery> delivery{*this};
    net::DelayPipe pipe{sim, DurationNs::millis(2), delivery};
  };
  auto run = [](bool lane, std::uint64_t max_events) {
    Run r(lane);
    for (int i = 0; i < 40; ++i) {
      r.script.at(TimeNs::millis(i % 5), [&r, i] {
        r.fired.push_back(-i);
        if (r.lane) {
          net::Packet p;
          p.id = static_cast<std::uint64_t>(i);
          r.pipe.receive(std::move(p));
        } else {
          r.script.in(DurationNs::millis(2),
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
