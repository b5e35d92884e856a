// Run guards (sim::Budget): runaway scenarios truncate gracefully into a
// flagged RunResult instead of hanging the process.
#include "sim/budget.h"

#include <gtest/gtest.h>

#include <string>

#include "../scenario/dumbbell_rig.h"
#include "cca/registry.h"
#include "scenario/runner.h"
#include "trace/dist_packets.h"
#include "util/rng.h"

namespace ccfuzz::sim {
namespace {

scenario::ScenarioConfig base_config() {
  scenario::ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(3);
  return cfg;
}

TEST(Budget, DefaultIsUnlimited) {
  Budget b;
  EXPECT_TRUE(b.unlimited());
  b.max_events = 10;
  EXPECT_FALSE(b.unlimited());
  b = Budget{};
  b.max_sim_time = DurationNs::seconds(1);
  EXPECT_FALSE(b.unlimited());
  b = Budget{};
  b.max_wall_time = DurationNs::millis(1);
  EXPECT_FALSE(b.unlimited());
}

TEST(Budget, TruncationReasonNames) {
  EXPECT_EQ(std::string(to_string(TruncationReason::kNone)), "none");
  EXPECT_EQ(std::string(to_string(TruncationReason::kEventLimit)),
            "event-limit");
  EXPECT_EQ(std::string(to_string(TruncationReason::kSimTimeLimit)),
            "sim-time-limit");
  EXPECT_EQ(std::string(to_string(TruncationReason::kWallDeadline)),
            "wall-deadline");
}

TEST(RunGuards, UnlimitedRunIsNotTruncated) {
  const auto r = run_scenario(base_config(), cca::make_factory("reno"), {});
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.truncation, TruncationReason::kNone);
}

TEST(RunGuards, EventLimitTruncatesGracefully) {
  const auto clean =
      run_scenario(base_config(), cca::make_factory("reno"), {});
  auto cfg = base_config();
  cfg.budget.max_events = 1000;
  const auto r = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.truncation, TruncationReason::kEventLimit);
  // The run ended early but still produced a coherent, scoreable result.
  EXPECT_LT(r.primary().segments_delivered, clean.primary().segments_delivered);
  EXPECT_GE(r.goodput_mbps(), 0.0);
}

TEST(RunGuards, EventLimitTruncationIsDeterministic) {
  auto cfg = base_config();
  cfg.budget.max_events = 2000;
  const auto a = run_scenario(cfg, cca::make_factory("cubic"), {});
  const auto b = run_scenario(cfg, cca::make_factory("cubic"), {});
  EXPECT_TRUE(a.truncated);
  EXPECT_EQ(a.truncation, b.truncation);
  EXPECT_EQ(a.primary().sent, b.primary().sent);
  EXPECT_EQ(a.primary().segments_delivered, b.primary().segments_delivered);
}

TEST(RunGuards, EventLimitTruncationPointIsPinned) {
  // Reno on the golden traces of both modes, cut mid-way by an event budget.
  // The event at which the run stops, and the counters and clock it leaves,
  // depend on every (time, seq) pair before it: a change to how the link,
  // the pipes or the timers file their events moves at least one of them.
  // A rig run exposes the simulator's event count and clock; run_scenario
  // must stop at the same point.
  struct Case {
    scenario::FuzzMode mode;
    std::uint64_t max_events;
    std::int64_t sent;
    std::int64_t delivered;
    std::int64_t clock_ns;
  };
  const Case cases[] = {
      {scenario::FuzzMode::kLink, 3000, 735, 685, 1'464'415'983},
      {scenario::FuzzMode::kTraffic, 3000, 215, 109, 1'140'217'052},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(scenario::to_string(c.mode));
    scenario::ScenarioConfig cfg;
    cfg.duration = TimeNs::seconds(2);
    cfg.mode = c.mode;
    cfg.budget.max_events = c.max_events;
    const bool link = c.mode == scenario::FuzzMode::kLink;
    Rng rng(link ? 42 : 7);
    const auto trace = trace::dist_packets(link ? 2000 : 1500, TimeNs::zero(),
                                           cfg.duration, rng);
    const auto factory = cca::make_factory("reno");

    scenario::DumbbellRig rig;
    rig.start(cfg, factory, trace);
    rig.sim.arm_budget(cfg.budget);
    rig.sim.run_until(cfg.duration);
    EXPECT_EQ(rig.sim.truncation(), TruncationReason::kEventLimit);
    EXPECT_EQ(rig.sim.events_executed(), c.max_events);
    EXPECT_EQ(rig.db.sender().total_sent(), c.sent);
    EXPECT_EQ(rig.db.receiver().segments_received(), c.delivered);
    EXPECT_EQ(rig.sim.now().ns(), c.clock_ns);
    EXPECT_LT(rig.sim.now(), cfg.duration);  // mid-way, not at the end

    const auto r = run_scenario(cfg, factory, trace);
    EXPECT_EQ(r.truncation, TruncationReason::kEventLimit);
    EXPECT_EQ(r.primary().sent, c.sent);
    EXPECT_EQ(r.primary().segments_delivered, c.delivered);
  }
}

TEST(RunGuards, SimTimeLimitCapsTheDeadline) {
  const auto clean =
      run_scenario(base_config(), cca::make_factory("reno"), {});
  auto cfg = base_config();
  cfg.budget.max_sim_time = DurationNs::seconds(1);
  const auto r = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.truncation, TruncationReason::kSimTimeLimit);
  EXPECT_LT(r.primary().segments_delivered, clean.primary().segments_delivered);
}

TEST(RunGuards, SimTimeLimitLongerThanDurationIsANoop) {
  auto cfg = base_config();
  cfg.budget.max_sim_time = DurationNs::seconds(30);
  const auto r = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_FALSE(r.truncated);
}

TEST(RunGuards, ExpiredWallDeadlineTruncates) {
  // A deadline that has already passed when the run starts: the first wall
  // check (every 4096 events) stops the run.
  auto cfg = base_config();
  cfg.duration = TimeNs::seconds(10);
  cfg.budget.max_wall_time = DurationNs(1);
  const auto r = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.truncation, TruncationReason::kWallDeadline);
}

TEST(RunGuards, GenerousWallDeadlineDoesNotTruncate) {
  auto cfg = base_config();
  cfg.budget.max_wall_time = DurationNs::seconds(300);
  const auto r = run_scenario(cfg, cca::make_factory("reno"), {});
  EXPECT_FALSE(r.truncated);
}

}  // namespace
}  // namespace ccfuzz::sim
