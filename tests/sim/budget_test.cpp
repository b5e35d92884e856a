// Run guards (sim::Budget): runaway scenarios truncate gracefully into a
// flagged RunResult instead of hanging the process.
#include "sim/budget.h"

#include <gtest/gtest.h>

#include <string>

#include "cca/registry.h"
#include "scenario/runner.h"

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
