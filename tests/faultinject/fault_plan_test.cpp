// FaultPlan grammar + arming semantics: parse round-trips, typed errors for
// malformed specs, trigger/count windows, role scoping, per-rule cell_crash
// counting, and latch persistence (fire once per campaign, not per process).
#include "faultinject/fault_plan.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace ccfuzz::faultinject {
namespace {

namespace fs = std::filesystem;

class FaultPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disarm();
    set_role("");
    base_ = fs::temp_directory_path() /
            ("ccfuzz_fault_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    disarm();
    set_role("");
    ::unsetenv("CCFUZZ_FAULT_PLAN");
    fs::remove_all(base_);
  }

  fs::path base_;
};

TEST_F(FaultPlanTest, ParseRoundTripsThroughToString) {
  const std::string spec =
      "latch=/tmp/l;worker:enospc@1;worker:crash_checkpoint@2;"
      "fsync@3*4;worker:cell_crash=reno.traffic.x@1*99";
  Result<FaultPlan> plan = FaultPlan::parse(spec);
  ASSERT_TRUE(plan) << plan.error().message;
  EXPECT_EQ(plan->to_string(), spec);
  // The reserialized form parses back to the same plan.
  Result<FaultPlan> again = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again);
  EXPECT_EQ(again->to_string(), spec);
  ASSERT_EQ(plan->rules.size(), 4u);
  EXPECT_EQ(plan->latch_dir, "/tmp/l");
  EXPECT_EQ(plan->rules[0].site, FaultSite::kNoSpace);
  EXPECT_EQ(plan->rules[0].role, "worker");
  EXPECT_EQ(plan->rules[2].trigger, 3);
  EXPECT_EQ(plan->rules[2].count, 4);
  EXPECT_EQ(plan->rules[3].arg, "reno.traffic.x");
}

TEST_F(FaultPlanTest, MalformedSpecsAreTypedParseErrors) {
  const char* bad[] = {
      "",                      // no rules at all
      "enospc",                // missing @trigger
      "bogus_site@1",          // unknown site
      "cell_crash@1",          // cell_crash without =<cell>
      "enospc@0",              // trigger < 1
      "enospc@1*0",            // count < 1
      "latch=",                // empty latch dir
      "enospc@1x",             // trailing junk after the trigger
      "enospc@2*3junk",        // trailing junk after the count
      "enospc@99999999999",    // trigger overflows int
  };
  for (const char* spec : bad) {
    Result<FaultPlan> plan = FaultPlan::parse(spec);
    ASSERT_FALSE(plan) << "accepted: " << spec;
    EXPECT_EQ(plan.error().code, Error::Code::kParse) << spec;
  }
}

TEST_F(FaultPlanTest, UnarmedHooksNeverFire) {
  EXPECT_EQ(active(), nullptr);
  EXPECT_FALSE(should_fire(FaultSite::kNoSpace));
  EXPECT_FALSE(should_fire(FaultSite::kCellCrash, "any"));
}

TEST_F(FaultPlanTest, TriggerAndCountDefineTheFiringWindow) {
  Result<FaultPlan> plan = FaultPlan::parse("fsync@2*2");
  ASSERT_TRUE(plan);
  arm(std::move(*plan));
  ASSERT_NE(active(), nullptr);
  EXPECT_FALSE(should_fire(FaultSite::kFsyncFail));  // hit 1
  EXPECT_TRUE(should_fire(FaultSite::kFsyncFail));   // hit 2: window start
  EXPECT_TRUE(should_fire(FaultSite::kFsyncFail));   // hit 3: window end
  EXPECT_FALSE(should_fire(FaultSite::kFsyncFail));  // hit 4: past it
  // Other sites share nothing with this rule.
  EXPECT_FALSE(should_fire(FaultSite::kRenameFail));
  disarm();
  EXPECT_EQ(active(), nullptr);
  EXPECT_FALSE(should_fire(FaultSite::kFsyncFail));
}

TEST_F(FaultPlanTest, RoleScopedRulesOnlyFireForTheMatchingRole) {
  Result<FaultPlan> plan = FaultPlan::parse("worker:rename@1*99");
  ASSERT_TRUE(plan);
  set_role("supervisor");
  arm(std::move(*plan));
  EXPECT_FALSE(should_fire(FaultSite::kRenameFail));
  set_role("worker");
  EXPECT_TRUE(should_fire(FaultSite::kRenameFail));
}

TEST_F(FaultPlanTest, CellCrashHitsCountPerRuleNotGlobally) {
  Result<FaultPlan> plan = FaultPlan::parse("cell_crash=target@2");
  ASSERT_TRUE(plan);
  arm(std::move(*plan));
  // Other cells' generations must not advance the target's hit line.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(should_fire(FaultSite::kCellCrash, "bystander"));
  }
  EXPECT_FALSE(should_fire(FaultSite::kCellCrash, "target"));  // its hit 1
  EXPECT_TRUE(should_fire(FaultSite::kCellCrash, "target"));   // its hit 2
}

TEST_F(FaultPlanTest, LatchMakesFireOncePerCampaignNotPerProcess) {
  const std::string spec = "latch=" + base_.string() + ";rename@1";
  Result<FaultPlan> plan = FaultPlan::parse(spec);
  ASSERT_TRUE(plan);
  arm(std::move(*plan));
  EXPECT_TRUE(should_fire(FaultSite::kRenameFail));  // fires, latches
  disarm();

  // A "restarted process" arms the identical plan: the latch disarms the
  // already-fired rule, so the hook stays quiet forever after.
  Result<FaultPlan> rearm = FaultPlan::parse(spec);
  ASSERT_TRUE(rearm);
  arm(std::move(*rearm));
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(should_fire(FaultSite::kRenameFail)) << "refired on hit "
                                                      << i + 1;
  }
}

TEST_F(FaultPlanTest, LatchResumesTheHitLineMidWindow) {
  // count=2 window at hits 1..2; the first process fires hit 1 then "dies".
  const std::string spec = "latch=" + base_.string() + ";fsync@1*2";
  Result<FaultPlan> plan = FaultPlan::parse(spec);
  ASSERT_TRUE(plan);
  arm(std::move(*plan));
  EXPECT_TRUE(should_fire(FaultSite::kFsyncFail));  // effective hit 1
  disarm();

  // The restart's first hit continues at effective hit 2 (still in the
  // window), its second falls past it.
  Result<FaultPlan> rearm = FaultPlan::parse(spec);
  ASSERT_TRUE(rearm);
  arm(std::move(*rearm));
  EXPECT_TRUE(should_fire(FaultSite::kFsyncFail));   // effective hit 2
  EXPECT_FALSE(should_fire(FaultSite::kFsyncFail));  // effective hit 3
}

TEST_F(FaultPlanTest, ArmFromEnvArmsValidatesAndNoOpsWhenUnset) {
  ::unsetenv("CCFUZZ_FAULT_PLAN");
  EXPECT_FALSE(arm_from_env());  // unset: clean no-op
  EXPECT_EQ(active(), nullptr);

  ::setenv("CCFUZZ_FAULT_PLAN", "not a plan", 1);
  Error e = arm_from_env();
  EXPECT_EQ(e.code, Error::Code::kParse);
  EXPECT_EQ(active(), nullptr);  // malformed must not half-arm

  ::setenv("CCFUZZ_FAULT_PLAN", "enospc@1", 1);
  EXPECT_FALSE(arm_from_env());
  ASSERT_NE(active(), nullptr);
  EXPECT_TRUE(should_fire(FaultSite::kNoSpace));
}

}  // namespace
}  // namespace ccfuzz::faultinject
