// sim::Invariants — the armed-flag runtime oracle layer.
//
// Two contracts: (a) the recorder itself is a cheap, capped, disarmed-by-
// default accumulator, and (b) armed invariants pass cleanly on every golden
// scenario while leaving the simulation outcome untouched (the audits only
// read state — they may add simulator events, never packets).
#include "sim/invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "../scenario/dumbbell_rig.h"
#include "cca/registry.h"
#include "scenario/runner.h"
#include "trace/dist_packets.h"
#include "util/rng.h"

namespace ccfuzz::sim {
namespace {

TEST(Invariants, DisarmedRecordIsANoOp) {
  Invariants inv;
  inv.record(TimeNs::zero(), "should vanish");
  inv.check(false, TimeNs::zero(), "also vanishes");
  EXPECT_TRUE(inv.clean());
  EXPECT_EQ(inv.total(), 0);
  EXPECT_TRUE(inv.violations().empty());
}

TEST(Invariants, ArmedRecordsUpToTheCap) {
  Invariants inv;
  inv.reset(/*armed=*/true);
  for (int i = 0; i < 100; ++i) {
    inv.check(false, TimeNs(i), "boom");
  }
  EXPECT_FALSE(inv.clean());
  EXPECT_EQ(inv.total(), 100);
  EXPECT_EQ(inv.violations().size(), Invariants::kMaxRecorded);
  EXPECT_EQ(inv.violations().front().when, TimeNs(0));
}

TEST(Invariants, PassingChecksStayClean) {
  Invariants inv;
  inv.reset(/*armed=*/true);
  inv.check(true, TimeNs::zero(), "fine");
  EXPECT_TRUE(inv.clean());
  EXPECT_EQ(inv.total(), 0);
}

TEST(Invariants, ResetDisarmedDropsPriorViolations) {
  Invariants inv;
  inv.reset(/*armed=*/true);
  inv.record(TimeNs::zero(), "stale");
  inv.reset(/*armed=*/false);
  EXPECT_TRUE(inv.clean());
  EXPECT_TRUE(inv.violations().empty());
  inv.record(TimeNs::zero(), "ignored while disarmed");
  EXPECT_TRUE(inv.clean());
}

}  // namespace
}  // namespace ccfuzz::sim

namespace ccfuzz::scenario {
namespace {

ScenarioConfig armed_config(FuzzMode mode) {
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.mode = mode;
  cfg.invariants = true;
  return cfg;
}

std::vector<TimeNs> probe_trace(FuzzMode mode, TimeNs duration) {
  Rng rng(mode == FuzzMode::kLink ? 42 : 7);
  return trace::dist_packets(mode == FuzzMode::kLink ? 2000 : 1500,
                             TimeNs::zero(), duration, rng);
}

TEST(InvariantsOracle, ArmedGoldenScenariosAreClean) {
  // Packet conservation, cwnd floor, SACK-scoreboard consistency and the
  // rest must hold on every registered CCA in both fuzz modes; a violation
  // here is a simulator bug, full stop.
  for (const char* cca : {"reno", "cubic", "bbr"}) {
    for (const FuzzMode mode : {FuzzMode::kLink, FuzzMode::kTraffic}) {
      SCOPED_TRACE(std::string(cca) + "/" + to_string(mode));
      const ScenarioConfig cfg = armed_config(mode);
      const auto run = run_scenario(cfg, cca::make_factory(cca),
                                    probe_trace(mode, cfg.duration));
      EXPECT_TRUE(run.invariants.clean())
          << run.invariants.total() << " violation(s), first: "
          << (run.invariants.violations().empty()
                  ? "<none recorded>"
                  : run.invariants.violations().front().what);
    }
  }
}

TEST(InvariantsOracle, PacketLedgerBalancesThroughoutGoldenScenarios) {
  // The conservation ledger the audits check, read every millisecond of
  // every golden scenario: each CCA data transmission is in an access pipe,
  // queued, in service, dropped, propagating or arrived — exactly one of
  // them, at every instant. Every place must actually hold packets somewhere
  // in the sweep, or the balance would prove nothing about it.
  PacketLedger most;
  for (const char* cca : {"reno", "cubic", "bbr"}) {
    for (const FuzzMode mode : {FuzzMode::kLink, FuzzMode::kTraffic}) {
      SCOPED_TRACE(std::string(cca) + "/" + to_string(mode));
      const ScenarioConfig cfg = armed_config(mode);
      const auto trace = probe_trace(mode, cfg.duration);
      DumbbellRig rig;
      rig.start(cfg, cca::make_factory(cca), trace);
      std::int64_t unbalanced = 0;
      for (TimeNs t = TimeNs::zero(); t <= cfg.duration;
           t = t + DurationNs::millis(1)) {
        rig.sim.run_until(t);
        const PacketLedger l = rig.db.packet_ledger();
        if (!l.balanced()) ++unbalanced;
        most.in_access = std::max(most.in_access, l.in_access);
        most.queued = std::max(most.queued, l.queued);
        most.in_service = std::max(most.in_service, l.in_service);
        most.dropped = std::max(most.dropped, l.dropped);
        most.propagating = std::max(most.propagating, l.propagating);
        most.arrived = std::max(most.arrived, l.arrived);
      }
      EXPECT_EQ(unbalanced, 0);
    }
  }
  EXPECT_GT(most.in_access, 0);
  EXPECT_GT(most.queued, 0);
  EXPECT_EQ(most.in_service, 1);  // the fixed-rate link serializes one
  EXPECT_GT(most.dropped, 0);
  EXPECT_GT(most.propagating, 0);
  EXPECT_GT(most.arrived, 0);
}

TEST(InvariantsOracle, ArmedAuditsDoNotPerturbTheRun) {
  // The audit events interleave with packet events but only read state:
  // every outcome counter must match the disarmed run exactly.
  for (const FuzzMode mode : {FuzzMode::kLink, FuzzMode::kTraffic}) {
    SCOPED_TRACE(to_string(mode));
    ScenarioConfig disarmed = armed_config(mode);
    disarmed.invariants = false;
    const auto factory = cca::make_factory("reno");
    const auto base =
        run_scenario(disarmed, factory, probe_trace(mode, disarmed.duration));
    const auto armed = run_scenario(armed_config(mode), factory,
                                    probe_trace(mode, disarmed.duration));
    EXPECT_TRUE(armed.invariants.clean());
    EXPECT_EQ(armed.primary().segments_delivered,
              base.primary().segments_delivered);
    EXPECT_EQ(armed.primary().sent, base.primary().sent);
    EXPECT_EQ(armed.primary().retransmissions, base.primary().retransmissions);
    EXPECT_EQ(armed.primary().drops, base.primary().drops);
    EXPECT_EQ(armed.primary().rto_count, base.primary().rto_count);
    EXPECT_EQ(armed.cross_sent, base.cross_sent);
    EXPECT_EQ(armed.cross_drops, base.cross_drops);
    EXPECT_TRUE(base.invariants.clean());  // disarmed: trivially clean
  }
}

TEST(InvariantsOracle, ArmedMultiFlowScenarioIsClean) {
  ScenarioConfig cfg = armed_config(FuzzMode::kTraffic);
  cfg.flows.resize(2);
  cfg.flows[1].cca = "cubic";
  cfg.flows[1].start = TimeNs::millis(500);
  Rng rng(202);
  const auto run = run_scenario(
      cfg, cca::make_factory("reno"),
      trace::dist_packets(1500, TimeNs::zero(), cfg.duration, rng));
  EXPECT_TRUE(run.invariants.clean())
      << run.invariants.total() << " violation(s)";
}

}  // namespace
}  // namespace ccfuzz::scenario
