// Golden equivalence tests for the determinism contract (paper §3.6).
//
// Every registered CCA runs on fixed scenarios + traces and must produce
// (a) bit-identical RunResults across repeated runs — including runs sharing
// one warm RunContext — and (b) the exact event counts and FNV fingerprints
// recorded from the event core as it existed BEFORE the zero-allocation
// rewrite (slab/generation EventQueue, pooled packets, RunContext), and
// kept through every later one (event lanes included). Any change
// to event ordering, packet bookkeeping or clock behavior trips these.
#include <cstdint>

#include <gtest/gtest.h>

#include "cca/registry.h"
#include "scenario/crafted.h"
#include "scenario/runner.h"
#include "trace/dist_packets.h"
#include "util/rng.h"

namespace ccfuzz::scenario {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Order-sensitive digest of everything observable from a run: outcome
/// counters plus the full per-packet bottleneck record streams.
std::uint64_t fingerprint(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, r.primary().segments_delivered);
  h = fnv1a(h, r.primary().egress_packets);
  h = fnv1a(h, r.primary().sent);
  h = fnv1a(h, r.primary().retransmissions);
  h = fnv1a(h, r.primary().drops);
  h = fnv1a(h, r.primary().rto_count);
  h = fnv1a(h, r.primary().fast_recovery_count);
  h = fnv1a(h, r.primary().spurious_retx_count);
  h = fnv1a(h, r.primary().final_rto_backoff);
  h = fnv1a(h, r.cross_sent);
  h = fnv1a(h, r.cross_drops);
  h = fnv1a(h, r.queue_stats.total_enqueued());
  h = fnv1a(h, r.queue_stats.total_dropped());
  for (const auto& e : r.recorder.ingress()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow));
  }
  for (const auto& e : r.recorder.egress()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow));
  }
  for (const auto& e : r.recorder.drops()) {
    h = fnv1a(h, e.time.ns());
    h = fnv1a(h, static_cast<std::int64_t>(e.flow));
  }
  for (const auto& d : r.recorder.delays()) {
    h = fnv1a(h, d.queue_delay.ns());
  }
  return h;
}

struct GoldenCase {
  const char* cca;
  FuzzMode mode;
  std::int64_t delivered;
  std::int64_t sent;
  std::int64_t retx;
  std::int64_t drops;
  std::int64_t rto;
  std::uint64_t hash;
};

// Recorded from the pre-refactor event core (std::function heap,
// unordered_set cancellation, per-run allocation) at 2 s durations with the
// traces built below. The rewrite must reproduce these bit for bit.
constexpr GoldenCase kGolden[] = {
    {"reno", FuzzMode::kLink, 1118, 1209, 38, 40, 0, 0x1b7938079fd48a03ULL},
    {"reno", FuzzMode::kTraffic, 363, 418, 44, 44, 1, 0xb84d8247a1235b40ULL},
    {"cubic", FuzzMode::kLink, 273, 408, 60, 72, 1, 0x3c0e9eb738290ae8ULL},
    {"cubic", FuzzMode::kTraffic, 180, 261, 55, 59, 1, 0xaadaf794bbdbb6beULL},
    {"bbr", FuzzMode::kLink, 377, 510, 62, 64, 0, 0x38af1559ec08e174ULL},
    {"bbr", FuzzMode::kTraffic, 416, 513, 71, 71, 1, 0x3bf5414bac262fc5ULL},
};

ScenarioConfig golden_config(FuzzMode mode) {
  ScenarioConfig cfg;
  cfg.duration = TimeNs::seconds(2);
  cfg.mode = mode;
  // The fingerprints digest the raw event streams recorded before the
  // streaming-metrics refactor; keep recording them here.
  cfg.record_mode = RecordMode::kFullEvents;
  return cfg;
}

std::vector<TimeNs> golden_trace(FuzzMode mode, TimeNs duration) {
  Rng rng(mode == FuzzMode::kLink ? 42 : 7);
  return trace::dist_packets(mode == FuzzMode::kLink ? 2000 : 1500,
                             TimeNs::zero(), duration, rng);
}

TEST(GoldenDeterminism, MatchesPreRefactorFingerprints) {
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    const ScenarioConfig cfg = golden_config(g.mode);
    const auto run =
        run_scenario(cfg, cca::make_factory(g.cca),
                     golden_trace(g.mode, cfg.duration));
    EXPECT_EQ(run.primary().segments_delivered, g.delivered);
    EXPECT_EQ(run.primary().sent, g.sent);
    EXPECT_EQ(run.primary().retransmissions, g.retx);
    EXPECT_EQ(run.primary().drops, g.drops);
    EXPECT_EQ(run.primary().rto_count, g.rto);
    EXPECT_EQ(fingerprint(run), g.hash);
  }
}

TEST(GoldenDeterminism, BandMigrationMatchesPreTwoBandFingerprints) {
  // Long-horizon timer traffic: RTO expiries with exponential backoff arm
  // multi-second timers (case A: service burst, 3 s dead air, service
  // burst), and staggered flow stop times schedule far-future events at
  // start (case B), over 6 s. Expected values were recorded from a plain
  // single-heap core, before the event queue grew (and later lost again) a
  // far band for distant events; each timer is now a re-keyed one-entry
  // lane, and execution order must still be bit-identical. Both cases also
  // run with the invariant oracle armed: its audits only read state, and
  // the seqs they take reorder no other event.
  for (const bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "armed" : "disarmed");
    {
      ScenarioConfig cfg;
      cfg.duration = TimeNs::seconds(6);
      cfg.mode = FuzzMode::kLink;
      cfg.record_mode = RecordMode::kFullEvents;
      std::vector<TimeNs> trace;
      for (int i = 0; i < 400; ++i) trace.push_back(TimeNs(2'500'000ll * i));
      for (int i = 0; i < 800; ++i) {
        trace.push_back(TimeNs::seconds(4) + DurationNs(2'500'000ll * i));
      }
      cfg.invariants = armed;
      const auto run =
          run_scenario(cfg, cca::make_factory("reno"), std::move(trace));
      EXPECT_TRUE(run.invariants.clean());
      EXPECT_EQ(run.primary().segments_delivered, 986);
      EXPECT_EQ(run.primary().sent, 1070);
      EXPECT_EQ(run.primary().retransmissions, 58);
      EXPECT_EQ(run.primary().drops, 38);
      EXPECT_EQ(run.primary().rto_count, 2);
      EXPECT_EQ(fingerprint(run), 0xde52f07b9e650cd2ULL);
    }
    {
      ScenarioConfig cfg;
      cfg.duration = TimeNs::seconds(6);
      cfg.mode = FuzzMode::kTraffic;
      cfg.record_mode = RecordMode::kFullEvents;
      cfg.flows.resize(2);
      cfg.flows[0].stop = TimeNs::millis(5500);
      cfg.flows[1].cca = "cubic";
      cfg.flows[1].start = TimeNs::millis(1500);
      cfg.flows[1].stop = TimeNs::millis(4500);
      cfg.invariants = armed;
      Rng rng(202);
      const auto run =
          run_scenario(cfg, cca::make_factory("reno"),
                       trace::dist_packets(3000, TimeNs::zero(), cfg.duration,
                                           rng));
      EXPECT_TRUE(run.invariants.clean());
      EXPECT_EQ(run.primary().segments_delivered, 1228);
      EXPECT_EQ(run.primary().sent, 1265);
      EXPECT_EQ(run.primary().retransmissions, 37);
      EXPECT_EQ(run.primary().drops, 37);
      EXPECT_EQ(run.primary().rto_count, 2);
      EXPECT_EQ(fingerprint(run), 0xd350048e40190f88ULL);
    }
  }
}

TEST(GoldenDeterminism, SingleFlowShapesArePinned) {
  // The single-flow runs that move the flow's start or its data volume:
  // BBR starting into a standing queue (the Fig 4e setup), a late Reno
  // start, and a Reno transfer of 100 segments. Recorded when these were
  // written through a single-flow shorthand on ScenarioConfig; the one-flow
  // lists must reproduce them bit for bit.
  ScenarioConfig fig4e;
  fig4e.duration = TimeNs::seconds(5);
  fig4e.record_mode = RecordMode::kFullEvents;
  fig4e.flows = {FlowSpec{.start = TimeNs::millis(200)}};
  ScenarioConfig late;
  late.duration = TimeNs::seconds(3);
  late.record_mode = RecordMode::kFullEvents;
  late.flows = {FlowSpec{.start = TimeNs::seconds(1)}};
  ScenarioConfig short_transfer;
  short_transfer.duration = TimeNs::seconds(3);
  short_transfer.record_mode = RecordMode::kFullEvents;
  short_transfer.flows = {FlowSpec{.total_segments = 100}};

  const struct {
    const char* name;
    const char* cca;
    ScenarioConfig cfg;
    std::vector<TimeNs> trace;
    std::int64_t delivered;
    std::int64_t sent;
    std::uint64_t hash;
  } cases[] = {
      {"fig4e", "bbr", fig4e,
       crafted::standing_queue_trace(TimeNs::millis(200),
                                     fig4e.net.queue_capacity,
                                     DurationNs::millis(2), 1, fig4e.duration),
       1999, 2125, 0x41b8d2513729a768ULL},
      {"late start", "reno", late, {}, 1923, 1989, 0xd4a653fd520d37d1ULL},
      {"100 segments", "reno", short_transfer, {}, 100, 100,
       0xc2fedd311bb2bc3dULL},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto run = run_scenario(c.cfg, cca::make_factory(c.cca), c.trace);
    EXPECT_EQ(run.primary().segments_delivered, c.delivered);
    EXPECT_EQ(run.primary().sent, c.sent);
    EXPECT_EQ(fingerprint(run), c.hash);
  }
}

TEST(GoldenDeterminism, CoverageProbeIsPurelyPassive) {
  // Arming the behavior probe must not perturb the simulation by one bit:
  // the same pre-refactor fingerprints hold with coverage on, and the runs
  // now additionally carry a signature.
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    ScenarioConfig cfg = golden_config(g.mode);
    cfg.coverage = true;
    const auto run = run_scenario(cfg, cca::make_factory(g.cca),
                                  golden_trace(g.mode, cfg.duration));
    EXPECT_EQ(fingerprint(run), g.hash);
    EXPECT_TRUE(run.coverage_signature().valid);
    EXPECT_GT(run.coverage_signature().bits, 0u);
  }
}

TEST(GoldenDeterminism, ArmedInvariantsAreCleanAndFingerprintNeutral) {
  // The invariant oracle's periodic audits only read state, and the seqs
  // they take reorder no other event: every golden run is clean and keeps
  // its pre-refactor fingerprint with the oracle armed.
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    ScenarioConfig cfg = golden_config(g.mode);
    cfg.invariants = true;
    const auto run = run_scenario(cfg, cca::make_factory(g.cca),
                                  golden_trace(g.mode, cfg.duration));
    EXPECT_TRUE(run.invariants.clean())
        << run.invariants.total() << " violation(s)";
    EXPECT_EQ(fingerprint(run), g.hash);
  }
}

TEST(GoldenDeterminism, ArmedBudgetGuardsAreFingerprintNeutral) {
  // Arming the run guards (event / sim-time / wall-clock budgets) with
  // limits a golden run never reaches must leave execution bit-identical:
  // the guard is a branch on the hot path, not a behavior change.
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    ScenarioConfig cfg = golden_config(g.mode);
    cfg.budget.max_events = 1'000'000'000ull;
    cfg.budget.max_sim_time = DurationNs::seconds(3600);
    cfg.budget.max_wall_time = DurationNs::seconds(300);
    const auto run = run_scenario(cfg, cca::make_factory(g.cca),
                                  golden_trace(g.mode, cfg.duration));
    EXPECT_FALSE(run.truncated);
    EXPECT_EQ(fingerprint(run), g.hash);
  }
}

TEST(GoldenDeterminism, RepeatedRunsAreBitIdentical) {
  for (const auto& g : kGolden) {
    SCOPED_TRACE(std::string(g.cca) + "/" + to_string(g.mode));
    const ScenarioConfig cfg = golden_config(g.mode);
    const auto factory = cca::make_factory(g.cca);
    const auto first =
        run_scenario(cfg, factory, golden_trace(g.mode, cfg.duration));
    const auto second =
        run_scenario(cfg, factory, golden_trace(g.mode, cfg.duration));
    EXPECT_EQ(fingerprint(first), fingerprint(second));
    EXPECT_EQ(first.recorder.egress().size(), second.recorder.egress().size());
  }
}

TEST(GoldenDeterminism, WarmRunContextMatchesColdContext) {
  // One context run back-to-back (warm slab/rings/recorder) must equal a
  // freshly constructed context's result exactly.
  const ScenarioConfig cfg = golden_config(FuzzMode::kTraffic);
  const auto factory = cca::make_factory("bbr");

  RunContext warm;
  std::uint64_t warm_hash = 0;
  for (int i = 0; i < 3; ++i) {
    warm_hash =
        fingerprint(warm.run(cfg, factory,
                             golden_trace(FuzzMode::kTraffic, cfg.duration)));
  }

  RunContext cold;
  const auto cold_run =
      cold.run(cfg, factory, golden_trace(FuzzMode::kTraffic, cfg.duration));
  EXPECT_EQ(warm_hash, fingerprint(cold_run));
}

TEST(GoldenDeterminism, WarmContextAlternatingModesMatchesColdContexts) {
  // One warm context runs link, traffic, link, traffic: the trace-driven and
  // fixed-rate links, the cross-traffic injector (fed the golden traffic
  // stamps) and the shared queue, gateway and propagation pipe all stay
  // built and switch between runs. Each run must equal a cold context's.
  for (const char* cca : {"reno", "bbr"}) {
    SCOPED_TRACE(cca);
    const auto factory = cca::make_factory(cca);
    RunContext warm;
    for (const FuzzMode mode : {FuzzMode::kLink, FuzzMode::kTraffic,
                                FuzzMode::kLink, FuzzMode::kTraffic}) {
      SCOPED_TRACE(to_string(mode));
      const ScenarioConfig cfg = golden_config(mode);
      const auto trace = golden_trace(mode, cfg.duration);
      const RunResult& got = warm.run(cfg, factory, trace);
      if (mode == FuzzMode::kTraffic) {
        EXPECT_EQ(got.cross_sent, static_cast<std::int64_t>(trace.size()));
      }
      RunContext cold;
      EXPECT_EQ(fingerprint(got), fingerprint(cold.run(cfg, factory, trace)));
    }
  }
}

}  // namespace
}  // namespace ccfuzz::scenario
