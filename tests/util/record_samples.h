// Small real samples of the on-disk formats, shared by the writer byte golden
// and the corruption sweep. The checkpoint family (trace, member, fuzzer
// state, elite archive, campaign checkpoint): population 4, tens of stamps.
// The JSON family: a shard plan, a finding manifest, and a two-cell shard
// summary (summary.json and its summary.csv twin).
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "dist/shard_plan.h"
#include "fuzz/score.h"
#include "fuzz/state_io.h"
#include "trace/hash.h"
#include "trace/trace_io.h"
#include "triage/bundle.h"

namespace ccfuzz::record_samples {

/// FNV-1a over raw bytes: a compact fingerprint for a golden.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = trace::kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= trace::kFnvPrime;
  }
  return h;
}

inline std::string slurp(const std::string& path) {
  std::ostringstream ss;
  ss << std::ifstream(path, std::ios::binary).rdbuf();
  return ss.str();
}

/// What `write` writes to a record::Writer.
template <typename Write>
std::string written(Write&& write) {
  record::Writer w;
  write(w);
  return w.str();
}

inline std::string trace_bytes() {
  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = TimeNs::seconds(2);
  for (std::int64_t i = 0; i < 24; ++i) {
    t.stamps.emplace_back(i * i * 3'000'017 + 12'345);
  }
  return written([&](record::Writer& w) { trace::write_trace(w, t); });
}

/// One tiny cell: population 4 over 2 islands, traces of tens of stamps.
inline campaign::CellConfig tiny_cell(const std::string& cca, bool coverage) {
  campaign::CellConfig cell;
  cell.cca = cca;
  cell.scenario.duration = TimeNs::seconds(1);
  cell.scenario.coverage = coverage;
  cell.score = std::make_shared<fuzz::LowUtilizationScore>();
  cell.traffic_model = {.max_packets = 24, .initial_packets = 16};
  cell.ga.population = 4;
  cell.ga.islands = 2;
  cell.ga.max_generations = 2;
  cell.ga.migration_interval = 1;
  cell.ga.seed = 4242;
  return cell;
}

/// A coverage-on Fuzzer after one generation driven through the staged
/// interface: evaluated elites, unevaluated children, a filled archive.
inline fuzz::Fuzzer evaluated_fuzzer() {
  const campaign::CellConfig cell = tiny_cell("reno", /*coverage=*/true);
  fuzz::Fuzzer f(cell.ga, campaign::make_trace_model(cell), /*coverage=*/true,
                 /*parallel=*/false);
  const fuzz::TraceEvaluator ev = campaign::make_evaluator(cell);
  const std::vector<fuzz::Member*> pending = f.pending_members();
  for (fuzz::Member* m : pending) {
    ev.evaluate_into(m->genome, m->eval);
    m->evaluated = true;
  }
  f.note_external_evaluations(static_cast<std::int64_t>(pending.size()));
  f.advance_generation();
  return f;
}

inline std::string fuzzer_state_bytes() {
  return written([](record::Writer& w) { evaluated_fuzzer().save_state(w); });
}

/// The best member of evaluated_fuzzer(), as a member block.
inline std::string member_bytes() {
  return written([](record::Writer& w) {
    fuzz::state_io::write_member(w, evaluated_fuzzer().best());
  });
}

/// The archive of a one-cell coverage campaign.
inline std::string archive_bytes() {
  campaign::CampaignConfig cfg;
  cfg.add_cell(tiny_cell("reno", /*coverage=*/true)).parallel(false);
  return written([&](record::Writer& w) {
    campaign::Campaign(cfg).run().cells.front().archive->save(w);
  });
}

/// A two-cell campaign (reno, cubic; coverage off) that checkpoints every
/// generation into `dir`.
inline campaign::CampaignConfig checkpoint_campaign(const std::string& dir) {
  campaign::CampaignConfig cfg;
  cfg.add_cell(tiny_cell("reno", /*coverage=*/false))
      .add_cell(tiny_cell("cubic", /*coverage=*/false))
      .parallel(false)
      .output_dir(dir)
      .checkpoint_every(1);
  return cfg;
}

/// Runs checkpoint_campaign(dir) afresh; returns its final checkpoint.
inline std::string checkpoint_bytes(const std::string& dir) {
  std::filesystem::remove_all(dir);
  campaign::Campaign(checkpoint_campaign(dir)).run();
  return slurp(dir + "/checkpoint/campaign.ckpt");
}

/// Three cells over two shards, one name needing escapes.
inline std::string shard_plan_bytes() {
  std::vector<campaign::CellConfig> cells(3);
  cells[0].name = "reno.traffic.low-utilization";
  cells[1].name = "cubic \"q\"\tx";
  cells[2].name = "bbr.link";
  return dist::ShardPlan::build(cells, 2).to_json();
}

/// A finding manifest with every key set.
inline std::string manifest_bytes() {
  triage::BundleManifest m;
  m.id = "0123456789abcdef";
  m.source = "quarantine";
  m.cell = "reno \"q\"";
  m.cca = "reno";
  m.mode = "link";
  m.score = "low-utilization";
  m.scenario_hash = "fedcba9876543210";
  m.duration_ms = 1500;
  m.original_events = 40;
  m.minimized_events = 7;
  m.original_score = 0.73125;
  m.expected_score = -2.5e-7;
  m.tolerance = 0.0146;
  m.expect_quarantined = true;
  m.confirm_runs = 3;
  m.truncated = true;
  m.classification = "cca-weakness";
  m.invariant_violations = 2;
  return triage::to_json(m);
}

/// summary.json and summary.csv of a two-cell campaign with one winner per
/// cell, written under `dir`. The first cell's name needs CSV quoting over
/// two lines and JSON escapes.
inline std::pair<std::string, std::string> summary_bytes(
    const std::string& dir) {
  campaign::CellConfig hostile = tiny_cell("reno", /*coverage=*/true);
  hostile.name = "reno \"q\",\nx";
  campaign::CampaignConfig cfg;
  cfg.add_cell(hostile)
      .add_cell(tiny_cell("cubic", /*coverage=*/false))
      .winners(1)
      .parallel(false);
  std::filesystem::remove_all(dir);
  campaign::write_report(campaign::Campaign(cfg).run(), dir);
  return {slurp(dir + "/summary.json"), slurp(dir + "/summary.csv")};
}

}  // namespace ccfuzz::record_samples
