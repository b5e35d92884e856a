// Small real samples of the checkpoint family of on-disk formats (trace,
// member, fuzzer state, elite archive, campaign checkpoint), shared by the
// writer byte golden and the corruption sweep: population 4, tens of stamps.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "campaign/campaign.h"
#include "fuzz/score.h"
#include "fuzz/state_io.h"
#include "trace/hash.h"
#include "trace/trace_io.h"

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

/// What `write` writes to a string stream.
template <typename Write>
std::string written(Write&& write) {
  std::ostringstream os;
  write(os);
  return os.str();
}

inline std::string trace_bytes() {
  trace::Trace t;
  t.kind = trace::TraceKind::kTraffic;
  t.duration = TimeNs::seconds(2);
  for (std::int64_t i = 0; i < 24; ++i) {
    t.stamps.emplace_back(i * i * 3'000'017 + 12'345);
  }
  return written([&](std::ostream& os) { trace::write_trace(os, t); });
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
  return written([](std::ostream& os) { evaluated_fuzzer().save_state(os); });
}

/// The best member of evaluated_fuzzer(), as a member block.
inline std::string member_bytes() {
  return written([](std::ostream& os) {
    fuzz::state_io::write_member(os, evaluated_fuzzer().best());
  });
}

/// The archive of a one-cell coverage campaign.
inline std::string archive_bytes() {
  campaign::CampaignConfig cfg;
  cfg.add_cell(tiny_cell("reno", /*coverage=*/true)).parallel(false);
  return written([&](std::ostream& os) {
    campaign::Campaign(cfg).run().cells.front().archive->save(os);
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

}  // namespace ccfuzz::record_samples
