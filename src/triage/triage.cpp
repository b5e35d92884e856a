#include "triage/triage.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <filesystem>
#include <utility>

#include "campaign/report.h"
#include "fuzz/elite_archive.h"
#include "scenario/runner.h"
#include "trace/hash.h"
#include "trace/trace_io.h"
#include "triage/bundle.h"
#include "triage/minimize.h"
#include "util/thread_pool.h"

namespace ccfuzz::triage {

namespace {

namespace fs = std::filesystem;

/// Appends printf-formatted text to `out`: candidates run on pool threads
/// and buffer their log lines until their turn to commit.
void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list copy;
  va_copy(copy, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, ap);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(ap);
}

void write_log(std::FILE* log, const std::string& text) {
  if (log == nullptr || text.empty()) return;
  std::fputs(text.c_str(), log);
  std::fflush(log);
}

/// Two fresh-context scores differing at all means broken determinism; keep
/// the comparison exact up to accumulated float noise.
constexpr double kDriftEpsilon = 1e-9;

/// The finding predicate shared by ddmin and the duration shrink: either the
/// score stays inside the tolerance band (>= confirmed - band; scoring
/// *higher* is still the same-or-stronger finding), or — for coverage-armed
/// cells — the candidate lands in the confirmed behavior-descriptor cell.
struct FindingPredicate {
  bool expect_quarantined = false;
  double min_score = 0.0;
  bool use_descriptor = false;
  std::size_t descriptor_cell = 0;

  bool holds(const fuzz::Evaluation& e) const {
    if (expect_quarantined) return e.quarantined;
    if (e.quarantined) return false;
    if (e.score.total() >= min_score) return true;
    return use_descriptor && e.coverage.valid &&
           fuzz::EliteArchive::cell_index(e.coverage.descriptor) ==
               descriptor_cell;
  }
};

/// One triage item: a candidate trace attributed to a cell, or (no cell) a
/// load or attribution error already written into its outcome.
struct Candidate {
  const campaign::CellConfig* cell = nullptr;
  trace::Trace genome;
  std::string source;  // "winner" | "quarantine"
};

/// What triaging one candidate produced, held until its turn to commit.
struct Outcome {
  TriageStats delta;  ///< counters, except bundles_written and write errors
  std::string log;    ///< lines logged before the bundle is saved
  bool bundle_due = false;
  BundleManifest manifest;
  trace::Trace minimized;
};

void add(TriageStats& to, const TriageStats& d) {
  to.candidates += d.candidates;
  to.confirmed += d.confirmed;
  to.flaky += d.flaky;
  to.unreproduced += d.unreproduced;
  to.simulator_bugs += d.simulator_bugs;
  to.bundles_written += d.bundles_written;
  to.errors += d.errors;
}

/// The pure part of triage: confirm, minimize, shrink, re-measure and
/// classify one candidate. Touches no shared state, so candidates run
/// concurrently.
void triage_one(const Candidate& cand, const TriageConfig& cfg,
                Outcome& out) {
  const campaign::CellConfig& cell = *cand.cell;
  TriageStats& stats = out.delta;
  ++stats.candidates;
  const std::string id = bundle_id(cell.name, trace::hash(cand.genome));
  const fuzz::TraceEvaluator ev = campaign::make_evaluator(cell);

  // 1. Confirmation on fresh contexts.
  const Confirmation conf = confirm(ev, cand.genome, cfg.confirm_runs);
  const bool expect_quarantined = cand.source == "quarantine";
  if (expect_quarantined && !conf.eval.quarantined) {
    // The genome no longer produces a non-finite score under this matrix —
    // a stale quarantine entry, not a confirmable finding.
    ++stats.unreproduced;
    appendf(out.log, "triage: %s %s/%s not reproduced (score %.6g finite)\n",
            cand.source.c_str(), cell.name.c_str(), id.c_str(),
            conf.eval.score.total());
    return;
  }
  if (conf.flaky) {
    ++stats.flaky;
    appendf(out.log,
            "triage: %s %s/%s FLAKY (drift %.3g, wall-truncated: %s) — "
            "dropped\n",
            cand.source.c_str(), cell.name.c_str(), id.c_str(), conf.drift,
            conf.eval.truncation == sim::TruncationReason::kWallDeadline
                ? "yes"
                : "no");
    return;
  }
  ++stats.confirmed;

  // 2. Minimization under the finding predicate.
  FindingPredicate pred;
  pred.expect_quarantined = expect_quarantined;
  const double confirmed_score = conf.eval.score.total();
  const double band = cfg.tolerance * std::max(1.0, std::abs(confirmed_score));
  pred.min_score = confirmed_score - band;
  if (cell.scenario.coverage && conf.eval.coverage.valid) {
    pred.use_descriptor = true;
    pred.descriptor_cell =
        fuzz::EliteArchive::cell_index(conf.eval.coverage.descriptor);
  }
  int evals_left = cfg.max_minimize_evals;
  MinimizeResult minimized = minimize_events(
      cand.genome,
      [&](const trace::Trace& t) { return pred.holds(ev.evaluate(t)); },
      evals_left);
  evals_left -= minimized.evals;

  // Duration shrink: halve the scenario until the finding leaves its
  // behavior-descriptor cell. Score bands are not comparable across
  // durations, so this pass needs the coverage predicate.
  campaign::CellConfig final_cell = cell;
  if (pred.use_descriptor && !expect_quarantined) {
    while (evals_left > 0) {
      const TimeNs half = TimeNs(final_cell.scenario.duration.ns() / 2);
      const TimeNs floor = TimeNs::millis(200);
      if (half < floor) break;
      if (!minimized.trace.stamps.empty() &&
          minimized.trace.stamps.back() >= half) {
        break;  // the remaining events need the longer window
      }
      campaign::CellConfig shrunk = final_cell;
      shrunk.scenario.duration = half;
      const fuzz::TraceEvaluator sev = campaign::make_evaluator(shrunk);
      trace::Trace t = minimized.trace;
      t.duration = half;
      const fuzz::Evaluation e = sev.evaluate(t);
      --evals_left;
      if (e.truncated || e.quarantined || !e.coverage.valid ||
          fuzz::EliteArchive::cell_index(e.coverage.descriptor) !=
              pred.descriptor_cell) {
        break;
      }
      final_cell = std::move(shrunk);
      minimized.trace = std::move(t);
    }
  }

  // Re-measure the regression contract under the final scenario: the
  // expected score is what the *minimized* trace replays to.
  const fuzz::TraceEvaluator final_ev = campaign::make_evaluator(final_cell);
  const fuzz::Evaluation final_eval = final_ev.evaluate(minimized.trace);

  // 3. Classification: one armed-invariants run over the minimized trace.
  scenario::ScenarioConfig armed = final_cell.scenario;
  armed.invariants = true;
  scenario::RunContext ctx;
  const scenario::RunResult& armed_run =
      ctx.run(armed, campaign::cell_factory(final_cell), minimized.trace.stamps);
  const std::int64_t violations = armed_run.invariants.total();
  if (violations > 0) {
    ++stats.simulator_bugs;
    for (const auto& v : armed_run.invariants.violations()) {
      appendf(out.log, "triage:   invariant violated at %.3f ms: %s\n",
              v.when.to_millis(), v.what.c_str());
    }
  }

  BundleManifest& m = out.manifest;
  m.id = id;
  m.source = cand.source;
  m.cell = cell.name;
  m.cca = cell.cca;
  m.mode = scenario::to_string(cell.scenario.mode);
  m.score = campaign::score_name(cell);
  m.scenario_hash = trace::hash_hex(campaign::scenario_key(cell.scenario));
  m.duration_ms = final_cell.scenario.duration.ns() / 1'000'000;
  m.original_events = cand.genome.size();
  m.minimized_events = minimized.trace.size();
  m.original_score = confirmed_score;
  m.expected_score = final_eval.score.total();
  m.tolerance = band;
  m.expect_quarantined = expect_quarantined;
  m.confirm_runs = conf.runs;
  m.flaky = false;
  m.truncated = conf.truncated;
  m.classification = violations > 0 ? "simulator-bug" : "cca-weakness";
  m.invariant_violations = violations;
  out.minimized = std::move(minimized.trace);
  out.bundle_due = true;
}

/// The serial part: log, save the bundle, count — in candidate order.
void commit_one(const Candidate& cand, const Outcome& out,
                const TriageConfig& cfg, const std::string& findings_dir,
                TriageStats& stats) {
  add(stats, out.delta);
  write_log(cfg.log, out.log);
  if (!out.bundle_due) return;
  const BundleManifest& m = out.manifest;
  std::string line;
  const std::string dir = findings_dir + "/" + m.id;
  if (Error e = save_bundle(dir, m, cand.genome, out.minimized)) {
    ++stats.errors;
    appendf(line, "triage: cannot write bundle %s: %s\n", dir.c_str(),
            e.message.c_str());
  } else {
    ++stats.bundles_written;
    appendf(line,
            "triage: %s %s/%s confirmed: %zu -> %zu events, score %.6g, %s\n",
            cand.source.c_str(), m.cell.c_str(), m.id.c_str(),
            cand.genome.size(), out.minimized.size(), m.expected_score,
            m.classification.c_str());
  }
  write_log(cfg.log, line);
}

}  // namespace

Confirmation confirm(const fuzz::TraceEvaluator& ev, const trace::Trace& t,
                     int runs) {
  Confirmation c;
  c.runs = std::max(1, runs);
  for (int i = 0; i < c.runs; ++i) {
    scenario::RunContext ctx;  // cold by construction
    fuzz::Evaluation e;
    ev.evaluate_on(ctx, t, e);
    if (i == 0) c.eval = e;
    c.drift = std::max(c.drift,
                       std::abs(e.score.total() - c.eval.score.total()));
    if (e.truncated) {
      // Wall-deadline truncation depends on host load — nondeterministic by
      // definition. Event/sim-time truncation is deterministic: record it.
      if (e.truncation == sim::TruncationReason::kWallDeadline) c.flaky = true;
      c.truncated = true;
    }
  }
  if (c.drift > kDriftEpsilon) c.flaky = true;
  return c;
}

Result<TriageStats> triage_report(
    const std::vector<campaign::CellConfig>& cells,
    const std::string& report_dir, const TriageConfig& cfg) {
  if (!fs::exists(report_dir)) {
    return Error::io("no campaign report at " + report_dir);
  }
  const std::string findings_dir = report_dir + "/findings";

  // The ordered items: each cell's winners, then the quarantine. An item
  // that cannot be triaged keeps its place with its error line.
  std::vector<Candidate> items;
  std::vector<Outcome> outcomes;
  const auto add_error = [&](std::string line) {
    items.emplace_back();
    Outcome& o = outcomes.emplace_back();
    ++o.delta.errors;
    o.log = std::move(line);
  };
  const auto add_candidate = [&](const campaign::CellConfig* cell,
                                 trace::Trace t, const char* source) {
    items.push_back({cell, std::move(t), source});
    outcomes.emplace_back();
  };

  // Cell winners: `<report>/<cell>/winner_<k>.trace`, best first.
  for (const campaign::CellConfig& cell : cells) {
    const std::string cell_dir =
        report_dir + "/" + campaign::sanitize_cell_name(cell.name);
    for (std::size_t w = 0;; ++w) {
      const std::string path =
          cell_dir + "/winner_" + std::to_string(w) + ".trace";
      if (!fs::exists(path)) break;
      Result<trace::Trace> t = trace::try_load_trace(path);
      if (!t) {
        add_error("triage: cannot load " + path + ": " + t.error().message +
                  "\n");
        continue;
      }
      add_candidate(&cell, std::move(*t), "winner");
    }
  }

  // Quarantined genomes: `<report>/quarantine/<hash>.trace`, attributed to
  // the first cell whose mode matches the trace kind (the quarantine does
  // not record which cell tripped — the predicate is "still non-finite").
  std::vector<std::string> qpaths;
  {
    std::error_code ec;
    fs::directory_iterator it(report_dir + "/quarantine", ec);
    if (!ec) {
      for (const auto& entry : it) {
        if (entry.path().extension() == ".trace") {
          qpaths.push_back(entry.path().string());
        }
      }
    }
  }
  std::sort(qpaths.begin(), qpaths.end());
  for (const std::string& path : qpaths) {
    Result<trace::Trace> t = trace::try_load_trace(path);
    if (!t) {
      add_error("triage: cannot load " + path + ": " + t.error().message +
                "\n");
      continue;
    }
    const auto wanted = t->kind == trace::TraceKind::kLink
                            ? scenario::FuzzMode::kLink
                            : scenario::FuzzMode::kTraffic;
    const campaign::CellConfig* owner = nullptr;
    for (const campaign::CellConfig& cell : cells) {
      if (cell.scenario.mode == wanted) {
        owner = &cell;
        break;
      }
    }
    if (owner == nullptr) {
      add_error(std::string("triage: no ") + scenario::to_string(wanted) +
                "-mode cell to replay " + path + " under\n");
      continue;
    }
    add_candidate(owner, std::move(*t), "quarantine");
  }

  // Candidates are independent: triage them on the pool, and commit each
  // (log, bundle, counters) in item order as soon as its prefix is done.
  TriageStats stats;
  ordered_parallel_for(
      items.size(),
      [&](std::size_t i) {
        if (items[i].cell != nullptr) triage_one(items[i], cfg, outcomes[i]);
      },
      [&](std::size_t i) {
        commit_one(items[i], outcomes[i], cfg, findings_dir, stats);
        outcomes[i] = Outcome{};  // the minimized trace is on disk now
      });
  return stats;
}

Result<ReplayStats> replay_findings(
    const std::vector<campaign::CellConfig>& cells,
    const std::string& findings_dir, std::FILE* log) {
  ReplayStats stats;
  std::vector<std::string> dirs;
  {
    std::error_code ec;
    fs::directory_iterator it(findings_dir, ec);
    if (!ec) {
      for (const auto& entry : it) {
        if (entry.is_directory()) dirs.push_back(entry.path().string());
      }
    }
  }
  std::sort(dirs.begin(), dirs.end());

  dirs.erase(std::remove_if(dirs.begin(), dirs.end(),
                            [](const std::string& dir) {
                              return !fs::exists(dir + "/" + kManifestFile);
                            }),
             dirs.end());

  // Each bundle replays on the pool; its counter and log line land in
  // sorted bundle order.
  struct Replayed {
    int ReplayStats::*counter = nullptr;
    std::string log;
  };
  std::vector<Replayed> outcomes(dirs.size());
  const auto replay_one = [&](const std::string& dir, Replayed& out) {
    const auto broken = [&](const std::string& why) {
      out.counter = &ReplayStats::broken;
      appendf(out.log, "replay: %s BROKEN: %s\n", dir.c_str(), why.c_str());
    };
    Result<BundleManifest> m = load_manifest(dir);
    if (!m) return broken(m.error().message);
    const campaign::CellConfig* cell = nullptr;
    for (const campaign::CellConfig& c : cells) {
      if (c.name == m->cell) {
        cell = &c;
        break;
      }
    }
    if (cell == nullptr) {
      return broken("cell '" + m->cell +
                    "' not in this matrix — pass the campaign's matrix flags");
    }
    const std::string have =
        trace::hash_hex(campaign::scenario_key(cell->scenario));
    if (have != m->scenario_hash) {
      return broken("scenario drift: matrix builds " + have +
                    ", bundle recorded " + m->scenario_hash);
    }
    Result<trace::Trace> t =
        trace::try_load_trace(dir + "/" + kMinimizedTraceFile);
    if (!t) return broken(t.error().message);
    // Replay under the (possibly duration-shrunk) scenario the bundle
    // recorded; everything else comes from the matrix cell.
    campaign::CellConfig rc = *cell;
    rc.scenario.duration = TimeNs::millis(m->duration_ms);
    const fuzz::TraceEvaluator ev = campaign::make_evaluator(rc);
    const fuzz::Evaluation e = ev.evaluate(*t);
    bool pass;
    if (m->expect_quarantined) {
      pass = e.quarantined;
    } else {
      pass = !e.quarantined &&
             std::abs(e.score.total() - m->expected_score) <= m->tolerance;
    }
    if (pass) {
      out.counter = &ReplayStats::ok;
      appendf(out.log, "replay: %s ok (score %.6g)\n", m->id.c_str(),
              e.score.total());
    } else {
      out.counter = &ReplayStats::drifted;
      appendf(out.log,
              "replay: %s DRIFTED: score %.6g, expected %.6g +- %.3g%s\n",
              m->id.c_str(), e.score.total(), m->expected_score,
              m->tolerance,
              m->expect_quarantined ? " (quarantine not reproduced)" : "");
    }
  };
  ordered_parallel_for(
      dirs.size(), [&](std::size_t i) { replay_one(dirs[i], outcomes[i]); },
      [&](std::size_t i) {
        ++stats.bundles;
        ++(stats.*outcomes[i].counter);
        write_log(log, outcomes[i].log);
      });
  return stats;
}

}  // namespace ccfuzz::triage
