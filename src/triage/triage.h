// Finding triage: confirm, minimize, classify, bundle, and replay.
//
// A campaign's raw output — per-cell winner traces and the NaN/inf
// quarantine — is only a claim. This pipeline turns each claim into a
// validated reproducer (see bundle.h for the on-disk format):
//
//   1. Confirmation: re-evaluate K times in fresh scenario::RunContexts.
//      The simulator is deterministic, so any score drift means broken
//      determinism (warm-state leakage, wall-clock truncation) — the
//      candidate is flagged flaky and dropped instead of shipped.
//   2. Minimization: ddmin over trace events (triage/minimize.h) plus a
//      scenario-duration shrink for coverage-armed cells, preserving the
//      finding predicate (score within tolerance, or the same MAP-Elites
//      behavior-descriptor cell; "still quarantined" for quarantine finds).
//   3. Classification: one run with the sim::Invariants oracle armed. A
//      violation (broken packet conservation, cwnd < 1 MSS, inconsistent
//      SACK scoreboard, ...) reclassifies the finding from "cca-weakness"
//      to "simulator-bug" before anyone acts on it.
//
// replay_findings() is the regression half: re-evaluate every bundle's
// minimized trace under a freshly built matrix and fail on any drift.
//
// Candidates (and replayed bundles) are independent, so both run on the
// global thread pool (ordered_parallel_for). Only the log lines, the bundle
// writes and the counters are serial: they are committed in candidate
// order — each cell's winners by rank, then the sorted quarantine — as soon
// as every earlier candidate is done, so the first bundle lands as early as
// in a serial loop and the output matches it byte for byte. A one-thread
// pool (CCFUZZ_THREADS=1) runs the candidates one by one in that order.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "fuzz/evaluator.h"
#include "trace/trace.h"
#include "util/error.h"

namespace ccfuzz::triage {

struct TriageConfig {
  /// Fresh-context confirmation runs per candidate (>= 1).
  int confirm_runs = 3;
  /// Relative score tolerance: the minimization predicate accepts a score
  /// within `tolerance * max(1, |confirmed|)` below the confirmed one, and
  /// replay must land within the same absolute band.
  double tolerance = 0.02;
  /// Simulation budget for minimization per finding (ddmin + duration
  /// shrink). 0 disables minimization (bundles ship the original trace).
  int max_minimize_evals = 200;
  /// Progress stream (one line per candidate); null = silent. Lines arrive
  /// in candidate order, one candidate's lines at a time, but possibly from
  /// pool threads: a custom stream must not assume the caller's thread.
  std::FILE* log = nullptr;
};

/// One candidate's confirmation outcome.
struct Confirmation {
  int runs = 0;
  /// Score drifted across fresh contexts, or a wall-deadline truncation made
  /// the evaluation nondeterministic — not reportable.
  bool flaky = false;
  /// A deterministic run guard (event/sim-time budget) clipped the run.
  /// Still reproducible, recorded in the bundle.
  bool truncated = false;
  double drift = 0.0;      ///< max |score_i - score_0| across runs
  fuzz::Evaluation eval;   ///< first run's evaluation
};

/// Re-evaluates `t` `runs` times, each on a fresh RunContext.
Confirmation confirm(const fuzz::TraceEvaluator& ev, const trace::Trace& t,
                     int runs);

struct TriageStats {
  int candidates = 0;      ///< winner traces + quarantined genomes examined
  int confirmed = 0;       ///< survived fresh-context confirmation
  int flaky = 0;           ///< dropped: drift or wall-deadline truncation
  int unreproduced = 0;    ///< quarantine genomes that no longer quarantine
  int simulator_bugs = 0;  ///< bundles classified simulator-bug
  int bundles_written = 0;
  int errors = 0;          ///< unreadable traces / unwritable bundles
};

/// Triages every winner trace and quarantined genome under `report_dir`
/// (a campaign output tree) against the matrix `cells`, writing bundles to
/// `<report_dir>/findings/`. The cells must be the matrix the campaign ran —
/// cell names are matched against the report's directory layout. Errors:
/// kIo when the report tree is unreadable. A cell whose evaluator cannot be
/// built (an unknown CCA) throws, after every earlier candidate committed.
Result<TriageStats> triage_report(const std::vector<campaign::CellConfig>& cells,
                                  const std::string& report_dir,
                                  const TriageConfig& cfg);

struct ReplayStats {
  int bundles = 0;
  int ok = 0;
  int drifted = 0;  ///< replayed score left the recorded tolerance band
  int broken = 0;   ///< unreadable bundle / unknown cell / scenario drift
};

/// Replays every bundle under `findings_dir` against the matrix `cells`:
/// rebuilds each bundle's evaluator, re-runs the minimized trace, and
/// compares against the recorded expectation. A missing findings directory
/// is an empty corpus (0 bundles), not an error. Bundles replay on the pool;
/// log lines and counters land in sorted bundle order.
Result<ReplayStats> replay_findings(
    const std::vector<campaign::CellConfig>& cells,
    const std::string& findings_dir, std::FILE* log = nullptr);

}  // namespace ccfuzz::triage
