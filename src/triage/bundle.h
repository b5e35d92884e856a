// Finding bundles: the self-contained reproducer format triage emits.
//
// A bundle is a directory `findings/<id>/` holding
//   manifest.json     — everything replay needs (this struct, one key/line)
//   original.trace    — the raw campaign winner / quarantined genome
//   minimized.trace   — the ddmin-shrunk trace that still exhibits the finding
// The id is a 16-hex content hash of (cell name, original trace hash), so
// re-triaging the same campaign is idempotent and two cells hitting the same
// genome do not collide. The manifest is machine-written line-oriented JSON
// (same discipline as the checkpoint and merge formats): a strict parser
// treats any deviation as corruption, never as style.
#pragma once

#include <cstdint>
#include <string>

#include "trace/trace.h"
#include "util/error.h"

namespace ccfuzz::triage {

/// Everything `ccfuzz replay` needs to re-check one finding, plus the triage
/// provenance a human wants when reading a bundle.
struct BundleManifest {
  int version = 1;
  std::string id;       ///< 16-hex bundle id (must match the directory name)
  std::string source;   ///< "winner" | "quarantine"
  std::string cell;     ///< campaign cell the finding came from
  std::string cca;      ///< registry name of the CCA under test
  std::string mode;     ///< "link" | "traffic"
  std::string score;    ///< score-function name
  /// Hex of campaign::scenario_key for the cell's configured scenario —
  /// replay refuses to compare scores across a drifted matrix.
  std::string scenario_hash;
  /// Scenario duration the finding was confirmed (and possibly shrunk) to.
  std::int64_t duration_ms = 0;
  std::uint64_t original_events = 0;
  std::uint64_t minimized_events = 0;
  /// Score of the *original* winner at confirmation time (human context).
  double original_score = 0.0;
  /// Score the minimized trace replays to; the regression contract.
  double expected_score = 0.0;
  /// Absolute score tolerance for replay comparisons.
  double tolerance = 0.0;
  /// True for quarantine-sourced findings: replay must reproduce the
  /// non-finite-score quarantine, not a score band.
  bool expect_quarantined = false;
  int confirm_runs = 0;
  bool flaky = false;       ///< kept only for bundles written despite drift
  bool truncated = false;   ///< a deterministic run guard clipped the run
  /// "cca-weakness" (armed invariants clean) or "simulator-bug".
  std::string classification;
  std::int64_t invariant_violations = 0;
};

/// File names inside a bundle directory.
inline constexpr const char* kManifestFile = "manifest.json";
inline constexpr const char* kOriginalTraceFile = "original.trace";
inline constexpr const char* kMinimizedTraceFile = "minimized.trace";

/// Serializes the manifest (stable key order, one key per line).
std::string to_json(const BundleManifest& m);

/// Strict parse of to_json output, keys in any order, through
/// record::Reader. Errors: kParse (a wrong line, an unknown or repeated key,
/// a value out of its field's range, content after the `}`), kTruncated (a
/// missing `}` or key), kVersion (ccfuzz_finding other than 1), kCorrupt (a
/// bad id or duration_ms).
Result<BundleManifest> parse_manifest(const std::string& body);

/// Reads and parses `<dir>/manifest.json`. Adds kIo for unreadable files.
Result<BundleManifest> load_manifest(const std::string& dir);

/// Writes the full bundle (directory created, manifest written atomically).
Error save_bundle(const std::string& dir, const BundleManifest& m,
                  const trace::Trace& original, const trace::Trace& minimized);

/// Derives the stable bundle id from the cell name and the original genome's
/// content hash.
std::string bundle_id(const std::string& cell, std::uint64_t trace_hash);

}  // namespace ccfuzz::triage
