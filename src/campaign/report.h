// Campaign report serialization.
//
// A finished campaign is written as a directory tree any plotting or triage
// tool can consume:
//
//   <dir>/summary.csv            one row per cell (score, sims, cache hits)
//   <dir>/summary.json           the full machine-readable report
//   <dir>/<cell>/history.csv     per-generation GenStats (Fig 4d series)
//   <dir>/<cell>/winner_<k>.trace  deduped winner traces (trace_io format,
//                                  replayable with examples/replay_trace)
//   <dir>/<cell>/archive.txt     the cell's MAP-Elites archive (coverage
//                                cells only) — CampaignConfig::resume_dir
//                                reloads it to continue the campaign
#pragma once

#include <string>
#include <string_view>

#include "campaign/campaign.h"

namespace ccfuzz::campaign {

/// Writes the full report tree under `dir` (created if missing). Throws
/// std::runtime_error on I/O failure.
void write_report(const CampaignReport& report, const std::string& dir);

/// The summary.json payload (exposed for tests and embedding). Records the
/// report's `interrupted` flag: a summary written by a gracefully stopped
/// campaign says so, and resuming to completion rewrites it as false — so a
/// finished resumed report stays byte-identical to an uninterrupted one.
std::string to_json(const CampaignReport& report);

/// The exact summary.csv header row (newline included). Shared with the
/// distributed merge step, which reassembles shard summaries row-by-row and
/// must emit the identical header.
const char* summary_csv_header();

/// A cell name made filesystem-safe (anything outside [A-Za-z0-9._-] → '_').
std::string sanitize_cell_name(const std::string& name);

/// JSON string-escapes `s` (quotes, backslashes, control characters). Shared
/// by the report writer and JsonlObserver.
std::string json_escape(const std::string& s);

/// Reverses json_escape, strictly: only the escapes it emits (`\"`, `\\`,
/// `\n`, `\t`, and `\u` with four hex digits naming a byte ≤ 0xFF) are
/// accepted; anything else is kParse.
Result<std::string> json_unescape(std::string_view s);

/// RFC-4180 quoting of one summary.csv field (quoted only when needed).
/// Shared with the distributed merge step, which matches shard summary rows
/// by their exact first column.
std::string csv_field(const std::string& s);

}  // namespace ccfuzz::campaign
