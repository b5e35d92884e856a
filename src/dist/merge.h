// Folding shard report trees back into one campaign report.
//
// A distributed campaign leaves `<root>/shards/<k>/` report trees, one per
// worker, each written by the ordinary single-process report writer
// (campaign::write_report). Because every cell is wholly owned by one shard
// and a cell's GA is a pure function of its own config and seed, the
// per-cell artifacts (history.csv, winner traces, archive.txt) are already
// byte-identical to what a single-process run would have written — merging
// is reassembly, not recomputation. Only the cross-cell summaries span
// shards: merge_reports rebuilds `summary.csv` and `summary.json` by
// splicing each shard's rows/blocks back into global cell order, so the
// merged files are byte-identical to the single-process campaign's (the
// property the merge-determinism test pins).
//
// On top of the per-cell copies, the merge unions every cell's MAP-Elites
// archive (fuzz::EliteArchive::merge_from) into `<out>/archive_merged.txt` —
// the campaign-wide behavior map. A corrupt per-cell archive degrades to a
// warning; corrupt summaries are typed Errors (the caller decides whether a
// partial merge is acceptable).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "dist/shard_plan.h"
#include "util/error.h"

namespace ccfuzz::dist {

struct MergeStats {
  std::size_t cells = 0;        ///< cells reassembled into the summary
  std::size_t shards_read = 0;  ///< shards that owned at least one cell
  /// True when any shard's summary was written by an interrupted campaign —
  /// the merged report is partial; rerun the supervisor to finish.
  bool interrupted = false;
  std::size_t archives_merged = 0;  ///< per-cell archives folded into the union
  std::size_t archive_cells = 0;    ///< merged archive occupancy
  std::uint32_t coverage_bits = 0;  ///< merged archive union-bitmap bits
  /// Planned cells absent from their shard's report but covered by a
  /// quarantine marker (`<root>/quarantine/cells/<cell>.cell`) — skipped
  /// instead of failing the merge. The merged report omits them.
  std::size_t cells_quarantined = 0;
  /// NaN/inf-scoring genomes quarantined across all shards (sum of the
  /// shards' summary.json "quarantined" counts; the genome files themselves
  /// stay under each shard's quarantine/ directory).
  std::size_t genomes_quarantined = 0;
};

/// One shard's summary pair, split into rows and cell blocks that keep the
/// shard writer's bytes, so reassembly is byte-exact.
struct ShardSummary {
  bool interrupted = false;
  std::size_t quarantined = 0;  ///< 0 when summary.json predates the key
  /// summary.csv rows in file order, newline included.
  std::vector<std::string> csv_rows;
  /// Cell name → its summary.json block up to the line that closes it.
  std::map<std::string, std::string> json_blocks;
};

/// Parses one shard's summaries through record::Reader: summary.csv as RFC
/// 4180 rows, summary.json in its writer's fixed order (`interrupted`, the
/// optional `quarantined`, `cells` blocks each led by its `name`). Errors:
/// kParse (a wrong line, key or value, content after the end), kTruncated
/// (input ends where a line is due), kCorrupt (a cell listed twice).
Result<ShardSummary> read_shard_summary(std::istream& csv, std::istream& json);

/// Merges `<shards_root>/shards/<k>/` trees into a report under `out_dir`
/// (summary.csv, summary.json, per-cell directories, archive_merged.txt).
/// `out_dir` may equal `shards_root` — the usual layout, putting the merged
/// report at the campaign root. Error codes: kIo (missing/unreadable shard
/// files), read_shard_summary's, kMismatch (a planned cell missing from its
/// shard's report), kCorrupt (shard tree missing a cell's directory).
Result<MergeStats> merge_reports(const std::string& shards_root,
                                 const ShardPlan& plan,
                                 const std::string& out_dir);

/// The shard's report directory: `<root>/shards/<k>`.
std::string shard_dir(const std::string& root, std::uint32_t shard);

}  // namespace ccfuzz::dist
