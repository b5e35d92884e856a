#include "dist/merge.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include "campaign/report.h"
#include "fuzz/elite_archive.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/record.h"

namespace ccfuzz::dist {

namespace fs = std::filesystem;

Result<ShardSummary> read_shard_summary(std::istream& csv,
                                        std::istream& json) {
  ShardSummary out;
  record::Reader c(csv);
  const std::string_view header = campaign::summary_csv_header();
  c.line(header.substr(0, header.size() - 1));  // without its newline
  for (std::string_view next; c.peek(next);) {
    c.csv_row(out.csv_rows.emplace_back());
    out.csv_rows.back() += '\n';
  }
  if (!c.ok()) return c.error();

  // summary.json as campaign::to_json writes it: the campaign keys, then one
  // block per cell, kept verbatim up to its close and keyed by its first
  // line, the name.
  record::Reader r(json);
  r.open("{");
  r.key("interrupted") >> out.interrupted;
  r.done();
  if (r.next_is("\"quarantined\": ")) {  // absent before triage existed
    r.key("quarantined") >> out.quarantined;
    r.done();
  }
  r.open("\"cells\": [");
  while (r.ok() && !r.next_is("]")) {
    r.open("{");
    std::string block = "    {\n", cell;
    // The name line as written, then its value.
    if (std::string_view name; r.peek(name)) block.append(name) += '\n';
    r.key("name") >> cell;
    r.done();
    while (r.ok() && !r.next_is("}")) r.verbatim(block);
    r.close("}");
    if (r.ok() && !out.json_blocks.emplace(cell, std::move(block)).second) {
      r.fail(Error::corrupt("summary.json: duplicate cell: " + cell));
    }
  }
  r.close("]");
  r.close("}");
  r.eof();
  if (!r.ok()) return r.error();
  return out;
}

std::string shard_dir(const std::string& root, std::uint32_t shard) {
  return root + "/shards/" + std::to_string(shard);
}

Result<MergeStats> merge_reports(const std::string& shards_root,
                                 const ShardPlan& plan,
                                 const std::string& out_dir) {
  MergeStats stats;

  // Load every shard that owns at least one cell.
  std::map<std::uint32_t, ShardSummary> shards;
  for (const auto& entry : plan.entries) {
    if (shards.count(entry.shard)) continue;
    const fs::path dir(shard_dir(shards_root, entry.shard));
    std::ifstream csv(dir / "summary.csv", std::ios::binary);
    std::ifstream json(dir / "summary.json", std::ios::binary);
    if (!csv || !json) {
      return Error::io("cannot open the summaries in " + dir.string());
    }
    Result<ShardSummary> summary = read_shard_summary(csv, json);
    if (!summary) {
      Error e = summary.error();
      e.message = dir.string() + ": " + e.message;
      return e;
    }
    stats.interrupted = stats.interrupted || summary->interrupted;
    stats.genomes_quarantined += summary->quarantined;
    shards.emplace(entry.shard, std::move(*summary));
  }
  stats.shards_read = shards.size();

  // Reassemble the summaries in global cell order. Rows and blocks are the
  // shard writers' bytes, so the merged files match the single-process run's.
  // A planned cell missing from its shard is normally a hard mismatch; a
  // quarantine marker turns it into a skip (the merged report simply omits
  // the cell the supervisor had to isolate).
  std::string csv = campaign::summary_csv_header();
  std::vector<std::string> blocks;
  std::vector<const ShardPlan::Entry*> merged;
  for (const ShardPlan::Entry& entry : plan.entries) {
    const ShardSummary& shard = shards.at(entry.shard);
    // A row starts with its cell as csv_field writes it, then a comma.
    const std::string first = campaign::csv_field(entry.cell) + ',';
    const auto row = std::find_if(
        shard.csv_rows.begin(), shard.csv_rows.end(),
        [&](const std::string& r) { return r.starts_with(first); });
    const auto block = shard.json_blocks.find(entry.cell);
    if (row == shard.csv_rows.end() || block == shard.json_blocks.end()) {
      const fs::path marker = fs::path(shards_root) / "quarantine" / "cells" /
                              (campaign::sanitize_cell_name(entry.cell) +
                               ".cell");
      if (fs::exists(marker)) {
        CCFUZZ_LOG_WARN("merge: cell '%s' is quarantined (%s); omitting it "
                        "from the merged report",
                        entry.cell.c_str(), marker.string().c_str());
        ++stats.cells_quarantined;
        continue;
      }
      return Error::mismatch("cell '" + entry.cell + "' missing from shard " +
                             std::to_string(entry.shard) + "'s summary");
    }
    csv += *row;
    blocks.push_back(block->second);
    merged.push_back(&entry);
  }
  std::string json = "{\n  \"interrupted\": ";
  json += stats.interrupted ? "true" : "false";
  json += ",\n  \"quarantined\": " + std::to_string(stats.genomes_quarantined);
  json += ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    json += blocks[i] + (i + 1 < blocks.size() ? "    },\n" : "    }\n");
  }
  json += "  ]\n}\n";
  stats.cells = merged.size();

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    return Error::io("cannot create " + out_dir + ": " + ec.message());
  }
  if (Error e = write_file_atomic(out_dir + "/summary.csv", csv)) return e;
  if (Error e = write_file_atomic(out_dir + "/summary.json", json)) return e;

  // Per-cell artifacts are shard-local and final: copy the directories over
  // (quarantined cells have none).
  fuzz::EliteArchive merged_archive;
  for (const ShardPlan::Entry* ep : merged) {
    const ShardPlan::Entry& entry = *ep;
    const std::string cell_dir = campaign::sanitize_cell_name(entry.cell);
    const fs::path src =
        fs::path(shard_dir(shards_root, entry.shard)) / cell_dir;
    const fs::path dst = fs::path(out_dir) / cell_dir;
    if (!fs::exists(src)) {
      return Error::corrupt("shard " + std::to_string(entry.shard) +
                            " has no report directory for cell '" +
                            entry.cell + "'");
    }
    const bool same_dir = fs::exists(dst) && fs::equivalent(src, dst, ec);
    ec.clear();
    if (!same_dir) {
      fs::remove_all(dst, ec);
      ec.clear();
      fs::copy(src, dst, fs::copy_options::recursive, ec);
      if (ec) {
        return Error::io("cannot copy " + src.string() + " to " +
                         dst.string() + ": " + ec.message());
      }
    }
    // Union the cell's behavior archive into the campaign-wide map. A
    // corrupt archive is a crash artifact: warn and keep merging.
    const fs::path archive = src / "archive.txt";
    if (fs::exists(archive)) {
      Result<fuzz::EliteArchive> a =
          fuzz::EliteArchive::try_load_file(archive.string());
      if (a) {
        merged_archive.merge_from(*a);
        ++stats.archives_merged;
      } else {
        CCFUZZ_LOG_WARN("merge: archive %s unusable (%s: %s); skipping",
                        archive.string().c_str(),
                        to_string(a.error().code), a.error().message.c_str());
      }
    }
  }
  if (stats.archives_merged > 0) {
    merged_archive.save_file(out_dir + "/archive_merged.txt");
    stats.archive_cells = merged_archive.filled();
    stats.coverage_bits = merged_archive.union_bits();
  }
  return stats;
}

}  // namespace ccfuzz::dist
