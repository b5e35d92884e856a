// Deterministic partitioning of a campaign's cell matrix across workers.
//
// Campaign cells are independent (each cell's GA is a pure function of its
// own config and seed — see src/campaign/campaign.h), so a campaign shards
// by cell: every cell is owned by exactly one worker, chosen by a stable
// hash of the cell name. Stability is the load-bearing property: any
// process that knows the full cell list and the worker count derives the
// identical assignment with no coordination — a worker recomputes its own
// subset, the supervisor plans without talking to workers, and a merge run
// weeks later still knows which shard owns which cell.
//
// The plan serializes as `shard_plan.json` in the campaign root so the
// merge step (and humans triaging a shard tree) can recover the global
// cell order and ownership without re-expanding the campaign config.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"
#include "util/error.h"

namespace ccfuzz::dist {

/// The cell → shard assignment of one campaign, in global cell order.
struct ShardPlan {
  struct Entry {
    std::string cell;     ///< campaign cell name (CellConfig::name)
    std::uint32_t shard;  ///< owning worker, in [0, num_shards)
  };

  int num_shards = 1;
  /// One entry per campaign cell, preserving CampaignConfig::cells() order —
  /// the order summary rows appear in, which the merge step reproduces.
  std::vector<Entry> entries;

  /// Stable owner of a cell: FNV-1a of the cell name, finalized with a
  /// 64-bit mixer (FNV-1a's low bits alone are too linear for a small
  /// modulus), mod `num_shards`. Depends only on the name, so adding or
  /// removing *other* cells never reshuffles existing assignments.
  static std::uint32_t shard_of(std::string_view cell_name, int num_shards);

  /// Builds the plan for a campaign's expanded cell list.
  /// Throws std::invalid_argument when num_shards < 1.
  static ShardPlan build(const std::vector<campaign::CellConfig>& cells,
                         int num_shards);

  /// Indices (into `entries`, i.e. global cell order) owned by `shard`.
  std::vector<std::size_t> cells_of(std::uint32_t shard) const;
  /// Number of cells owned by `shard`.
  std::size_t cell_count(std::uint32_t shard) const;

  // ---- Persistence (shard_plan.json) ----
  std::string to_json() const;
  /// Atomic write of to_json() (write-temp + rename, like checkpoints).
  Error save_file(const std::string& path) const;
  /// Parses a plan written by save_file, in its fixed order, through
  /// record::Reader. Errors: kIo (unopenable), kParse (a wrong line or key,
  /// a bad value, content after the `}`), kTruncated (input ends where a
  /// line is due), kCorrupt (shard out of range, duplicate cell).
  static Result<ShardPlan> try_load_file(const std::string& path);
  static Result<ShardPlan> try_load(std::istream& is);
};

}  // namespace ccfuzz::dist
