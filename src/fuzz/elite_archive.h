// MAP-Elites archive over behavioral coverage descriptors.
//
// Instead of keeping one best-of-population, the archive grids the behavior
// space (coverage::BehaviorDescriptor quantized to a fixed
// 8x8x8x8 lattice) and keeps the highest-scoring trace per cell — so a
// mid-scoring trace that drives the CCA somewhere *new* survives and breeds.
// The archive also maintains the union coverage bitmap across everything
// ever inserted; insert() reports how many bitmap bits a candidate set for
// the first time, which is the novelty bonus SearchMode::kMapElites /
// GaConfig::novelty_bonus feeds back into selection.
//
// Cell storage is fixed (kCells slots, allocated up front) and replacement
// copy-assigns into the incumbent's buffers, so a warm generation of
// inserts performs zero heap allocations when genome sizes have reached
// their high-water mark (pinned by the steady-state allocation test).
//
// Archives serialize through trace_io (each elite genome is an embedded
// `# ccfuzz-trace v1` block), so a campaign can resume from a previous
// campaign's archive and keep filling cells.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "coverage/probe.h"
#include "fuzz/evaluator.h"
#include "trace/trace.h"
#include "util/error.h"
#include "util/record.h"
#include "util/rng.h"

namespace ccfuzz::fuzz {

/// Fixed-grid MAP-Elites archive keyed by the behavior descriptor.
class EliteArchive {
 public:
  static constexpr std::size_t kDims = 4;
  static constexpr std::size_t kBuckets = 8;
  static constexpr std::size_t kCells = 4096;  // kBuckets^kDims

  /// One lattice cell: the elite (highest-scoring) trace observed with this
  /// behavior, or empty.
  struct Cell {
    bool occupied = false;
    trace::Trace genome;
    Evaluation eval;
  };

  struct InsertResult {
    bool new_cell = false;        ///< first occupant of its cell
    bool improved = false;        ///< displaced a lower-scoring incumbent
    std::uint32_t fresh_bits = 0; ///< union-bitmap bits this run set first
    std::size_t cell = 0;         ///< lattice index the candidate mapped to
  };

  EliteArchive();

  /// Lattice index of a descriptor: each of the four behavior axes
  /// (state transitions, RTT spread, max RTO backoff, cwnd span) quantized
  /// to kBuckets saturating log-ish buckets.
  static std::size_t cell_index(const coverage::BehaviorDescriptor& d);

  /// Offers a candidate. No-op (all-false result) unless `eval.coverage` is
  /// valid. The union map always absorbs the candidate's bitmap; the cell
  /// only takes it when empty or strictly outscored (ties keep the
  /// incumbent, so re-inserted elites never churn).
  InsertResult insert(const trace::Trace& genome, const Evaluation& eval);

  /// Unions `other` into this archive (distributed report merge, repeated-
  /// seed aggregation): the union bitmap absorbs other's map, and each of
  /// other's elites is offered to its cell under insert() semantics — empty
  /// cells take it, occupied cells keep the strictly higher score (ties keep
  /// this archive's incumbent). Deterministic: other's elites are visited in
  /// its fill order, and cells this newly fills extend this archive's fill
  /// order in that sequence — merging into an empty archive reproduces
  /// `other` byte-for-byte through save(). Returns the number of cells
  /// newly filled or improved.
  std::size_t merge_from(const EliteArchive& other);

  std::size_t filled() const { return occupied_.size(); }
  std::uint32_t union_bits() const { return union_bits_; }
  const coverage::CoverageBitmap& union_map() const { return union_map_; }

  const Cell& cell(std::size_t index) const { return cells_[index]; }
  /// Occupied lattice indices in first-fill order (deterministic).
  const std::vector<std::uint16_t>& occupied_cells() const {
    return occupied_;
  }

  /// Uniform-random occupied cell (parent selection). Requires filled() > 0.
  const Cell& sample(Rng& rng) const;

  // ---- Persistence (archives survive across campaigns) ----
  /// Writes the archive: magic, `# cells <n>`, the union map, then n
  /// entries in fill order, each `# entry`, `# score`, `# desc`, `# bits`,
  /// `# map`, a trace_io block and `# end entry`. With `terminated`,
  /// appends `# end archive` so the block can be embedded inside a larger
  /// stream (checkpoints); standalone files omit it.
  void save(record::Writer& w, bool terminated = false) const;
  /// Writes save()'s bytes to `path` through write_file_atomic, without an
  /// fsync. Throws std::runtime_error on failure.
  void save_file(const std::string& path) const;
  /// Parses a standalone archive written by save() without throwing; the
  /// stream must end after the last entry. Restores genomes, scores,
  /// descriptors, coverage bitmaps and the union map; transport counters of
  /// the persisted evaluations read as zero. Error codes: kVersion for a
  /// recognized-but-unsupported format, kTruncated for input cut off before
  /// the last entry ends (the crash artifact), kParse for a record out of
  /// its fixed order or malformed, kCorrupt for a cell index out of range
  /// or repeated.
  static Result<EliteArchive> try_load(std::istream& is);
  /// The same, reading in place from an enclosing record stream; with
  /// `terminated`, through the `# end archive` line save(os, true) writes.
  static Result<EliteArchive> try_load(record::Reader& r, bool terminated);
  static Result<EliteArchive> try_load_file(const std::string& path);
  /// Throwing wrappers (std::runtime_error on malformed input).
  static EliteArchive load(std::istream& is);
  static EliteArchive load_file(const std::string& path);

 private:
  std::vector<Cell> cells_;             // kCells, fixed size
  std::vector<std::uint16_t> occupied_; // fill order; reserved to kCells
  coverage::CoverageBitmap union_map_{};
  std::uint32_t union_bits_ = 0;
};

}  // namespace ccfuzz::fuzz
