#include "fuzz/elite_archive.h"

#include <fstream>
#include <stdexcept>

#include "fuzz/state_io.h"
#include "trace/trace_io.h"
#include "util/fs.h"

namespace ccfuzz::fuzz {
namespace {

/// Saturating quantizer onto kBuckets buckets: exact for small values,
/// log-ish above, so the low end of every axis (where most runs land) keeps
/// resolution while heavy-tailed runs still separate.
std::size_t quantize8(unsigned v) {
  if (v <= 4) return v;
  if (v <= 6) return 5;
  if (v <= 10) return 6;
  return 7;
}

}  // namespace

EliteArchive::EliteArchive() : cells_(kCells) { occupied_.reserve(kCells); }

std::size_t EliteArchive::cell_index(const coverage::BehaviorDescriptor& d) {
  std::size_t idx = quantize8(d.state_transitions);
  idx = idx * kBuckets + quantize8(d.rtt_spread);
  idx = idx * kBuckets + quantize8(d.max_backoff);
  idx = idx * kBuckets + quantize8(d.cwnd_span);
  return idx;
}

EliteArchive::InsertResult EliteArchive::insert(const trace::Trace& genome,
                                                const Evaluation& eval) {
  InsertResult r;
  if (!eval.coverage.valid) return r;
  r.fresh_bits = union_map_.merge_count_new(eval.coverage.bitmap);
  union_bits_ += r.fresh_bits;
  r.cell = cell_index(eval.coverage.descriptor);

  Cell& c = cells_[r.cell];
  if (!c.occupied) {
    c.occupied = true;
    occupied_.push_back(static_cast<std::uint16_t>(r.cell));
    r.new_cell = true;
  } else if (eval.score.total() > c.eval.score.total()) {
    r.improved = true;
  } else {
    return r;  // incumbent stands (ties included: elites never churn)
  }
  // Copy-assign into the incumbent's buffers: warm replacements reuse the
  // stamp/goodput vector capacities and allocate nothing.
  c.genome = genome;
  c.eval = eval;
  return r;
}

std::size_t EliteArchive::merge_from(const EliteArchive& other) {
  union_bits_ += union_map_.merge_count_new(other.union_map_);
  std::size_t changed = 0;
  for (const std::uint16_t idx : other.occupied_) {
    const Cell& theirs = other.cells_[idx];
    Cell& ours = cells_[idx];
    if (!ours.occupied) {
      ours.occupied = true;
      occupied_.push_back(idx);
    } else if (!(theirs.eval.score.total() > ours.eval.score.total())) {
      continue;  // incumbent stands (ties included), as in insert()
    }
    ours.genome = theirs.genome;
    ours.eval = theirs.eval;
    ++changed;
  }
  return changed;
}

const EliteArchive::Cell& EliteArchive::sample(Rng& rng) const {
  const std::size_t pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(occupied_.size()) - 1));
  return cells_[occupied_[pick]];
}

void EliteArchive::save(record::Writer& w, bool terminated) const {
  w << "# ccfuzz-archive v1\n";
  w << "# cells " << occupied_.size() << '\n';
  w << "# union ";
  w.hex(union_map_.words) << '\n';
  for (const std::uint16_t idx : occupied_) {
    const Cell& c = cells_[idx];
    w << "# entry " << idx << '\n';
    w << "# score " << c.eval.score.performance << ' ' << c.eval.score.trace
      << '\n';
    w << "# desc";
    state_io::write_descriptor(w, c.eval.coverage.descriptor);
    w << "\n# bits " << c.eval.coverage.bits << '\n';
    w << "# map ";
    w.hex(c.eval.coverage.bitmap.words) << '\n';
    trace::write_trace(w, c.genome);
    w << "# end entry\n";
  }
  if (terminated) w << "# end archive\n";
}

void EliteArchive::save_file(const std::string& path) const {
  record::Writer w;
  save(w);
  if (Error e = write_file_atomic(path, w.str(), /*sync=*/false)) {
    throw std::runtime_error("cannot write archive file: " + e.message);
  }
}

Result<EliteArchive> EliteArchive::try_load(std::istream& is) {
  record::Reader r(is);
  Result<EliteArchive> a = try_load(r, /*terminated=*/false);
  r.eof();
  if (!r.ok()) return r.error();
  return a;
}

Result<EliteArchive> EliteArchive::try_load(record::Reader& r,
                                            bool terminated) {
  EliteArchive a;
  std::size_t n_cells = 0;
  r.header("ccfuzz-archive", "v1");
  r.read("cells", n_cells);
  if (n_cells > kCells) r.fail(Error::corrupt("archive: too many cells"));
  r.read("union", record::Hex(a.union_map_.words));
  for (std::size_t i = 0; i < n_cells && r.ok(); ++i) {
    std::size_t idx = 0;
    if (!r.read("entry", idx)) break;
    if (idx >= kCells || a.cells_[idx].occupied) {
      r.fail(Error::corrupt("archive: cell index out of range or repeated"));
      break;
    }
    Cell& c = a.cells_[idx];
    c.occupied = true;
    c.eval.coverage.valid = true;
    r.read("score", c.eval.score.performance, c.eval.score.trace);
    state_io::read_descriptor(r.expect("desc"), c.eval.coverage.descriptor);
    r.done();
    r.read("bits", c.eval.coverage.bits);
    r.read("map", record::Hex(c.eval.coverage.bitmap.words));
    if (Result<trace::Trace> genome = trace::try_read_trace(r)) {
      c.genome = std::move(*genome);
    }
    r.end("entry");
    a.occupied_.push_back(static_cast<std::uint16_t>(idx));
    a.union_map_.merge_count_new(c.eval.coverage.bitmap);
  }
  if (terminated) r.end("archive");
  if (!r.ok()) return r.error();
  a.union_bits_ = a.union_map_.count();
  return a;
}

Result<EliteArchive> EliteArchive::try_load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Error::io("cannot open archive file: " + path);
  return try_load(f);
}

EliteArchive EliteArchive::load(std::istream& is) {
  Result<EliteArchive> r = try_load(is);
  if (!r) throw std::runtime_error(r.error().message);
  return std::move(*r);
}

EliteArchive EliteArchive::load_file(const std::string& path) {
  Result<EliteArchive> r = try_load_file(path);
  if (!r) throw std::runtime_error(r.error().message);
  return std::move(*r);
}

}  // namespace ccfuzz::fuzz
