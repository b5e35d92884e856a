#include "dist/shard_plan.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/report.h"
#include "trace/hash.h"
#include "util/fs.h"
#include "util/record.h"

namespace ccfuzz::dist {

std::uint32_t ShardPlan::shard_of(std::string_view cell_name, int num_shards) {
  std::uint64_t h = trace::fnv1a_str(trace::kFnvOffset, cell_name);
  // FNV-1a's low bit is linear in the input bytes (the prime is odd, so the
  // multiply preserves parity) — taken mod a small power of two it collapses
  // whole families of names onto one shard. Finalize with a full-width mixer
  // (murmur3 fmix64) so every hash bit reaches the modulus.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h % static_cast<std::uint64_t>(num_shards));
}

ShardPlan ShardPlan::build(const std::vector<campaign::CellConfig>& cells,
                           int num_shards) {
  if (num_shards < 1) {
    throw std::invalid_argument("ShardPlan: num_shards must be >= 1");
  }
  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.entries.reserve(cells.size());
  for (const auto& cell : cells) {
    plan.entries.push_back({cell.name, shard_of(cell.name, num_shards)});
  }
  return plan;
}

std::vector<std::size_t> ShardPlan::cells_of(std::uint32_t shard) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].shard == shard) out.push_back(i);
  }
  return out;
}

std::size_t ShardPlan::cell_count(std::uint32_t shard) const {
  std::size_t n = 0;
  for (const auto& e : entries) {
    if (e.shard == shard) ++n;
  }
  return n;
}

std::string ShardPlan::to_json() const {
  std::ostringstream os;
  os << "{\n  \"num_shards\": " << num_shards << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    os << "    {\"cell\": \"" << campaign::json_escape(entries[i].cell)
       << "\", \"shard\": " << entries[i].shard << "}"
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

Error ShardPlan::save_file(const std::string& path) const {
  return write_file_atomic(path, to_json());
}

Result<ShardPlan> ShardPlan::try_load(std::istream& is) {
  record::Reader r(is);
  ShardPlan plan;
  r.open("{");
  r.key("num_shards") >> plan.num_shards;
  if (r.done() && plan.num_shards < 1) r.fail_parse("num_shards below 1");
  r.open("\"cells\": [");
  while (r.ok() && !r.next_is("]")) {
    Entry e;
    std::int64_t shard = 0;
    r.inline_object({{"cell", &e.cell}, {"shard", &shard}});
    if (!r.ok()) break;
    if (shard < 0 || shard >= plan.num_shards) {
      return Error::corrupt("shard plan: shard " + std::to_string(shard) +
                            " out of range for " +
                            std::to_string(plan.num_shards) + " shards");
    }
    for (const auto& prev : plan.entries) {
      if (prev.cell == e.cell) {
        return Error::corrupt("shard plan: duplicate cell: " + e.cell);
      }
    }
    e.shard = static_cast<std::uint32_t>(shard);
    plan.entries.push_back(std::move(e));
  }
  r.close("]");
  r.close("}");
  r.eof();
  if (!r.ok()) return r.error();
  return plan;
}

Result<ShardPlan> ShardPlan::try_load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Error::io("cannot open shard plan: " + path);
  return try_load(f);
}

}  // namespace ccfuzz::dist
