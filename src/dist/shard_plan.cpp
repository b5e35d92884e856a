#include "dist/shard_plan.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/report.h"
#include "trace/hash.h"
#include "util/fs.h"

namespace ccfuzz::dist {

std::uint32_t ShardPlan::shard_of(std::string_view cell_name, int num_shards) {
  std::uint64_t h = trace::kFnvOffset;
  for (char c : cell_name) {
    h ^= static_cast<unsigned char>(c);
    h *= trace::kFnvPrime;
  }
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
  ShardPlan plan;
  plan.num_shards = 0;
  std::string line;
  const auto next = [&](std::string& out) {
    while (std::getline(is, out)) {
      // Trim surrounding whitespace; the writer indents with spaces.
      const auto b = out.find_first_not_of(" \t\r");
      if (b == std::string::npos) continue;
      out = out.substr(b, out.find_last_not_of(" \t\r") - b + 1);
      return true;
    }
    return false;
  };

  if (!next(line)) return Error::truncated("shard plan: empty file");
  if (line != "{") return Error::parse("shard plan: expected '{', got: " + line);
  if (!next(line)) return Error::truncated("shard plan: missing num_shards");
  {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag >> plan.num_shards;
    if (tag != "\"num_shards\":" || ls.fail() || plan.num_shards < 1) {
      return Error::parse("shard plan: bad num_shards line: " + line);
    }
  }
  if (!next(line)) return Error::truncated("shard plan: missing cells array");
  if (line != "\"cells\": [") {
    return Error::parse("shard plan: expected '\"cells\": [', got: " + line);
  }
  bool closed = false;
  while (next(line)) {
    if (line == "]") {
      closed = true;
      break;
    }
    // {"cell": "<escaped>", "shard": k} with an optional trailing comma.
    constexpr std::string_view kPrefix = "{\"cell\": \"";
    if (line.rfind(kPrefix, 0) != 0) {
      return Error::parse("shard plan: bad cell entry: " + line);
    }
    // The name ends at the first quote not preceded by a backslash.
    std::size_t end = std::string::npos;
    for (std::size_t i = kPrefix.size(); i < line.size(); ++i) {
      if (line[i] == '\\') {
        ++i;
      } else if (line[i] == '"') {
        end = i;
        break;
      }
    }
    if (end == std::string::npos) {
      return Error::parse("shard plan: unterminated cell name: " + line);
    }
    Result<std::string> cell = campaign::json_unescape(
        std::string_view(line).substr(kPrefix.size(), end - kPrefix.size()));
    if (!cell) {
      return Error::parse("shard plan: bad escape in cell name: " + line);
    }
    Entry e;
    e.cell = std::move(*cell);
    std::istringstream rest(line.substr(end + 1));
    std::string comma, tag;
    long shard = -1;
    rest >> comma >> tag >> shard;
    if (comma != "," || tag != "\"shard\":" || rest.fail()) {
      return Error::parse("shard plan: bad shard field: " + line);
    }
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
  if (!closed) return Error::truncated("shard plan: unterminated cells array");
  if (!next(line) || line != "}") {
    return Error::truncated("shard plan: missing closing '}'");
  }
  return plan;
}

Result<ShardPlan> ShardPlan::try_load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Error::io("cannot open shard plan: " + path);
  return try_load(f);
}

}  // namespace ccfuzz::dist
