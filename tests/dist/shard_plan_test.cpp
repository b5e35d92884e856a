// ShardPlan semantics: stable, coordination-free cell assignment and the
// shard_plan.json round trip, including the typed-error taxonomy on
// malformed plan files.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/shard_plan.h"

namespace ccfuzz::dist {
namespace {

namespace fs = std::filesystem;

std::vector<campaign::CellConfig> named_cells(
    const std::vector<std::string>& names) {
  std::vector<campaign::CellConfig> cells;
  for (const auto& n : names) {
    campaign::CellConfig c;
    c.name = n;
    cells.push_back(std::move(c));
  }
  return cells;
}

TEST(ShardPlan, ShardOfIsDeterministicAndInRange) {
  for (const char* name : {"reno.traffic.low-utilization", "a", "", "x.y.z"}) {
    for (int shards : {1, 2, 3, 7, 64}) {
      const std::uint32_t s = ShardPlan::shard_of(name, shards);
      EXPECT_LT(s, static_cast<std::uint32_t>(shards));
      EXPECT_EQ(s, ShardPlan::shard_of(name, shards)) << name;
    }
  }
}

TEST(ShardPlan, ShardOfValuesArePinned) {
  // Every worker and every saved shard_plan.json agree on these owners; a
  // change to the hash would reshuffle live campaigns.
  const struct {
    const char* name;
    std::uint32_t at2, at3, at5;
  } pinned[] = {
      {"reno.traffic.low-utilization", 0, 2, 1},
      {"cubic.traffic.low-utilization", 1, 0, 3},
      {"bbr.link.low-utilization", 1, 0, 2},
      {"bbr.traffic.incast.fairness", 0, 2, 4},
  };
  for (const auto& p : pinned) {
    EXPECT_EQ(ShardPlan::shard_of(p.name, 2), p.at2) << p.name;
    EXPECT_EQ(ShardPlan::shard_of(p.name, 3), p.at3) << p.name;
    EXPECT_EQ(ShardPlan::shard_of(p.name, 5), p.at5) << p.name;
  }
}

TEST(ShardPlan, AssignmentIgnoresOtherCells) {
  // The load-bearing property: a cell's owner depends only on its own name,
  // so a worker that expands the full matrix and a plan built from any
  // subset agree, and adding cells never reshuffles existing shards.
  const auto full = named_cells({"a.traffic", "b.traffic", "c.link", "d"});
  const ShardPlan plan = ShardPlan::build(full, 3);
  for (const auto& e : plan.entries) {
    EXPECT_EQ(e.shard, ShardPlan::shard_of(e.cell, 3)) << e.cell;
  }
  const ShardPlan subset = ShardPlan::build(named_cells({"d", "a.traffic"}), 3);
  EXPECT_EQ(subset.entries[0].shard, plan.entries[3].shard);
  EXPECT_EQ(subset.entries[1].shard, plan.entries[0].shard);
}

TEST(ShardPlan, SpreadsRealisticCellNamesAcrossTwoShards) {
  // Regression guard for the hash finalizer: raw FNV-1a's low bit is linear
  // in the input bytes, which sent entire cca.mode.score families to one
  // shard when taken mod 2. The mixed hash must populate both shards.
  std::vector<std::string> names;
  for (const char* cca : {"reno", "cubic", "bbr", "vegas"}) {
    for (const char* mode : {"traffic", "link"}) {
      names.push_back(std::string(cca) + "." + mode + ".low-utilization");
    }
  }
  std::set<std::uint32_t> used;
  for (const auto& n : names) used.insert(ShardPlan::shard_of(n, 2));
  EXPECT_EQ(used.size(), 2u) << "all cells hashed to one shard";
}

TEST(ShardPlan, BuildPreservesOrderAndValidates) {
  const auto cells = named_cells({"z", "a", "m"});
  const ShardPlan plan = ShardPlan::build(cells, 2);
  ASSERT_EQ(plan.entries.size(), 3u);
  EXPECT_EQ(plan.entries[0].cell, "z");
  EXPECT_EQ(plan.entries[1].cell, "a");
  EXPECT_EQ(plan.entries[2].cell, "m");
  EXPECT_EQ(plan.cell_count(0) + plan.cell_count(1), 3u);
  std::size_t indexed = 0;
  for (std::uint32_t s : {0u, 1u}) {
    for (std::size_t i : plan.cells_of(s)) {
      EXPECT_EQ(plan.entries[i].shard, s);
      ++indexed;
    }
  }
  EXPECT_EQ(indexed, 3u);
  EXPECT_THROW(ShardPlan::build(cells, 0), std::invalid_argument);
}

TEST(ShardPlan, JsonRoundTripsIncludingHostileNames) {
  const auto cells = named_cells({
      "plain.traffic.low-utilization",
      "with \"quotes\" and, commas",
      "back\\slash and\ttab",
  });
  const ShardPlan plan = ShardPlan::build(cells, 5);

  std::istringstream is(plan.to_json());
  const Result<ShardPlan> loaded = ShardPlan::try_load(is);
  ASSERT_TRUE(loaded) << loaded.error().message;
  EXPECT_EQ(loaded->num_shards, plan.num_shards);
  ASSERT_EQ(loaded->entries.size(), plan.entries.size());
  for (std::size_t i = 0; i < plan.entries.size(); ++i) {
    EXPECT_EQ(loaded->entries[i].cell, plan.entries[i].cell);
    EXPECT_EQ(loaded->entries[i].shard, plan.entries[i].shard);
  }
}

TEST(ShardPlan, SaveFileLoadFileRoundTrips) {
  const fs::path dir =
      fs::temp_directory_path() / "ccfuzz_shard_plan_roundtrip";
  fs::create_directories(dir);
  const std::string path = (dir / "shard_plan.json").string();

  const ShardPlan plan = ShardPlan::build(named_cells({"a", "b", "c"}), 2);
  ASSERT_FALSE(plan.save_file(path));
  const Result<ShardPlan> loaded = ShardPlan::try_load_file(path);
  ASSERT_TRUE(loaded) << loaded.error().message;
  EXPECT_EQ(loaded->entries.size(), 3u);
  fs::remove_all(dir);
}

TEST(ShardPlanErrors, MissingFileIsKIo) {
  const auto r = ShardPlan::try_load_file("/nonexistent/shard_plan.json");
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kIo);
}

TEST(ShardPlanErrors, EmptyInputIsKTruncated) {
  std::istringstream is("");
  const auto r = ShardPlan::try_load(is);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kTruncated);
}

TEST(ShardPlanErrors, MalformedContentIsKParse) {
  for (const char* body : {
           "not json at all\n",
           "{\n  \"num_shards\": zero,\n  \"cells\": [\n  ]\n}\n",
           "{\n  \"num_shards\": 2,\n  \"cells\": [\n    garbage\n  ]\n}\n",
           "{\n  \"num_shards\": 2xyz,\n  \"cells\": [\n  ]\n}\n",
           "{\n  \"num_shards\": 2,\n  \"cells\": [\n"
           "    {\"cell\": \"a\", \"shard\": 1junk}\n  ]\n}\n",
           "{\n  \"num_shards\": 2,\n  \"cells\": [\n"
           "    {\"cell\": \"a\", \"shard\": 1}\n  ]\n}\ntrailing\n",
           // The writer's commas: one after every item but the last.
           "{\n  \"num_shards\": 2,\n  \"cells\": [\n"
           "    {\"cell\": \"a\", \"shard\": 1}\n"
           "    {\"cell\": \"b\", \"shard\": 0}\n  ]\n}\n",
           "{\n  \"num_shards\": 2,\n  \"cells\": [\n"
           "    {\"cell\": \"a\", \"shard\": 1},\n  ]\n}\n",
       }) {
    std::istringstream is(body);
    const auto r = ShardPlan::try_load(is);
    ASSERT_FALSE(r) << body;
    EXPECT_EQ(r.error().code, Error::Code::kParse) << body;
  }
}

TEST(ShardPlanErrors, TruncatedStructureIsKTruncated) {
  for (const char* body : {
           "{\n",
           "{\n  \"num_shards\": 2,\n",
           "{\n  \"num_shards\": 2,\n  \"cells\": [\n",
           "{\n  \"num_shards\": 2,\n  \"cells\": [\n"
           "    {\"cell\": \"a\", \"shard\": 0}\n",
       }) {
    std::istringstream is(body);
    const auto r = ShardPlan::try_load(is);
    ASSERT_FALSE(r) << body;
    EXPECT_EQ(r.error().code, Error::Code::kTruncated) << body;
  }
}

TEST(ShardPlanErrors, InvalidContentIsKCorrupt) {
  // Shard index out of the declared range.
  {
    std::istringstream is(
        "{\n  \"num_shards\": 2,\n  \"cells\": [\n"
        "    {\"cell\": \"a\", \"shard\": 5}\n  ]\n}\n");
    const auto r = ShardPlan::try_load(is);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
  }
  // The same cell owned twice.
  {
    std::istringstream is(
        "{\n  \"num_shards\": 2,\n  \"cells\": [\n"
        "    {\"cell\": \"a\", \"shard\": 0},\n"
        "    {\"cell\": \"a\", \"shard\": 1}\n  ]\n}\n");
    const auto r = ShardPlan::try_load(is);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
  }
}

}  // namespace
}  // namespace ccfuzz::dist
