// Golden-schema test for JsonlObserver: dashboards tail these events, so
// the key set of every event type is pinned. Adding a field is a deliberate
// schema change — update the golden lists here when you make one.
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "fuzz/score.h"

namespace ccfuzz::campaign {
namespace {

/// Top-level keys of a flat-ish JSON object line, in order of appearance.
/// Good enough for the observer's output: nested objects only occur inside
/// the campaign_begin "cells" array, whose element keys we pin separately.
std::vector<std::string> top_level_keys(const std::string& line) {
  std::vector<std::string> keys;
  int depth = 0;
  bool in_string = false;
  std::string current;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 1 && i + 1 < line.size() && line[i + 1] == ':') {
          keys.push_back(current);
        }
      } else {
        current += c;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; current.clear(); break;
      case '{': case '[': ++depth; break;
      case '}': case ']': --depth; break;
      default: break;
    }
  }
  return keys;
}

/// The name in the first `"event":"<name>"` of `line` whose name is one or
/// more of [a-z_]; "" when there is none.
std::string event_of(const std::string& line) {
  static constexpr std::string_view kKey = "\"event\":\"";
  for (std::size_t at = line.find(kKey); at != std::string::npos;
       at = line.find(kKey, at + 1)) {
    const std::size_t begin = at + kKey.size();
    const std::size_t end =
        line.find_first_not_of("abcdefghijklmnopqrstuvwxyz_", begin);
    if (end != std::string::npos && end > begin && line[end] == '"') {
      return line.substr(begin, end - begin);
    }
  }
  return "";
}

CellConfig schema_cell(bool coverage) {
  CellConfig cell;
  cell.cca = "reno";
  cell.name = coverage ? "probe-cell" : "plain-cell";
  cell.scenario.duration = TimeNs::seconds(1);
  cell.score = std::make_shared<fuzz::LowUtilizationScore>();
  cell.traffic_model.max_packets = 120;
  cell.ga.population = 6;
  cell.ga.islands = 2;
  cell.ga.max_generations = 2;
  if (coverage) {
    cell.ga.search = fuzz::SearchMode::kMapElites;
  }
  return cell;
}

TEST(JsonlSchema, EventKeySetsArePinned) {
  std::ostringstream out;
  CampaignConfig cfg;
  cfg.add_cell(schema_cell(false)).add_cell(schema_cell(true));
  Campaign c(cfg);
  JsonlObserver obs(out);
  c.add_observer(&obs);
  c.run();

  const std::map<std::string, std::vector<std::string>> golden = {
      {"campaign_begin", {"event", "cells"}},
      {"generation",
       {"event", "cell", "generation", "best_score", "mean_score",
        "topk_goodput_mbps", "topk_jain_fairness", "topk_flow_goodputs_mbps",
        "stalled", "evaluations", "archive_cells", "archive_new_cells",
        "coverage_bits"}},
      // cell_end for a coverage cell; probe-less cells drop the archive
      // fields and multi-flow cells add best_flow_goodputs_mbps.
      {"cell_end",
       {"event", "cell", "best_score", "winners", "simulations", "cache_hits",
        "archive_cells", "coverage_bits"}},
      {"campaign_end", {"event", "cells", "interrupted", "quarantined"}},
  };

  std::istringstream lines(out.str());
  std::string line;
  int checked = 0;
  while (std::getline(lines, line)) {
    const std::string event = event_of(line);
    ASSERT_FALSE(event.empty()) << line;
    auto keys = top_level_keys(line);
    if (event == "cell_end" &&
        line.find("\"archive_cells\"") == std::string::npos) {
      // The probe-less cell: same schema minus the two archive keys.
      keys.push_back("archive_cells");
      keys.push_back("coverage_bits");
    }
    const auto it = golden.find(event);
    ASSERT_NE(it, golden.end()) << "unknown event type: " << event;
    EXPECT_EQ(keys, it->second) << line;
    ++checked;
  }
  // begin + 2 cells × 2 generations + 2 cell_end + end.
  EXPECT_EQ(checked, 8);
}

TEST(JsonlSchema, CampaignBeginCellEntriesArePinned) {
  std::ostringstream out;
  CampaignConfig cfg;
  cfg.add_cell(schema_cell(false));
  Campaign c(cfg);
  JsonlObserver obs(out);
  c.add_observer(&obs);
  c.run();

  std::istringstream lines(out.str());
  std::string first;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_EQ(event_of(first), "campaign_begin");
  for (const char* key :
       {"\"name\":", "\"cca\":", "\"mode\":", "\"flows\":", "\"population\":",
        "\"max_generations\":"}) {
    EXPECT_NE(first.find(key), std::string::npos) << key << " in " << first;
  }
}

TEST(JsonlSchema, ShardTagIsSecondKeyOnEveryLine) {
  // Distributed workers tag every line so a multiplexed aggregate feed stays
  // attributable; the tag's position (right after "event") is part of the
  // pinned schema.
  std::ostringstream out;
  CampaignConfig cfg;
  cfg.add_cell(schema_cell(false));
  Campaign c(cfg);
  JsonlObserver obs(out);
  obs.set_shard(3);
  c.add_observer(&obs);
  c.run();

  std::istringstream lines(out.str());
  std::string line;
  int checked = 0;
  while (std::getline(lines, line)) {
    const auto keys = top_level_keys(line);
    ASSERT_GE(keys.size(), 2u) << line;
    EXPECT_EQ(keys[0], "event") << line;
    EXPECT_EQ(keys[1], "shard") << line;
    EXPECT_NE(line.find("\"shard\":3,"), std::string::npos) << line;
    ++checked;
  }
  EXPECT_EQ(checked, 5);  // begin + 2 generations + cell_end + end
}

TEST(JsonlSchema, UntaggedObserverEmitsNoShardKey) {
  std::ostringstream out;
  CampaignConfig cfg;
  cfg.add_cell(schema_cell(false));
  Campaign c(cfg);
  JsonlObserver obs(out);
  c.add_observer(&obs);
  c.run();
  EXPECT_EQ(out.str().find("\"shard\""), std::string::npos);
}

TEST(SummaryJson, RecordsInterruptedFlag) {
  // The JSONL campaign_end event always carried `interrupted`; summary.json
  // used to omit it, leaving post-hoc triage unable to tell a partial report
  // from a finished one. Both serializations now agree.

  // A stop raised mid-campaign yields an interrupted summary...
  class StopAfterFirstGeneration final : public CampaignObserver {
    void on_generation(const CellConfig&, const fuzz::GenStats&) override {
      request_stop();
    }
  };
  reset_stop_flag();
  {
    CampaignConfig cfg;
    cfg.add_cell(schema_cell(false));
    Campaign c(cfg);
    StopAfterFirstGeneration stopper;
    c.add_observer(&stopper);
    const CampaignReport& report = c.run();
    ASSERT_TRUE(report.interrupted);
    EXPECT_NE(to_json(report).find("\"interrupted\": true"),
              std::string::npos);
  }
  reset_stop_flag();

  // ...and a completed campaign records false.
  {
    CampaignConfig cfg;
    cfg.add_cell(schema_cell(false));
    Campaign c(cfg);
    const CampaignReport& report = c.run();
    ASSERT_FALSE(report.interrupted);
    EXPECT_NE(to_json(report).find("\"interrupted\": false"),
              std::string::npos);
  }
}

TEST(JsonlSchema, CoverageCellsReportArchiveGrowth) {
  std::ostringstream out;
  CampaignConfig cfg;
  cfg.add_cell(schema_cell(true));
  Campaign c(cfg);
  JsonlObserver obs(out);
  c.add_observer(&obs);
  const auto& report = c.run();

  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_NE(report.cells.front().archive, nullptr);
  EXPECT_GT(report.cells.front().archive->filled(), 0u);

  // The last generation line of a coverage cell carries nonzero growth.
  std::istringstream lines(out.str());
  std::string line, last_generation;
  while (std::getline(lines, line)) {
    if (event_of(line) == "generation") last_generation = line;
  }
  ASSERT_FALSE(last_generation.empty());
  EXPECT_EQ(last_generation.find("\"archive_cells\":0,"), std::string::npos)
      << last_generation;
}

}  // namespace
}  // namespace ccfuzz::campaign
