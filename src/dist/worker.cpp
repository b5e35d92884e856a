#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "campaign/report.h"
#include "dist/merge.h"
#include "dist/shard_plan.h"
#include "faultinject/fault_plan.h"
#include "util/logging.h"

namespace ccfuzz::dist {
namespace {

/// Slows the lockstep loop down (supervisor-restart tests need a window to
/// kill a worker mid-campaign).
class ThrottleObserver final : public campaign::CampaignObserver {
 public:
  explicit ThrottleObserver(int ms) : ms_(ms) {}

  void on_generation(const campaign::CellConfig&,
                     const fuzz::GenStats&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
  }

 private:
  int ms_;
};

/// Consults the armed FaultPlan at generation boundaries — the two faults a
/// worker can suffer as a whole process (hang; die while a named cell is
/// active). Only registered while a plan is armed, so fault-free campaigns
/// never pay the dispatch.
class FaultObserver final : public campaign::CampaignObserver {
 public:
  void on_generation(const campaign::CellConfig& cell,
                     const fuzz::GenStats&) override {
    using faultinject::FaultSite;
    if (faultinject::should_fire(FaultSite::kWorkerHang)) {
      faultinject::hang_now();
    }
    if (faultinject::should_fire(FaultSite::kCellCrash, cell.name)) {
      faultinject::crash_now(FaultSite::kCellCrash);
    }
  }
};

}  // namespace

int run_worker(const campaign::CampaignConfig& full,
               const WorkerOptions& opt) {
  if (opt.num_shards < 1 || opt.shard < 0 || opt.shard >= opt.num_shards) {
    throw std::invalid_argument("worker: shard " + std::to_string(opt.shard) +
                                " out of range for " +
                                std::to_string(opt.num_shards) + " shards");
  }
  const std::string dir = shard_dir(opt.root, static_cast<std::uint32_t>(opt.shard));
  std::filesystem::create_directories(dir);

  // Every worker expands the same full matrix and keeps its own cells, so
  // assignment needs no coordination and survives workers joining in any
  // order. add_cell() preserves the expanded names — the shard plan and the
  // merged report key on them.
  campaign::CampaignConfig mine;
  mine.parallel(full.parallel())
      .output_dir(dir)
      .resume_dir(dir)
      .checkpoint_every(opt.checkpoint_every);
  std::size_t owned = 0;
  for (auto& cell : full.cells()) {
    if (ShardPlan::shard_of(cell.name, opt.num_shards) !=
        static_cast<std::uint32_t>(opt.shard)) {
      continue;
    }
    if (std::find(opt.skip_cells.begin(), opt.skip_cells.end(), cell.name) !=
        opt.skip_cells.end()) {
      CCFUZZ_LOG_WARN("worker: skipping quarantined cell '%s'",
                      cell.name.c_str());
      continue;
    }
    // The full config carries no resume_dir; this worker's cells resume from
    // its own shard directory (where its write_report puts archives).
    mine.add_cell(std::move(cell));
    ++owned;
  }

  campaign::JsonlObserver jsonl(std::cout);
  jsonl.set_shard(opt.shard);

  if (owned == 0) {
    // An empty shard is a complete shard: write the empty report tree so the
    // merge step finds a well-formed summary, and announce it on the feed.
    campaign::CampaignReport empty;
    campaign::write_report(empty, dir);
    jsonl.on_campaign_begin({});
    jsonl.on_campaign_end(empty);
    return 0;
  }

  campaign::Campaign campaign(mine);
  ThrottleObserver throttle(opt.throttle_ms);
  FaultObserver faults;
  // The supervisor's liveness signal: one `generation` line per cell per
  // generation, each naming the cell for poison attribution.
  campaign.add_observer(&jsonl);
  if (opt.throttle_ms > 0) campaign.add_observer(&throttle);
  // Last: a cell-crash must land *after* the cell's progress lines reached
  // stdout, so the supervisor attributes the death to the right cell.
  if (faultinject::active() != nullptr) campaign.add_observer(&faults);

  const campaign::CampaignReport& report = campaign.run();
  return report.interrupted ? kWorkerInterruptedExit : 0;
}

}  // namespace ccfuzz::dist
