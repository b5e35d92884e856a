// One distributed-campaign worker: the shard-local campaign driver.
//
// A worker owns the subset of the campaign matrix that ShardPlan::shard_of
// assigns to it, and runs it through the ordinary single-process Campaign
// driver into `<root>/shards/<k>/` — checkpointing, crash-resume
// (PR 7's checkpoint_every/resume_dir, verbatim: the shard directory is its
// own resume_dir, so a restarted worker continues bit-identically), report
// writing and all. Progress streams to stdout as JSONL with every line
// tagged `"shard":<k>`, which is what the supervisor multiplexes into the
// campaign-wide aggregate feed. That stream is also the liveness signal:
// every generation writes a `generation` line per active cell, so a worker
// silent for longer than the supervisor's heartbeat timeout is hung, not
// slow.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace ccfuzz::dist {

/// Exit code of a worker whose campaign stopped on a shutdown request
/// (SIGINT/SIGTERM) before finishing: its state is checkpointed and the same
/// invocation resumes it. The supervisor restarts such workers unless the
/// stop was its own.
inline constexpr int kWorkerInterruptedExit = 3;

struct WorkerOptions {
  int shard = 0;
  int num_shards = 1;
  /// Campaign root; this worker writes under `<root>/shards/<shard>/`.
  std::string root;
  /// Lockstep generations between checkpoints (see
  /// CampaignConfig::checkpoint_every). Every worker checkpoints by default:
  /// supervisor restarts depend on it.
  int checkpoint_every = 1;
  /// Sleep after every generation event (test hook — lets kill-mid-campaign
  /// tests land reliably; 0 for real use).
  int throttle_ms = 0;
  /// Cells this worker owns but must not run — quarantined by the
  /// supervisor after repeated deaths. Dropping a cell invalidates the
  /// shard checkpoint's cell count, so the survivors restart fresh; that is
  /// the accepted cost of isolating a poison cell.
  std::vector<std::string> skip_cells;
};

/// Runs the worker's subset of `full` (the whole campaign's config — every
/// worker expands the same matrix and keeps the cells it owns, so no
/// coordination is needed). Returns 0 on completion,
/// kWorkerInterruptedExit on a graceful stop, and throws what the campaign
/// throws on configuration errors. A worker owning zero cells writes an
/// empty report tree and returns 0.
int run_worker(const campaign::CampaignConfig& full, const WorkerOptions& opt);

}  // namespace ccfuzz::dist
