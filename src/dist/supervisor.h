// The distributed-campaign supervisor: spawn, watch, restart — carefully.
//
// The supervisor fork/execs one `ccfuzz worker` process per nonempty shard,
// multiplexes their shard-tagged JSONL stdout streams into one aggregate
// feed (`<root>/progress.jsonl`, written through campaign::JsonlObserver —
// whole lines only, so the feed is valid JSONL even while workers race),
// and watches for worker death: a nonzero exit, a termination signal, or
// silence. Any byte from a worker counts as life, and a working worker
// writes a `generation` line per active cell every generation, so output
// missing for longer than the heartbeat timeout means a hang → SIGKILL. A
// dead worker is restarted with the same argv; because workers checkpoint
// every generation into their own shard directory (the crash-safe campaign
// machinery, reused verbatim), the restart resumes where the victim died
// and the finished shard tree — and therefore the merged report — is
// bit-identical to an undisturbed run.
//
// Self-hardening:
//   * Restarts are paced by RestartPolicy — exponential backoff with
//     deterministic jitter, budgeted per sliding window — and scheduled as
//     deadlines, so the supervisor keeps draining healthy workers while a
//     crashing one waits out its backoff.
//   * A worker that dies repeatedly at the *same cell* (tracked from the
//     JSONL stream) has that cell quarantined: a marker lands in
//     `<root>/quarantine/cells/`, the worker restarts with `--skip-cells`,
//     and the rest of the campaign completes. The merge step skips
//     quarantined cells instead of failing.
//   * Disk space is preflighted before spawning and re-checked while
//     running; low space triggers the same graceful drain as SIGTERM
//     (workers checkpoint and exit, rerun resumes).
//   * A stale `worker.pid` left by a dead supervisor is triaged (gone pid /
//     recycled pid → reclaimed with a warning; a live sibling worker →
//     refuse to double-run the campaign).
//
// Shutdown is cooperative: the supervisor's own SIGINT/SIGTERM (via the
// campaign stop flag) is forwarded to every live worker once, workers drain
// gracefully (exit kWorkerInterruptedExit, state checkpointed), pending
// backoff respawns are cancelled, and rerunning the supervisor resumes the
// campaign.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "dist/restart_policy.h"
#include "dist/shard_plan.h"

namespace ccfuzz::dist {

struct SupervisorOptions {
  /// Path of the ccfuzz binary to exec workers from (usually
  /// /proc/self/exe, resolved by the CLI).
  std::string binary;
  /// Flags reproducing the campaign matrix, appended to every worker's argv
  /// after `worker --shard k/N --output <root>` (the supervisor does not
  /// understand them; the CLI reserializes its own).
  std::vector<std::string> worker_flags;
  /// Campaign root: shard trees under `<root>/shards/<k>/`, the aggregate
  /// feed at `<root>/progress.jsonl`, the plan at `<root>/shard_plan.json`.
  std::string root;
  /// Backoff and per-window restart budget of every shard; a worker dying
  /// more often than `restart.budget` times in `restart.window_s` marks the
  /// run failed. run() sets `restart.seed` to the shard index.
  RestartPolicyConfig restart;
  /// Seconds of worker silence before it is presumed hung and SIGKILLed
  /// (restart path). 0 disables the watchdog.
  double heartbeat_timeout_s = 0.0;
  /// Minimum free bytes on the campaign filesystem: preflighted before
  /// spawning (refuse to start) and re-checked while running (graceful
  /// drain). 0 disables both checks.
  std::uint64_t min_free_bytes = std::uint64_t{16} << 20;
  /// Monotonic seconds for every scheduling decision (backoff deadlines,
  /// budget windows, silence watchdog). Null uses steady_clock; tests inject a
  /// fake clock to observe backoff timing without waiting it out.
  std::function<double()> clock;
  /// Human progress notes (worker starts/exits/restarts); null for stderr.
  std::FILE* log = nullptr;
};

/// Runs the campaign's workers to completion. Returns 0 when every shard
/// completed (or the run was gracefully interrupted — check interrupted()),
/// 1 when any shard exhausted its restart budget, could not be spawned, or
/// the preflight refused to start (including an unopenable feed).
class Supervisor {
 public:
  Supervisor(SupervisorOptions opt, ShardPlan plan);
  ~Supervisor();  // out-of-line: Worker is incomplete here

  int run();

  /// True when run() stopped on a shutdown request (signal or low disk)
  /// instead of completing; shard state is checkpointed and a rerun
  /// resumes it.
  bool interrupted() const { return interrupted_; }

 private:
  struct Worker;

  bool spawn(Worker& w, int restart);
  /// Moves available bytes from the worker's pipe into its line buffer,
  /// flushing whole lines to the feed (and tracking the worker's current
  /// cell for poison attribution). False on EOF (worker gone).
  bool drain(Worker& w);
  void handle_exit(Worker& w, int wait_status);
  void quarantine_cell(Worker& w, const std::string& cell);
  /// Triage a pre-existing worker.pid before claiming the shard. False when
  /// a live sibling worker owns it (refuse to double-run).
  bool reclaim_pid_file(const Worker& w);
  std::FILE* log_stream() const;
  double now_s() const;

  SupervisorOptions opt_;
  ShardPlan plan_;
  std::vector<Worker> workers_;
  std::unique_ptr<campaign::JsonlObserver> feed_;  ///< open while run() is live
  bool interrupted_ = false;
};

}  // namespace ccfuzz::dist
