// The CC-Fuzz genetic-algorithm driver (paper Figure 1, §3.5, §4).
//
// A population of traces is split across islands (island-isolation [21] for
// solution diversity). Each generation, every island: evaluates its members
// (in parallel, deterministically), ranks them, carries kElite members over
// unchanged, fills a crossover quota by splicing rank-selected parents, and
// fills the remainder with rank-selected mutations. Every
// `migration_interval` generations the top fraction of each island migrates
// to the next island in a ring, replacing its worst members.
//
// With GaConfig::parallel, the per-island phases run on the global thread
// pool: evaluation, initial-population generation and breeding. Each island
// owns its RNG stream and writes only its own members, so the results are
// bit-identical to a serial run. Statistics, archive inserts and migration
// stay serial. Campaign::run likewise computes its cache keys on the pool.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "fuzz/elite_archive.h"
#include "fuzz/evaluator.h"
#include "fuzz/trace_model.h"
#include "trace/annealing.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace ccfuzz::fuzz {

/// How parents are selected each generation.
enum class SearchMode {
  /// Classic CC-Fuzz: rank selection over the island population by score.
  kScore,
  /// MAP-Elites: half of all parents are drawn uniformly from the
  /// behavioral elite archive (fuzz::EliteArchive), the rest from island
  /// rank order — so every discovered behavior keeps breeding regardless of
  /// how it scores globally, without collapsing the gene pool onto a small
  /// archive. Requires the evaluator's scenario to arm the coverage probe
  /// (ScenarioConfig::coverage).
  kMapElites,
};

/// Display/report name of a search mode ("score" / "map-elites").
constexpr const char* to_string(SearchMode m) {
  return m == SearchMode::kScore ? "score" : "map-elites";
}

/// GA parameters. Paper-scale defaults are population 500, 20 islands,
/// kElite 1, 30% crossovers, 10% migration every 10 generations (§4).
struct GaConfig {
  int population = 500;
  int islands = 20;
  int elites_per_island = 1;
  double crossover_fraction = 0.3;
  int migration_interval = 10;
  double migration_fraction = 0.1;
  int max_generations = 40;
  /// Stop early when the best score has not improved for this many
  /// generations; 0 disables early stopping.
  int patience = 0;
  /// Optional trace annealing (§3.2) applied to mutation parents.
  bool anneal = false;
  trace::AnnealingConfig anneal_cfg{};
  std::uint64_t seed = 0x5EED5EED5EEDULL;
  /// Run evaluation, initial-population generation and breeding on the
  /// global thread pool. Results are bit-identical either way, because each
  /// island draws only from its own RNG stream.
  bool parallel = true;
  /// Parent-selection strategy (see SearchMode).
  SearchMode search = SearchMode::kScore;
  /// Selection bonus per union-coverage bit a member set for the first
  /// time, added to its score for ranking (not reporting). Works in either
  /// search mode — with kScore it gives classic novelty-bonus selection —
  /// but needs the scenario's coverage probe armed. 0 disables. The bonus
  /// decays naturally: as the union map saturates, fresh bits dry up.
  double novelty_bonus = 0.0;
};

/// One population member: a trace and (once evaluated) its fitness.
struct Member {
  trace::Trace genome;
  Evaluation eval;
  bool evaluated = false;
  /// Transient selection bonus from coverage novelty (never reported).
  double novelty = 0.0;
};

/// Per-generation statistics (Fig 4d plots a series of these).
struct GenStats {
  int generation = 0;
  double best_score = 0.0;
  double mean_score = 0.0;
  /// Mean packets sent by the CCA over the top-k fittest traces — the Fig 4d
  /// y-axis ("avg of the top 20 traces with the lowest throughput").
  double topk_mean_packets_sent = 0.0;
  double topk_mean_goodput_mbps = 0.0;
  /// Mean Jain's fairness index over the top-k fittest traces (1.0 in
  /// single-flow cells) — the fairness-mode convergence series.
  double topk_mean_jain_fairness = 1.0;
  /// Mean per-flow goodput over the top-k fittest traces, in flow-index
  /// order; empty when evaluations carry no per-flow series.
  std::vector<double> topk_mean_flow_goodput_mbps;
  /// Members whose run ended in a stall (no progress in the last second).
  int stalled_count = 0;
  std::int64_t evaluations = 0;

  // --- Coverage / archive growth (zero when no archive is attached) ---
  /// Occupied MAP-Elites cells after this generation's inserts.
  std::int64_t archive_cells = 0;
  /// Cells first filled this generation.
  std::int64_t archive_new_cells = 0;
  /// Incumbent elites displaced by a higher score this generation.
  std::int64_t archive_improved = 0;
  /// Union coverage-bitmap population count across the whole campaign.
  std::int64_t coverage_bits = 0;
};

/// The GA loop. Construct, then run() or step() generation by generation.
class Fuzzer {
 public:
  /// `model` and `evaluator` are copied/shared; `cfg.population` is split
  /// evenly across islands (remainder to the first islands).
  Fuzzer(const GaConfig& cfg, std::shared_ptr<const TraceModel> model,
         TraceEvaluator evaluator);

  /// Runs one generation (evaluate → select → breed → maybe migrate).
  /// Returns that generation's stats.
  GenStats step();

  // --- External-scheduler interface (campaign cell batching) ---------------
  // A campaign runs many Fuzzers at once and wants one flat evaluation batch
  // across all of them, so cores stay saturated when one cell or island has
  // a long tail. Per generation it calls pending_members(), fills each
  // member's `eval`/`evaluated` (from simulation or an evaluation cache),
  // calls note_external_evaluations(), then advance_generation(). The
  // resulting GenStats sequence is identical to driving step() directly.

  /// Members awaiting evaluation, in deterministic (island, slot) order.
  std::vector<Member*> pending_members();

  /// Accounts evaluations performed outside step() so GenStats::evaluations
  /// matches an in-process run (cache hits count: the uncached run would
  /// have simulated them).
  void note_external_evaluations(std::int64_t n) { total_evaluations_ += n; }

  /// Completes a generation whose members were evaluated externally:
  /// stats → maybe migrate → breed, the exact tail of step().
  GenStats advance_generation();

  /// Runs until max_generations or early-stop; returns the full history.
  const std::vector<GenStats>& run();

  /// Best member ever observed (valid after the first step()).
  const Member& best() const { return best_ever_; }

  const std::vector<GenStats>& history() const { return history_; }
  int generation() const { return generation_; }
  std::int64_t total_evaluations() const { return total_evaluations_; }

  /// Top-k members of the current population, best first (across islands).
  std::vector<Member> top_members(std::size_t k) const;

  /// The behavioral elite archive — present whenever the evaluator's
  /// scenario arms the coverage probe (kScore mode then tracks coverage
  /// passively; kMapElites additionally selects parents from it). Null when
  /// coverage is off.
  std::shared_ptr<const EliteArchive> archive() const { return archive_; }

  /// Replaces the archive with `a` (campaign resume: continue filling the
  /// cells a previous campaign discovered). Call before the first
  /// generation. Throws std::logic_error when this fuzzer tracks no archive
  /// (scenario coverage off).
  void seed_archive(EliteArchive a);

  /// For Fig 4d-style sweeps: number used to average the top-k metric.
  static constexpr std::size_t kTopK = 20;

  // --- Checkpointing --------------------------------------------------------
  /// Writes the full GA runtime state — island populations with their RNG
  /// streams, generation counter, history, best-ever member, and the elite
  /// archive (embedded, terminated) — as a `# ccfuzz-fuzzer v1` block.
  /// restore_state on an identically-configured Fuzzer continues the search
  /// bit-identically to one that never stopped.
  void save_state(std::ostream& os) const;

  /// Restores state written by save_state into this (identically
  /// configured) fuzzer. On error the fuzzer is left unusable for resume —
  /// callers must fall back to a fresh instance. kMismatch when the stream
  /// disagrees with this fuzzer's shape (island count, archive presence).
  Error restore_state(std::istream& is);

 private:
  // One cache line per island: islands breed on different threads, and
  // every random draw writes `rng`.
  struct alignas(64) Island {
    std::vector<Member> members;
    Rng rng;
  };

  void evaluate_all();
  void absorb_into_archive(GenStats& gs);
  void breed_island(Island& isl);
  void migrate();
  GenStats collect_stats();

  GaConfig cfg_;
  std::shared_ptr<const TraceModel> model_;
  TraceEvaluator evaluator_;
  std::vector<Island> islands_;
  /// Shared so campaign reports can outlive the fuzzer without copying.
  std::shared_ptr<EliteArchive> archive_;
  Member best_ever_;
  std::vector<GenStats> history_;
  int generation_ = 0;
  std::int64_t total_evaluations_ = 0;
};

}  // namespace ccfuzz::fuzz
