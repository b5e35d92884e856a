// The CC-Fuzz genetic-algorithm population (paper Figure 1, §3.5, §4).
//
// A population of traces is split across islands (island-isolation [21] for
// solution diversity). Each generation, every island ranks its evaluated
// members, carries kElite members over unchanged, fills a crossover quota by
// splicing rank-selected parents, and fills the remainder with rank-selected
// mutations. Every `migration_interval` generations the top fraction of each
// island migrates to the next island in a ring, replacing its worst members.
//
// A Fuzzer holds population state only; campaign::Campaign::run drives it.
// Per generation the driver takes pending_members(), evaluates them (on the
// thread pool, or from its evaluation cache), reports the count through
// note_external_evaluations(), and calls advance_generation(). The driver
// owns the generation budget, patience stop and final evaluation pass.
// While the pool evaluates, one of its workers may be checkpointing this
// fuzzer (save_state): the pool fills pending members' `eval` in place, and
// the driver sets `evaluated` and reports the count only after the batch.
//
// With `parallel`, initial-population generation, breeding and the parse of
// a restored state's islands run on the global thread pool. Each island owns
// its RNG stream and writes only its own members, so the results are
// bit-identical to a serial run.
// Statistics, archive inserts and migration stay serial.
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
  /// archive. Requires coverage: the scenario must arm the probe
  /// (ScenarioConfig::coverage).
  kMapElites,
};

/// Display/report name of a search mode ("score" / "map-elites").
constexpr const char* to_string(SearchMode m) {
  return m == SearchMode::kScore ? "score" : "map-elites";
}

/// GA parameters. Paper-scale defaults are population 500, 20 islands,
/// kElite 1, 30% crossovers, 10% migration every 10 generations (§4).
/// `max_generations` and `patience` are read by the campaign driver; the
/// rest shape the population.
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
  /// Parent-selection strategy (see SearchMode).
  SearchMode search = SearchMode::kScore;
  /// Selection bonus per union-coverage bit a member set for the first
  /// time, added to its score for ranking (not reporting). Works in either
  /// search mode — with kScore it gives classic novelty-bonus selection —
  /// but needs coverage (the scenario's probe armed). 0 disables. The bonus
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

/// The island population and its breeding step. Construct, then drive one
/// generation at a time through the staged interface below.
class Fuzzer {
 public:
  /// `cfg.population` is split evenly across islands (remainder to the
  /// first islands). `coverage` says whether evaluations carry coverage
  /// signatures (the scenario arms the probe); it attaches the elite
  /// archive. kMapElites and a novelty bonus need it: without it the
  /// constructor throws std::logic_error. `parallel` generates the initial
  /// population and breeds islands on the global thread pool.
  Fuzzer(const GaConfig& cfg, std::shared_ptr<const TraceModel> model,
         bool coverage, bool parallel = true);
  /// The resume constructor: the same configuration, with the state that
  /// save_state wrote read from `state` (restore_state) instead of a
  /// generated initial population. Errors stay in `state`; on one, the
  /// fuzzer is unusable for resume.
  Fuzzer(const GaConfig& cfg, std::shared_ptr<const TraceModel> model,
         bool coverage, bool parallel, record::Reader& state);

  // --- Staged interface --------------------------------------------------
  // A campaign runs many Fuzzers at once and wants one flat evaluation batch
  // across all of them, so cores stay saturated when one cell or island has
  // a long tail. Per generation it calls pending_members(), fills each
  // member's `eval`/`evaluated` (from simulation or an evaluation cache),
  // calls note_external_evaluations(), then advance_generation(). Between
  // pending_members() and the end of the batch, save_state may run on
  // another thread; it reads no unevaluated member's `eval`.

  /// Members awaiting evaluation, in deterministic (island, slot) order.
  std::vector<Member*> pending_members();

  /// Counts evaluations filled in by the driver into GenStats::evaluations
  /// (cache hits count: an uncached run would have simulated them).
  void note_external_evaluations(std::int64_t n) { total_evaluations_ += n; }

  /// Completes a generation whose members are all evaluated: stats →
  /// archive inserts → maybe migrate → breed. Returns that generation's
  /// stats.
  GenStats advance_generation();

  /// Best member ever observed (valid after the first advance_generation()).
  const Member& best() const { return best_ever_; }

  const std::vector<GenStats>& history() const { return history_; }
  int generation() const { return generation_; }

  /// Top-k members of the current population, best first (across islands).
  std::vector<Member> top_members(std::size_t k) const;

  /// The behavioral elite archive — present whenever the fuzzer was built
  /// with coverage (kScore mode then tracks coverage passively; kMapElites
  /// additionally selects parents from it). Null when coverage is off.
  std::shared_ptr<const EliteArchive> archive() const { return archive_; }

  /// Replaces the archive with `a` (campaign resume: continue filling the
  /// cells a previous campaign discovered). Call before the first
  /// generation. Throws std::logic_error when this fuzzer tracks no archive
  /// (coverage off).
  void seed_archive(EliteArchive a);

  /// For Fig 4d-style sweeps: number used to average the top-k metric.
  static constexpr std::size_t kTopK = 20;

  // --- Checkpointing --------------------------------------------------------
  /// Writes the full GA runtime state — island populations with their RNG
  /// streams, generation counter, history, best-ever member, and the elite
  /// archive (embedded, terminated) — as a `# ccfuzz-fuzzer v1` block, at
  /// any generation including 0. An unevaluated member's evaluation is
  /// written as a default one (state_io::write_member). restore_state on an
  /// identically-configured Fuzzer continues the search bit-identically to
  /// one that never stopped.
  void save_state(record::Writer& w) const;

  /// Restores state written by save_state into this (identically
  /// configured) fuzzer. On error the fuzzer is left unusable for resume —
  /// callers must fall back to a fresh instance. kMismatch when the stream
  /// disagrees with this fuzzer's shape (island count, archive presence);
  /// framing errors (kParse, kVersion, kTruncated) come from util/record.
  /// The stream is read into memory and restored as below.
  Error restore_state(std::istream& is);
  /// The same, for a block embedded in an enclosing record stream (campaign
  /// checkpoints), read from `r` through this block's `# end fuzzer` line.
  /// When `r` reads a string, the islands parse on the thread pool (with
  /// `parallel`), each with its own sub-reader (record::Reader::blocks); the
  /// result and any error are those of the serial read.
  Error restore_state(record::Reader& r);

 private:
  // One cache line per island: islands breed on different threads, and
  // every random draw writes `rng`.
  struct alignas(64) Island {
    std::vector<Member> members;
    Rng rng;
  };

  /// The configured shape both constructors start from: the archive and
  /// the islands, with no members and unseeded RNG streams.
  struct Shape {};
  Fuzzer(Shape, const GaConfig& cfg, std::shared_ptr<const TraceModel> model,
         bool coverage, bool parallel);

  /// Reads island `i`'s block (restore_state).
  void read_island(record::Reader& r, std::size_t i);
  void absorb_into_archive(GenStats& gs);
  void breed_island(Island& isl);
  void migrate();
  GenStats collect_stats();

  GaConfig cfg_;
  std::shared_ptr<const TraceModel> model_;
  bool parallel_;
  std::vector<Island> islands_;
  /// Shared so campaign reports can outlive the fuzzer without copying.
  std::shared_ptr<EliteArchive> archive_;
  Member best_ever_;
  std::vector<GenStats> history_;
  int generation_ = 0;
  std::int64_t total_evaluations_ = 0;
};

}  // namespace ccfuzz::fuzz
