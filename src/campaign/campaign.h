// The campaign layer: one entry point for multi-scenario × multi-CCA fuzzing.
//
// The paper's workflow (§4) is a matrix — each CCA is fuzzed in each mode
// under a scoring function — and this subsystem makes that matrix the
// primary API. A CampaignConfig declares the axes (CCA names × FuzzMode ×
// scenario variants × score functions) plus per-axis defaults; Campaign
// expands them into cells, runs every cell's GA, and collects per-cell
// winners and GenStats history into a CampaignReport (see report.h for
// CSV/JSON serialization).
//
// Scheduling: Campaign::run is the GA driver; a fuzz::Fuzzer only holds a
// cell's population. Instead of running cells one after another (each
// ending in a low-parallelism tail as its last islands drain), run()
// advances all cells in lockstep. Each lockstep generation flattens every
// cell's pending members into one cross-cell batch on the shared thread
// pool, so cores stay saturated even when islands are imbalanced, then
// advances each cell one generation. A cell stops at its generation budget
// or patience, and its last bred population gets one final evaluation pass
// so the winners reflect it. Repeat genomes — identical traces reaching
// cells with identical evaluation semantics — are served from an evaluation
// cache keyed by (cell evaluation key, trace::hash) instead of re-simulated.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fuzz/evaluator.h"
#include "fuzz/fuzzer.h"
#include "fuzz/score.h"
#include "scenario/config.h"
#include "scenario/presets.h"
#include "trace/mutation.h"

namespace ccfuzz::campaign {

/// One cell of the campaign matrix: one CCA fuzzed in one mode under one
/// scenario / score / GA configuration.
struct CellConfig {
  /// Unique within a campaign; auto-derived ("<cca>.<mode>.<score>") when
  /// empty.
  std::string name;
  /// Registry name (cca::make_factory); display-only when `factory` is set.
  std::string cca = "bbr";
  /// Optional explicit factory for CCAs outside the registry (custom_cca
  /// example). When empty, `cca` is resolved through the registry.
  tcp::CcaFactory factory;
  scenario::ScenarioConfig scenario{};
  /// Defaults to LowUtilizationScore when null.
  std::shared_ptr<const fuzz::ScoreFunction> score;
  fuzz::TraceScoreWeights trace_weights{};
  fuzz::GaConfig ga{};
  /// Link-mode genome parameters. total_packets <= 0 derives the packet
  /// budget from the scenario's bottleneck rate (pinning the average
  /// bandwidth); duration always tracks the scenario.
  trace::LinkTraceModel link_model{.total_packets = -1};
  /// Traffic-mode genome parameters (duration tracks the scenario).
  trace::TrafficTraceModel traffic_model{.max_packets = 3000,
                                         .initial_packets = 1500};
  /// Top members serialized per cell, deduped by trace hash.
  std::size_t winners = 5;
  /// Path of a MAP-Elites archive (fuzz::EliteArchive::save_file format) to
  /// seed this cell's fuzzer from. Loaded when the file exists; a missing
  /// file is a cold start, not an error, so the same config works for the
  /// first campaign and every resume. Only meaningful when the scenario's
  /// coverage probe is armed (cells() arms it automatically for
  /// coverage-guided GA configs).
  std::string resume_archive;
};

/// Declarative builder for a campaign. Axis setters define a matrix that
/// cells() expands (every CCA × mode × scenario variant × score); add_cell()
/// appends explicit cells untouched by the matrix. Matrix cells share the
/// base GaConfig — including its seed, so same-mode cells start from paired
/// initial populations and CCAs can be compared on equal footing (the
/// Fig 4d methodology).
class CampaignConfig {
 public:
  CampaignConfig& ccas(std::vector<std::string> names) {
    ccas_ = std::move(names);
    return *this;
  }
  CampaignConfig& modes(std::vector<scenario::FuzzMode> modes) {
    modes_ = std::move(modes);
    return *this;
  }
  /// The scenario used when no named variants are added. Its `mode` is
  /// overwritten by the mode axis.
  CampaignConfig& base_scenario(scenario::ScenarioConfig s) {
    base_scenario_ = s;
    return *this;
  }
  /// Adds a named scenario variant axis entry (e.g. "shallow-queue").
  CampaignConfig& add_scenario(std::string name, scenario::ScenarioConfig s) {
    scenarios_.push_back({std::move(name), s});
    return *this;
  }
  /// Adds a multi-flow preset ("incast", "late_starter", "rtt_unfair",
  /// "inter_protocol") to the scenario axis. The preset is applied to the
  /// base scenario at expansion time, so base_scenario() may be set before
  /// or after. Unknown names throw from cells().
  CampaignConfig& add_preset(std::string name,
                             scenario::PresetOptions opt = {}) {
    presets_.push_back({std::move(name), std::move(opt)});
    return *this;
  }
  /// Convenience: one add_preset per name, all with default options.
  CampaignConfig& presets(std::vector<std::string> names) {
    for (auto& n : names) add_preset(std::move(n));
    return *this;
  }
  /// The score used when no named score variants are added.
  CampaignConfig& score(std::shared_ptr<const fuzz::ScoreFunction> s,
                        fuzz::TraceScoreWeights weights = {}) {
    scores_.clear();
    scores_.push_back({"", std::move(s), weights});
    return *this;
  }
  /// Adds a named score axis entry; the name defaults to the score's own.
  CampaignConfig& add_score(std::string name,
                            std::shared_ptr<const fuzz::ScoreFunction> s,
                            fuzz::TraceScoreWeights weights = {}) {
    scores_.push_back({std::move(name), std::move(s), weights});
    return *this;
  }
  CampaignConfig& ga(fuzz::GaConfig cfg) {
    ga_ = cfg;
    return *this;
  }
  CampaignConfig& traffic_model(trace::TrafficTraceModel m) {
    traffic_model_ = m;
    return *this;
  }
  CampaignConfig& winners(std::size_t n) {
    winners_ = n;
    return *this;
  }
  /// Run the GA on the global thread pool (on by default): evaluation,
  /// cache keying, initial-population generation, breeding, and the parse
  /// of a restored checkpoint's islands. Reports, checkpoints and restore
  /// errors are byte-identical either way.
  CampaignConfig& parallel(bool on) {
    parallel_ = on;
    return *this;
  }
  /// Directory for the CSV/JSON report and winner traces; empty disables
  /// report writing.
  CampaignConfig& output_dir(std::string dir) {
    output_dir_ = std::move(dir);
    return *this;
  }
  /// Resume from a previous campaign's report tree. Two layers, both keyed
  /// off the same directory: (1) when `<dir>/checkpoint/campaign.ckpt`
  /// exists (written by checkpoint_every), the *full* mid-campaign state —
  /// island populations, RNG streams, per-cell generation counters, elite
  /// archives, and the evaluation cache — is restored, and the campaign
  /// continues to a bit-identical report vs one that never stopped; a
  /// corrupt or mismatched checkpoint degrades to a fresh start with a
  /// warning, never an abort. (2) Independently, each cell whose coverage
  /// probe is armed defaults its resume_archive to
  /// `<dir>/<sanitized cell name>/archive.txt` — exactly where write_report
  /// saves it — so archives keep filling even without a checkpoint. Cells
  /// whose archive file does not exist start cold.
  CampaignConfig& resume_dir(std::string dir) {
    resume_dir_ = std::move(dir);
    return *this;
  }
  /// Atomically snapshots the full campaign state into
  /// `<output_dir>/checkpoint/campaign.ckpt` every `n` lockstep generations
  /// (and at interruption / completion). 0 disables. Requires output_dir().
  /// Pair with resume_dir(output_dir()) to make a campaign crash-safe: kill
  /// it at any point, rerun the same binary, and it continues from the last
  /// checkpoint to a bit-identical report. The checkpoint of generation k
  /// is written on one pool worker while generation k+1 simulates, so a
  /// crash in that window resumes from generation k-1 and redoes one more
  /// generation than a crash after it.
  CampaignConfig& checkpoint_every(int n) {
    checkpoint_every_ = n;
    return *this;
  }
  /// Appends one explicit cell (validated, but not crossed with the axes).
  CampaignConfig& add_cell(CellConfig cell) {
    explicit_cells_.push_back(std::move(cell));
    return *this;
  }

  /// Expands the matrix and appends explicit cells. Validates CCA names
  /// (throws std::invalid_argument listing the known ones) and ensures cell
  /// names are unique. Order is deterministic: cca-major, then mode, then
  /// scenario variant, then score, then explicit cells.
  std::vector<CellConfig> cells() const;

  const std::string& output_dir() const { return output_dir_; }
  const std::string& resume_dir() const { return resume_dir_; }
  int checkpoint_every() const { return checkpoint_every_; }
  bool parallel() const { return parallel_; }

 private:
  struct NamedScenario {
    std::string name;
    scenario::ScenarioConfig config;
  };
  struct NamedPreset {
    std::string name;
    scenario::PresetOptions options;
  };
  struct NamedScore {
    std::string name;
    std::shared_ptr<const fuzz::ScoreFunction> score;
    fuzz::TraceScoreWeights weights;
  };

  std::vector<std::string> ccas_;
  std::vector<scenario::FuzzMode> modes_{scenario::FuzzMode::kTraffic};
  scenario::ScenarioConfig base_scenario_{};
  std::vector<NamedScenario> scenarios_;
  std::vector<NamedPreset> presets_;
  std::vector<NamedScore> scores_;
  fuzz::GaConfig ga_{};
  trace::TrafficTraceModel traffic_model_{.max_packets = 3000,
                                          .initial_packets = 1500};
  std::size_t winners_ = 5;
  bool parallel_ = true;
  std::string output_dir_;
  std::string resume_dir_;
  int checkpoint_every_ = 0;
  std::vector<CellConfig> explicit_cells_;
};

/// Stable content hash of everything that affects a scenario's evaluation
/// semantics (mode, flows, transport knobs, network path, budget). This is
/// the scenario component of the campaign evaluation-cache key; triage
/// bundles record it (hex) so `ccfuzz replay` can prove the matrix it was
/// handed reconstructs the same scenario the finding was confirmed under.
std::uint64_t scenario_key(const scenario::ScenarioConfig& s);

/// One deduplicated winner trace of a cell.
struct Finding {
  trace::Trace genome;
  fuzz::Evaluation eval;
  /// trace::hash of the genome — the finding's stable id across runs.
  std::uint64_t trace_hash = 0;
};

/// Everything a finished cell produced.
struct CellResult {
  CellConfig cell;
  std::vector<fuzz::GenStats> history;
  /// Best first, deduped by trace hash; at most `cell.winners` entries.
  std::vector<Finding> winners;
  /// Simulations actually run for this cell vs evaluations served from the
  /// campaign cache (simulations + cache_hits == evaluations consumed).
  std::int64_t simulations = 0;
  std::int64_t cache_hits = 0;
  /// The cell's final MAP-Elites archive — null unless the scenario's
  /// coverage probe was armed. write_report persists it next to the cell's
  /// history so a later campaign can resume from it (see resume_dir()).
  std::shared_ptr<const fuzz::EliteArchive> archive;

  double best_score() const {
    return winners.empty() ? 0.0 : winners.front().eval.score.total();
  }
};

struct CampaignReport {
  std::vector<CellResult> cells;
  /// True when the campaign stopped early on a shutdown request
  /// (stop_requested()); unfinished cells carry partial histories and no
  /// winners. Resume from the checkpoint to finish them.
  bool interrupted = false;
  /// Distinct NaN/inf-scoring genomes sitting in `<output_dir>/quarantine/`
  /// when the report was written (cumulative across resumes; 0 when no
  /// output_dir / nothing quarantined).
  std::size_t quarantined = 0;
};

// --- Graceful shutdown -------------------------------------------------------
// A cooperative process-wide stop flag. The campaign driver polls it between
// lockstep generations: when raised, it finishes the in-flight batch, writes
// a final checkpoint, flushes observers, and returns normally — so a
// SIGINT/SIGTERM'd campaign exits 0 with a resumable on-disk state instead
// of dying mid-write.

/// True once a stop was requested (signal or request_stop()).
bool stop_requested();
/// Raises the stop flag (async-signal-safe).
void request_stop();
/// Clears the flag (tests; running several campaigns in one process).
void reset_stop_flag();
/// Installs SIGINT/SIGTERM handlers that raise the stop flag. Call once from
/// the driver binary; repeated calls are harmless.
void install_stop_signal_handlers();

/// Progress hooks, replacing the ad-hoc printing the benches used to
/// hand-roll. Callbacks run on the driver thread, between batches.
class CampaignObserver {
 public:
  virtual ~CampaignObserver() = default;
  virtual void on_campaign_begin(const std::vector<CellConfig>& cells) {
    (void)cells;
  }
  virtual void on_generation(const CellConfig& cell,
                             const fuzz::GenStats& gs) {
    (void)cell;
    (void)gs;
  }
  virtual void on_cell_end(const CellResult& result) { (void)result; }
  virtual void on_campaign_end(const CampaignReport& report) { (void)report; }
};

/// Prints one line per generation and a summary per cell to a FILE stream
/// (stdout by default) — the progress format the examples share.
class ConsoleObserver final : public CampaignObserver {
 public:
  explicit ConsoleObserver(std::FILE* out = nullptr) : out_(out) {}

  void on_campaign_begin(const std::vector<CellConfig>& cells) override;
  void on_generation(const CellConfig& cell,
                     const fuzz::GenStats& gs) override;
  void on_cell_end(const CellResult& result) override;

 private:
  std::FILE* stream() const;
  std::FILE* out_;
};

/// Streams campaign progress as JSON Lines — one self-describing object per
/// event (`campaign_begin`, `generation`, `cell_end`, `campaign_end`) — the
/// machine-readable sibling of ConsoleObserver for dashboards tailing a
/// file while a long campaign runs. Each line is flushed whole as it is
/// written, so a reader (or a post-crash triage) never sees a torn line;
/// with `sync` the file is additionally fsync'd at generation and cell
/// boundaries, surviving power loss as well as process death.
class JsonlObserver final : public CampaignObserver {
 public:
  /// Opens `path` — truncating by default, appending with `append` (the
  /// resume path: an existing feed is audited first and a torn final line
  /// left by a crash is truncated away, so appending always starts on a
  /// clean line boundary). Throws std::runtime_error when the file cannot
  /// be opened. `sync` fsyncs at generation/cell boundaries.
  explicit JsonlObserver(const std::string& path, bool sync = false,
                         bool append = false);
  /// Writes to an already-open stream (tests, in-process consumers, and
  /// distributed workers streaming to a supervisor pipe via std::cout).
  explicit JsonlObserver(std::ostream& out);
  ~JsonlObserver() override;
  JsonlObserver(const JsonlObserver&) = delete;
  JsonlObserver& operator=(const JsonlObserver&) = delete;

  /// Tags every subsequent event line with `"shard":<k>` (right after
  /// "event"), so lines from many workers multiplexed into one aggregate
  /// feed stay attributable. Negative (the default) leaves lines untagged.
  JsonlObserver& set_shard(int shard) {
    shard_ = shard;
    return *this;
  }

  void on_campaign_begin(const std::vector<CellConfig>& cells) override;
  void on_generation(const CellConfig& cell,
                     const fuzz::GenStats& gs) override;
  void on_cell_end(const CellResult& result) override;
  void on_campaign_end(const CampaignReport& report) override;

  /// Writes `json` and a newline as one write: the one way a progress feed
  /// gains a line (the supervisor forwards worker lines and adds its own
  /// events through it).
  void emit_line(std::string_view json);

 private:
  /// fsync at an event boundary (no-op for stream-backed observers or when
  /// `sync` is off).
  void sync_boundary();
  /// `,"shard":<k>` when tagged, "" otherwise.
  std::string shard_field() const;

  std::FILE* fp_ = nullptr;  ///< owned, file-backed mode (enables fsync)
  bool sync_ = false;
  std::ostream* out_ = nullptr;  ///< borrowed, stream mode
  int shard_ = -1;               ///< >= 0: tag every line with this shard
};

/// Structural health check of a checkpoint file, for `ccfuzz doctor`:
/// verifies the magic/version header and the `# end checkpoint` terminator
/// without needing (or touching) a configured campaign. Typed errors mirror
/// restore_checkpoint's: kIo (unreadable), kParse (bad magic), kVersion
/// (unsupported version), kTruncated (missing terminator — a torn write).
Error validate_checkpoint_file(const std::string& path);

/// The cell's CCA factory: `factory` when set, else the registry's `cca`.
tcp::CcaFactory cell_factory(const CellConfig& cell);

/// The cell's score name as reports and bundles print it; an unset `score`
/// is the default LowUtilizationScore.
const char* score_name(const CellConfig& cell);

/// Builds the evaluator for one cell — the single place scenario wiring
/// (factory, score, weights) happens. Micro benches that exercise the inner
/// engine directly use this too.
fuzz::TraceEvaluator make_evaluator(const CellConfig& cell);

/// Builds the GA genome model for one cell, with the trace duration (and,
/// in link mode, a defaulted packet budget) derived from the scenario.
std::shared_ptr<const fuzz::TraceModel> make_trace_model(
    const CellConfig& cell);

/// The campaign driver. Construct from a config, optionally attach
/// observers, then run() once.
class Campaign {
 public:
  explicit Campaign(const CampaignConfig& cfg);
  ~Campaign();  // out-of-line: CellState is incomplete here

  /// `obs` is not owned and must outlive run().
  void add_observer(CampaignObserver* obs) { observers_.push_back(obs); }

  /// Runs every cell to completion (max_generations or patience), then
  /// writes the report to output_dir (when set) and returns it. Idempotent:
  /// later calls return the first run's report. Checks stop_requested()
  /// between lockstep generations: on a stop it checkpoints (when
  /// configured) and returns the partial report with `interrupted` set.
  const CampaignReport& run();

  const CampaignReport& report() const { return report_; }
  const std::vector<CellConfig>& cell_configs() const { return cell_cfgs_; }

  /// True when this campaign restored mid-run state from a checkpoint.
  bool resumed() const { return resumed_; }

  /// Writes a checkpoint of the current state to `w`: the bytes a
  /// checkpoint taken now would publish.
  void save_checkpoint(record::Writer& w) const;

  /// The quarantine recorder for NaN/inf-scoring genomes — present when an
  /// output_dir is configured (writes to `<output_dir>/quarantine/`).
  const std::shared_ptr<fuzz::Quarantine>& quarantine() const {
    return quarantine_;
  }

 private:
  struct CellState;

  /// Fills a finished cell's report fields — history, deduped winner list,
  /// archive pointer — from its GA state (a pure function of it, so also
  /// used when restoring finished cells from a checkpoint).
  void fill_result(CellState& cell);
  void finish_cell(CellState& cell);
  void build_cells();
  /// An open checkpoint write: the temp file and the spilling
  /// record::Writer that streams into it.
  struct CheckpointWrite;
  /// The driver's half of a checkpoint: unless the head already holds this
  /// state, creates the directory and opens the temp file and its Writer.
  /// Null when there is nothing to write (or the directory cannot be made).
  std::unique_ptr<CheckpointWrite> open_checkpoint();
  /// The other half: formats the state through `ckpt`, publishes it with
  /// rotation and, on success, marks the head current. run() calls it on a
  /// pool worker while the next generation simulates, so it reads only
  /// what the batch leaves alone.
  void publish_checkpoint(CheckpointWrite& ckpt);
  /// Both halves back to back.
  void write_checkpoint();
  /// Builds cells_ and the cache from the checkpoint at `path`. On an error
  /// they hold what was read before it.
  Error restore_checkpoint(const std::string& path);

  std::vector<CellConfig> cell_cfgs_;
  std::vector<std::unique_ptr<CellState>> cells_;
  /// (cell evaluation key, trace hash) → Evaluation. Cells with identical
  /// evaluation semantics (same CCA/scenario/score, e.g. a GA-seed sweep)
  /// share entries. Persisted in checkpoints (the keys are process-stable),
  /// so resumed campaigns replay cache hits bit-identically.
  std::unordered_map<std::uint64_t, fuzz::Evaluation> cache_;
  std::vector<CampaignObserver*> observers_;
  CampaignReport report_;
  std::string output_dir_;
  int checkpoint_every_ = 0;
  /// The checkpoint head on disk holds the current state: written, or
  /// restored from, since the last lockstep generation.
  bool head_is_current_ = false;
  std::shared_ptr<fuzz::Quarantine> quarantine_;
  bool parallel_ = true;
  bool ran_ = false;
  bool resumed_ = false;
};

}  // namespace ccfuzz::campaign
