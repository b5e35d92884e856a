#include "campaign/campaign.h"

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "campaign/report.h"
#include "cca/registry.h"
#include "faultinject/fault_plan.h"
#include "fuzz/state_io.h"
#include "trace/hash.h"
#include "util/csv.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/record.h"
#include "util/thread_pool.h"

namespace ccfuzz::campaign {
namespace {

std::uint64_t fnv_double(std::uint64_t h, double v) {
  return trace::fnv1a_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t scenario_key(const scenario::ScenarioConfig& s) {
  std::uint64_t h = trace::kFnvOffset;
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.mode));
  // The flow set is part of the evaluation identity: presets with the same
  // transport knobs but different topologies must not share cache entries.
  // It is hashed as written, so an empty list keeps its own key (size 0)
  // rather than that of the one-flow list it stands for.
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.flows.size()));
  for (const auto& f : s.flows) {
    h = trace::fnv1a_str(h, f.cca);
    h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(f.start.ns()));
    h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(f.stop.ns()));
    h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(f.access_delay.ns()));
    h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(f.ack_path_delay.ns()));
    h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(f.total_segments));
  }
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.duration.ns()));
  // Retired single-flow fields (start, data volume), hashed at their only
  // remaining values so every key recorded in checkpoints and bundles holds.
  h = trace::fnv1a_u64(h, 0);
  h = trace::fnv1a_u64(
      h, static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.min_rto.ns()));
  h = trace::fnv1a_u64(h, s.delayed_ack ? 1 : 0);
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.ack_every));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.delack_timeout.ns()));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.initial_cwnd));
  h = trace::fnv1a_u64(h,
                       static_cast<std::uint64_t>(s.receive_window_segments));
  // Scores read the streaming windowed bins, so the bin width is part of a
  // cell's evaluation identity. record_mode deliberately is not: modes are
  // score-identical by construction.
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.metrics_window.ns()));
  // The probe is passive, but cached Evaluations carry (or lack) a coverage
  // signature — a coverage cell must never be served a probe-less entry.
  h = trace::fnv1a_u64(h, s.coverage ? 1 : 0);
  const auto& n = s.net;
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(n.bottleneck_rate.bits_per_second()));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(n.bottleneck_delay.ns()));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(n.ack_path_delay.ns()));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(n.access_delay.ns()));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(n.queue_capacity));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(n.packet_bytes));
  // Run guards change where a run stops, so cells with different budgets
  // must not share cached evaluations.
  h = trace::fnv1a_u64(h, s.budget.max_events);
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.budget.max_sim_time.ns()));
  h = trace::fnv1a_u64(h, static_cast<std::uint64_t>(s.budget.max_wall_time.ns()));
  // Armed invariant audits add events, so armed runs can hit the event
  // budget earlier than disarmed ones — never share their cache entries.
  h = trace::fnv1a_u64(h, s.invariants ? 1 : 0);
  return h;
}

namespace {

/// Cache-sharing identity of a cell's evaluation semantics. Cells agree iff
/// the same trace is guaranteed the same Evaluation: same registry CCA,
/// same scenario, the same scoring configuration
/// (ScoreFunction::identity() — stable across processes, which is what lets
/// checkpointed cache entries be reused after resume) and the same weights.
/// Cells with an opaque custom factory never share.
std::uint64_t eval_key(const CellConfig& cell, std::size_t cell_index) {
  std::uint64_t h = trace::kFnvOffset;
  if (cell.factory) {
    h = trace::fnv1a_u64(h, 0x1 + cell_index);
  } else {
    h = trace::fnv1a_str(h, cell.cca);
  }
  h = trace::fnv1a_u64(h, scenario_key(cell.scenario));
  h = trace::fnv1a_u64(h, cell.score->identity());
  h = fnv_double(h, cell.trace_weights.per_packet);
  h = fnv_double(h, cell.trace_weights.per_drop);
  return h;
}

std::uint64_t mix_keys(std::uint64_t a, std::uint64_t b) {
  return trace::fnv1a_u64(trace::fnv1a_u64(trace::kFnvOffset, a), b);
}

/// Fuzzer's own guards are debug-only asserts; a campaign is user-facing
/// API, so reject configs that would corrupt the GA before anything runs.
void validate_cell(const CellConfig& cell) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument("campaign cell '" + cell.name + "': " + what);
  };
  if (cell.ga.population < 2) fail("ga.population must be >= 2");
  if (cell.ga.islands < 1) fail("ga.islands must be >= 1");
  if (cell.ga.islands > cell.ga.population) {
    fail("ga.islands must not exceed ga.population");
  }
  if (cell.scenario.duration <= TimeNs::zero()) {
    fail("scenario.duration must be positive");
  }
  // A non-positive window leaves the streaming bins empty, so every trace
  // would score 0 under LowUtilizationScore.
  if (cell.scenario.metrics_window <= DurationNs::zero()) {
    fail("scenario.metrics_window must be positive");
  }
  for (const auto& flow : cell.scenario.flow_specs()) {
    if (!flow.cca.empty() && !cca::is_known_cca(flow.cca)) {
      cca::make_factory(flow.cca);  // throws, listing the known names
    }
    if (flow.start < TimeNs::zero() || flow.start >= cell.scenario.duration) {
      fail("flow start must lie inside [0, scenario.duration)");
    }
    if (flow.stop <= flow.start) {
      fail("flow stop must be after its start");
    }
  }
}

}  // namespace

// --- Graceful shutdown -------------------------------------------------------

namespace {

std::atomic<bool> g_stop{false};

extern "C" void ccfuzz_stop_signal_handler(int) {
  // Only async-signal-safe work here: raise the flag; the driver loop does
  // the rest (finish batch, checkpoint, flush) on its own thread.
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

bool stop_requested() { return g_stop.load(std::memory_order_relaxed); }

void request_stop() { g_stop.store(true, std::memory_order_relaxed); }

void reset_stop_flag() { g_stop.store(false, std::memory_order_relaxed); }

void install_stop_signal_handlers() {
  std::signal(SIGINT, ccfuzz_stop_signal_handler);
  std::signal(SIGTERM, ccfuzz_stop_signal_handler);
}

// --- CampaignConfig ---------------------------------------------------------

std::vector<CellConfig> CampaignConfig::cells() const {
  std::vector<CellConfig> out;

  // The scenario axis: explicit variants, then presets expanded over the
  // base scenario (apply_preset throws on unknown names before anything
  // runs). With neither, the base scenario alone.
  std::vector<NamedScenario> scenarios = scenarios_;
  for (const NamedPreset& p : presets_) {
    scenarios.push_back(
        {p.name, scenario::apply_preset(p.name, base_scenario_, p.options)});
  }
  if (scenarios.empty()) scenarios.push_back({"", base_scenario_});
  std::vector<NamedScore> scores = scores_;
  if (scores.empty()) {
    scores.push_back({"", std::make_shared<fuzz::LowUtilizationScore>(), {}});
  }

  for (const auto& cca : ccas_) {
    if (!cca::is_known_cca(cca)) {
      cca::make_factory(cca);  // throws, listing the known names
    }
    for (const auto mode : modes_) {
      for (const auto& sc : scenarios) {
        for (const auto& score : scores) {
          CellConfig cell;
          cell.cca = cca;
          cell.scenario = sc.config;
          cell.scenario.mode = mode;
          cell.score = score.score;
          cell.trace_weights = score.weights;
          cell.ga = ga_;
          cell.traffic_model = traffic_model_;
          cell.winners = winners_;
          cell.name = cca;
          cell.name += '.';
          cell.name += scenario::to_string(mode);
          if (!sc.name.empty()) {
            cell.name += '.';
            cell.name += sc.name;
          }
          cell.name += '.';
          cell.name += score.name.empty() ? score.score->name() : score.name;
          out.push_back(std::move(cell));
        }
      }
    }
  }

  // One shared default score across explicit cells (equal instances would
  // share the cache anyway — identity() folds the configuration — but one
  // instance is simply cheaper).
  std::shared_ptr<const fuzz::ScoreFunction> default_score;
  for (CellConfig cell : explicit_cells_) {
    if (!cell.factory && !cca::is_known_cca(cell.cca)) {
      cca::make_factory(cell.cca);  // throws, listing the known names
    }
    if (!cell.score) {
      if (!default_score) {
        default_score = std::make_shared<fuzz::LowUtilizationScore>();
      }
      cell.score = default_score;
    }
    if (cell.name.empty()) {
      cell.name = cell.cca;
      cell.name += '.';
      cell.name += scenario::to_string(cell.scenario.mode);
      cell.name += '.';
      cell.name += cell.score->name();
    }
    out.push_back(std::move(cell));
  }

  if (out.empty()) {
    throw std::invalid_argument(
        "campaign has no cells: set ccas() or add_cell()");
  }

  // Uniquify names deterministically ("x", "x.2", "x.3", ...). Collisions
  // are detected on the *sanitized* form, since that is what keys the
  // report's per-cell directories — two names that only differ in
  // filesystem-unsafe characters must not share a directory.
  std::unordered_set<std::string> used;
  for (auto& cell : out) {
    std::string candidate = cell.name;
    for (int k = 2; !used.insert(sanitize_cell_name(candidate)).second; ++k) {
      candidate = cell.name + '.' + std::to_string(k);
    }
    cell.name = std::move(candidate);
  }

  // Coverage-guided search needs the probe; arm it rather than making every
  // caller remember the pairing (the Fuzzer throws on the mismatch). With a
  // resume_dir, coverage cells default their archive path to where
  // write_report saved it last campaign.
  for (auto& cell : out) {
    if (cell.ga.search == fuzz::SearchMode::kMapElites ||
        cell.ga.novelty_bonus != 0.0) {
      cell.scenario.coverage = true;
    }
    if (!resume_dir_.empty() && cell.scenario.coverage &&
        cell.resume_archive.empty()) {
      cell.resume_archive =
          resume_dir_ + '/' + sanitize_cell_name(cell.name) + "/archive.txt";
    }
  }

  for (const auto& cell : out) validate_cell(cell);
  return out;
}

// --- Cell wiring ------------------------------------------------------------

tcp::CcaFactory cell_factory(const CellConfig& cell) {
  return cell.factory ? cell.factory : cca::make_factory(cell.cca);
}

const char* score_name(const CellConfig& cell) {
  return cell.score ? cell.score->name() : "low-utilization";
}

fuzz::TraceEvaluator make_evaluator(const CellConfig& cell) {
  std::shared_ptr<const fuzz::ScoreFunction> score =
      cell.score ? cell.score : std::make_shared<fuzz::LowUtilizationScore>();
  return fuzz::TraceEvaluator(cell.scenario, cell_factory(cell),
                              std::move(score), cell.trace_weights);
}

std::shared_ptr<const fuzz::TraceModel> make_trace_model(
    const CellConfig& cell) {
  if (cell.scenario.mode == scenario::FuzzMode::kLink) {
    trace::LinkTraceModel m = cell.link_model;
    m.duration = cell.scenario.duration;
    if (m.total_packets <= 0) {
      // Packet budget pinning the scenario's average bandwidth (§3.2).
      // Computed in double: the int64 product rate × duration_ns overflows
      // for Gbps-scale rates over minutes-scale runs.
      const auto& net = cell.scenario.net;
      m.total_packets = static_cast<std::int64_t>(
          static_cast<double>(net.bottleneck_rate.bits_per_second()) /
          (static_cast<double>(net.packet_bytes) * 8.0) *
          cell.scenario.duration.to_seconds());
    }
    return std::make_shared<fuzz::LinkModel>(m);
  }
  trace::TrafficTraceModel m = cell.traffic_model;
  m.duration = cell.scenario.duration;
  return std::make_shared<fuzz::TrafficModel>(m);
}

// --- ConsoleObserver --------------------------------------------------------

std::FILE* ConsoleObserver::stream() const { return out_ ? out_ : stdout; }

void ConsoleObserver::on_campaign_begin(const std::vector<CellConfig>& cells) {
  std::fprintf(stream(), "campaign: %zu cell%s\n", cells.size(),
               cells.size() == 1 ? "" : "s");
  for (const auto& c : cells) {
    std::fprintf(stream(),
                 "  %-40s pop=%d islands=%d generations=%d duration=%.0fs\n",
                 c.name.c_str(), c.ga.population, c.ga.islands,
                 c.ga.max_generations, c.scenario.duration.to_seconds());
  }
}

void ConsoleObserver::on_generation(const CellConfig& cell,
                                    const fuzz::GenStats& gs) {
  std::fprintf(stream(),
               "[%s] gen %2d  best=%9.3f  mean=%9.3f  top20 goodput=%5.2f "
               "Mbps  stalled=%d",
               cell.name.c_str(), gs.generation, gs.best_score, gs.mean_score,
               gs.topk_mean_goodput_mbps, gs.stalled_count);
  if (cell.scenario.coverage) {
    std::fprintf(stream(), "  cells=%lld (+%lld)  bits=%lld",
                 static_cast<long long>(gs.archive_cells),
                 static_cast<long long>(gs.archive_new_cells),
                 static_cast<long long>(gs.coverage_bits));
  }
  std::fprintf(stream(), "\n");
}

void ConsoleObserver::on_cell_end(const CellResult& result) {
  std::fprintf(stream(),
               "[%s] done: best=%.3f  %zu winner%s  %lld sims, %lld cache "
               "hits\n",
               result.cell.name.c_str(), result.best_score(),
               result.winners.size(), result.winners.size() == 1 ? "" : "s",
               static_cast<long long>(result.simulations),
               static_cast<long long>(result.cache_hits));
}

// --- JsonlObserver ----------------------------------------------------------

JsonlObserver::JsonlObserver(const std::string& path, bool sync, bool append)
    : sync_(sync) {
  if (append) {
    // Resume audit: a crash mid-write leaves a torn final line; repair the
    // file before appending so the feed stays valid JSONL end to end.
    if (Result<std::uint64_t> dropped = truncate_torn_tail(path);
        dropped && *dropped > 0) {
      CCFUZZ_LOG_WARN("progress log %s: dropped a torn final line (%llu "
                      "bytes) before resuming",
                      path.c_str(),
                      static_cast<unsigned long long>(*dropped));
    }
  }
  fp_ = std::fopen(path.c_str(), append ? "a" : "w");
  if (fp_ == nullptr) {
    throw std::runtime_error("JsonlObserver: cannot open " + path);
  }
  // Unbuffered: each emit_line's single fwrite reaches the fd as one write,
  // so a buffer-boundary flush can never split a line (a buffered stream
  // flushing mid-fwrite would leave a torn line after SIGKILL).
  std::setvbuf(fp_, nullptr, _IONBF, 0);
}

JsonlObserver::JsonlObserver(std::ostream& out) : out_(&out) {}

JsonlObserver::~JsonlObserver() {
  if (fp_ != nullptr) std::fclose(fp_);
}

void JsonlObserver::emit_line(std::string_view json) {
  // One write per event line (newline included, stream unbuffered): a crash
  // (or a tail -f reader) between events sees only whole lines, never a
  // torn one.
  if (fp_ != nullptr) {
    std::string line(json);
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), fp_);
    return;
  }
  *out_ << json << '\n';
  out_->flush();  // dashboards tail the file mid-campaign
}

void JsonlObserver::sync_boundary() {
  if (fp_ != nullptr && sync_) ::fsync(::fileno(fp_));
}

std::string JsonlObserver::shard_field() const {
  return shard_ >= 0 ? ",\"shard\":" + std::to_string(shard_) : std::string();
}

void JsonlObserver::on_campaign_begin(const std::vector<CellConfig>& cells) {
  std::ostringstream os;
  os << "{\"event\":\"campaign_begin\"" << shard_field() << ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellConfig& c = cells[i];
    os << (i ? "," : "") << "{\"name\":\"" << json_escape(c.name)
       << "\",\"cca\":\"" << json_escape(c.cca) << "\",\"mode\":\""
       << scenario::to_string(c.scenario.mode)
       << "\",\"flows\":" << c.scenario.flow_count()
       << ",\"population\":" << c.ga.population
       << ",\"max_generations\":" << c.ga.max_generations << "}";
  }
  os << "]}";
  emit_line(os.str());
}

void JsonlObserver::on_generation(const CellConfig& cell,
                                  const fuzz::GenStats& gs) {
  std::ostringstream os;
  os << "{\"event\":\"generation\"" << shard_field() << ",\"cell\":\""
     << json_escape(cell.name)
     << "\",\"generation\":" << gs.generation
     << ",\"best_score\":" << format_double(gs.best_score)
     << ",\"mean_score\":" << format_double(gs.mean_score)
     << ",\"topk_goodput_mbps\":" << format_double(gs.topk_mean_goodput_mbps)
     << ",\"topk_jain_fairness\":"
     << format_double(gs.topk_mean_jain_fairness)
     << ",\"topk_flow_goodputs_mbps\":[";
  for (std::size_t f = 0; f < gs.topk_mean_flow_goodput_mbps.size(); ++f) {
    os << (f ? "," : "")
       << format_double(gs.topk_mean_flow_goodput_mbps[f]);
  }
  os << "],\"stalled\":" << gs.stalled_count
     << ",\"evaluations\":" << gs.evaluations
     << ",\"archive_cells\":" << gs.archive_cells
     << ",\"archive_new_cells\":" << gs.archive_new_cells
     << ",\"coverage_bits\":" << gs.coverage_bits << "}";
  emit_line(os.str());
  sync_boundary();
}

void JsonlObserver::on_cell_end(const CellResult& result) {
  std::ostringstream os;
  os << "{\"event\":\"cell_end\"" << shard_field() << ",\"cell\":\""
     << json_escape(result.cell.name)
     << "\",\"best_score\":" << format_double(result.best_score())
     << ",\"winners\":" << result.winners.size()
     << ",\"simulations\":" << result.simulations
     << ",\"cache_hits\":" << result.cache_hits;
  if (result.archive) {
    os << ",\"archive_cells\":" << result.archive->filled()
       << ",\"coverage_bits\":" << result.archive->union_bits();
  }
  if (!result.winners.empty() &&
      result.winners.front().eval.flow_goodput_mbps.size() > 1) {
    os << ",\"best_flow_goodputs_mbps\":[";
    const auto& g = result.winners.front().eval.flow_goodput_mbps;
    for (std::size_t i = 0; i < g.size(); ++i) {
      os << (i ? "," : "") << format_double(g[i]);
    }
    os << "]";
  }
  os << "}";
  emit_line(os.str());
  sync_boundary();
}

void JsonlObserver::on_campaign_end(const CampaignReport& report) {
  std::ostringstream os;
  os << "{\"event\":\"campaign_end\"" << shard_field()
     << ",\"cells\":" << report.cells.size()
     << ",\"interrupted\":" << (report.interrupted ? "true" : "false")
     << ",\"quarantined\":" << report.quarantined << "}";
  emit_line(os.str());
  sync_boundary();
}

// --- Campaign ---------------------------------------------------------------

struct Campaign::CellState {
  CellConfig cfg;
  std::uint64_t key;
  fuzz::TraceEvaluator evaluator;
  fuzz::Fuzzer fuzzer;
  /// Report fields; `history` is filled from the fuzzer's at report time.
  CellResult result;
  double best_so_far = -1e300;
  int since_improvement = 0;
  /// Generations finished; the freshly-bred final population is being
  /// evaluated so winners reflect it.
  bool final_pass = false;
  bool done = false;

  /// A fresh cell, or with `state` one restored from a checkpoint: its
  /// fuzzer is read from `state` (errors stay there) instead of generating
  /// a population, and the checkpoint's archive stands in for the resume
  /// archive.
  CellState(CellConfig c, std::uint64_t k,
            std::shared_ptr<fuzz::Quarantine> quarantine, bool parallel,
            record::Reader* state)
      : cfg(std::move(c)),
        key(k),
        evaluator(make_evaluator(cfg)),
        fuzzer(state ? fuzz::Fuzzer(cfg.ga, make_trace_model(cfg),
                                    cfg.scenario.coverage, parallel, *state)
                     : fuzz::Fuzzer(cfg.ga, make_trace_model(cfg),
                                    cfg.scenario.coverage, parallel)) {
    evaluator.set_quarantine(std::move(quarantine));
    result.cell = cfg;
    // A zero-generation budget runs no generations, but the initial
    // population is still evaluated for winners.
    if (cfg.ga.max_generations <= 0) final_pass = true;
    // Resume: continue filling the archive a previous campaign saved. A
    // missing file is a cold start by design (first run of a config that
    // always names its resume path); an unreadable or corrupt archive is a
    // crash artifact, so it degrades to a cold start with a warning instead
    // of killing the campaign.
    if (!state && !cfg.resume_archive.empty() && cfg.scenario.coverage &&
        std::filesystem::exists(cfg.resume_archive)) {
      Result<fuzz::EliteArchive> a =
          fuzz::EliteArchive::try_load_file(cfg.resume_archive);
      if (a) {
        fuzzer.seed_archive(std::move(*a));
      } else {
        CCFUZZ_LOG_WARN(
            "cell '%s': resume archive %s unusable (%s: %s); starting with "
            "a fresh archive",
            cfg.name.c_str(), cfg.resume_archive.c_str(),
            to_string(a.error().code), a.error().message.c_str());
      }
    }
  }
};

Campaign::~Campaign() = default;

Campaign::Campaign(const CampaignConfig& cfg)
    : cell_cfgs_(cfg.cells()),
      output_dir_(cfg.output_dir()),
      checkpoint_every_(cfg.checkpoint_every()),
      parallel_(cfg.parallel()) {
  if (!output_dir_.empty()) {
    quarantine_ =
        std::make_shared<fuzz::Quarantine>(output_dir_ + "/quarantine");
  }
  // Full mid-campaign resume: restore populations, RNG streams, counters,
  // archives, and the evaluation cache from the last checkpoint. Anything
  // wrong with the file — truncated by a crash, version skew, config drift —
  // degrades to fresh cells, with a warning.
  if (!cfg.resume_dir().empty()) {
    const std::string head = cfg.resume_dir() + "/checkpoint/campaign.ckpt";
    // Degradation chain: the head snapshot, then its .prev rotation
    // sibling, then a fresh start — each step loses at most one checkpoint
    // generation, and nothing short of both files corrupting loses state.
    for (const std::string& ckpt : {head, head + ".prev"}) {
      if (!std::filesystem::exists(ckpt)) continue;
      Error e = restore_checkpoint(ckpt);
      if (!e) {
        resumed_ = true;
        head_is_current_ = ckpt == output_dir_ + "/checkpoint/campaign.ckpt";
        break;
      }
      // A failed restore leaves the cells and cache entries it read so far;
      // drop them before the next candidate (or the fresh start).
      cache_.clear();
      cells_.clear();
      const bool prev_next =
          ckpt == head && std::filesystem::exists(head + ".prev");
      CCFUZZ_LOG_WARN("checkpoint %s unusable (%s: %s); %s", ckpt.c_str(),
                      to_string(e.code), e.message.c_str(),
                      prev_next ? "falling back to the previous snapshot"
                                : "starting the campaign fresh");
    }
  }
  if (!resumed_) build_cells();
}

void Campaign::build_cells() {
  cells_.reserve(cell_cfgs_.size());
  for (std::size_t i = 0; i < cell_cfgs_.size(); ++i) {
    cells_.push_back(std::make_unique<CellState>(
        cell_cfgs_[i], eval_key(cell_cfgs_[i], i), quarantine_, parallel_,
        nullptr));
  }
}

void Campaign::fill_result(CellState& cell) {
  cell.result.history = cell.fuzzer.history();
  // Rank the final population together with the best member *ever*
  // observed: without elitism the best trace can be bred away before the
  // last generation, and losing it from the report would be silent. best()
  // predates the final-pass evaluation, so it must be re-ranked against the
  // final population, not assumed to lead it.
  cell.result.winners.clear();
  auto top = cell.fuzzer.top_members(std::numeric_limits<std::size_t>::max());
  if (cell.fuzzer.best().evaluated) {
    top.push_back(cell.fuzzer.best());
    std::stable_sort(top.begin(), top.end(),
                     [](const fuzz::Member& a, const fuzz::Member& b) {
                       return a.eval.score.total() > b.eval.score.total();
                     });
  }
  std::unordered_set<std::uint64_t> seen;
  for (const auto& m : top) {
    if (cell.result.winners.size() >= cell.cfg.winners) break;
    const std::uint64_t h = trace::hash(m.genome);
    if (!seen.insert(h).second) continue;
    cell.result.winners.push_back({m.genome, m.eval, h});
  }
  cell.result.archive = cell.fuzzer.archive();
}

void Campaign::finish_cell(CellState& cell) {
  fill_result(cell);
  cell.done = true;
  for (auto* o : observers_) o->on_cell_end(cell.result);
}

const CampaignReport& Campaign::run() {
  if (ran_) return report_;
  ran_ = true;
  for (auto* o : observers_) o->on_campaign_begin(cell_cfgs_);

  struct Job {
    CellState* cell;
    fuzz::Member* member;
    std::uint64_t key;
    /// A cache hit's entry.
    const fuzz::Evaluation* hit;
  };

  // Batch scratch lives across generations so the driver loop reuses its
  // capacity; the evaluation side is allocation-free per se once warm (each
  // cell's evaluator runs on its own per-worker context, so interleaved
  // cells never reshape shared buffers — see TraceEvaluator::evaluate).
  std::vector<Job> pending;
  std::vector<Job> hits;
  std::vector<Job> jobs;
  std::vector<Job> copies;
  std::vector<fuzz::BatchItem> items;
  std::unordered_set<std::uint64_t> batch_keys;
  std::uint64_t iteration = 0;
  // A checkpoint due at the end of one lockstep generation is published on
  // a pool worker while the next generation's batch simulates.
  bool checkpoint_due = false;

  while (true) {
    // Graceful shutdown: the previous generation finished cleanly, so this
    // is a consistent point to persist and leave. The checkpoint makes the
    // interruption resumable; the report below records partial results.
    if (stop_requested()) {
      report_.interrupted = true;
      write_checkpoint();
      break;
    }
    // Gather every active cell's pending members into one flat batch.
    // Repeats — a genome already in the cache, or the same genome reaching
    // two equivalent cells in this batch — are filled by copy, not
    // re-simulated. Until the batch has joined, the checkpoint may be
    // reading the cells and the cache, so this pass only classifies.
    pending.clear();
    hits.clear();
    jobs.clear();
    copies.clear();
    batch_keys.clear();
    bool any_active = false;
    for (auto& cp : cells_) {
      CellState& cell = *cp;
      if (cell.done) continue;
      any_active = true;
      for (fuzz::Member* m : cell.fuzzer.pending_members()) {
        pending.push_back({&cell, m, 0, nullptr});
      }
    }
    if (!any_active) break;
    // Keys are independent per member, so they are hashed on the pool. The
    // lookups and dedupe stay serial in (cell, island, slot) order, so the
    // same members simulate and the same ones copy as in a serial run.
    maybe_parallel_for(parallel_, pending.size(), [&](std::size_t i) {
      pending[i].key =
          mix_keys(pending[i].cell->key, trace::hash(pending[i].member->genome));
    });
    for (Job& p : pending) {
      if (const auto hit = cache_.find(p.key); hit != cache_.end()) {
        p.hit = &hit->second;
        hits.push_back(p);
      } else if (!batch_keys.insert(p.key).second) {
        copies.push_back(p);
      } else {
        jobs.push_back(p);
      }
    }

    items.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      items[i] = {&jobs[i].cell->evaluator, &jobs[i].member->genome,
                  &jobs[i].member->eval};
    }
    // The pool fills each job's `eval` in place while the checkpoint is
    // formatted; the member is still unevaluated, so the checkpoint writes
    // a default evaluation for it without reading `eval`.
    if (std::unique_ptr<CheckpointWrite> ckpt =
            checkpoint_due ? open_checkpoint() : nullptr) {
      fuzz::evaluate_batch(items, parallel_,
                           [&] { publish_checkpoint(*ckpt); });
    } else {
      fuzz::evaluate_batch(items, parallel_);
    }
    // Cache hits count: an uncached run would have simulated them.
    for (const Job& p : pending) p.cell->fuzzer.note_external_evaluations(1);
    for (const Job& h : hits) {
      h.member->eval = *h.hit;
      h.member->evaluated = true;
      ++h.cell->result.cache_hits;
    }
    for (const Job& j : jobs) {
      j.member->evaluated = true;
      // Wall-clock truncation is the one nondeterministic outcome a run can
      // have: the same genome may finish fine on a resumed (or merely
      // luckier) run. Keeping it out of the cache keeps the cache a pure
      // function of the genome and cell.
      if (!(j.member->eval.truncated &&
            j.member->eval.truncation == sim::TruncationReason::kWallDeadline)) {
        cache_.emplace(j.key, j.member->eval);
      }
      ++j.cell->result.simulations;
    }
    for (const Job& c : copies) {
      if (const auto hit = cache_.find(c.key); hit != cache_.end()) {
        c.member->eval = hit->second;
        ++c.cell->result.cache_hits;
      } else {
        // The job this copy deferred to was wall-truncated and excluded from
        // the cache — simulate it after all.
        c.cell->evaluator.evaluate_into(c.member->genome, c.member->eval);
        ++c.cell->result.simulations;
      }
      c.member->evaluated = true;
    }

    // Advance each active cell one generation (or finish it).
    for (auto& cp : cells_) {
      CellState& cell = *cp;
      if (cell.done) continue;
      if (cell.final_pass) {
        finish_cell(cell);
        continue;
      }
      const fuzz::GenStats gs = cell.fuzzer.advance_generation();
      for (auto* o : observers_) o->on_generation(cell.cfg, gs);
      // Termination: generation budget or patience.
      bool stop = cell.fuzzer.generation() >= cell.cfg.ga.max_generations;
      if (gs.best_score > cell.best_so_far + 1e-12) {
        cell.best_so_far = gs.best_score;
        cell.since_improvement = 0;
      } else if (cell.cfg.ga.patience > 0 &&
                 ++cell.since_improvement >= cell.cfg.ga.patience) {
        stop = true;
      }
      if (stop) cell.final_pass = true;
    }
#ifdef __GLIBC__
    // Islands breed on pool workers, so children are allocated in the
    // workers' malloc arenas while their parents are freed into others, and
    // glibc keeps those freed pages resident. Without this trim, peak RSS of
    // paper-scale campaigns grew by 5-10 %.
    malloc_trim(0);
#endif

    ++iteration;
    head_is_current_ = false;
    checkpoint_due =
        checkpoint_every_ > 0 && iteration % checkpoint_every_ == 0;
  }

  // Final checkpoint: a finished campaign resumes as a no-op rewrite of the
  // same report. (An interrupted run already checkpointed before breaking.)
  // The last lockstep generation has no batch to publish its checkpoint
  // alongside, so it lands here.
  if (!report_.interrupted) write_checkpoint();

  report_.cells.reserve(cells_.size());
  for (auto& cp : cells_) {
    // Interrupted cells report their partial history.
    cp->result.history = cp->fuzzer.history();
    report_.cells.push_back(std::move(cp->result));
  }
  // Count what is on disk, not what this process recorded: a resumed
  // campaign reports the quarantine accumulated across every attempt.
  report_.quarantined = quarantine_ ? quarantine_->stored() : 0;
  if (!output_dir_.empty()) write_report(report_, output_dir_);
  for (auto* o : observers_) o->on_campaign_end(report_);
  return report_;
}

struct Campaign::CheckpointWrite {
  // The checkpoint streams to campaign.ckpt.tmp in chunks of about
  // record::Writer::kSpillBytes as it is formatted, however large it grows.
  explicit CheckpointWrite(std::string path)
      : file(std::move(path)),
        writer([this](std::string_view bytes) { file.append(bytes); }) {}
  // The Writer's sink holds this object's address.
  CheckpointWrite(const CheckpointWrite&) = delete;
  CheckpointWrite& operator=(const CheckpointWrite&) = delete;

  AtomicFile file;
  record::Writer writer;
};

std::unique_ptr<Campaign::CheckpointWrite> Campaign::open_checkpoint() {
  // A rewrite of the head would cost a serialization and an fsync, and
  // demote an identical snapshot into .prev in place of the one before.
  if (checkpoint_every_ <= 0 || output_dir_.empty() || head_is_current_) {
    return nullptr;
  }
  std::error_code ec;
  std::filesystem::create_directories(output_dir_ + "/checkpoint", ec);
  if (ec) {
    CCFUZZ_LOG_WARN("checkpoint: cannot create %s/checkpoint: %s",
                    output_dir_.c_str(), ec.message().c_str());
    return nullptr;
  }
  // Opened on the driver, not on the worker that publishes it: the Writer's
  // buffer then comes from the driver's malloc arena instead of growing a
  // worker's, which raised a durable campaign's peak RSS.
  return std::make_unique<CheckpointWrite>(output_dir_ +
                                           "/checkpoint/campaign.ckpt");
}

void Campaign::publish_checkpoint(CheckpointWrite& ckpt) {
  save_checkpoint(ckpt.writer);
  ckpt.writer.flush();
  // Rotating publish: the previous snapshot survives as campaign.ckpt.prev,
  // so a corrupted head (bad sector, fsync lie) degrades to the previous
  // generation instead of a fresh start. A failed write (ENOSPC et al) is a
  // warning, not an abort: the campaign keeps running on the old snapshot.
  if (Error e = ckpt.file.publish_rotating()) {
    CCFUZZ_LOG_WARN("checkpoint: write failed (%s): %s", to_string(e.code),
                    e.message.c_str());
    return;
  }
  head_is_current_ = true;
  if (faultinject::should_fire(faultinject::FaultSite::kCrashCheckpoint)) {
    // The checkpoint is complete and durable; dying here is exactly the
    // power-cut-at-the-boundary case the resume machinery must absorb.
    faultinject::crash_now(faultinject::FaultSite::kCrashCheckpoint);
  }
}

void Campaign::write_checkpoint() {
  if (std::unique_ptr<CheckpointWrite> ckpt = open_checkpoint()) {
    publish_checkpoint(*ckpt);
  }
}

void Campaign::save_checkpoint(record::Writer& w) const {
  w << "# ccfuzz-checkpoint v1\n";
  w << "# cells " << cells_.size() << '\n';
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellState& cell = *cells_[i];
    w << "# cell " << i << '\n';
    w << "# name " << cell.cfg.name << '\n';
    w << "# best_so_far " << cell.best_so_far << '\n';
    w << "# since_improvement " << cell.since_improvement << '\n';
    w << "# final_pass " << cell.final_pass << '\n';
    w << "# done " << cell.done << '\n';
    w << "# simulations " << cell.result.simulations << '\n';
    w << "# cache_hits " << cell.result.cache_hits << '\n';
    cell.fuzzer.save_state(w);
    w << "# end cell\n";
  }
  // Entry order follows the hash map and is not meaningful; the restored
  // cache is order-independent.
  w << "# cache " << cache_.size() << '\n';
  for (const auto& [key, eval] : cache_) {
    w << "# cachekey ";
    w.hex({&key, 1}) << '\n';
    fuzz::state_io::write_eval(w, eval);
  }
  w << "# end checkpoint\n";
}

Error validate_checkpoint_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Error::io("cannot open checkpoint: " + path);
  record::Reader r(is);
  r.header("ccfuzz-checkpoint", "v1");
  r.footer("checkpoint");
  return r.error();
}

Error Campaign::restore_checkpoint(const std::string& path) {
  // Mapped, not read into a string: the cells are built from the text in
  // place, each fuzzer parsing its islands on the pool
  // (Fuzzer::restore_state). Checkpoints are only ever replaced by rename,
  // never truncated in place, so the mapped bytes stay valid throughout.
  Result<MappedFile> file = MappedFile::open(path);
  if (!file) return Error::io("cannot open checkpoint: " + path);
  record::Reader r(file->text());
  std::size_t n_cells = 0, n_cache = 0;
  r.header("ccfuzz-checkpoint", "v1");
  r.read("cells", n_cells);
  if (n_cells != cell_cfgs_.size()) {
    r.fail(Error::mismatch("checkpoint: holds " + std::to_string(n_cells) +
                           " cells, campaign configures " +
                           std::to_string(cell_cfgs_.size())));
  }
  for (std::size_t i = 0; i < n_cells && r.ok(); ++i) {
    const CellConfig& cfg = cell_cfgs_[i];
    std::size_t idx = 0;
    std::string name;
    r.read("cell", idx);
    if (idx != i) r.fail(Error::corrupt("checkpoint: cell index out of order"));
    r.expect("name").rest(name).done();
    // Config drift between the checkpointing and resuming processes would
    // silently graft one cell's population onto another's scenario.
    if (name != cfg.name) {
      r.fail(Error::mismatch("checkpoint: cell " + std::to_string(i) + " is '" +
                             name + "', campaign expects '" + cfg.name + "'"));
    }
    double best_so_far = 0.0;
    int since_improvement = 0;
    bool final_pass = false, done = false;
    std::int64_t simulations = 0, cache_hits = 0;
    r.read("best_so_far", best_so_far);
    r.read("since_improvement", since_improvement);
    r.read("final_pass", final_pass);
    r.read("done", done);
    r.read("simulations", simulations);
    r.read("cache_hits", cache_hits);
    if (!r.ok()) break;
    CellState& cell = *cells_.emplace_back(std::make_unique<CellState>(
        cfg, eval_key(cfg, i), quarantine_, parallel_, &r));
    cell.best_so_far = best_so_far;
    cell.since_improvement = since_improvement;
    cell.final_pass = final_pass;
    cell.done = done;
    cell.result.simulations = simulations;
    cell.result.cache_hits = cache_hits;
    r.end("cell");
  }
  r.read("cache", n_cache);
  for (std::size_t i = 0; i < n_cache && r.ok(); ++i) {
    std::uint64_t k = 0;
    fuzz::Evaluation eval;
    r.read("cachekey", record::Hex(&k, 1));
    fuzz::state_io::read_eval(r, eval);
    cache_.emplace(k, std::move(eval));
  }
  r.end("checkpoint");
  r.eof();
  if (!r.ok()) return r.error();
  // Rebuild the report fields of the cells that had already finished.
  for (auto& cp : cells_) {
    if (cp->done) fill_result(*cp);
  }
  return Error::success();
}

}  // namespace ccfuzz::campaign
