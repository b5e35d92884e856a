// ccbench — whole-campaign benchmark driver.
//
// Runs one named workload through the library's public API. A run is a
// fixed number of timed bodies (Campaign construction, Campaign::run, and
// for the triage workload triage_report + replay_findings), enough to fill
// about --seconds; each body fuzzes its own input seed derived from --seed.
// Every body's outputs are checked, and each metric is printed by name with
// its unit as the median over the bodies, with times scaled to a reference
// host speed (see HostReference) and also unscaled (".raw"). The last stdout
// line is one JSON record that benchmark/run.py reads.
//
// --trace reruns the same bodies with spans recorded around the calls into
// each layer (observers, a delegating ScoreFunction, the triage log stream),
// then runs probes on the last body's own winners — after the timed bodies,
// never overlapping them — and writes <out>/<workload>.trace.json (Chrome
// trace-event format) and <out>/<workload>.layers.json.
//
// --scaling times fuzz::evaluate_batch on a fixed seed-sampled batch of the
// workload's genomes on a pool of CCFUZZ_THREADS threads; run.py calls it
// with 1, 2 and 4 threads to derive pool.speedup_2 and pool.speedup_4.
//
// Usage: ccbench <matrix|multiflow|durable|triage> [--seed S] [--seconds N]
//                [--trace] [--smoke] [--scaling] [--out DIR]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "cca/registry.h"
#include "fuzz/elite_archive.h"
#include "fuzz/evaluator.h"
#include "scenario/runner.h"
#include "spans.h"
#include "trace/hash.h"
#include "triage/bundle.h"
#include "triage/triage.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ccbench {
namespace {

namespace fs = std::filesystem;
using namespace ccfuzz;

// --- Small helpers -----------------------------------------------------------

double seconds_since(std::int64_t t0_ns) { return (now_ns() - t0_ns) * 1e-9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB → MB
}

std::optional<double> median(std::vector<double> v) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= trace::kFnvPrime;
  }
  return h;
}

/// Output checks: every failure is printed and fails the run.
struct Checks {
  int failed = 0;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "ccbench: CHECK FAILED: %s\n", what.c_str());
  }
};

// --- Workloads ---------------------------------------------------------------

enum class Kind { kPlain, kDurable, kTriage };

struct Workload {
  std::string name;
  std::vector<std::string> ccas;
  std::vector<scenario::FuzzMode> modes;
  std::vector<std::string> presets;
  bool jain_score = false;
  fuzz::SearchMode search = fuzz::SearchMode::kScore;
  int population = 0;
  int islands = 0;
  int generations = 0;
  int duration_s = 5;
  std::size_t winners = 5;
  Kind kind = Kind::kPlain;
  int minimize_evals = 200;
  /// Typical wall time of one body, sampling included; a run of --seconds S
  /// performs max(1, S / body_s) bodies, so that it ends within about S.
  double body_s = 1;
};

/// Thread-scaling probe batch: seed-sampled genomes per cell.
constexpr int kScalingBatch = 32;

// Sizes are pinned: a change to any of them is a change of the benchmark and
// needs a fresh baseline (benchmark/results/). Generations were calibrated so
// that one body takes about body_s on a 4-vCPU host near host.slowdown 1.
Workload make_workload(const std::string& name, bool smoke) {
  using scenario::FuzzMode;
  Workload w;
  w.name = name;
  if (name == "matrix") {
    w.ccas = {"reno", "cubic", "bbr"};
    w.modes = {FuzzMode::kTraffic, FuzzMode::kLink};
    w.population = 500;
    w.islands = 20;
    w.generations = 4;
    w.body_s = 8;
  } else if (name == "multiflow") {
    w.ccas = {"cubic", "bbr"};
    w.modes = {FuzzMode::kTraffic};
    w.presets = {"incast", "late_starter"};
    w.jain_score = true;
    w.population = 200;
    w.islands = 8;
    w.generations = 12;
    w.body_s = 8;
  } else if (name == "durable") {
    // Traffic mode only: see make_config.
    w.ccas = {"cubic", "bbr"};
    w.modes = {FuzzMode::kTraffic};
    w.search = fuzz::SearchMode::kMapElites;
    w.population = 400;
    w.islands = 16;
    w.generations = 8;
    w.body_s = 8;
    w.kind = Kind::kDurable;
  } else if (name == "triage") {
    w.ccas = {"reno", "bbr"};
    w.modes = {FuzzMode::kTraffic};
    w.population = 96;
    w.islands = 4;
    w.generations = 20;
    w.winners = 20;
    // ddmin stops early once a trace is 1-minimal, and how soon depends on
    // the finding: with 200 evaluations the triage time of a body varied by
    // 10% across seeds, with 50 by 3%.
    w.minimize_evals = 50;
    w.body_s = 7;
    w.kind = Kind::kTriage;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (known: matrix, multiflow, durable, triage)");
  }
  if (smoke) {
    // Harness check only: every code path, none of the scale.
    w.population = 16;
    w.islands = 2;
    w.generations = 2;
    w.duration_s = 2;
    w.winners = std::min<std::size_t>(w.winners, 2);
    w.minimize_evals = 10;
  }
  return w;
}

/// Forwards to the workload's score, timing each call as a "fuzz.score"
/// span. name(), identity() and validate() are forwarded, so cell names and
/// evaluation-cache keys are the same as with the bare score.
class TimedScore final : public fuzz::ScoreFunction {
 public:
  explicit TimedScore(std::shared_ptr<const fuzz::ScoreFunction> inner)
      : inner_(std::move(inner)) {}

  double performance_score(const scenario::RunResult& run) const override {
    const std::int64_t t0 = now_ns();
    const double s = inner_->performance_score(run);
    Spans::record("fuzz.score", t0, now_ns(), Spans::driver_parent());
    return s;
  }
  const char* name() const override { return inner_->name(); }
  std::uint64_t identity() const override { return inner_->identity(); }
  void validate(const scenario::ScenarioConfig& s) const override {
    inner_->validate(s);
  }

  const std::shared_ptr<const fuzz::ScoreFunction>& inner() const {
    return inner_;
  }

 private:
  std::shared_ptr<const fuzz::ScoreFunction> inner_;
};

/// The cell as the library would see it without tracing (probes must not
/// add score spans of their own).
campaign::CellConfig untraced(campaign::CellConfig cell) {
  if (const auto* t = dynamic_cast<const TimedScore*>(cell.score.get())) {
    cell.score = t->inner();
  }
  return cell;
}

campaign::CampaignConfig make_config(const Workload& w, std::uint64_t seed,
                                     const std::string& dir, bool traced) {
  std::shared_ptr<const fuzz::ScoreFunction> score;
  if (w.jain_score) {
    score = std::make_shared<fuzz::JainFairnessScore>();
  } else {
    score = std::make_shared<fuzz::LowUtilizationScore>();
  }
  if (traced) score = std::make_shared<TimedScore>(std::move(score));

  fuzz::GaConfig ga;
  ga.population = w.population;
  ga.islands = w.islands;
  ga.max_generations = w.generations;
  ga.search = w.search;
  ga.seed = fork_seed(0xCCBE7C11ULL, seed);

  scenario::ScenarioConfig base;
  base.duration = TimeNs::seconds(w.duration_s);

  campaign::CampaignConfig cfg;
  cfg.ccas(w.ccas).modes(w.modes).base_scenario(base).score(score).ga(ga)
      .winners(w.winners);
  cfg.presets(w.presets);
  if (w.kind != Kind::kPlain) {
    // These workloads write genomes to disk and read them back. The default
    // traffic model's DistPackets can place a stamp exactly at the trace
    // duration (about 1 genome in 1000), and trace_io rejects such a trace
    // on load: a checkpoint holding one degrades to a fresh start, and
    // triage cannot load such a winner. These bounds keep every split the
    // unconstrained model takes except a zero-width side that holds
    // packets, which is what puts a stamp at the interval end.
    trace::TrafficTraceModel m{.max_packets = 3000, .initial_packets = 1500};
    m.dist = {.k_agg = DurationNs(1), .rate_low = 0.0, .rate_high = 1e12,
              .rate_constraints = true};
    cfg.traffic_model(m).output_dir(dir);
  }
  if (w.kind == Kind::kDurable) cfg.checkpoint_every(1).resume_dir(dir);
  return cfg;
}

/// Expected evaluations of a finished cell from its GenStats alone: the
/// cumulative count at the last generation, plus the final pass over the
/// last bred population (every member except the elites each island keeps).
std::int64_t expected_evaluations(const campaign::CellResult& r) {
  if (r.history.empty()) return -1;
  const fuzz::GaConfig& ga = r.cell.ga;
  std::int64_t kept = 0;
  for (int i = 0; i < ga.islands; ++i) {
    const int members =
        ga.population / ga.islands + (i < ga.population % ga.islands ? 1 : 0);
    kept += std::min(std::max(ga.elites_per_island, 0), members);
  }
  return r.history.back().evaluations + ga.population - kept;
}

// --- Host reference ----------------------------------------------------------
// Shared virtual machines drift in speed: on the 4-vCPU reference host the
// quartile distance of ten runs' raw sims/s was 10-30% of their median,
// depending on the hour, with the drift on a scale of seconds to minutes —
// more than the changes this benchmark must resolve. Every body therefore
// samples a fixed reference kernel at its phase boundaries and between
// lockstep generations, while the pool is idle, and its times are scaled by
// the kernel's mean sample time relative to the nominal one (host.slowdown).
// Sampling time is excluded from every timed interval.
//
// Alternated with a fixed batch of simulations on the reference host, a
// three times longer version of this kernel tracked the batch's time with a
// correlation of 0.99 over 9 s windows (0.84 per sample). The mean follows a
// host whose speed changes within a body better than the median: over ten
// seeds it left a body-to-body spread of 4-6% of sims/s against 5-8%.
//
// The kernel shares no code with the library: it runs on threads of its own
// with a PRNG of its own, so a library change cannot speed it up or slow it
// down directly. A change that leaves work running at a lockstep boundary
// would slow it; the unscaled values are therefore reported beside the
// scaled ones ("<metric>.raw"), and compare.py flags a change that moves
// host.slowdown.

constexpr std::size_t kReferenceChunks = 12;  // divides evenly over 1-4 threads
constexpr int kReferenceRounds = 50;
/// Time of one chunk on one thread of the reference host (pinned).
constexpr double kNominalChunkMs = 6.0;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One chunk of reference work: a binary heap of pseudo-random keys mixed
/// with lookups in a 1 MiB table, the rough shape of an event queue plus
/// packet bookkeeping.
std::uint64_t reference_chunk(std::uint64_t seed) {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 17);
    std::uint64_t s = 0x7AB1E;
    for (auto& x : t) x = splitmix64(s);
    return t;
  }();
  std::vector<std::uint64_t> heap;
  heap.reserve(1024);
  std::uint64_t acc = 0;
  for (int round = 0; round < kReferenceRounds; ++round) {
    for (int i = 0; i < 1024; ++i) {
      const std::uint64_t k = splitmix64(seed);
      heap.push_back(k ^ table[k & (table.size() - 1)]);
      std::push_heap(heap.begin(), heap.end());
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      acc += heap.back();
      heap.pop_back();
    }
  }
  return acc;
}

class HostReference {
 public:
  /// As many threads as the library's pool gets: CCFUZZ_THREADS, else one
  /// per hardware thread.
  HostReference() {
    const char* env = std::getenv("CCFUZZ_THREADS");
    const long v = env ? std::strtol(env, nullptr, 10) : 0;
    threads_ = v > 0 ? static_cast<unsigned>(v)
                     : std::max(1u, std::thread::hardware_concurrency());
  }

  /// Runs the reference kernel on threads of its own and records its time,
  /// unless the previous sample ended less than kMinGapNs ago (triage
  /// reports an outcome every few tens of milliseconds).
  void sample() {
    if (!samples_ms_.empty() && now_ns() - last_end_ns_ < kMinGapNs) return;
    for (int i = 0; i < kSamplesPerCall; ++i) {
      const std::int64_t t0 = now_ns();
      const double cpu0 = cpu_seconds();
      std::atomic<std::size_t> next{0};
      std::atomic<std::uint64_t> sink{0};
      std::vector<std::thread> workers;
      for (unsigned t = 0; t < threads_; ++t) {
        workers.emplace_back([&] {
          for (std::size_t c; (c = next.fetch_add(1)) < kReferenceChunks;) {
            sink.fetch_xor(reference_chunk(c + 1), std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      last_end_ns_ = now_ns();
      Spans::record("host.reference", t0, last_end_ns_, Spans::driver_parent());
      samples_ms_.push_back((last_end_ns_ - t0) * 1e-6);
      excluded_s_ += (last_end_ns_ - t0) * 1e-9;
      excluded_cpu_s_ += cpu_seconds() - cpu0;
    }
  }
  /// Wall-clock seconds with the time spent sampling left out.
  double now() const { return now_ns() * 1e-9 - excluded_s_; }
  /// Process CPU seconds with the sampling CPU time left out.
  double cpu() const { return cpu_seconds() - excluded_cpu_s_; }
  /// Mean per-thread sample time over the nominal one: above 1 when the
  /// host ran slower than the reference host at calibration.
  double slowdown() const {
    const double mean =
        std::accumulate(samples_ms_.begin(), samples_ms_.end(), 0.0) /
        static_cast<double>(samples_ms_.size());
    return mean * threads_ /
           (static_cast<double>(kReferenceChunks) * kNominalChunkMs);
  }

 private:
  static constexpr int kSamplesPerCall = 2;
  static constexpr std::int64_t kMinGapNs = 500'000'000;

  unsigned threads_ = 1;
  std::vector<double> samples_ms_;
  std::int64_t last_end_ns_ = 0;
  double excluded_s_ = 0;
  double excluded_cpu_s_ = 0;
};

// --- Observers ---------------------------------------------------------------

/// The benchmark's hook into Campaign::run. It samples the host reference
/// after each lockstep generation, timestamps the first finding (the first
/// cell that ends with winners), optionally stops the run after a given
/// generation, and times the driver's phases: consecutive on_generation
/// callbacks of one lockstep iteration are separated by the next cell's
/// serial advance_generation, and successive first-cell callbacks bound one
/// whole lockstep interval. Times come from the reference's clock; traced
/// runs also record them as spans.
class BodyObserver final : public campaign::CampaignObserver {
 public:
  BodyObserver(HostReference& ref, int stop_after)
      : ref_(ref), stop_after_(stop_after) {}

  void on_campaign_begin(const std::vector<campaign::CellConfig>& c) override {
    index_.clear();
    for (std::size_t i = 0; i < c.size(); ++i) index_[c[i].name] = i;
    last_index_ = SIZE_MAX;
    iteration_start_ = -1;
    ref_.sample();
  }
  void on_generation(const campaign::CellConfig& cell,
                     const fuzz::GenStats& gs) override {
    const double t = ref_.now();
    const std::int64_t t_ns = now_ns();
    const std::size_t i = index_.at(cell.name);
    if (last_index_ == SIZE_MAX || i <= last_index_) {
      if (iteration_start_ >= 0) {
        lockstep_ms.push_back((t - iteration_start_) * 1e3);
        Spans::record("campaign.lockstep", iteration_start_ns_, t_ns,
                      Spans::driver_parent());
      }
      iteration_start_ = t;
      iteration_start_ns_ = t_ns;
    } else {
      advance_ms.push_back((t - last_t_) * 1e3);
      Spans::record("fuzz.advance", last_t_ns_, t_ns, Spans::driver_parent());
    }
    last_index_ = i;
    last_t_ = t;
    last_t_ns_ = t_ns;
    if (i + 1 == index_.size()) {
      if (gs.generation + 1 == stop_after_) campaign::request_stop();
      ref_.sample();
    }
  }
  void on_cell_end(const campaign::CellResult& r) override {
    last_cell_end_ = ref_.now();
    last_cell_end_ns_ = now_ns();
    if (first_finding < 0 && !r.winners.empty()) first_finding = last_cell_end_;
  }
  void on_campaign_end(const campaign::CampaignReport&) override {
    if (last_cell_end_ >= 0) {
      tail_ms.push_back((ref_.now() - last_cell_end_) * 1e3);
      Spans::record("campaign.tail", last_cell_end_ns_, now_ns(),
                    Spans::driver_parent());
    }
    ref_.sample();
  }

  double first_finding = -1;  ///< reference clock; < 0 until found
  std::vector<double> lockstep_ms;
  std::vector<double> advance_ms;
  std::vector<double> tail_ms;

 private:
  HostReference& ref_;
  int stop_after_;  ///< generations before request_stop(); 0 = never
  std::unordered_map<std::string, std::size_t> index_;
  std::size_t last_index_ = SIZE_MAX;
  double iteration_start_ = -1;
  std::int64_t iteration_start_ns_ = 0;
  double last_t_ = 0;
  std::int64_t last_t_ns_ = 0;
  double last_cell_end_ = -1;
  std::int64_t last_cell_end_ns_ = 0;
};

// --- Triage log stream -------------------------------------------------------
// TriageConfig::log is a FILE*; a fopencookie stream whose write hook sees
// each flushed line lets the benchmark timestamp the first "confirmed" line
// and sample the host reference between candidates without touching the
// library.

struct TriageClock {
  HostReference* ref = nullptr;
  double first_confirmed = -1;
  std::int64_t last_outcome_ns = 0;
  std::string partial;
  std::string error;  ///< an exception caught in the write hook
};

bool is_outcome_line(const std::string& line) {
  return line.find(" confirmed: ") != std::string::npos ||
         line.find(" FLAKY ") != std::string::npos ||
         line.find(" not reproduced ") != std::string::npos ||
         line.find("cannot ") != std::string::npos;
}

/// The stream's write hook. stdio calls it from C, so nothing may escape:
/// a failure is kept in TriageClock::error and reported as a write error.
ssize_t triage_log_write(void* cookie, const char* buf, size_t n) {
  auto* c = static_cast<TriageClock*>(cookie);
  try {
    c->partial.append(buf, n);
    for (std::size_t nl; (nl = c->partial.find('\n')) != std::string::npos;) {
      const std::string line = c->partial.substr(0, nl);
      c->partial.erase(0, nl + 1);
      if (line.find(" confirmed: ") != std::string::npos &&
          c->first_confirmed < 0) {
        c->first_confirmed = c->ref->now();
      }
      if (is_outcome_line(line)) {
        Spans::record("triage.candidate", c->last_outcome_ns, now_ns(),
                      Spans::driver_parent());
        c->ref->sample();
        c->last_outcome_ns = now_ns();
      }
    }
    return static_cast<ssize_t>(n);
  } catch (const std::exception& e) {
    c->error = e.what();
    return -1;
  }
}

// --- One timed body ----------------------------------------------------------

/// One body's measurements. Times are on the host reference's clock
/// (sampling excluded) and not yet scaled by `slowdown`.
struct Body {
  double setup_s = 0;      ///< Σ Campaign constructor time
  double run_s = 0;        ///< Σ Campaign::run time
  double run_cpu_s = 0;    ///< process CPU time over the same intervals
  double first_finding_s = 0;
  double findings_s = 0;
  double resume_s = 0;     ///< durable: the resuming constructor
  double triage_s = 0;
  double replay_s = 0;
  double slowdown = 1;     ///< HostReference::slowdown over the body
  std::int64_t sims = 0;
  std::int64_t cache_hits = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  triage::TriageStats tstats;
  triage::ReplayStats rstats;
  std::uint64_t original_events = 0;
  std::uint64_t minimized_events = 0;
  std::uint64_t fingerprint = trace::kFnvOffset;
  std::vector<double> lockstep_ms, advance_ms, tail_ms;
  /// The campaign whose report the body ended with (kept for probes).
  std::unique_ptr<campaign::Campaign> campaign;
};

std::unique_ptr<campaign::Campaign> construct(
    const campaign::CampaignConfig& cfg, const HostReference& ref,
    double& seconds) {
  ScopedSpan span("campaign.ctor");
  const double t0 = ref.now();
  auto c = std::make_unique<campaign::Campaign>(cfg);
  seconds = ref.now() - t0;
  return c;
}

void timed_run(campaign::Campaign& c, const HostReference& ref, Body& b) {
  ScopedSpan span("campaign.run");
  const double cpu0 = ref.cpu();
  const double t0 = ref.now();
  c.run();
  b.run_s += ref.now() - t0;
  b.run_cpu_s += ref.cpu() - cpu0;
}

void check_report(const campaign::CampaignReport& report, Checks& checks) {
  for (const campaign::CellResult& r : report.cells) {
    const std::int64_t want = expected_evaluations(r);
    checks.expect(r.simulations + r.cache_hits == want,
                  r.cell.name + ": simulations + cache hits = " +
                      std::to_string(r.simulations + r.cache_hits) +
                      ", GenStats say " + std::to_string(want));
    checks.expect(!r.winners.empty(), r.cell.name + ": no winners");
  }
}

/// Triage + replay of the campaign's report tree (the triage workload).
void triage_phase(const Workload& w, const std::string& dir, double t0,
                  HostReference& ref, Body& b, Checks& checks) {
  TriageClock clock;
  clock.ref = &ref;
  clock.last_outcome_ns = now_ns();
  std::FILE* log =
      fopencookie(&clock, "w", {nullptr, triage_log_write, nullptr, nullptr});
  if (log == nullptr) throw std::runtime_error("fopencookie failed");
  triage::TriageConfig tc;
  tc.confirm_runs = 3;
  tc.tolerance = 0.02;
  tc.max_minimize_evals = w.minimize_evals;
  tc.log = log;
  const double tr0 = ref.now();
  Result<triage::TriageStats> ts = [&] {
    ScopedSpan span("triage.report");
    return triage::triage_report(b.campaign->cell_configs(), dir, tc);
  }();
  b.findings_s = ref.now() - t0;
  b.triage_s = ref.now() - tr0;
  std::fclose(log);
  if (!clock.error.empty()) {
    throw std::runtime_error("triage log: " + clock.error);
  }
  if (!ts) throw std::runtime_error("triage_report: " + ts.error().message);
  b.tstats = *ts;
  b.first_finding_s = clock.first_confirmed >= 0 ? clock.first_confirmed - t0
                                                 : 0.0;

  const double r0 = ref.now();
  Result<triage::ReplayStats> rs = [&] {
    ScopedSpan span("triage.replay");
    return triage::replay_findings(b.campaign->cell_configs(),
                                   dir + "/findings");
  }();
  b.replay_s = ref.now() - r0;
  if (!rs) throw std::runtime_error("replay_findings: " + rs.error().message);
  b.rstats = *rs;
  ref.sample();

  const triage::TriageStats& t = b.tstats;
  checks.expect(t.bundles_written >= 1, "triage: no bundles written");
  checks.expect(b.rstats.bundles == t.bundles_written,
                "triage: replay saw " + std::to_string(b.rstats.bundles) +
                    " bundles, triage wrote " +
                    std::to_string(t.bundles_written));
  checks.expect(b.rstats.ok == b.rstats.bundles,
                "triage: " + std::to_string(b.rstats.bundles - b.rstats.ok) +
                    " bundles failed replay");
  std::vector<std::string> ids;
  for (const auto& e : fs::directory_iterator(dir + "/findings")) {
    if (e.is_directory()) ids.push_back(e.path().string());
  }
  std::sort(ids.begin(), ids.end());
  for (const std::string& id : ids) {
    Result<triage::BundleManifest> m = triage::load_manifest(id);
    checks.expect(m.ok(), "triage: unreadable manifest in " + id);
    if (!m) continue;
    checks.expect(m->minimized_events <= m->original_events,
                  "triage: " + m->id + " minimized trace grew");
    b.original_events += m->original_events;
    b.minimized_events += m->minimized_events;
    b.fingerprint = fnv(b.fingerprint, triage::to_json(*m));
  }
  b.attempted += t.candidates + b.rstats.bundles;
  b.failed += t.flaky + t.unreproduced + t.errors + b.rstats.drifted +
              b.rstats.broken;
}

Body run_body(const Workload& w, std::uint64_t seed, const std::string& dir,
              bool traced, Checks& checks) {
  Body b;
  std::error_code ec;
  fs::remove_all(dir, ec);
  const campaign::CampaignConfig cfg = make_config(w, seed, dir, traced);
  HostReference ref;
  ref.sample();

  const double t0 = ref.now();
  double ctor_s = 0;
  b.campaign = construct(cfg, ref, ctor_s);
  b.setup_s += ctor_s;
  BodyObserver observer(ref, 0);

  if (w.kind == Kind::kDurable) {
    // Run to the midpoint, stop gracefully, and finish in a second Campaign
    // that resumes from the checkpoint — a crash-safe campaign's life.
    fs::create_directories(dir);
    BodyObserver first_half(ref, w.generations / 2);
    auto progress = std::make_unique<campaign::JsonlObserver>(
        dir + "/progress.jsonl", /*sync=*/true);
    b.campaign->add_observer(progress.get());
    b.campaign->add_observer(&first_half);
    timed_run(*b.campaign, ref, b);
    campaign::reset_stop_flag();
    checks.expect(b.campaign->report().interrupted,
                  "durable: the first run was not interrupted");
    b.campaign.reset();
    progress.reset();
    b.lockstep_ms = first_half.lockstep_ms;
    b.advance_ms = first_half.advance_ms;

    b.campaign = construct(cfg, ref, b.resume_s);
    b.setup_s += b.resume_s;
    checks.expect(b.campaign->resumed(),
                  "durable: the second campaign did not resume");
    progress = std::make_unique<campaign::JsonlObserver>(
        dir + "/progress.jsonl", /*sync=*/true, /*append=*/true);
    b.campaign->add_observer(progress.get());
    b.campaign->add_observer(&observer);
    timed_run(*b.campaign, ref, b);
    checks.expect(!b.campaign->report().interrupted,
                  "durable: the resumed report is interrupted");
    const Error e = campaign::validate_checkpoint_file(
        dir + "/checkpoint/campaign.ckpt");
    checks.expect(!e, "durable: checkpoint invalid: " + e.message);
  } else {
    b.campaign->add_observer(&observer);
    timed_run(*b.campaign, ref, b);
  }
  const campaign::CampaignReport& report = b.campaign->report();
  b.findings_s = ref.now() - t0;
  b.first_finding_s = observer.first_finding - t0;
  b.lockstep_ms.insert(b.lockstep_ms.end(), observer.lockstep_ms.begin(),
                       observer.lockstep_ms.end());
  b.advance_ms.insert(b.advance_ms.end(), observer.advance_ms.begin(),
                      observer.advance_ms.end());
  b.tail_ms = observer.tail_ms;
  check_report(report, checks);
  for (const campaign::CellResult& r : report.cells) {
    b.sims += r.simulations;
    b.cache_hits += r.cache_hits;
  }
  b.attempted = b.sims + b.cache_hits;
  b.failed = static_cast<std::int64_t>(report.quarantined);
  b.fingerprint = fnv(b.fingerprint, campaign::to_json(report));

  if (w.kind == Kind::kTriage) triage_phase(w, dir, t0, ref, b, checks);
  b.slowdown = ref.slowdown();
  return b;
}

// --- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::optional<double> value;  ///< nullopt: the workload bypasses the layer
  std::string unit;
  std::size_t samples = 0;      ///< 0 = not a sampled statistic
};

template <typename F>
std::vector<double> per_body(const std::vector<Body>& bodies, F f) {
  std::vector<double> v;
  for (const Body& b : bodies) v.push_back(f(b));
  return v;
}

/// End-to-end metrics: medians over the bodies of each body's value, with
/// times scaled to the reference host's speed (see HostReference), then the
/// same times unscaled as "<metric>.raw".
std::vector<Metric> end_to_end(const std::vector<Body>& bodies) {
  const std::size_t n = bodies.size();
  std::vector<Metric> m;
  for (const bool raw : {false, true}) {
    const std::string suffix = raw ? ".raw" : "";
    // f(body, slowdown): throughputs multiply by the slowdown, times divide.
    const auto med = [&](auto f) {
      return median(per_body(bodies, [&](const Body& b) {
        return f(b, raw ? 1.0 : b.slowdown);
      }));
    };
    m.push_back({"sims_per_s" + suffix, med([](const Body& b, double s) {
                   return b.sims * s / b.run_s;
                 }),
                 "sims/s", n});
    m.push_back({"sims_per_cpu_s" + suffix, med([](const Body& b, double s) {
                   return b.sims * s / b.run_cpu_s;
                 }),
                 "sims/CPU-s", n});
    m.push_back({"first_finding_s" + suffix, med([](const Body& b, double s) {
                   return b.first_finding_s / s;
                 }),
                 "s", n});
    m.push_back({"findings_s" + suffix,
                 med([](const Body& b, double s) { return b.findings_s / s; }),
                 "s", n});
    m.push_back({"setup_s" + suffix,
                 med([](const Body& b, double s) { return b.setup_s / s; }),
                 "s", n});
  }
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  m.push_back({"host.slowdown", median(per_body(bodies, [](const Body& b) {
                 return b.slowdown;
               })),
               "ratio", n});
  return m;
}

/// Median over every body's samples of one phase timing.
Metric pooled_metric(const char* name, const std::vector<Body>& bodies,
                     std::vector<double> Body::*samples) {
  std::vector<double> all;
  for (const Body& b : bodies) {
    all.insert(all.end(), (b.*samples).begin(), (b.*samples).end());
  }
  return {name, median(all), "ms", all.size()};
}

/// Times `f` and records it as a span; returns milliseconds.
template <typename F>
double timed_ms(const char* span, F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  const std::int64_t t1 = now_ns();
  Spans::record(span, t0, t1, Spans::driver_parent());
  return (t1 - t0) * 1e-6;
}

std::int64_t packets(const scenario::RunResult& r) {
  std::int64_t n = r.cross_sent;
  for (const auto& f : r.flows) n += f.sent;
  return n;
}

/// Warm-vs-variant run-time ratio over `genomes` (variant / base).
double run_ratio(const campaign::CellConfig& cell,
                 const std::vector<const trace::Trace*>& genomes,
                 const scenario::ScenarioConfig& variant, const char* span) {
  const tcp::CcaFactory factory = cca::make_factory(cell.cca);
  scenario::RunContext base_ctx, variant_ctx;
  double base_ms = 0, variant_ms = 0;
  for (const trace::Trace* g : genomes) {
    base_ctx.run(cell.scenario, factory, g->stamps);  // warm both contexts
    variant_ctx.run(variant, factory, g->stamps);
    base_ms += timed_ms("probe.run", [&] {
      base_ctx.run(cell.scenario, factory, g->stamps);
    });
    variant_ms += timed_ms(span, [&] {
      variant_ctx.run(variant, factory, g->stamps);
    });
  }
  return variant_ms / base_ms;
}

/// Per-layer metrics of a traced run: spans taken during the bodies, plus
/// probes on the last body's winners and on seed-sampled genomes.
std::vector<Metric> layer_metrics(const Workload& w, std::uint64_t seed,
                                  const std::vector<Body>& bodies,
                                  const std::string& dir, Checks& checks) {
  ScopedSpan probes_span("probes");
  const Body& last = bodies.back();
  const campaign::CampaignReport& report = last.campaign->report();
  const bool durable = w.kind == Kind::kDurable;
  const bool triaged = w.kind == Kind::kTriage;
  const std::optional<double> na;
  std::vector<Metric> m;

  // campaign
  m.push_back(pooled_metric("campaign.gen_ms_p50", bodies, &Body::lockstep_ms));
  m.push_back({"campaign.cache_hit_ratio",
               static_cast<double>(last.cache_hits) /
                   static_cast<double>(last.sims + last.cache_hits),
               "ratio"});
  m.push_back({"campaign.sims", static_cast<double>(last.sims), "count"});
  std::optional<double> ckpt_mb;
  const std::string ckpt = dir + "/checkpoint/campaign.ckpt";
  if (durable) ckpt_mb = static_cast<double>(fs::file_size(ckpt)) / 1e6;
  m.push_back({"campaign.ckpt_mb", ckpt_mb, "MB"});
  m.push_back(pooled_metric("campaign.tail_ms", bodies, &Body::tail_ms));
  m.push_back({"campaign.resume_ms",
               durable ? median(per_body(bodies,
                                         [](const Body& b) {
                                           return b.resume_s * 1e3;
                                         }))
                       : na,
               "ms", durable ? bodies.size() : 0});
  std::optional<double> report_ms;
  if (w.kind != Kind::kPlain) {
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      t.push_back(timed_ms("probe.write_report", [&] {
        campaign::write_report(report, dir + "/probe/report");
      }));
    }
    report_ms = median(t);
  }
  m.push_back({"campaign.report_ms", report_ms, "ms"});

  // fuzz + scenario: warm evaluate_into and RunContext::run on the winners.
  std::vector<double> eval_ms, run_ms, cold_ms, confirm_ms, insert_us;
  double run_total_ms = 0, pkts_total = 0;
  std::vector<const trace::Trace*> all_genomes;
  for (const campaign::CellResult& r : report.cells) {
    const campaign::CellConfig cell = untraced(r.cell);
    const fuzz::TraceEvaluator ev = campaign::make_evaluator(cell);
    const tcp::CcaFactory factory = cca::make_factory(cell.cca);
    scenario::RunContext ctx;
    fuzz::Evaluation e;
    for (const campaign::Finding& f : r.winners) {
      all_genomes.push_back(&f.genome);
      ev.evaluate_into(f.genome, e);  // warm
      eval_ms.push_back(timed_ms("probe.evaluate",
                                 [&] { ev.evaluate_into(f.genome, e); }));
      ctx.run(cell.scenario, factory, f.genome.stamps);  // warm
      std::int64_t pkts = 0;
      const double ms = timed_ms("probe.run", [&] {
        pkts = packets(ctx.run(cell.scenario, factory, f.genome.stamps));
      });
      run_ms.push_back(ms);
      run_total_ms += ms;
      pkts_total += static_cast<double>(pkts);
      if (triaged) {
        cold_ms.push_back(timed_ms("probe.cold_run", [&] {
          scenario::RunContext fresh;
          fresh.run(cell.scenario, factory, f.genome.stamps);
        }));
      }
    }
    if (triaged && !r.winners.empty()) {
      confirm_ms.push_back(timed_ms("probe.confirm", [&] {
        triage::confirm(ev, r.winners.front().genome, 3);
      }));
    }
  }
  m.push_back(pooled_metric("fuzz.advance_ms", bodies, &Body::advance_ms));
  std::vector<double> score_us = Spans::durations_ms("fuzz.score");
  for (double& x : score_us) x *= 1e3;
  m.push_back({"fuzz.score_us_p50", median(score_us), "us", score_us.size()});
  m.push_back({"fuzz.evaluate_ms_p50", median(eval_ms), "ms", eval_ms.size()});
  if (durable) {
    for (int rep = 0; rep < 5; ++rep) {
      fuzz::EliteArchive archive;
      for (const campaign::CellResult& r : report.cells) {
        for (const campaign::Finding& f : r.winners) {
          insert_us.push_back(
              1e3 * timed_ms("probe.archive_insert",
                             [&] { archive.insert(f.genome, f.eval); }));
        }
      }
    }
  }
  m.push_back({"fuzz.archive_insert_us", median(insert_us), "us",
               insert_us.size()});

  // trace: genome operators of each cell's model, on its winners.
  std::vector<double> gen_us, mut_us, cross_us, hash_us;
  double events = 0;
  Rng rng(fork_seed(seed, 0x9A0BE5ULL));
  for (const campaign::CellResult& r : report.cells) {
    const auto model = campaign::make_trace_model(r.cell);
    for (int i = 0; i < 5; ++i) {
      gen_us.push_back(1e3 * timed_ms("probe.generate",
                                      [&] { (void)model->generate(rng); }));
    }
    for (std::size_t i = 0; i < r.winners.size(); ++i) {
      const trace::Trace& g = r.winners[i].genome;
      events += static_cast<double>(g.size());
      mut_us.push_back(1e3 * timed_ms("probe.mutate",
                                      [&] { (void)model->mutate(g, rng); }));
      if (model->supports_crossover() && i + 1 < r.winners.size()) {
        const trace::Trace& h = r.winners[i + 1].genome;
        cross_us.push_back(1e3 * timed_ms("probe.crossover", [&] {
                             (void)model->crossover(g, h, rng);
                           }));
      }
      std::uint64_t h = 0;
      hash_us.push_back(
          1e3 * timed_ms("probe.hash", [&] { h = trace::hash(g); }));
      checks.expect(h == r.winners[i].trace_hash,
                    r.cell.name + ": winner hash differs from its report");
    }
  }
  m.push_back({"trace.mutate_us", median(mut_us), "us", mut_us.size()});
  m.push_back({"trace.crossover_us", median(cross_us), "us", cross_us.size()});
  m.push_back({"trace.hash_us", median(hash_us), "us", hash_us.size()});
  m.push_back({"trace.generate_us", median(gen_us), "us", gen_us.size()});
  m.push_back({"trace.events_mean",
               events / static_cast<double>(all_genomes.size()), "count"});

  // scenario (sim, net, tcp, cca and analysis sit behind RunContext::run)
  m.push_back({"scenario.run_ms_p50", median(run_ms), "ms", run_ms.size()});
  m.push_back({"scenario.ns_per_pkt", run_total_ms * 1e6 / pkts_total,
               "ns/pkt"});
  m.push_back({"scenario.pkts_per_run",
               pkts_total / static_cast<double>(run_ms.size()), "count"});
  m.push_back({"scenario.cold_run_ms", median(cold_ms), "ms", cold_ms.size()});

  // sim / coverage: armed-vs-disarmed run time on the first cell's winners.
  const campaign::CellConfig first = untraced(report.cells.front().cell);
  std::vector<const trace::Trace*> first_genomes;
  for (const auto& f : report.cells.front().winners) {
    first_genomes.push_back(&f.genome);
  }
  std::optional<double> inv, cov;
  if (triaged) {
    scenario::ScenarioConfig armed = first.scenario;
    armed.invariants = true;
    inv = run_ratio(first, first_genomes, armed, "probe.run_invariants");
  }
  if (durable) {
    // The durable cells run with the probe armed: compare against disarmed.
    scenario::ScenarioConfig off = first.scenario;
    off.coverage = false;
    cov = 1.0 / run_ratio(first, first_genomes, off, "probe.run_nocoverage");
  }
  m.push_back({"sim.invariants_overhead", inv, "ratio"});
  m.push_back({"coverage.probe_overhead", cov, "ratio"});

  // util
  const double threads =
      static_cast<double>(global_thread_pool().thread_count());
  m.push_back({"pool.cpu_util",
               median(per_body(bodies,
                               [&](const Body& b) {
                                 return b.run_cpu_s / (b.run_s * threads);
                               })),
               "ratio", bodies.size()});
  std::optional<double> rotating_ms;
  if (durable) {
    std::ifstream is(ckpt, std::ios::binary);
    std::ostringstream body;
    body << is.rdbuf();
    fs::create_directories(dir + "/probe");
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      t.push_back(timed_ms("probe.write_rotating", [&] {
        if (Error e = write_file_rotating(dir + "/probe/campaign.ckpt",
                                          body.str())) {
          throw std::runtime_error("write_file_rotating: " + e.message);
        }
      }));
    }
    rotating_ms = median(t);
  }
  m.push_back({"fs.write_rotating_ms", rotating_ms, "ms"});

  // triage
  const auto per_triage = [&](auto f) -> std::optional<double> {
    if (!triaged) return std::nullopt;
    return median(per_body(bodies, f));
  };
  m.push_back({"triage.confirm_ms", median(confirm_ms), "ms",
               confirm_ms.size()});
  m.push_back({"triage.per_candidate_ms", per_triage([](const Body& b) {
                 return 1e3 * b.triage_s / std::max(1, b.tstats.candidates);
               }),
               "ms"});
  m.push_back({"triage.replay_ms_per_bundle", per_triage([](const Body& b) {
                 return 1e3 * b.replay_s / std::max(1, b.rstats.bundles);
               }),
               "ms"});
  m.push_back({"triage.bundles",
               triaged ? std::optional<double>(last.rstats.bundles) : na,
               "count"});
  m.push_back({"triage.minimized_ratio",
               triaged ? std::optional<double>(
                             static_cast<double>(last.minimized_events) /
                             static_cast<double>(last.original_events))
                       : na,
               "ratio"});
  return m;
}

// --- Output ------------------------------------------------------------------

std::string json_number(const std::optional<double>& v) {
  if (!v) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", *v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    out += (i ? "," : "") + ("\"" + m.name + "\":{\"value\":") +
           json_number(m.value) + ",\"unit\":\"" + m.unit + "\"";
    if (m.samples > 0) out += ",\"samples\":" + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (m.value) {
      std::printf("%-10s %-28s %16.6g %s", kind, m.name.c_str(), *m.value,
                  m.unit.c_str());
    } else {
      std::printf("%-10s %-28s %16s %s", kind, m.name.c_str(), "n/a",
                  m.unit.c_str());
    }
    if (m.samples > 0) std::printf("  (n=%zu)", m.samples);
    std::printf("\n");
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  bool scaling = false;
  std::string out = "benchmark/out";
};

Options parse(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    throw std::invalid_argument(
        "usage: ccbench <matrix|multiflow|durable|triage> [--seed S] "
        "[--seconds N] [--trace] [--smoke] [--scaling] [--out DIR]");
  }
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--scaling") {
      o.scaling = true;
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  return o;
}

/// Thread-scaling probe: one fixed batch of seed-sampled genomes across every
/// cell of the workload, evaluated on the global pool (sized by
/// CCFUZZ_THREADS). Prints the median of three warm batch times.
int run_scaling(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.smoke);
  const std::vector<campaign::CellConfig> cells =
      make_config(w, opt.seed, "", false).cells();
  std::vector<fuzz::TraceEvaluator> evaluators;
  evaluators.reserve(cells.size());
  std::vector<trace::Trace> genomes;
  Rng rng(fork_seed(opt.seed, 0x5CA1E));
  for (const auto& cell : cells) {
    evaluators.push_back(campaign::make_evaluator(cell));
    const auto model = campaign::make_trace_model(cell);
    for (int i = 0; i < kScalingBatch; ++i) {
      genomes.push_back(model->generate(rng));
    }
  }
  std::vector<fuzz::Evaluation> out(genomes.size());
  std::vector<fuzz::BatchItem> items(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    items[i] = {&evaluators[i / kScalingBatch], &genomes[i], &out[i]};
  }
  fuzz::evaluate_batch(items, true);  // warm every worker's contexts
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    fuzz::evaluate_batch(items, true);
    t.push_back(seconds_since(t0));
  }
  std::printf("{\"threads\":%zu,\"sims\":%zu,\"batch_s\":%s}\n",
              global_thread_pool().thread_count(), items.size(),
              json_number(median(t)).c_str());
  return 0;
}

int run_workload(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.smoke);
  if (opt.trace) Spans::enable();
  const std::string dir = opt.out + "/work/" + w.name;
  Checks checks;
  // A fixed body count per run (not "until the clock runs out") keeps every
  // run's medians over the same number of samples. Each body fuzzes its own
  // input seed derived from --seed, so a run's medians average over several
  // GA trajectories instead of repeating one.
  const int n_bodies = std::max(1, static_cast<int>(opt.seconds / w.body_s));
  std::vector<Body> bodies;
  std::uint64_t fingerprint = trace::kFnvOffset;
  for (int i = 0; i < n_bodies; ++i) {
    if (!bodies.empty()) bodies.back().campaign.reset();  // bound memory
    bodies.push_back(run_body(w, fork_seed(opt.seed, static_cast<unsigned>(i)),
                              dir, opt.trace, checks));
    const Body& b = bodies.back();
    fingerprint = trace::fnv1a_u64(fingerprint, b.fingerprint);
    std::fprintf(stderr,
                 "ccbench: %s body %d/%d: setup %.3f s, run %.3f s, %.1f "
                 "sims/s, %.1f sims/CPU-s, findings %.3f s, host slowdown "
                 "%.3f\n",
                 w.name.c_str(), i + 1, n_bodies, b.setup_s, b.run_s,
                 b.sims / b.run_s, b.sims / b.run_cpu_s, b.findings_s,
                 b.slowdown);
  }

  std::vector<Metric> metrics = end_to_end(bodies);
  std::int64_t attempted = 0, failed = 0;
  for (const Body& b : bodies) {
    attempted += b.attempted;
    failed += b.failed;
  }
  metrics.push_back(
      {"fail_ratio",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"});
  print_metrics("e2e", metrics);
  if (opt.trace) {
    std::vector<Metric> layers =
        layer_metrics(w, opt.seed, bodies, dir, checks);
    print_metrics("layer", layers);
    fs::create_directories(opt.out);
    const std::string base = opt.out + "/" + w.name;
    if (!Spans::write_chrome(base + ".trace.json")) {
      throw std::runtime_error("cannot write " + base + ".trace.json");
    }
    std::ofstream(base + ".layers.json") << metrics_json(layers) << "\n";
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, fingerprint);
  std::printf("bodies %zu  threads %zu  fingerprint %s  checks %s\n",
              bodies.size(), global_thread_pool().thread_count(), fp,
              checks.failed ? "FAILED" : "ok");
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%s,\"smoke\":%s,"
      "\"bodies\":%zu,\"threads\":%zu,\"fingerprint\":\"%s\",\"correct\":%s,"
      "\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
      w.name.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? "true" : "false", opt.smoke ? "true" : "false",
      bodies.size(), global_thread_pool().thread_count(), fp,
      checks.failed ? "false" : "true", static_cast<long long>(attempted),
      static_cast<long long>(failed), metrics_json(metrics).c_str());
  return checks.failed ? 1 : 0;
}

}  // namespace
}  // namespace ccbench

int main(int argc, char** argv) {
  try {
    const ccbench::Options opt = ccbench::parse(argc, argv);
    return opt.scaling ? ccbench::run_scaling(opt)
                       : ccbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccbench: %s\n", e.what());
    return 2;
  }
}
