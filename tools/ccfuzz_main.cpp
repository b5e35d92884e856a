// ccfuzz — the distributed-campaign CLI.
//
//   ccfuzz run    --output DIR [--workers N] [--triage] [matrix flags]
//   ccfuzz worker --output DIR --shard k/N   [matrix flags]
//   ccfuzz plan   --output DIR --workers N   [matrix flags]
//   ccfuzz merge  --output DIR
//   ccfuzz triage --output DIR [matrix flags]
//   ccfuzz replay --output DIR [matrix flags]
//   ccfuzz doctor --output DIR
//
// `run` is the front door: with --workers N it plans the shards, fork/execs
// this same binary as N `worker` processes, multiplexes their shard-tagged
// JSONL progress into `<DIR>/progress.jsonl`, restarts dead workers from
// their checkpoints, and merges the shard trees into one report at the
// campaign root. With --workers 0 it runs the identical campaign in-process
// (the single-process reference: the merged sharded report is byte-identical
// to it at the same seeds). `worker` and `merge` are the pieces `run`
// composes, exposed for tests and manual surgery; `plan` writes
// shard_plan.json without running anything.
//
// The matrix flags define the campaign and round-trip exactly: the
// supervisor reserializes them onto every worker's argv, and every process
// expands the same matrix (cell assignment is a pure function of cell name
// and --workers, so no process needs to be told its cell list).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "dist/merge.h"
#include "dist/pidfile.h"
#include "dist/shard_plan.h"
#include "dist/supervisor.h"
#include "dist/worker.h"
#include "faultinject/fault_plan.h"
#include "fuzz/score.h"
#include "scenario/config.h"
#include "trace/hash.h"
#include "trace/trace_io.h"
#include "triage/bundle.h"
#include "triage/triage.h"
#include "util/fs.h"
#include "util/record.h"
#include "util/time.h"

using namespace ccfuzz;

namespace {

struct Options {
  std::string command;
  // Matrix flags (reserialized verbatim onto worker argv).
  std::vector<std::string> ccas = {"reno", "cubic"};
  std::vector<std::string> modes = {"traffic"};
  std::vector<std::string> presets;
  std::string score = "low-utilization";
  int generations = 6;
  int population = 24;
  int islands = 2;
  unsigned long long seed = 11;
  long long duration_ms = 2000;
  long long max_events = 50'000'000;
  int winners = 3;
  int checkpoint_every = 1;
  int throttle_ms = 0;
  // Role flags.
  std::string output;
  int workers = 2;
  std::string shard;  // "k/N"
  std::vector<std::string> skip_cells;
  double heartbeat_timeout_s = 0.0;
  dist::RestartPolicyConfig restart;  // --max-restarts, --restart-window-s
  long long min_free_mb = 16;
  // Triage flags.
  int confirm_runs = 3;
  double tolerance = 0.02;
  int minimize_evals = 200;
  bool triage_after = false;  // run: auto-triage a completed campaign
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: ccfuzz <run|worker|plan|merge|triage|replay|doctor> "
      "--output DIR [flags]\n"
      "\n"
      "commands:\n"
      "  run     run the campaign: --workers N spawns N supervised worker\n"
      "          processes and merges their reports; --workers 0 runs\n"
      "          in-process (single-process reference)\n"
      "  worker  run one shard's cells (--shard k/N); JSONL progress on\n"
      "          stdout, report tree under <DIR>/shards/<k>/\n"
      "  plan    write <DIR>/shard_plan.json for --workers N\n"
      "  merge   fold <DIR>/shards/*/ back into a report at <DIR>\n"
      "  triage  confirm, minimize, classify, and bundle every winner trace\n"
      "          and quarantined genome under <DIR> into <DIR>/findings/\n"
      "          (exit 1 if any candidate errored)\n"
      "  replay  re-run every <DIR>/findings/ bundle and compare against its\n"
      "          recorded expectation (exit 1 on drift or broken bundles)\n"
      "  doctor  health-check a campaign directory: write round-trip, disk\n"
      "          space, checkpoint integrity, stale worker pids, fault plan,\n"
      "          finding bundles (exit 0 healthy, 1 findings, 2 usage)\n"
      "\n"
      "matrix flags (identical across run/worker/plan for one campaign):\n"
      "  --ccas a,b          CCA registry names (default reno,cubic)\n"
      "  --modes m,..        traffic and/or link (default traffic)\n"
      "  --presets p,..      multi-flow presets (incast, late_starter, ...)\n"
      "  --score NAME        scoring function (default low-utilization)\n"
      "  --generations N --population N --islands N --seed N\n"
      "  --duration-ms N --max-events N --winners N\n"
      "  --checkpoint-every N (default 1)  --throttle-ms N (test hook)\n"
      "\n"
      "run flags: --workers N (default 2), --heartbeat-timeout-s X,\n"
      "           --max-restarts N (default 3, per --restart-window-s\n"
      "           sliding window, default 300), --min-free-mb N (default\n"
      "           16; 0 disables the disk preflight/drain)\n"
      "worker flags: --skip-cells a,b  (quarantined cells to drop)\n"
      "triage flags: --confirm N (default 3), --tolerance X (default 0.02),\n"
      "              --minimize-evals N (default 200; 0 skips minimization);\n"
      "              `run --triage` triages automatically after completion\n"
      "\n"
      "CCFUZZ_FAULT_PLAN (env): deterministic fault injection for chaos\n"
      "runs — see src/faultinject/fault_plan.h for the grammar.\n");
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::string join_csv(const std::vector<std::string>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += v[i];
  }
  return out;
}

std::shared_ptr<const fuzz::ScoreFunction> make_score(const std::string& n) {
  if (n == "low-utilization")
    return std::make_shared<fuzz::LowUtilizationScore>();
  if (n == "high-delay") return std::make_shared<fuzz::HighDelayScore>();
  if (n == "high-loss") return std::make_shared<fuzz::HighLossScore>();
  if (n == "low-goodput") return std::make_shared<fuzz::LowGoodputScore>();
  if (n == "low-send-rate") return std::make_shared<fuzz::LowSendRateScore>();
  if (n == "jain-unfairness")
    return std::make_shared<fuzz::JainFairnessScore>();
  if (n == "throughput-ratio")
    return std::make_shared<fuzz::ThroughputRatioScore>();
  return nullptr;
}

/// The campaign matrix an Options describes — identical in every process of
/// one distributed run (output/resume wiring is the caller's business).
campaign::CampaignConfig build_matrix(const Options& opt) {
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::millis(opt.duration_ms);
  sc.budget.max_events = opt.max_events;

  fuzz::GaConfig ga;
  ga.population = opt.population;
  ga.islands = opt.islands;
  ga.max_generations = opt.generations;
  ga.seed = opt.seed;

  std::vector<scenario::FuzzMode> modes;
  for (const std::string& m : opt.modes) {
    if (m == "traffic") {
      modes.push_back(scenario::FuzzMode::kTraffic);
    } else if (m == "link") {
      modes.push_back(scenario::FuzzMode::kLink);
    } else {
      throw std::invalid_argument("unknown mode: " + m +
                                  " (expected traffic or link)");
    }
  }

  std::shared_ptr<const fuzz::ScoreFunction> score = make_score(opt.score);
  if (!score) {
    throw std::invalid_argument(
        "unknown score: " + opt.score +
        " (known: low-utilization, high-delay, high-loss, low-goodput, "
        "low-send-rate, jain-unfairness, throughput-ratio)");
  }

  campaign::CampaignConfig cfg;
  cfg.ccas(opt.ccas)
      .modes(std::move(modes))
      .base_scenario(sc)
      .score(std::move(score))
      .ga(ga)
      .winners(static_cast<std::size_t>(opt.winners));
  for (const std::string& p : opt.presets) cfg.add_preset(p);
  return cfg;
}

/// The matrix flags, reserialized — what the supervisor appends to every
/// worker's argv so each worker expands the identical campaign.
std::vector<std::string> matrix_flags(const Options& opt) {
  std::vector<std::string> f = {
      "--ccas",          join_csv(opt.ccas),
      "--modes",         join_csv(opt.modes),
      "--score",         opt.score,
      "--generations",   std::to_string(opt.generations),
      "--population",    std::to_string(opt.population),
      "--islands",       std::to_string(opt.islands),
      "--seed",          std::to_string(opt.seed),
      "--duration-ms",   std::to_string(opt.duration_ms),
      "--max-events",    std::to_string(opt.max_events),
      "--winners",       std::to_string(opt.winners),
      "--checkpoint-every", std::to_string(opt.checkpoint_every),
      "--throttle-ms",   std::to_string(opt.throttle_ms),
  };
  if (!opt.presets.empty()) {
    f.push_back("--presets");
    f.push_back(join_csv(opt.presets));
  }
  return f;
}

/// The running binary's path, for exec'ing workers: /proc/self/exe when the
/// kernel provides it, else however we were invoked.
std::string self_binary(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  // Numeric flags parse strictly: trailing junk, overflow or a sign on an
  // unsigned value is a usage error, not a silent 0.
  const std::pair<std::string_view,
                  std::variant<int*, long long*, unsigned long long*, double*>>
      numeric[] = {{"--generations", &opt.generations},
                   {"--population", &opt.population},
                   {"--islands", &opt.islands},
                   {"--seed", &opt.seed},
                   {"--duration-ms", &opt.duration_ms},
                   {"--max-events", &opt.max_events},
                   {"--winners", &opt.winners},
                   {"--checkpoint-every", &opt.checkpoint_every},
                   {"--throttle-ms", &opt.throttle_ms},
                   {"--workers", &opt.workers},
                   {"--heartbeat-timeout-s", &opt.heartbeat_timeout_s},
                   {"--max-restarts", &opt.restart.budget},
                   {"--restart-window-s", &opt.restart.window_s},
                   {"--min-free-mb", &opt.min_free_mb},
                   {"--confirm", &opt.confirm_runs},
                   {"--tolerance", &opt.tolerance},
                   {"--minimize-evals", &opt.minimize_evals}};
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      std::exit(0);
    }
    if (flag == "--triage") {  // the one value-less flag
      opt.triage_after = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "ccfuzz: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string val = argv[++i];
    auto num = std::begin(numeric);
    while (num != std::end(numeric) && num->first != flag) ++num;
    const auto parse = [&](auto* out) {
      return record::parse_number(val, *out);
    };
    if (num != std::end(numeric)) {
      if (!std::visit(parse, num->second)) {
        std::fprintf(stderr, "ccfuzz: %s needs %s, got '%s'\n", flag.c_str(),
                     std::holds_alternative<double*>(num->second)
                         ? "a number"
                         : "an integer",
                     val.c_str());
        return false;
      }
    } else if (flag == "--ccas") {
      opt.ccas = split_csv(val);
    } else if (flag == "--modes") {
      opt.modes = split_csv(val);
    } else if (flag == "--presets") {
      opt.presets = split_csv(val);
    } else if (flag == "--score") {
      opt.score = val;
    } else if (flag == "--output") {
      opt.output = val;
    } else if (flag == "--shard") {
      opt.shard = val;
    } else if (flag == "--skip-cells") {
      opt.skip_cells = split_csv(val);
    } else {
      std::fprintf(stderr, "ccfuzz: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (opt.output.empty()) {
    std::fprintf(stderr, "ccfuzz: --output is required\n");
    return false;
  }
  if (opt.generations < 1 || opt.population < 2 || opt.islands < 1 ||
      opt.winners < 0 || opt.duration_ms < 1) {
    std::fprintf(stderr, "ccfuzz: bad matrix parameters\n");
    return false;
  }
  if (opt.confirm_runs < 1 || opt.tolerance < 0.0 || opt.minimize_evals < 0) {
    std::fprintf(stderr, "ccfuzz: bad triage parameters\n");
    return false;
  }
  return true;
}

int cmd_worker(const Options& opt) {
  const std::size_t slash = opt.shard.find('/');
  int shard = -1;
  int num_shards = -1;
  if (slash == std::string::npos ||
      !record::parse_number(opt.shard.substr(0, slash), shard) ||
      !record::parse_number(opt.shard.substr(slash + 1), num_shards) ||
      num_shards < 1 || shard < 0 || shard >= num_shards) {
    std::fprintf(stderr, "ccfuzz worker: --shard must be k/N, got '%s'\n",
                 opt.shard.c_str());
    return 2;
  }
  campaign::install_stop_signal_handlers();
  faultinject::set_role("worker");
  dist::WorkerOptions wopt;
  wopt.shard = shard;
  wopt.num_shards = num_shards;
  wopt.root = opt.output;
  wopt.checkpoint_every = opt.checkpoint_every;
  wopt.throttle_ms = opt.throttle_ms;
  wopt.skip_cells = opt.skip_cells;
  return dist::run_worker(build_matrix(opt), wopt);
}

int cmd_plan(const Options& opt) {
  const int shards = opt.workers > 0 ? opt.workers : 1;
  const dist::ShardPlan plan =
      dist::ShardPlan::build(build_matrix(opt).cells(), shards);
  std::filesystem::create_directories(opt.output);
  const std::string path = opt.output + "/shard_plan.json";
  if (Error e = plan.save_file(path)) {
    std::fprintf(stderr, "ccfuzz plan: %s\n", e.message.c_str());
    return 1;
  }
  for (int k = 0; k < plan.num_shards; ++k) {
    std::printf("shard %d: %zu cell(s)\n", k,
                plan.cell_count(static_cast<std::uint32_t>(k)));
  }
  std::printf("wrote %s (%zu cells over %d shards)\n", path.c_str(),
              plan.entries.size(), plan.num_shards);
  return 0;
}

int do_merge(const std::string& root, const dist::ShardPlan& plan) {
  Result<dist::MergeStats> stats = dist::merge_reports(root, plan, root);
  if (!stats) {
    std::fprintf(stderr, "ccfuzz merge: %s: %s\n",
                 to_string(stats.error().code),
                 stats.error().message.c_str());
    return 1;
  }
  std::printf(
      "merged %zu cell(s) from %zu shard(s) into %s (%zu archive(s), "
      "%zu elite cells, %u coverage bits)%s\n",
      stats->cells, stats->shards_read, root.c_str(), stats->archives_merged,
      stats->archive_cells, stats->coverage_bits,
      stats->interrupted ? " [INTERRUPTED — report is partial]" : "");
  if (stats->cells_quarantined > 0) {
    std::printf("%zu cell(s) quarantined — see %s/quarantine/cells/\n",
                stats->cells_quarantined, root.c_str());
  }
  return 0;
}

int cmd_merge(const Options& opt) {
  Result<dist::ShardPlan> plan =
      dist::ShardPlan::try_load_file(opt.output + "/shard_plan.json");
  if (!plan) {
    std::fprintf(stderr, "ccfuzz merge: cannot load shard plan: %s\n",
                 plan.error().message.c_str());
    return 1;
  }
  return do_merge(opt.output, *plan);
}

/// Triages a completed campaign's winners and quarantine into
/// `<output>/findings/` bundles. Shared by `ccfuzz triage` and `run --triage`.
int do_triage(const Options& opt) {
  triage::TriageConfig tcfg;
  tcfg.confirm_runs = opt.confirm_runs;
  tcfg.tolerance = opt.tolerance;
  tcfg.max_minimize_evals = opt.minimize_evals;
  tcfg.log = stdout;
  Result<triage::TriageStats> stats =
      triage::triage_report(build_matrix(opt).cells(), opt.output, tcfg);
  if (!stats) {
    std::fprintf(stderr, "ccfuzz triage: %s: %s\n",
                 to_string(stats.error().code),
                 stats.error().message.c_str());
    return 1;
  }
  std::printf(
      "triage: %d candidate(s): %d confirmed, %d flaky, %d unreproduced, "
      "%d simulator bug(s); %d bundle(s) in %s/findings\n",
      stats->candidates, stats->confirmed, stats->flaky, stats->unreproduced,
      stats->simulator_bugs, stats->bundles_written, opt.output.c_str());
  return stats->errors > 0 ? 1 : 0;
}

int cmd_replay(const Options& opt) {
  Result<triage::ReplayStats> stats = triage::replay_findings(
      build_matrix(opt).cells(), opt.output + "/findings", stdout);
  if (!stats) {
    std::fprintf(stderr, "ccfuzz replay: %s: %s\n",
                 to_string(stats.error().code),
                 stats.error().message.c_str());
    return 1;
  }
  if (stats->bundles == 0) {
    std::printf("replay: no finding bundles under %s/findings\n",
                opt.output.c_str());
    return 0;
  }
  std::printf("replay: %d bundle(s): %d ok, %d drifted, %d broken\n",
              stats->bundles, stats->ok, stats->drifted, stats->broken);
  return (stats->drifted > 0 || stats->broken > 0) ? 1 : 0;
}

/// Health-checks a campaign directory without touching campaign state:
/// the pre-takeoff (and mid-incident) checklist for operators of long
/// campaigns. Exit 0 healthy, 1 findings, 2 usage.
int cmd_doctor(const Options& opt, const char* argv0) {
  namespace stdfs = std::filesystem;
  int findings = 0;
  const auto warn = [&](const std::string& msg) {
    ++findings;
    std::printf("doctor: WARN  %s\n", msg.c_str());
  };
  const auto ok = [](const std::string& msg) {
    std::printf("doctor: ok    %s\n", msg.c_str());
  };

  if (!stdfs::exists(opt.output)) {
    warn("campaign directory " + opt.output + " does not exist");
    return 1;
  }

  // Write round-trip: can we land an atomic file where checkpoints go?
  {
    const std::string probe = opt.output + "/.doctor-probe";
    if (Error e = write_file_atomic(probe, "ok\n")) {
      warn("write round-trip failed (" + std::string(to_string(e.code)) +
           "): " + e.message);
    } else {
      ok("atomic write round-trip under " + opt.output);
      std::error_code ec;
      stdfs::remove(probe, ec);
    }
  }

  // Disk headroom.
  if (Result<std::uint64_t> free = free_bytes(opt.output)) {
    const std::uint64_t need =
        opt.min_free_mb > 0 ? static_cast<std::uint64_t>(opt.min_free_mb) << 20
                            : 0;
    if (*free < need) {
      warn("only " + std::to_string(*free >> 20) + " MiB free (need " +
           std::to_string(need >> 20) + " MiB) — campaign would drain");
    } else {
      ok(std::to_string(*free >> 20) + " MiB free");
    }
  } else {
    warn("cannot stat free space under " + opt.output);
  }

  // Fault plan: a malformed plan means a chaos run silently runs fault-free.
  if (const char* spec = std::getenv("CCFUZZ_FAULT_PLAN"); spec && *spec) {
    if (Result<faultinject::FaultPlan> plan = faultinject::FaultPlan::parse(spec)) {
      std::printf("doctor: note  fault injection armed: %s\n",
                  plan->to_string().c_str());
    } else {
      warn("CCFUZZ_FAULT_PLAN does not parse: " + plan.error().message);
    }
  } else {
    ok("fault injection disarmed");
  }

  // Checkpoints: the campaign root's and every shard's. A corrupt head with
  // an intact .prev degrades one generation; both corrupt resumes fresh.
  std::vector<std::string> roots = {opt.output};
  if (stdfs::exists(opt.output + "/shards")) {
    for (const auto& entry :
         stdfs::directory_iterator(opt.output + "/shards")) {
      if (entry.is_directory()) roots.push_back(entry.path().string());
    }
  }
  for (const std::string& root : roots) {
    const std::string head = root + "/checkpoint/campaign.ckpt";
    if (!stdfs::exists(head) && !stdfs::exists(head + ".prev")) continue;
    const Error head_err = stdfs::exists(head)
                               ? campaign::validate_checkpoint_file(head)
                               : Error::io("missing");
    if (!head_err) {
      ok("checkpoint " + head);
      continue;
    }
    const bool prev_ok = stdfs::exists(head + ".prev") &&
                         !campaign::validate_checkpoint_file(head + ".prev");
    if (prev_ok) {
      warn("checkpoint " + head + " is unusable (" + head_err.message +
           ") — resume will degrade to the .prev snapshot");
    } else {
      warn("checkpoint " + head + " is unusable (" + head_err.message +
           ") and no usable .prev exists — resume will start fresh");
    }
  }

  // Finding bundles: every manifest must parse, its traces must load, and
  // its bookkeeping must be self-consistent — a torn bundle would make
  // `ccfuzz replay` fail long after the campaign that wrote it is gone.
  if (stdfs::exists(opt.output + "/findings")) {
    std::vector<std::string> dirs;
    for (const auto& entry :
         stdfs::directory_iterator(opt.output + "/findings")) {
      if (entry.is_directory()) dirs.push_back(entry.path().string());
    }
    std::sort(dirs.begin(), dirs.end());
    // Scenario hashes can only be checked against the matrix doctor was
    // given; with default flags a foreign cell name is expected, not a bug.
    std::vector<campaign::CellConfig> cells;
    try {
      cells = build_matrix(opt).cells();
    } catch (const std::exception&) {
    }
    std::size_t sound = 0;
    for (const std::string& dir : dirs) {
      const std::string name = stdfs::path(dir).filename().string();
      Result<triage::BundleManifest> m = triage::load_manifest(dir);
      if (!m) {
        warn("finding " + name + ": manifest unusable (" +
             std::string(to_string(m.error().code)) + "): " +
             m.error().message);
        continue;
      }
      if (m->id != name) {
        warn("finding " + name + ": manifest id " + m->id +
             " does not match its directory");
        continue;
      }
      bool traces_ok = true;
      for (const char* file :
           {triage::kOriginalTraceFile, triage::kMinimizedTraceFile}) {
        try {
          const trace::Trace t = trace::load_trace(dir + "/" + file);
          const std::uint64_t want = std::strcmp(file, triage::kOriginalTraceFile)
                                         ? m->minimized_events
                                         : m->original_events;
          if (t.stamps.size() != want) {
            warn("finding " + name + ": " + file + " has " +
                 std::to_string(t.stamps.size()) + " event(s), manifest says " +
                 std::to_string(want));
            traces_ok = false;
          }
        } catch (const std::exception& e) {
          warn("finding " + name + ": " + file + " unusable: " + e.what());
          traces_ok = false;
        }
      }
      if (!traces_ok) continue;
      if (m->minimized_events > m->original_events) {
        warn("finding " + name + ": minimized trace larger than original");
        continue;
      }
      for (const campaign::CellConfig& cell : cells) {
        if (cell.name != m->cell) continue;
        if (trace::hash_hex(campaign::scenario_key(cell.scenario)) !=
            m->scenario_hash) {
          warn("finding " + name + ": scenario drifted from cell " +
               cell.name + " — replay with this matrix would refuse it");
          traces_ok = false;
        }
        break;
      }
      if (traces_ok) ++sound;
    }
    if (!dirs.empty() && sound == dirs.size()) {
      ok(std::to_string(sound) + " finding bundle(s) sound");
    }
  }

  // Stale worker pids left by a dead supervisor.
  const std::string binary = self_binary(argv0);
  for (const std::string& root : roots) {
    const std::string pid_path = root + "/worker.pid";
    if (!stdfs::exists(pid_path)) continue;
    const dist::PidCheck check = dist::check_pid_file(pid_path, binary);
    switch (check.status) {
      case dist::PidStatus::kLive:
        std::printf("doctor: note  %s: worker pid %d is live (campaign "
                    "appears to be running)\n",
                    pid_path.c_str(), check.pid);
        break;
      case dist::PidStatus::kMissing:
        warn(pid_path + ": pid " + std::to_string(check.pid) +
             " is gone — stale pid file (a rerun reclaims it)");
        break;
      case dist::PidStatus::kStale:
        warn(pid_path + ": pid " + std::to_string(check.pid) +
             " is not a ccfuzz worker — recycled pid (a rerun reclaims it)");
        break;
      case dist::PidStatus::kAbsent:
        break;
    }
  }

  if (findings == 0) {
    std::printf("doctor: healthy\n");
  } else {
    std::printf("doctor: %d finding(s)\n", findings);
  }
  return findings == 0 ? 0 : 1;
}

/// --workers 0: the single-process reference run. Same matrix, same crash
/// safety (checkpoint + resume at the campaign root), no sharding — the
/// distributed path's merged report must match this one byte for byte.
int run_in_process(const Options& opt) {
  campaign::install_stop_signal_handlers();
  campaign::CampaignConfig cfg = build_matrix(opt);
  cfg.output_dir(opt.output)
      .resume_dir(opt.output)
      .checkpoint_every(opt.checkpoint_every);
  campaign::Campaign campaign(cfg);
  std::filesystem::create_directories(opt.output);
  campaign::ConsoleObserver console;
  // A resumed run appends to the existing feed (repairing any torn final
  // line first) so the full campaign history stays in one file.
  campaign::JsonlObserver jsonl(opt.output + "/progress.jsonl",
                                /*sync=*/false, /*append=*/campaign.resumed());
  campaign.add_observer(&console);
  campaign.add_observer(&jsonl);
  const campaign::CampaignReport& report = campaign.run();
  if (report.interrupted) {
    std::printf("interrupted: state checkpointed, rerun to resume\n");
    return dist::kWorkerInterruptedExit;
  }
  std::printf("complete: %zu cell(s) reported to %s\n", report.cells.size(),
              opt.output.c_str());
  return opt.triage_after ? do_triage(opt) : 0;
}

int cmd_run(const Options& opt, const char* argv0) {
  if (opt.workers < 0) {
    std::fprintf(stderr, "ccfuzz run: --workers must be >= 0\n");
    return 2;
  }
  if (opt.workers == 0) return run_in_process(opt);

  const dist::ShardPlan plan =
      dist::ShardPlan::build(build_matrix(opt).cells(), opt.workers);
  campaign::install_stop_signal_handlers();
  faultinject::set_role("supervisor");
  dist::SupervisorOptions sopt;
  sopt.binary = self_binary(argv0);
  sopt.worker_flags = matrix_flags(opt);
  sopt.root = opt.output;
  sopt.restart = opt.restart;
  sopt.heartbeat_timeout_s = opt.heartbeat_timeout_s;
  sopt.min_free_bytes =
      opt.min_free_mb > 0
          ? static_cast<std::uint64_t>(opt.min_free_mb) << 20
          : 0;
  dist::Supervisor supervisor(sopt, plan);
  const int rc = supervisor.run();
  if (rc != 0) {
    std::fprintf(stderr, "ccfuzz run: a worker failed permanently\n");
    return 1;
  }
  if (supervisor.interrupted()) {
    std::printf("interrupted: shard state checkpointed, rerun to resume\n");
    return dist::kWorkerInterruptedExit;
  }
  const int merge_rc = do_merge(opt.output, plan);
  if (merge_rc != 0) return merge_rc;
  return opt.triage_after ? do_triage(opt) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 2;
  }
  // Chaos harness: a fault plan in the environment arms this process (and
  // is inherited by fork/exec'd workers, which re-arm themselves here). A
  // malformed plan must fail loudly — running fault-free while the operator
  // believes faults are armed would invalidate the whole chaos run.
  if (Error e = faultinject::arm_from_env()) {
    std::fprintf(stderr, "ccfuzz: CCFUZZ_FAULT_PLAN: %s\n",
                 e.message.c_str());
    return 2;
  }
  try {
    if (opt.command == "run") return cmd_run(opt, argv[0]);
    if (opt.command == "worker") return cmd_worker(opt);
    if (opt.command == "plan") return cmd_plan(opt);
    if (opt.command == "merge") return cmd_merge(opt);
    if (opt.command == "triage") return do_triage(opt);
    if (opt.command == "replay") return cmd_replay(opt);
    if (opt.command == "doctor") return cmd_doctor(opt, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccfuzz %s: %s\n", opt.command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "ccfuzz: unknown command '%s'\n", opt.command.c_str());
  usage(stderr);
  return 2;
}
