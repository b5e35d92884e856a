#include "dist/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "dist/merge.h"
#include "dist/pidfile.h"
#include "util/fs.h"
#include "util/logging.h"

namespace ccfuzz::dist {

namespace fs = std::filesystem;

namespace {

/// Deaths of one worker at the same cell before that cell is quarantined.
constexpr int kPoisonThreshold = 2;

/// `"delay_s":0.25`-style fixed-point formatting for feed events.
std::string format_s(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// The worker's current cell, if this feed line names one (every
/// `generation` event carries `"cell":"<name>"`).
void note_cell(std::string_view line, std::string& last_cell) {
  constexpr std::string_view kTag = "\"cell\":\"";
  const std::size_t at = line.find(kTag);
  if (at == std::string_view::npos) return;
  const std::size_t start = at + kTag.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string_view::npos) return;
  last_cell.assign(line.substr(start, end - start));
}

}  // namespace

struct Supervisor::Worker {
  std::uint32_t shard = 0;
  pid_t pid = -1;           ///< -1: not running
  int fd = -1;              ///< read end of the worker's stdout pipe
  std::string buffer;       ///< bytes since the last newline
  int restarts = 0;         ///< lifetime restarts (display only)
  RestartPolicy policy;
  double respawn_at = -1.0;  ///< clock time of the pending respawn; < 0 none
  double last_activity = 0.0;
  std::string last_cell;    ///< latest cell named on the worker's feed
  std::map<std::string, int> cell_deaths;
  std::vector<std::string> skip_cells;  ///< quarantined, passed on respawn
  bool done = false;
  bool failed = false;

  explicit Worker(RestartPolicyConfig cfg) : policy(cfg) {}
};

Supervisor::Supervisor(SupervisorOptions opt, ShardPlan plan)
    : opt_(std::move(opt)), plan_(std::move(plan)) {}

Supervisor::~Supervisor() = default;

std::FILE* Supervisor::log_stream() const {
  return opt_.log ? opt_.log : stderr;
}

double Supervisor::now_s() const {
  if (opt_.clock) return opt_.clock();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Supervisor::reclaim_pid_file(const Worker& w) {
  const std::string path = shard_dir(opt_.root, w.shard) + "/worker.pid";
  const PidCheck check = check_pid_file(path, opt_.binary);
  switch (check.status) {
    case PidStatus::kAbsent:
      return true;
    case PidStatus::kLive:
      std::fprintf(log_stream(),
                   "[supervisor] shard %u: worker pid %d is still alive and "
                   "running %s — is another supervisor driving this "
                   "campaign? refusing to double-run\n",
                   w.shard, check.pid, check.exe.c_str());
      return false;
    case PidStatus::kMissing:
      std::fprintf(log_stream(),
                   "[supervisor] shard %u: stale worker.pid (pid %d is "
                   "gone); reclaiming the shard\n",
                   w.shard, check.pid);
      break;
    case PidStatus::kStale:
      std::fprintf(log_stream(),
                   "[supervisor] shard %u: worker.pid names pid %d which is "
                   "not our worker (%s) — recycled pid; reclaiming the "
                   "shard\n",
                   w.shard, check.pid,
                   check.exe.empty() ? "unreadable" : check.exe.c_str());
      break;
  }
  std::error_code ec;
  fs::remove(path, ec);
  return true;
}

bool Supervisor::spawn(Worker& w, int restart) {
  const std::string dir = shard_dir(opt_.root, w.shard);
  std::error_code ec;
  fs::create_directories(dir, ec);

  int fds[2];
  if (pipe(fds) != 0) {
    CCFUZZ_LOG_ERROR("supervisor: pipe failed for shard %u", w.shard);
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    CCFUZZ_LOG_ERROR("supervisor: fork failed for shard %u", w.shard);
    return false;
  }
  if (pid == 0) {
    // Child: stdout becomes the supervisor pipe, then become the worker.
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<std::string> args = {
        opt_.binary,
        "worker",
        "--shard",
        std::to_string(w.shard) + "/" + std::to_string(plan_.num_shards),
        "--output",
        opt_.root,
    };
    args.insert(args.end(), opt_.worker_flags.begin(),
                opt_.worker_flags.end());
    if (!w.skip_cells.empty()) {
      std::string csv;
      for (const std::string& c : w.skip_cells) {
        if (!csv.empty()) csv += ',';
        csv += c;
      }
      args.push_back("--skip-cells");
      args.push_back(std::move(csv));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(opt_.binary.c_str(), argv.data());
    _exit(127);  // exec failed; 127 lands in the restart budget like a crash
  }
  close(fds[1]);
  fcntl(fds[0], F_SETFL, O_NONBLOCK);
  fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  w.pid = pid;
  w.fd = fds[0];
  w.buffer.clear();
  w.last_activity = now_s();
  // The pid file lets external tooling (kill tests, ops) target the live
  // worker; each restart rewrites it.
  write_file_atomic(dir + "/worker.pid", std::to_string(pid) + "\n");
  feed_->emit_line("{\"event\":\"worker_start\",\"shard\":" +
                   std::to_string(w.shard) + ",\"pid\":" + std::to_string(pid) +
                   ",\"restart\":" + std::to_string(restart) + "}");
  if (restart > 0) {
    feed_->emit_line("{\"event\":\"worker_restart\",\"shard\":" +
                     std::to_string(w.shard) +
                     ",\"pid\":" + std::to_string(pid) +
                     ",\"restart\":" + std::to_string(restart) + "}");
  }
  std::fprintf(log_stream(), "[supervisor] shard %u: worker pid %d%s\n",
               w.shard, static_cast<int>(pid),
               restart > 0 ? " (restarted)" : "");
  return true;
}

bool Supervisor::drain(Worker& w) {
  char buf[4096];
  while (true) {
    const ssize_t n = read(w.fd, buf, sizeof buf);
    if (n > 0) {
      w.buffer.append(buf, static_cast<std::size_t>(n));
      w.last_activity = now_s();
      std::size_t pos;
      while ((pos = w.buffer.find('\n')) != std::string::npos) {
        const std::string_view line(w.buffer.data(), pos);
        note_cell(line, w.last_cell);
        feed_->emit_line(line);
        w.buffer.erase(0, pos + 1);
      }
      continue;
    }
    if (n == 0) return false;  // EOF: worker gone
    if (errno == EINTR) continue;
    return true;  // EAGAIN: drained for now
  }
}

void Supervisor::quarantine_cell(Worker& w, const std::string& cell) {
  for (const std::string& c : w.skip_cells) {
    if (c == cell) return;
  }
  const std::string dir = opt_.root + "/quarantine/cells";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string marker =
      dir + "/" + campaign::sanitize_cell_name(cell) + ".cell";
  write_file_atomic(marker, "cell " + cell + "\nshard " +
                                std::to_string(w.shard) + "\ndeaths " +
                                std::to_string(w.cell_deaths[cell]) + "\n");
  w.skip_cells.push_back(cell);
  // The crash's cause is isolated; the survivors deserve a clean slate.
  w.policy.reset_backoff();
  feed_->emit_line("{\"event\":\"cell_quarantined\",\"shard\":" +
                   std::to_string(w.shard) + ",\"cell\":\"" +
                   campaign::json_escape(cell) + "\",\"deaths\":" +
                   std::to_string(w.cell_deaths[cell]) + "}");
  std::fprintf(log_stream(),
               "[supervisor] shard %u: cell '%s' killed its worker %d "
               "times — quarantined to %s; continuing without it\n",
               w.shard, cell.c_str(), w.cell_deaths[cell], marker.c_str());
}

void Supervisor::handle_exit(Worker& w, int wait_status) {
  close(w.fd);
  w.fd = -1;
  const pid_t pid = w.pid;
  w.pid = -1;
  // A killed worker's last line may be torn; the aggregate feed carries
  // whole lines only, so the fragment is dropped (its events replay on
  // restart from the checkpoint anyway).
  w.buffer.clear();

  int code = -1;
  int sig = 0;
  if (WIFEXITED(wait_status)) code = WEXITSTATUS(wait_status);
  if (WIFSIGNALED(wait_status)) sig = WTERMSIG(wait_status);
  feed_->emit_line("{\"event\":\"worker_exit\",\"shard\":" +
                   std::to_string(w.shard) + ",\"pid\":" + std::to_string(pid) +
                   ",\"code\":" + std::to_string(code) +
                   ",\"signal\":" + std::to_string(sig) + "}");

  if (code == 0) {
    w.done = true;
    std::error_code ec;
    fs::remove(shard_dir(opt_.root, w.shard) + "/worker.pid", ec);
    return;
  }
  if (campaign::stop_requested()) {
    // Our own stop: an interrupted exit (or signal death) is the expected
    // drain, state is checkpointed, no restart. A rerun resumes the shard.
    interrupted_ = true;
    w.done = true;
    return;
  }

  // Poison attribution: repeated deaths at the same cell point at the cell,
  // not the machine — quarantine it so the rest of the shard completes.
  if (!w.last_cell.empty()) {
    const int deaths = ++w.cell_deaths[w.last_cell];
    if (deaths >= kPoisonThreshold) quarantine_cell(w, w.last_cell);
  }

  const double now = now_s();
  const double delay = w.policy.on_death(now);
  if (delay < 0) {
    w.failed = true;
    std::fprintf(log_stream(),
                 "[supervisor] shard %u: worker died (code %d, signal %d), "
                 "restart budget exhausted (%d in %.0fs window)\n",
                 w.shard, code, sig, w.policy.in_window(now),
                 opt_.restart.window_s);
    return;
  }
  ++w.restarts;
  w.respawn_at = now + delay;
  feed_->emit_line("{\"event\":\"worker_backoff\",\"shard\":" +
                   std::to_string(w.shard) +
                   ",\"restart\":" + std::to_string(w.restarts) +
                   ",\"delay_s\":" + format_s(delay) + "}");
  std::fprintf(log_stream(),
               "[supervisor] shard %u: worker died (code %d, signal %d), "
               "restart %d in %.3fs\n",
               w.shard, code, sig, w.restarts, delay);
}

int Supervisor::run() {
  std::error_code ec;
  fs::create_directories(opt_.root, ec);

  // Disk preflight: refuse to start a campaign the filesystem cannot hold.
  if (opt_.min_free_bytes > 0) {
    if (Result<std::uint64_t> free = free_bytes(opt_.root);
        free && *free < opt_.min_free_bytes) {
      CCFUZZ_LOG_ERROR(
          "supervisor: only %llu bytes free under %s (need %llu); refusing "
          "to start — free space or lower min_free_bytes",
          static_cast<unsigned long long>(*free), opt_.root.c_str(),
          static_cast<unsigned long long>(opt_.min_free_bytes));
      return 1;
    }
  }

  if (Error e = plan_.save_file(opt_.root + "/shard_plan.json")) {
    CCFUZZ_LOG_ERROR("supervisor: cannot write shard plan: %s",
                     e.message.c_str());
    return 1;
  }

  // Resume-aware feed: appending (after repairing a torn tail) keeps the
  // full campaign history in one file across supervisor restarts.
  try {
    feed_ = std::make_unique<campaign::JsonlObserver>(
        opt_.root + "/progress.jsonl", /*sync=*/false, /*append=*/true);
  } catch (const std::runtime_error& e) {
    CCFUZZ_LOG_ERROR("supervisor: %s", e.what());
    return 1;
  }

  RestartPolicyConfig rcfg = opt_.restart;
  workers_.clear();
  for (int k = 0; k < plan_.num_shards; ++k) {
    if (plan_.cell_count(static_cast<std::uint32_t>(k)) == 0) {
      continue;  // nothing to do; merge never reads an unowned shard
    }
    rcfg.seed = static_cast<std::uint64_t>(k);  // decorrelates shard jitter
    Worker w(rcfg);
    w.shard = static_cast<std::uint32_t>(k);
    workers_.push_back(std::move(w));
  }
  std::fprintf(log_stream(),
               "[supervisor] %zu worker(s) over %d shard(s), %zu cell(s)\n",
               workers_.size(), plan_.num_shards, plan_.entries.size());

  bool any_failed = false;
  for (auto& w : workers_) {
    if (!reclaim_pid_file(w)) {
      feed_.reset();
      return 1;
    }
    if (!spawn(w, 0)) {
      w.failed = true;
      any_failed = true;
    }
  }

  bool stop_forwarded = false;
  double last_disk_check = now_s();
  while (true) {
    const double now = now_s();

    // Fire due respawns (deadlines, not sleeps: healthy workers keep
    // draining while a crashing one waits out its backoff).
    for (auto& w : workers_) {
      if (w.respawn_at >= 0 && now >= w.respawn_at) {
        w.respawn_at = -1.0;
        if (!spawn(w, w.restarts)) w.failed = true;
      }
    }

    std::vector<pollfd> fds;
    std::vector<Worker*> live;
    bool respawn_pending = false;
    for (auto& w : workers_) {
      if (w.respawn_at >= 0) respawn_pending = true;
      if (w.pid < 0) continue;
      fds.push_back({w.fd, POLLIN, 0});
      live.push_back(&w);
    }
    if (live.empty() && !respawn_pending) break;

    if (campaign::stop_requested() && !stop_forwarded) {
      stop_forwarded = true;
      interrupted_ = true;
      for (Worker* w : live) kill(w->pid, SIGTERM);
      // Cancel pending backoff respawns: their shards are checkpointed
      // where they died; the rerun resumes them.
      for (auto& w : workers_) {
        if (w.respawn_at >= 0) {
          w.respawn_at = -1.0;
          w.done = true;
        }
      }
      std::fprintf(log_stream(),
                   "[supervisor] stop requested; draining %zu worker(s)\n",
                   live.size());
      if (live.empty()) break;
    }

    // Short timeout while a respawn deadline is pending so it fires close
    // to schedule; poll with no fds is just the wait.
    const int timeout_ms = respawn_pending ? 20 : 200;
    const int n =
        poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (n < 0 && errno != EINTR) {
      CCFUZZ_LOG_ERROR("supervisor: poll failed (errno %d)", errno);
      break;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Worker& w = *live[i];
      if (w.pid < 0 || !(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
        continue;
      }
      if (!drain(w)) {
        int status = 0;
        waitpid(w.pid, &status, 0);
        handle_exit(w, status);
      }
    }

    // Low-space watch: draining while checkpoints still fit beats letting
    // every worker hit ENOSPC mid-write. Reuses the cooperative stop path.
    if (opt_.min_free_bytes > 0 && !campaign::stop_requested() &&
        now - last_disk_check >= 2.0) {
      last_disk_check = now;
      if (Result<std::uint64_t> free = free_bytes(opt_.root);
          free && *free < opt_.min_free_bytes) {
        feed_->emit_line("{\"event\":\"low_disk\",\"free_bytes\":" +
                         std::to_string(*free) + "}");
        std::fprintf(log_stream(),
                     "[supervisor] only %llu bytes free under %s — draining "
                     "gracefully (rerun after freeing space to resume)\n",
                     static_cast<unsigned long long>(*free),
                     opt_.root.c_str());
        campaign::request_stop();
      }
    }

    if (opt_.heartbeat_timeout_s > 0 && !campaign::stop_requested()) {
      for (auto& w : workers_) {
        if (w.pid < 0) continue;
        const double silence = now - w.last_activity;
        if (silence <= opt_.heartbeat_timeout_s) continue;
        feed_->emit_line("{\"event\":\"worker_stall\",\"shard\":" +
                         std::to_string(w.shard) +
                         ",\"pid\":" + std::to_string(w.pid) + "}");
        std::fprintf(log_stream(),
                     "[supervisor] shard %u: no output for %.1fs, killing "
                     "pid %d\n",
                     w.shard, silence, static_cast<int>(w.pid));
        kill(w.pid, SIGKILL);
        w.last_activity = now;  // one kill per silence window
      }
    }
  }

  feed_.reset();
  for (const auto& w : workers_) any_failed = any_failed || w.failed;
  return any_failed ? 1 : 0;
}

}  // namespace ccfuzz::dist
