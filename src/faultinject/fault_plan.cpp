#include "faultinject/fault_plan.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "util/logging.h"
#include "util/record.h"

namespace ccfuzz::faultinject {
namespace {

constexpr std::array<const char*, static_cast<std::size_t>(FaultSite::kCount)>
    kSiteNames = {"short_write", "rename",          "fsync", "enospc",
                  "low_disk",    "crash_checkpoint", "hang",  "cell_crash"};

bool site_from_string(std::string_view name, FaultSite& out) {
  for (std::size_t i = 0; i < kSiteNames.size(); ++i) {
    if (name == kSiteNames[i]) {
      out = static_cast<FaultSite>(i);
      return true;
    }
  }
  return false;
}

/// Filesystem-safe latch file name identifying one rule.
std::string latch_key(const FaultRule& r) {
  std::string key = r.role.empty() ? "any" : r.role;
  key += '_';
  key += to_string(r.site);
  if (!r.arg.empty()) {
    key += '_';
    for (char c : r.arg) {
      key += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
              c == '-' || c == '_')
                 ? c
                 : '_';
    }
  }
  key += '_';
  key += std::to_string(r.trigger);
  return key;
}

/// The injection engine. Everything here is the slow path — it only runs
/// while a plan is armed, so a mutex is fine (and keeps multi-threaded
/// write_file_atomic callers correct).
struct Injector {
  FaultPlan plan;
  std::string role;
  std::array<int, static_cast<std::size_t>(FaultSite::kCount)> hits{};
  std::vector<int> fired;  ///< per-rule fires this process (latch adds prior)
  std::vector<int> prior;  ///< fires recorded in the latch before we started
  std::mutex mu;
};

Injector* g_injector = nullptr;
std::mutex g_arm_mu;  ///< serializes arm()/disarm() themselves
std::string g_role;   ///< survives re-arming (guarded by g_arm_mu)

/// Reads a latch file's fire count; 0 when missing/garbage.
int read_latch(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return 0;
  int n = 0;
  if (std::fscanf(f, "%d", &n) != 1) n = 0;
  std::fclose(f);
  return n < 0 ? 0 : n;
}

/// Persists a rule's total fire count. Plain POSIX I/O on purpose:
/// write_file_atomic would recurse into the hooks being tested. fsync'd so
/// the count survives the _exit that typically follows.
void write_latch(const std::string& path, int fires) {
  const std::string body = std::to_string(fires) + "\n";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  ssize_t ignored = ::write(fd, body.data(), body.size());
  (void)ignored;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

const char* to_string(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  return i < kSiteNames.size() ? kSiteNames[i] : "?";
}

Result<FaultPlan> FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t semi = spec.find(';', start);
    const std::string elem = spec.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start);
    start = semi == std::string::npos ? spec.size() + 1 : semi + 1;
    if (elem.empty()) continue;

    if (elem.rfind("latch=", 0) == 0) {
      plan.latch_dir = elem.substr(6);
      if (plan.latch_dir.empty()) {
        return Error::parse("fault plan: empty latch directory in '" + elem +
                            "'");
      }
      continue;
    }

    FaultRule rule;
    std::string body = elem;
    // Optional role prefix. Cell names may contain '.', '-' but never ':',
    // so the first ':' unambiguously ends a role.
    if (const std::size_t colon = body.find(':');
        colon != std::string::npos) {
      rule.role = body.substr(0, colon);
      body = body.substr(colon + 1);
    }
    const std::size_t at = body.find('@');
    if (at == std::string::npos) {
      return Error::parse("fault plan: missing '@trigger' in '" + elem + "'");
    }
    std::string site_token = body.substr(0, at);
    if (const std::size_t eq = site_token.find('=');
        eq != std::string::npos) {
      rule.arg = site_token.substr(eq + 1);
      site_token = site_token.substr(0, eq);
    }
    if (!site_from_string(site_token, rule.site)) {
      return Error::parse("fault plan: unknown site '" + site_token +
                          "' in '" + elem + "'");
    }
    if (rule.site == FaultSite::kCellCrash && rule.arg.empty()) {
      return Error::parse("fault plan: cell_crash needs '=<cell name>' in '" +
                          elem + "'");
    }
    const std::string_view trig = std::string_view(body).substr(at + 1);
    const std::size_t star = trig.find('*');
    if (!record::parse_number(trig.substr(0, star), rule.trigger) ||
        (star != std::string_view::npos &&
         !record::parse_number(trig.substr(star + 1), rule.count)) ||
        rule.trigger < 1 || rule.count < 1) {
      return Error::parse("fault plan: trigger/count must be integers >= 1 "
                          "in '" + elem + "'");
    }
    plan.rules.push_back(std::move(rule));
  }
  if (plan.rules.empty() && plan.latch_dir.empty()) {
    return Error::parse("fault plan: no rules in '" + spec + "'");
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  if (!latch_dir.empty()) out = "latch=" + latch_dir;
  for (const FaultRule& r : rules) {
    if (!out.empty()) out += ';';
    if (!r.role.empty()) {
      out += r.role;
      out += ':';
    }
    out += faultinject::to_string(r.site);
    if (!r.arg.empty()) {
      out += '=';
      out += r.arg;
    }
    out += '@';
    out += std::to_string(r.trigger);
    if (r.count != 1) {
      out += '*';
      out += std::to_string(r.count);
    }
  }
  return out;
}

namespace detail {

const FaultPlan* g_active = nullptr;

bool should_fire_slow(FaultSite site, std::string_view arg) {
  Injector* inj = g_injector;
  if (!inj) return false;
  std::lock_guard<std::mutex> lock(inj->mu);
  // kCellCrash hits are counted per matching cell, not globally: "the 2nd
  // generation of cell X" must not depend on how many other cells ran.
  int hit = 0;
  if (site != FaultSite::kCellCrash) {
    hit = ++inj->hits[static_cast<std::size_t>(site)];
  }
  bool fire = false;
  for (std::size_t i = 0; i < inj->plan.rules.size(); ++i) {
    const FaultRule& r = inj->plan.rules[i];
    if (r.site != site) continue;
    if (!r.role.empty() && r.role != inj->role) continue;
    if (site == FaultSite::kCellCrash) {
      if (r.arg != arg) continue;
      hit = ++inj->fired[i];  // reuse as this rule's private hit counter
      const int effective = hit + inj->prior[i];
      if (effective >= r.trigger && effective < r.trigger + r.count) {
        if (!inj->plan.latch_dir.empty()) {
          write_latch(inj->plan.latch_dir + "/" + latch_key(r), effective);
        }
        fire = true;
      }
      continue;
    }
    const int effective = hit + inj->prior[i];
    if (effective >= r.trigger && effective < r.trigger + r.count) {
      ++inj->fired[i];
      if (!inj->plan.latch_dir.empty()) {
        // Latch the effective hit index *before* the fault takes effect: a
        // crash that follows resumes the hit line where it died instead of
        // re-firing from scratch in the restarted process.
        write_latch(inj->plan.latch_dir + "/" + latch_key(r), effective);
      }
      fire = true;
    }
  }
  return fire;
}

}  // namespace detail

void arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  detail::g_active = nullptr;
  delete g_injector;
  g_injector = nullptr;
  auto* inj = new Injector;
  inj->plan = std::move(plan);
  inj->role = g_role;
  inj->fired.assign(inj->plan.rules.size(), 0);
  inj->prior.assign(inj->plan.rules.size(), 0);
  if (!inj->plan.latch_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(inj->plan.latch_dir, ec);
    for (std::size_t i = 0; i < inj->plan.rules.size(); ++i) {
      // A latch records *fires*; map them back onto the hit line by treating
      // them as prior hits at the rule's own trigger window. For the common
      // fire-once rules this simply disarms an already-fired rule.
      inj->prior[i] = read_latch(inj->plan.latch_dir + "/" +
                                 latch_key(inj->plan.rules[i]));
    }
  }
  g_injector = inj;
  detail::g_active = &g_injector->plan;
}

void disarm() {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  detail::g_active = nullptr;
  delete g_injector;
  g_injector = nullptr;
}

const FaultPlan* active() { return detail::g_active; }

void set_role(std::string role) {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  g_role = role;
  if (g_injector) {
    std::lock_guard<std::mutex> inner(g_injector->mu);
    g_injector->role = std::move(role);
  }
}

Error arm_from_env() {
  const char* spec = std::getenv("CCFUZZ_FAULT_PLAN");
  if (!spec || !*spec) return Error::success();
  Result<FaultPlan> plan = FaultPlan::parse(spec);
  if (!plan) return plan.error();
  arm(std::move(*plan));
  CCFUZZ_LOG_WARN("fault injection armed: %s",
                  detail::g_active->to_string().c_str());
  return Error::success();
}

void crash_now(FaultSite site) {
  CCFUZZ_LOG_WARN("fault injection: crashing at %s", to_string(site));
  ::_exit(kFaultCrashExit);
}

void hang_now() {
  CCFUZZ_LOG_WARN("fault injection: hanging (waiting for the watchdog)");
  // Long enough that any heartbeat watchdog fires first; sliced so a
  // debugger attaching sees forward progress.
  for (int i = 0; i < 6000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

}  // namespace ccfuzz::faultinject
