// In-memory span recorder for the campaign benchmark's traced runs.
//
// Spans are taken only from the benchmark's own code, around calls into the
// library (observers, a delegating ScoreFunction, the triage log stream,
// probes) — nothing under src/ is instrumented. Each thread appends to its
// own buffer, so pool workers never contend on a lock after their first span;
// buffers live until exit and are read only once the pool is idle, after the
// work that filled them has been joined by parallel_for.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ccbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< string literal
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
};

class Spans {
 public:
  /// Set once, before the thread pool exists; never changed afterwards.
  static void enable() { enabled_ = true; }
  static bool enabled() { return enabled_; }

  /// Records a finished span on the calling thread. No-op when disabled.
  static std::uint64_t record(const char* name, std::int64_t start_ns,
                              std::int64_t end_ns, std::uint64_t parent) {
    if (!enabled_) return 0;
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    local().spans.push_back({name, start_ns, end_ns, id, parent});
    return id;
  }

  /// Span that pool-thread spans (scores) attach to: the innermost open
  /// ScopedSpan of the driver thread.
  static std::uint64_t driver_parent() {
    return driver_parent_.load(std::memory_order_relaxed);
  }

  /// Durations in milliseconds of every span named `name`, all threads.
  static std::vector<double> durations_ms(std::string_view name) {
    std::vector<double> out;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& buf : buffers_) {
      for (const Span& s : buf->spans) {
        if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-6);
      }
    }
    return out;
  }

  /// Writes every span in Chrome trace-event format (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  static bool write_chrome(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t t0 = INT64_MAX;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& buf : buffers_) {
      for (const Span& s : buf->spans) t0 = std::min(t0, s.start_ns);
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    bool first = true;
    for (const auto& buf : buffers_) {
      for (const Span& s : buf->spans) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu}}",
                     first ? "" : ",\n", s.name, buf->tid,
                     (s.start_ns - t0) * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        first = false;
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  friend class ScopedSpan;

  struct Buffer {
    unsigned tid = 0;
    std::vector<Span> spans;
  };

  static Buffer& local() {
    thread_local Buffer* mine = [] {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->tid = static_cast<unsigned>(buffers_.size());
      return buffers_.back().get();
    }();
    return *mine;
  }

  static inline bool enabled_ = false;
  static inline std::atomic<std::uint64_t> next_id_{1};
  static inline std::atomic<std::uint64_t> driver_parent_{0};
  static inline std::mutex mu_;  ///< guards buffers_ (the list, not contents)
  static inline std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// A span around a scope of the driver thread; nested scopes become its
/// children, and so do pool-thread spans recorded while it is open.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name) {
    if (!Spans::enabled_) return;
    id_ = Spans::next_id_.fetch_add(1, std::memory_order_relaxed);
    parent_ = Spans::driver_parent_.exchange(id_, std::memory_order_relaxed);
    start_ = now_ns();
  }
  ~ScopedSpan() {
    if (!Spans::enabled_) return;
    Spans::local().spans.push_back({name_, start_, now_ns(), id_, parent_});
    Spans::driver_parent_.store(parent_, std::memory_order_relaxed);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
};

}  // namespace ccbench
