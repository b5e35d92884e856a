// Fixed-size thread pool for parallel trace evaluation.
//
// Simulations are self-contained and deterministic, so the pool only needs
// fork/join semantics: parallel_for over an index range. Results are written
// by index, so output order (and thus GA behaviour) is independent of thread
// scheduling — the paper's reproducibility argument (§3.6) holds under
// parallelism. A batch may carry one lead task, which a worker runs before
// it joins the loop: the campaign driver writes a checkpoint that way while
// the other workers simulate, without a thread of its own.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ccfuzz {

/// A minimal fork/join thread pool. Construct once, submit batches.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, n), distributing across workers, and
  /// blocks until all iterations complete. Exceptions in fn terminate (the
  /// simulator treats internal errors as fatal bugs). Called from a pool
  /// worker (a nested parallel_for), the loop runs inline on that worker.
  ///
  /// A `lead` task runs once, on one worker, which then joins the loop: the
  /// campaign driver publishes a checkpoint there while the other workers
  /// simulate. The caller only waits, so the pool never runs more threads
  /// than its own. With n <= 1, no workers, or from a pool worker, lead()
  /// runs inline before the loop. An exception from `lead` is rethrown on
  /// the caller once every index has run.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    const std::function<void()>& lead = {});

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::queue<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Worker count named by a CCFUZZ_THREADS value: a plain decimal count, 0
/// or null (unset) meaning all cores. Anything else (`4x`, `abc`, `-2`, an
/// overflow) logs one warning naming the value and also means all cores.
std::size_t parse_thread_count(const char* value);

/// Global pool shared by fuzzing drivers (lazily constructed).
/// Thread count can be capped via the CCFUZZ_THREADS environment variable
/// (parse_thread_count).
ThreadPool& global_thread_pool();

/// Runs fn(i) for every i in [0, n): on the global pool when `parallel`,
/// otherwise in order on the calling thread. Callers write results by index,
/// so the output is the same either way.
template <class Fn>
void maybe_parallel_for(bool parallel, std::size_t n, Fn&& fn) {
  if (parallel && n > 1) {
    global_thread_pool().parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

/// Runs work(i) for every i in [0, n) on the global pool, and commit(i) in
/// index order, one call at a time, as soon as work(0..i) have all finished
/// — on whichever thread finished that prefix, so results stream out while
/// later indices still run. commit(i) sees everything work(i) wrote.
/// When work(k) (or commit(k)) throws, no commit at or after k runs, work
/// beyond k is skipped where it has not started, and the exception of the
/// lowest such k is rethrown on the caller once the pool drains: callers see
/// what the serial loop `work(i); commit(i);` would have done. A one-thread
/// pool, or a call from a pool worker, runs exactly that serial loop.
void ordered_parallel_for(std::size_t n,
                          const std::function<void(std::size_t)>& work,
                          const std::function<void(std::size_t)>& commit);

}  // namespace ccfuzz
