#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>

#include "util/logging.h"
#include "util/record.h"

namespace ccfuzz {
namespace {

// True on every pool worker thread (of any pool). A parallel_for issued from
// inside a pool task runs inline: waiting for in_flight_ to drain would count
// the caller's own task and never return.
thread_local bool t_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 4;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const std::function<void()>& lead) {
  // Written by whichever thread runs `lead`; read after the join.
  std::exception_ptr lead_error;
  const auto run_lead = [&] {
    try {
      lead();
    } catch (...) {
      lead_error = std::current_exception();
    }
  };
  if (n <= 1 || workers_.empty() || t_pool_worker) {
    if (lead) run_lead();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    if (lead_error) std::rethrow_exception(lead_error);
    return;
  }
  // Chunked work-stealing via a shared atomic counter keeps task overhead low
  // for large populations.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t n_tasks = std::min(n, workers_.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    in_flight_ += n_tasks;
    for (std::size_t t = 0; t < n_tasks; ++t) {
      // The queue is FIFO, so the first worker to wake takes the lead.
      const bool leads = t == 0 && lead;
      tasks_.push([next, n, &fn, leads, &run_lead] {
        if (leads) run_lead();
        for (;;) {
          const std::size_t i = next->fetch_add(1);
          if (i >= n) return;
          fn(i);
        }
      });
    }
  }
  cv_task_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return in_flight_ == 0; });
  }
  if (lead_error) std::rethrow_exception(lead_error);
}

std::size_t parse_thread_count(const char* value) {
  if (value == nullptr) return 0;
  std::size_t n = 0;
  if (!record::parse_number(value, n)) {
    CCFUZZ_LOG_WARN("CCFUZZ_THREADS='%s' is not a thread count; using all "
                    "cores",
                    value);
    return 0;
  }
  return n;
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool(parse_thread_count(std::getenv("CCFUZZ_THREADS")));
  return pool;
}

void ordered_parallel_for(std::size_t n,
                          const std::function<void(std::size_t)>& work,
                          const std::function<void(std::size_t)>& commit) {
  std::mutex mu;
  std::vector<char> done(n, 0);
  std::size_t next = 0;      // lowest index not yet committed
  bool committing = false;   // a thread is inside the commit loop
  std::size_t failed = n;    // lowest index whose work or commit threw
  std::exception_ptr error;  // that index's exception
  global_thread_pool().parallel_for(n, [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (i > failed) return;  // the serial loop never gets here
    }
    try {
      work(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu);
      if (i < failed) {
        failed = i;
        error = std::current_exception();
      }
      return;
    }
    std::unique_lock<std::mutex> lk(mu);
    done[i] = 1;
    // The committer re-checks done[next] under the lock before it leaves,
    // so a prefix completed while it was busy is never stranded.
    if (committing) return;
    committing = true;
    while (next < failed && done[next]) {
      const std::size_t k = next;
      lk.unlock();
      try {
        commit(k);
      } catch (...) {
        lk.lock();
        failed = k;
        error = std::current_exception();
        break;
      }
      lk.lock();
      ++next;
    }
    committing = false;
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace ccfuzz
