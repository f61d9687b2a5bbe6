#include "src/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "src/support/logging.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace alpa {

struct ThreadPool::LoopState {
  std::atomic<int64_t> next{0};
  int64_t n = 0;
  const std::function<void(int64_t)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable finished;
  int64_t done = 0;          // Iterations finished or cancelled; guarded by mu.
  std::exception_ptr error;  // First failure; guarded by mu.

  // Claims and runs iterations until the counter is exhausted.
  void Drain() {
    while (true) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      std::exception_ptr failure;
      try {
        (*fn)(i);
      } catch (...) {
        failure = std::current_exception();
      }
      // A failure cancels the unclaimed remainder by claiming it all at
      // once; it counts as done, so the caller's wait stays exact.
      const int64_t cancelled = failure ? std::max<int64_t>(0, n - next.exchange(n)) : 0;
      std::lock_guard<std::mutex> lock(mu);
      if (failure && !error) {
        error = failure;
      }
      done += 1 + cancelled;
      if (done == n) {
        finished.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) {
  ALPA_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  // Run anything still queued (fire-and-forget Submit stragglers) so no
  // submitted task is silently dropped.
  while (!queue_.empty()) {
    auto fn = std::move(queue_.front());
    queue_.pop_front();
    fn();
  }
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
    if (Trace::enabled()) {
      static Metric* depth_metric = Metrics::Get("thread_pool/queue_depth");
      depth_metric->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  wake_.notify_one();
}

void ThreadPool::WorkerMain(int index) {
  Trace::SetThreadName(StrFormat("pool worker %d", index));
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Category "pool": pool-task spans exist only when workers run, so the
    // "compile"-category span set stays thread-count invariant.
    TraceSpan span("pool_task", "pool");
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->fn = &fn;
  // One claim-loop task per worker; each drains the shared counter, so load
  // balances automatically however long individual iterations run.
  const int64_t helpers = std::min<int64_t>(num_threads(), n);
  for (int64_t t = 0; t < helpers; ++t) {
    Submit([state] { state->Drain(); });
  }
  // The caller participates too, then waits for the iterations still
  // running elsewhere. After done == n no task will ever dereference `fn`
  // again (late helpers see an exhausted counter), so returning is safe.
  state->Drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->finished.wait(lock, [&] { return state->done == n; });
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace alpa
