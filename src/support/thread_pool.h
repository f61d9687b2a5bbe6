// Thread pool for the parallel compilation pipeline.
//
// The stage profiler's (layer x mesh) grid consists of many independent,
// millisecond-scale units of work (one intra-op ILP build and its solves
// each). This pool runs them across a fixed set of worker threads that
// take tasks from one shared FIFO queue. A ParallelFor caller claims
// iterations itself until the loop's counter runs out, then blocks until
// the iterations other threads are still running finish. Nested
// submission from inside a task cannot deadlock: a waiting caller has
// already claimed every iteration of its loop, so it waits only for work
// running on other threads, never for queued work to be picked up.
#ifndef SRC_SUPPORT_THREAD_POOL_H_
#define SRC_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alpa {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (>= 1). Compilation passes keep the pool
  // nullable and fall back to serial loops; see ParallelFor below.
  explicit ThreadPool(int num_threads);
  // Joins the workers, then runs any task still queued on the calling
  // thread, so no submitted task is dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` for execution. Safe to call from worker threads.
  // Fire-and-forget: use ParallelFor when completion must be awaited.
  void Submit(std::function<void()> fn);

  // Runs fn(i) for every i in [0, n). Iterations are claimed from a shared
  // atomic counter, so the i -> thread assignment is nondeterministic, but
  // every iteration runs exactly once; callers must make iterations
  // independent (write to disjoint slots) and merge results by index
  // afterwards for deterministic output. The calling thread participates.
  // The first exception thrown by an iteration cancels the remaining
  // unclaimed iterations and is rethrown here after in-flight ones finish.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  // std::thread::hardware_concurrency with a floor of 1.
  static int DefaultThreads();

 private:
  struct LoopState;

  void WorkerMain(int index);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;                 // Guards queue_ and stop_.
  std::condition_variable wake_;  // Signaled on push and on stop.
  bool stop_ = false;
};

// Serial-fallback helper: runs the loop on `pool` when one with more than
// one worker is available, inline otherwise. Keeps call sites free of
// threading conditionals.
void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn);

}  // namespace alpa

#endif  // SRC_SUPPORT_THREAD_POOL_H_
