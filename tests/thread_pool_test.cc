#include "src/support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace alpa {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIteration) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(1000, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ParallelForWritesDisjointSlots) {
  ThreadPool pool(4);
  std::vector<int64_t> out(500, -1);
  pool.ParallelFor(static_cast<int64_t>(out.size()),
                   [&](int64_t i) { out[static_cast<size_t>(i)] = i * i; });
  for (int64_t i = 0; i < static_cast<int64_t>(out.size()); ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(ThreadPool, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }  // The destructor drains the queues before joining.
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](int64_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> count{0};
  pool.ParallelFor(50, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // 8 outer x 8 inner iterations on 4 threads: an inner loop's caller must
  // claim its own loop's iterations before it blocks, so that it waits only
  // for iterations running on other threads, or the pool deadlocks with
  // every worker waiting on queued work.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(8, [&](int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, FreeFunctionFallsBackToSerial) {
  std::atomic<int> count{0};
  ParallelFor(nullptr, 64, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
  ThreadPool one(1);
  ParallelFor(&one, 64, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

}  // namespace
}  // namespace alpa
