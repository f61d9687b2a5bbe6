// Trace layer: span nesting and thread-lane assignment under the worker
// pool, the zero-allocation guarantee of the disabled path, the Chrome
// trace exporter (golden output), metrics, span-structure determinism
// across compile thread counts, and the ILP build/solve span nesting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/inter/inter_pass.h"
#include "src/intra/ilp_cache.h"
#include "src/models/gpt.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

// Counts every heap allocation in the process so the disabled-path test can
// assert a delta of exactly zero. Only the plain new/delete pairs are
// replaced; the aligned overloads keep their defaults, which is consistent
// because replacement is per-signature. GCC's builtin allocator matching
// cannot see that the replaced pair is malloc/free on both sides.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace alpa {
namespace {

// Each test leaves the recorder disabled and empty for the next one.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::Disable();
    Trace::Clear();
  }
  void TearDown() override {
    Trace::Disable();
    Trace::Clear();
  }
};

TEST_F(TraceTest, DisabledSpansAllocateNothingAndRecordNothing) {
  ASSERT_FALSE(Trace::enabled());
  const int64_t events_before = Trace::event_count();
  const int64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("disabled_span");
    TraceSpan categorized("disabled_span", "pool");
  }
  const int64_t allocations_after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(allocations_after - allocations_before, 0);
  EXPECT_EQ(Trace::event_count(), events_before);
}

TEST_F(TraceTest, NestedSpansShareALaneAndStayContained) {
  if (!Trace::kCompiledIn) {
    GTEST_SKIP() << "built with ALPA_TRACE=OFF";
  }
  Trace::Enable();
  Trace::SetThreadName("main");
  {
    TraceSpan outer("outer");
    outer.set_args("\"depth\":0");
    {
      TraceSpan inner("inner");
    }
  }
  const std::vector<TraceEvent> events = Trace::Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->lane, "main");
  EXPECT_EQ(inner->lane, "main");
  EXPECT_EQ(outer->lane_id, inner->lane_id);
  EXPECT_EQ(outer->category, "compile");
  EXPECT_EQ(outer->args, "\"depth\":0");
  EXPECT_FALSE(outer->virtual_time);
  // Rebasing puts the earliest span at 0; the inner interval nests inside.
  EXPECT_EQ(outer->start, 0.0);
  EXPECT_GE(inner->start, outer->start);
  EXPECT_LE(inner->end, outer->end);
}

TEST_F(TraceTest, PoolTasksLandOnWorkerLanesInsidePoolTaskSpans) {
  if (!Trace::kCompiledIn) {
    GTEST_SKIP() << "built with ALPA_TRACE=OFF";
  }
  Trace::Enable();
  {
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 4; ++i) {
      pool.Submit([&done] {
        { TraceSpan span("unit_work"); }
        done.fetch_add(1);
      });
    }
    // The destructor runs tasks still queued on this thread, outside any
    // worker lane, so wait until the workers have taken all four.
    while (done.load() < 4) {
      std::this_thread::yield();
    }
  }  // Destructor joins: all spans are recorded.
  const std::vector<TraceEvent> events = Trace::Snapshot();
  int unit_work_count = 0;
  for (const TraceEvent& work : events) {
    if (work.name != "unit_work") {
      continue;
    }
    ++unit_work_count;
    EXPECT_EQ(work.lane.rfind("pool worker", 0), 0u) << "on lane " << work.lane;
    // Every unit of work is wrapped by the pool's own task span on the
    // same lane.
    bool contained = false;
    for (const TraceEvent& task : events) {
      contained |= task.name == "pool_task" && task.category == "pool" &&
                   task.lane_id == work.lane_id && task.start <= work.start &&
                   task.end >= work.end;
    }
    EXPECT_TRUE(contained) << "unit_work not inside a pool_task span";
  }
  EXPECT_EQ(unit_work_count, 4);
}

TEST_F(TraceTest, ChromeTraceJsonGolden) {
  if (!Trace::kCompiledIn) {
    GTEST_SKIP() << "built with ALPA_TRACE=OFF";
  }
  Trace::Enable();
  Trace::EmitVirtual("mesh 00", "forward mb0", "sim", 0.0, 0.5, "\"microbatch\":0");
  Trace::EmitVirtual("mesh 00", "send", "transfer", 0.5, 0.625);
  const std::string json = Trace::ChromeTraceJson();
  // The metrics header varies with whatever other tests have touched the
  // registry; the event list is compared exactly. With no wall spans the
  // virtual lane takes dense id 0, and 1 simulated second maps to 1e6 us.
  const size_t events_at = json.find("\"traceEvents\"");
  ASSERT_NE(events_at, std::string::npos);
  const std::string expected =
      "\"traceEvents\": [\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"compile (wall clock)\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
      "\"args\":{\"name\":\"pipeline simulation (virtual time)\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"mesh 00\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"thread_sort_index\","
      "\"args\":{\"sort_index\":0}},\n"
      "{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"name\":\"forward mb0\",\"cat\":\"sim\","
      "\"ts\":0.000,\"dur\":500000.000,\"args\":{\"microbatch\":0}},\n"
      "{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"name\":\"send\",\"cat\":\"transfer\","
      "\"ts\":500000.000,\"dur\":125000.000,\"args\":{}}\n"
      "]\n"
      "}\n";
  EXPECT_EQ(json.substr(events_at), expected);
}

TEST_F(TraceTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST_F(TraceTest, VirtualWindowsLayOutSequentially) {
  const double first = Trace::ReserveVirtualWindow(2.5);
  const double second = Trace::ReserveVirtualWindow(1.0);
  EXPECT_EQ(second, first + 2.5);
  Trace::Clear();  // Resets the cursor...
  EXPECT_EQ(Trace::ReserveVirtualWindow(1.0), 0.0);  // ...back to zero.
}

TEST_F(TraceTest, MetricsAccumulateAndExport) {
  Metric* counter = Metrics::Get("test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter, Metrics::Get("test.counter"));  // Interned: stable pointer.
  counter->Reset();
  counter->Add(3);
  counter->Add(4);
  EXPECT_EQ(Metrics::Value("test.counter"), 7);
  EXPECT_EQ(counter->max_value(), 7);
  counter->Set(2);
  EXPECT_EQ(counter->value(), 2);
  EXPECT_EQ(counter->max_value(), 7);  // High-water mark survives Set().
  EXPECT_EQ(Metrics::Value("test.never_touched"), 0);
  EXPECT_NE(Metrics::SummaryJsonBody().find("\"test.counter\":2"), std::string::npos);
  EXPECT_NE(Metrics::SummaryText().find("test.counter"), std::string::npos);
  counter->Reset();
}

TEST_F(TraceTest, CompileSpanStructureDeterministicAcrossThreadCounts) {
  if (!Trace::kCompiledIn) {
    GTEST_SKIP() << "built with ALPA_TRACE=OFF";
  }
  GptConfig config;
  config.hidden = 128;
  config.num_layers = 2;
  config.num_heads = 4;
  config.microbatch = 2;
  config.seq_len = 64;
  config.vocab = 512;
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  InterOpOptions options;
  options.num_microbatches = 4;
  options.target_layers = 2;
  options.profiler.intra.solver.max_search_nodes = 5'000;

  // Multiset of compile-category span kinds. The pool-category "pool_task"
  // spans scale with the thread count by design.
  const auto compile_spans = [] {
    std::map<std::string, int> set;
    for (const TraceEvent& e : Trace::Snapshot()) {
      if (!e.virtual_time && e.category == "compile") {
        ++set[e.name + "(" + e.args + ")"];
      }
    }
    return set;
  };
  const auto compile_with = [&](int threads) {
    IlpMemoCache::Global().Clear();
    Trace::Clear();
    Graph graph = BuildGpt(config);
    InterOpOptions run = options;
    run.compile_threads = threads;
    return RunInterOpPass(graph, cluster, run);
  };

  Trace::Enable();
  const CompiledPipeline serial = compile_with(1);
  const std::map<std::string, int> serial_spans = compile_spans();
  const CompiledPipeline parallel = compile_with(4);
  const std::map<std::string, int> parallel_spans = compile_spans();

  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(parallel.feasible);
  EXPECT_FALSE(serial_spans.empty());
  EXPECT_EQ(serial_spans, parallel_spans);
}

TEST_F(TraceTest, IlpBuildSpansEncloseTheirModeSolves) {
  if (!Trace::kCompiledIn) {
    GTEST_SKIP() << "built with ALPA_TRACE=OFF";
  }
  GptConfig config;
  config.hidden = 128;
  config.num_layers = 2;
  config.num_heads = 4;
  config.microbatch = 2;
  config.seq_len = 64;
  config.vocab = 512;
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  InterOpOptions options;
  options.num_microbatches = 4;
  options.target_layers = 2;
  options.profiler.intra.solver.max_search_nodes = 5'000;
  // The value of `key` in a span's JSON args body (a number or a string).
  const auto arg = [](const TraceEvent& e, const std::string& key) {
    const std::string marker = "\"" + key + "\":";
    const size_t at = e.args.find(marker);
    if (at == std::string::npos) {
      return std::string();
    }
    const size_t begin = at + marker.size();
    if (e.args[begin] == '"') {
      return e.args.substr(begin + 1, e.args.find('"', begin + 1) - begin - 1);
    }
    return e.args.substr(begin, e.args.find(',', begin) - begin);
  };
  const auto compile = [&](int threads) {
    Trace::Clear();
    Graph graph = BuildGpt(config);
    InterOpOptions run = options;
    run.compile_threads = threads;
    EXPECT_TRUE(RunInterOpPass(graph, cluster, run).feasible);
    std::vector<TraceEvent> builds;
    std::vector<TraceEvent> solves;
    for (const TraceEvent& e : Trace::Snapshot()) {
      if (e.name == "ilp_build") {
        builds.push_back(e);
      } else if (e.name == "ilp_solve") {
        solves.push_back(e);
      }
    }
    return std::make_pair(builds, solves);
  };

  Trace::Enable();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    IlpMemoCache::Global().Clear();
    const auto [builds, solves] = compile(threads);
    // Cold: one build per (layer, mesh), enclosing the solves of its three
    // memory modes on the same lane.
    ASSERT_FALSE(builds.empty());
    EXPECT_EQ(solves.size(), 3 * builds.size());
    for (const TraceEvent& solve : solves) {
      EXPECT_EQ(arg(solve, "cache_hit"), "false");
      int enclosing = 0;
      for (const TraceEvent& build : builds) {
        if (build.lane_id == solve.lane_id && build.start <= solve.start &&
            solve.end <= build.end && arg(build, "layer") == arg(solve, "layer") &&
            arg(solve, "variant").rfind(arg(build, "mesh") + " ", 0) == 0) {
          ++enclosing;
        }
      }
      EXPECT_EQ(enclosing, 1) << solve.args;
    }
    // Warm: every mode hits the memo, so nothing is built.
    const auto [warm_builds, warm_solves] = compile(threads);
    EXPECT_TRUE(warm_builds.empty());
    EXPECT_EQ(warm_solves.size(), solves.size());
    for (const TraceEvent& solve : warm_solves) {
      EXPECT_EQ(arg(solve, "cache_hit"), "true");
    }
  }
}

}  // namespace
}  // namespace alpa
