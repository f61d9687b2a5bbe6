// Shared helpers for the paper-reproduction benchmark binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/core/api.h"
#include "src/serve/client.h"
#include "src/serve/service.h"
#include "src/support/strings.h"

namespace alpa {
namespace bench {

// The paper's testbed topology: p3.16xlarge nodes of 8 V100s.
inline ClusterSpec ClusterFor(int num_gpus) {
  if (num_gpus <= 8) {
    return ClusterSpec::AwsP3(1, num_gpus);
  }
  return ClusterSpec::AwsP3(num_gpus / 8, 8);
}

// Formats a result cell: aggregate PFLOPS, or the paper's "x" for OOM /
// infeasible configurations.
inline std::string Cell(const StatusOr<ExecutionStats>& stats) {
  if (!stats.ok()) {
    return "x";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", stats->pflops);
  return buffer;
}

// Command-line flags shared by every benchmark binary.
struct BenchFlags {
  // Compilation worker threads (1 = serial, 0 = hardware concurrency);
  // plans are bit-identical for any value.
  int threads = 1;
  // Non-empty: write the unified compile+execute Chrome trace here.
  std::string trace_path;
  // Non-empty: write machine-readable results (JSON) here for CI trend
  // tracking, alongside the human-readable table on stdout.
  std::string json_path;
  // Non-empty: route the Alpa compile lanes through an alpa_serve daemon
  // listening on this unix socket instead of compiling in-process.
  // Baseline lanes (Megatron grids, plan-space filters) always run
  // in-process — their filter closures cannot cross the wire.
  std::string server;
};

// The value of `--threads`: a non-negative decimal integer and nothing
// else. Anything else ("four", "4x", "-1", "") prints a usage message and
// exits with status 2 rather than silently meaning 0, which is "hardware
// concurrency".
inline int ParseThreadsOrExit(const char* program, const char* value) {
  const std::optional<int64_t> threads =
      ParseNonNegativeInt(value, std::numeric_limits<int>::max());
  if (!threads.has_value()) {
    std::fprintf(stderr,
                 "%s: invalid --threads value '%s' (want a non-negative integer)\n"
                 "usage: %s [--threads N] [--trace PATH] [--json PATH] [--server SOCKET]\n",
                 program, value, program);
    std::exit(2);
  }
  return static_cast<int>(*threads);
}

// Parses `--threads N` / `--threads=N`, `--trace PATH` / `--trace=PATH`,
// `--json PATH` / `--json=PATH`, and `--server SOCKET` / `--server=SOCKET`.
inline BenchFlags ParseBenchFlags(int argc, char** argv, int default_threads = 1) {
  BenchFlags flags;
  flags.threads = default_threads;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      flags.threads = ParseThreadsOrExit(argv[0], argv[i + 1]);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      flags.threads = ParseThreadsOrExit(argv[0], argv[i] + 10);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      flags.trace_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      flags.trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      flags.json_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      flags.json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
      flags.server = argv[i + 1];
    } else if (std::strncmp(argv[i], "--server=", 9) == 0) {
      flags.server = argv[i] + 9;
    }
  }
  return flags;
}

// Accumulates one JSON object per benchmark configuration and writes
//   {"benchmark": "<name>", "results": [{...}, ...]}
// Values are rendered as they are added; non-finite doubles become null
// (JSON has no Infinity/NaN).
class JsonReport {
 public:
  explicit JsonReport(std::string benchmark) : benchmark_(std::move(benchmark)) {}

  class Row {
   public:
    Row& Num(const char* key, double value) {
      if (!std::isfinite(value)) {
        return Raw(key, "null");
      }
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
      return Raw(key, buffer);
    }
    Row& Int(const char* key, long long value) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%lld", value);
      return Raw(key, buffer);
    }
    Row& Bool(const char* key, bool value) { return Raw(key, value ? "true" : "false"); }
    Row& Str(const char* key, const std::string& value) {
      std::string quoted = "\"";
      for (char c : value) {
        if (c == '"' || c == '\\') {
          quoted += '\\';
        }
        quoted += c;
      }
      quoted += '"';
      return Raw(key, quoted.c_str());
    }
    // The standard result columns: ok + latency/pflops/bubble/peak bytes
    // (null columns when the configuration failed, plus the error text).
    Row& Stats(const StatusOr<ExecutionStats>& stats) {
      Bool("ok", stats.ok());
      if (!stats.ok()) {
        return Str("error", stats.status().ToString());
      }
      return Num("latency_seconds", stats->latency)
          .Num("pflops", stats->pflops)
          .Num("bubble_fraction", stats->bubble_fraction)
          .Num("peak_memory_bytes", stats->peak_memory_bytes);
    }

    std::string json() const { return "{" + fields_ + "}"; }

   private:
    Row& Raw(const char* key, const char* rendered) {
      if (!fields_.empty()) {
        fields_ += ",";
      }
      fields_ += "\"";
      fields_ += key;
      fields_ += "\":";
      fields_ += rendered;
      return *this;
    }
    std::string fields_;
  };

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  // Writes the report; no-op when `path` is empty. Returns false (with a
  // message on stderr) when the file cannot be written.
  bool Write(const std::string& path) const {
    if (path.empty()) {
      return true;
    }
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write JSON report to %s\n", path.c_str());
      return false;
    }
    std::fprintf(file, "{\"benchmark\":\"%s\",\"results\":[", benchmark_.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(file, "%s%s", i == 0 ? "" : ",", rows_[i].json().c_str());
    }
    std::fprintf(file, "]}\n");
    std::fclose(file);
    return true;
  }

 private:
  std::string benchmark_;
  std::vector<Row> rows_;
};

// The bounded ILP search budget every bench lane compiles under. Cores the
// search cannot prove within it return the branch & bound's best incumbent
// with a proven gap (under 1e-5 on the fig8 GPT-2.6B sweep; see EXPERIMENTS.md).
inline constexpr int64_t kBenchSearchBudget = 60'000;

// Configures the shared BaselineOptionTemplate through the options builder:
// the bench search budget, the requested worker threads, and optional
// tracing. Call once at the top of a benchmark's main().
inline void InitBench(const BenchFlags& flags) {
  BaselineOptionTemplate() = ParallelizeOptions::Builder()
                                 .search_budget(kBenchSearchBudget)
                                 .threads(flags.threads)
                                 .trace(flags.trace_path)
                                 .Build();
}

// The PlanService the Alpa lanes run through: in-process by default, a
// RemotePlanService against an alpa_serve daemon when --server was given.
inline std::unique_ptr<serve::PlanService> MakePlanService(const BenchFlags& flags) {
  if (!flags.server.empty()) {
    return std::make_unique<serve::RemotePlanService>(flags.server);
  }
  return std::make_unique<serve::InProcessPlanService>();
}

// The service-API form of the options InitBench bakes into the baseline
// template; the Alpa lane of a bench is
//   service->CompileAndSimulate(AlpaRequest(flags, graph, cluster, mb, L))
// and behaves identically in-process and against a daemon.
inline serve::PlanRequest AlpaRequest(const BenchFlags& flags, Graph graph,
                                      const ClusterSpec& cluster, int num_microbatches,
                                      int target_layers) {
  serve::PlanRequest request;
  request.graph = std::move(graph);
  request.cluster = cluster;
  request.options.num_microbatches = num_microbatches;
  request.options.target_layers = target_layers;
  request.options.max_search_nodes = kBenchSearchBudget;
  request.options.tenant = "bench";
  request.options.compile_threads = flags.threads;
  request.options.trace_path = flags.trace_path;
  return request;
}

}  // namespace bench
}  // namespace alpa

#endif  // BENCH_BENCH_UTIL_H_
