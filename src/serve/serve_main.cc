// alpa_serve — the plan-compilation daemon.
//
//   alpa_serve --socket /tmp/alpa.sock [--workers N] [--cache-dir DIR]
//              [--cache-max-entries N] [--cache-max-bytes N]
//              [--max-queue N] [--max-per-tenant N] [--deadline SECONDS]
//              [--admin-tenant NAME] [--elastic] [--speculate-k N]
//
// Serves Parallelize/Simulate/Repair requests over a unix socket using
// the versioned wire format; see src/serve/server.h for the architecture
// and README.md for a client quick-start. SIGINT/SIGTERM drain and exit.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "src/serve/server.h"
#include "src/support/strings.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--workers N] [--cache-dir DIR] [--max-queue N]\n"
               "          [--cache-max-entries N] [--cache-max-bytes N]\n"
               "          [--max-per-tenant N] [--deadline SECONDS] [--admin-tenant NAME]\n"
               "          [--elastic] [--speculate-k N]\n",
               argv0);
  return 2;
}

// Stores `value` in `*out` when it is one non-negative number within T's
// range and nothing else; false otherwise ("sixty" is not 0, "10k" is not
// 10).
template <typename T>
bool ParseInto(const char* value, T* out) {
  std::optional<T> parsed;
  if constexpr (std::is_floating_point_v<T>) {
    parsed = alpa::ParseNonNegativeDouble(value);
  } else if (const auto v = alpa::ParseNonNegativeInt(value, std::numeric_limits<T>::max())) {
    parsed = static_cast<T>(*v);
  }
  if (parsed.has_value()) {
    *out = *parsed;
  }
  return parsed.has_value();
}

}  // namespace

int main(int argc, char** argv) {
  alpa::serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--elastic") {
      options.elastic = true;
      continue;
    }
    // Every other flag takes a value.
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const char* value = argv[++i];
    bool valid = true;
    if (arg == "--socket") {
      options.socket_path = value;
    } else if (arg == "--workers") {
      valid = ParseInto(value, &options.num_workers);
    } else if (arg == "--cache-dir") {
      options.plan_cache_dir = value;
    } else if (arg == "--cache-max-entries") {
      valid = ParseInto(value, &options.cache_max_entries);
    } else if (arg == "--cache-max-bytes") {
      valid = ParseInto(value, &options.cache_max_bytes);
    } else if (arg == "--max-queue") {
      valid = ParseInto(value, &options.max_queue);
    } else if (arg == "--max-per-tenant") {
      valid = ParseInto(value, &options.max_per_tenant);
    } else if (arg == "--deadline") {
      valid = ParseInto(value, &options.default_deadline_seconds);
    } else if (arg == "--admin-tenant") {
      options.admin_tenant = value;
    } else if (arg == "--speculate-k") {
      valid = ParseInto(value, &options.speculate_k);
    } else {
      return Usage(argv[0]);
    }
    if (!valid) {
      std::fprintf(stderr, "%s: invalid %s value '%s' (want a non-negative number)\n", argv[0],
                   arg.c_str(), value);
      return Usage(argv[0]);
    }
  }
  if (options.socket_path.empty()) {
    return Usage(argv[0]);
  }

  alpa::serve::PlanServer server(options);
  const alpa::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "alpa_serve: %s\n", status.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("alpa_serve: listening on %s (%d workers, cache %s%s)\n",
              options.socket_path.c_str(), options.num_workers,
              options.plan_cache_dir.empty() ? "<memory-only>" : options.plan_cache_dir.c_str(),
              options.elastic ? ", elastic speculation on" : "");
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  const alpa::serve::ServerStats stats = server.stats();
  std::printf("alpa_serve: served=%lld rejected=%lld expired=%lld cache_hits=%lld\n",
              static_cast<long long>(stats.served), static_cast<long long>(stats.rejected_queue),
              static_cast<long long>(stats.expired),
              static_cast<long long>(stats.plan_cache_hits));
  return 0;
}
