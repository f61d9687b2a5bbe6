#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/support/trace.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

int Tracer::Record(const std::string& name, double start, double end, int parent,
                   int64_t request) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{name, request, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(file, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}",
                 i == 0 ? "" : ",", s.name.c_str(), (s.start - origin) * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent, static_cast<long long>(s.request));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

double Tracer::CalibrateRecordCost() {
  constexpr int kRecords = 20000;
  Tracer scratch;
  scratch.Enable(true);
  scratch.spans_.reserve(kRecords);
  const double start = Now();
  for (int i = 0; i < kRecords; ++i) {
    scratch.Record("calibrate", start, start, -1, i);
  }
  return (Now() - start) / kRecords;
}

namespace {

// Every counter of the library registry the benchmark reads.
const char* const kMetricNames[] = {
    "ilp/build/micros",         "ilp/build/enum_micros", "ilp/build/edge_micros",
    "ilp/seed/micros",          "ilp/presolve/micros",   "ilp/presolve/choices_in",
    "ilp/presolve/choices_out", "ilp/elim/micros",       "ilp/elim/plan_micros",
    "ilp/elim/cells",           "ilp/elim/bailed",       "ilp/bnb/micros",
    "ilp/outcome/explored",     "ilp/outcome/aborted",   "plan_cache/memory_hits",
    "plan_cache/disk_hits",     "plan_cache/misses",     "plan_cache/evictions",
    "plan_cache/flight_followers", "serve/compiles",
};

}  // namespace

MetricSnapshot MetricSnapshot::Take() {
  MetricSnapshot snapshot;
  for (const char* name : kMetricNames) {
    snapshot.values_[name] = alpa::Metrics::Value(name);
  }
  return snapshot;
}

MetricSnapshot MetricSnapshot::Minus(const MetricSnapshot& before) const {
  MetricSnapshot delta;
  for (const auto& [name, value] : values_) {
    delta.values_[name] = value - before[name];
  }
  return delta;
}

MetricSnapshot MetricSnapshot::Plus(const MetricSnapshot& other) const {
  MetricSnapshot sum = other;
  for (const auto& [name, value] : values_) {
    sum.values_[name] = value + other[name];
  }
  return sum;
}

int64_t MetricSnapshot::operator[](const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Results::Add(const std::string& name, const std::string& unit, double value) {
  entries_.push_back(Entry{name, unit, value});
}

void Results::Print(bool correct, int64_t attempted, int64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // JSON has no NaN/Infinity; a non-finite value is a benchmark bug and
    // is printed as null so the consumer rejects it loudly.
    char value[64];
    if (std::isfinite(e.value)) {
      std::snprintf(value, sizeof(value), "%.17g", e.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                e.name.c_str(), value, e.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
