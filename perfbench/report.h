// Shared plumbing of the benchmark driver: the clock, order statistics,
// the span recorder behind the traced run, snapshots of the library's
// Metrics registry, and the result line the driver prints last.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic seconds.
double Now();

// Order statistics; 0.0 for an empty sample.
double Median(std::vector<double> values);
double Min(const std::vector<double>& values);
// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

// Spans recorded around the benchmark's own calls into each library layer.
// A span reuses the timestamps the caller already took for its own timing,
// so recording adds no clock reads; with tracing off Record() is a no-op.
// Spans stay in memory until WriteJson() at the end of the run.
struct Span {
  std::string name;
  int64_t request = -1;  // Serve request id; -1 outside serve.
  int parent = -1;       // Index of the enclosing span; -1 at top level.
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  void Enable(bool on) { enabled_ = on; }
  // Returns the span's index (for children's `parent`), -1 when disabled.
  int Record(const std::string& name, double start, double end, int parent = -1,
             int64_t request = -1);
  size_t size() const { return spans_.size(); }
  // Chrome-trace JSON ("X" events, microseconds). False when unwritable.
  bool WriteJson(const std::string& path) const;
  // Measured cost of one Record() call, in seconds (records into a scratch
  // tracer, so the run's own spans are untouched).
  static double CalibrateRecordCost();

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// Cumulative values of the library's Metrics registry; subtract two
// snapshots to get what one call did.
class MetricSnapshot {
 public:
  static MetricSnapshot Take();
  // this - before / this + other, per name.
  MetricSnapshot Minus(const MetricSnapshot& before) const;
  MetricSnapshot Plus(const MetricSnapshot& other) const;
  int64_t operator[](const std::string& name) const;

 private:
  std::map<std::string, int64_t> values_;
};

// The metrics of one run, in insertion order, and the result line.
class Results {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  // Prints {"correct", "attempted", "failed", "metrics"} as one JSON line
  // on stdout. Values carry all 17 significant digits.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
