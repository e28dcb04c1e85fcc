#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Run-level bookkeeping shared by every workload: latency samples with the
// percentile support rule, the metric list, and the one-line JSON result.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by every thread of this process: the load
/// threads and the program's own (flushers, server loop, shipper, ...).
inline int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Raw duration samples in nanoseconds. Percentiles are nearest-rank over
/// the sorted samples, and a percentile is only "supported" when at least
/// ten samples lie strictly above its rank (otherwise it would be the
/// maximum or close to it, not a tail).
class Samples {
 public:
  void Add(int64_t ns) {
    v_.push_back(ns);
    sorted_.clear();
  }
  void Merge(const Samples& o);
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  /// Writes percentile `p` (0..100) in nanoseconds to *out. Returns false
  /// when the sample cannot support it.
  bool Percentile(double p, double* out) const;

 private:
  std::vector<int64_t> v_;
  mutable std::vector<int64_t> sorted_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation prints as its last line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Adds percentile `p` of `s` scaled by `scale` (ns -> unit). A
  /// percentile the sample cannot support reads 0, with a note on stderr;
  /// at the benchmark's run length every one is supported.
  void AddPercentile(const std::string& name, const Samples& s, double p,
                     double scale, const std::string& unit);
  /// Records a failed check; the run reports correct=false.
  void Fail(const std::string& why);
  bool correct() const { return correct_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// Median of a small set (setup repetitions).
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
