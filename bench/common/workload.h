#ifndef SKEENA_BENCH_COMMON_WORKLOAD_H_
#define SKEENA_BENCH_COMMON_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"

namespace skeena::bench {

/// A transaction that ran to its end and rolled itself back because its
/// workload says so (TPC-C New-Order's 1% unused item, clause 2.4.2.3):
/// neither a commit nor an abort, and not worth retrying.
Status UserRollback();
bool IsUserRollback(const Status& s);

/// Outcome of one timed run: committed transactions, queries, abort
/// attribution (engine vs Skeena — Section 6.9) and the latency histogram.
/// User rollbacks count apart: not in commits, latency or the abort rates.
struct RunResult {
  double seconds = 0;
  uint64_t commits = 0;
  uint64_t queries = 0;
  uint64_t engine_aborts = 0;
  uint64_t skeena_aborts = 0;
  uint64_t rollbacks = 0;
  Histogram latency;

  double Tps() const { return seconds == 0 ? 0 : commits / seconds; }
  double Qps() const {
    return seconds == 0 ? 0 : static_cast<double>(queries) / seconds;
  }
  double AbortRate() const {
    uint64_t attempts = commits + engine_aborts + skeena_aborts;
    return attempts == 0
               ? 0
               : static_cast<double>(engine_aborts + skeena_aborts) /
                     static_cast<double>(attempts);
  }
  double SkeenaAbortRate() const {
    uint64_t attempts = commits + engine_aborts + skeena_aborts;
    return attempts == 0 ? 0
                         : static_cast<double>(skeena_aborts) /
                               static_cast<double>(attempts);
  }
};

/// One transaction attempt executed by a worker ("connection"). Returns the
/// commit status; `*queries` should be incremented per record access.
using TxnFn = std::function<Status(int thread_id, Rng& rng, uint64_t* queries)>;

/// Runs `fn` from `threads` workers for `duration_ms`, with a start barrier
/// and per-thread statistics merged at the end (the SysBench-style driver
/// of Section 6.1; connections are worker threads, see DESIGN.md).
RunResult RunWorkload(int threads, uint64_t duration_ms, const TxnFn& fn);

/// Benchmark scale knobs, env-overridable so every experiment can be pushed
/// toward the paper's full parameters without recompiling:
///   SKEENA_BENCH_MS       per-cell duration (default 250 ms)
///   SKEENA_BENCH_CONNS    comma list of connection counts (default 1,8,32)
///   SKEENA_BENCH_FULL=1   paper-like scale (longer runs, more connections,
///                         bigger tables)
struct BenchScale {
  uint64_t duration_ms;
  std::vector<int> connections;
  bool full;

  static BenchScale FromEnv();
};

/// Formats/prints a labeled matrix like the paper's tables and figures
/// (rows = schemes/placements, columns = connections/ratios).
class ResultMatrix {
 public:
  ResultMatrix(std::string title, std::string row_header);

  void SetColumns(const std::vector<std::string>& columns);
  void Set(const std::string& row, const std::string& column, double value);
  /// Prints rows in insertion order, values with `digits` decimals.
  void Print(int digits = 0) const;

 private:
  std::string title_;
  std::string row_header_;
  std::vector<std::string> columns_;
  std::vector<std::string> row_order_;
  std::vector<std::vector<double>> values_;  // [row][col]
};

}  // namespace skeena::bench

#endif  // SKEENA_BENCH_COMMON_WORKLOAD_H_
