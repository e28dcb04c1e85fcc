#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared load-side plumbing for the workloads: arguments, per-phase
// tallies, the traced wrapper around Database/Transaction calls, the retry
// loop that turns attempts into one logical operation, and the counters
// read from the modules' public stats().

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "core/skeena.h"
#include "log/log_manager.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

/// Set-up is repeated this many times in an untraced run and its median
/// reported as setup_s; a traced run sets up once.
inline constexpr int kSetupRuns = 9;

/// Aborted attempts are retried; an operation that has not committed (or
/// rolled back on purpose) after this many attempts counts as failed.
inline constexpr int kMaxAttempts = 1000;

/// Load-side tallies of one measured phase, merged across load threads.
struct Tally {
  uint64_t ops = 0;        // logical transactions finished (any outcome)
  uint64_t failed = 0;     // non-abort error or retry cap
  uint64_t commits = 0;    // operations that committed
  uint64_t attempts = 0;   // transaction attempts, retries included
  uint64_t rollbacks = 0;  // client-initiated rollbacks (TPC-C 1%)
  uint64_t user_bytes = 0; // key + value bytes of committed writes
  Samples commit_lat;      // due time / first Begin -> final commit
  // repl-follow readers
  uint64_t reads = 0;
  Samples read_lat;
  Samples repl_lag;

  void Merge(const Tally& o);
};

/// Wall-clock window of a phase, drain included, and the CPU time the
/// whole process spent in it.
struct Phase {
  Tally tally;
  double wall_s = 0;
  double cpu_s = 0;
  void Merge(const Phase& o) {
    tally.Merge(o.tally);
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
  }
  double CommitsPerS() const {
    return wall_s > 0 ? static_cast<double>(tally.commits) / wall_s : 0;
  }
  /// Process CPU microseconds per finished operation (transactions of any
  /// outcome, and replica reads on repl-follow).
  double CpuUsPerOp() const {
    return tally.ops > 0 ? cpu_s * 1e6 / static_cast<double>(tally.ops) : 0;
  }
};

/// Keeps the span logs of the traced phase and writes them out at the end.
/// Every transaction of a traced phase is recorded.
class TraceSink {
 public:
  explicit TraceSink(bool on) : on_(on) {}
  /// A fresh log for one load thread, or null when tracing is off.
  SpanLog* NewLog() {
    if (!on_) return nullptr;
    logs_.push_back(std::make_unique<SpanLog>(
        static_cast<uint32_t>(logs_.size())));
    return logs_.back().get();
  }
  std::vector<const SpanLog*> logs() const {
    std::vector<const SpanLog*> out;
    for (const auto& l : logs_) out.push_back(l.get());
    return out;
  }

 private:
  bool on_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Spans around the calls one transaction attempt makes into
/// Database/Transaction. All methods forward to the public API.
class TracedTxn {
 public:
  TracedTxn(skeena::Database* db, SpanLog* log, uint64_t txn,
            uint64_t parent)
      : log_(log), txn_(txn), parent_(parent) {
    ScopedSpan s(log_, parent_, txn_, SpanKind::kDbBegin);
    t_ = db->Begin();
  }
  skeena::Status Get(const skeena::TableHandle& t, const skeena::Key& k,
                     std::string* v) {
    ScopedSpan s(log_, parent_, txn_, SpanKind::kGet);
    return t_->Get(t, k, v);
  }
  skeena::Status Put(const skeena::TableHandle& t, const skeena::Key& k,
                     std::string_view v) {
    ScopedSpan s(log_, parent_, txn_, SpanKind::kPut);
    put_bytes_ += k.size() + v.size();
    return t_->Put(t, k, v);
  }
  skeena::Status Delete(const skeena::TableHandle& t, const skeena::Key& k) {
    ScopedSpan s(log_, parent_, txn_, SpanKind::kDelete);
    return t_->Delete(t, k);
  }
  skeena::Status Scan(
      const skeena::TableHandle& t, const skeena::Key& lower, size_t limit,
      const std::function<bool(const skeena::Key&, const std::string&)>& cb) {
    ScopedSpan s(log_, parent_, txn_, SpanKind::kScan);
    return t_->Scan(t, lower, limit, cb);
  }
  skeena::Status Commit() {
    ScopedSpan s(log_, parent_, txn_, SpanKind::kCommit);
    return t_->Commit();
  }
  void Abort() {
    ScopedSpan s(log_, parent_, txn_, SpanKind::kAbort);
    t_->Abort();
  }
  /// Key + value bytes this attempt asked to write.
  uint64_t put_bytes() const { return put_bytes_; }

 private:
  SpanLog* log_;
  uint64_t txn_, parent_;
  std::unique_ptr<skeena::Transaction> t_;
  uint64_t put_bytes_ = 0;
};

/// One attempt: runs the transaction body through `txn` and commits it.
/// Returns the first non-OK status; sets *rolled_back when the body chose
/// to roll back (the operation then completes without a commit).
using AttemptFn = std::function<skeena::Status(TracedTxn& txn,
                                               bool* rolled_back)>;

enum class Outcome { kCommitted, kRolledBack, kFailed };

/// One Poisson inter-arrival gap in ns for a load thread that offers
/// `rate_per_s`, drawn from the thread's seeded generator.
int64_t PoissonGapNs(skeena::Rng& rng, double rate_per_s);

/// Open-loop pacing for an in-process load thread: sleeps until `due_ns`
/// (nanosecond resolution) and, when tracing is on, records the wake-up
/// delay as a kSendLag child of a fresh root span. Returns that
/// root's id for RunTxn (0 when the transaction is not traced).
uint64_t WaitUntilDue(SpanLog* log, uint64_t txn_id, int64_t due_ns);

/// Runs one logical transaction to completion: retries aborted attempts at
/// once, records the commit latency from `start_ns` (the transaction's
/// due time), the committed bytes, and the spans. Any
/// non-abort error, or kMaxAttempts aborts, fails the operation.
/// `root_id` names the transaction's root span when the caller already
/// recorded children of it (0: RunTxn allocates one).
Outcome RunTxn(skeena::Database* db, SpanLog* log, uint64_t txn_id,
               int64_t start_ns, const AttemptFn& attempt, Tally* tally,
               uint64_t root_id = 0);

/// Cumulative counters read from each module's public stats(). Only the
/// fields the per-layer metrics use are kept; differences of two readings
/// give a phase's work.
struct Counters {
  // core: CSR
  uint64_t csr_accesses = 0, csr_select_aborts = 0, csr_commit_aborts = 0,
           csr_sealed_aborts = 0, csr_partitions_recycled = 0;
  // core: commit pipeline
  uint64_t pipe_parks = 0, pipe_wake_syscalls = 0, pipe_queued = 0,
           pipe_drains = 0;
  // log, per engine
  uint64_t mem_flushes = 0, mem_flush_gap_ns = 0, mem_append_bytes = 0,
           mem_space_waits = 0, mem_flushed_bytes = 0;
  uint64_t stor_flushes = 0, stor_flush_gap_ns = 0, stor_append_bytes = 0,
           stor_space_waits = 0, stor_flushed_bytes = 0;
  // engines
  uint64_t mem_aborts = 0, mem_versions_pruned = 0;
  uint64_t stor_aborts = 0, stor_undo_purged = 0;
  uint64_t pool_hits = 0, pool_misses = 0, pool_flush_waits = 0,
           pool_write_backs = 0;
  // server and repl (zero where the workload has none)
  uint64_t server_frames_out = 0;
  uint64_t repl_watermarks = 0, repl_groups = 0, repl_reconnects = 0;
  // this machine: CPU time stolen by the hypervisor, and all CPU time
  // (jiffies, /proc/stat), to tell a noisy host from a slower program
  uint64_t host_steal = 0, host_total = 0;

  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
};
Counters ReadCounters(skeena::Database* db);

/// Per-layer inputs measured once per run rather than counted.
struct LayerExtras {
  double recovery_s = 0;
  uint64_t wal_bytes_replayed = 0;
  bool repl = false;
  double repl_catchup_ms = 0;
  double trace_overhead_pct = 0;
  double setup_wall_s = 0;
};

/// Emits every per-layer metric, in the order BENCHMARK.json lists them.
/// Span times and counter ratios come from the traced slices; the tail
/// and replication timings from the untraced ones.
void AddLayerMetrics(Report* rep, const Counters& delta, const Phase& untraced,
                     const Phase& traced, const TraceSummary& tr,
                     const LayerExtras& x);

/// Trace mode: splits the run into four alternating slices, untraced,
/// traced, untraced, traced, so that drift over the run (warm-up, table
/// growth) falls on both sides alike. `run_slice` runs one slice with the
/// given sink; `read` returns the cumulative counters. *delta gets the
/// traced slices' counter work.
void RunAlternating(int64_t total_ns,
                    const std::function<Phase(int64_t, TraceSink*)>& run_slice,
                    const std::function<Counters()>& read, TraceSink* sink,
                    Phase* untraced, Phase* traced, Counters* delta);


// Workload entry points (one file each).
void RunWire(const Args& args, Report* rep);
void RunTpcc(const Args& args, Report* rep);
void RunWal(const Args& args, Report* rep);
void RunRepl(const Args& args, Report* rep);

/// Medians over the set-ups of one run. setup_s is the CPU time: host
/// load on a shared VM moved wall-clock set-up time up to 2x between sets
/// of runs of the same code, while CPU time stays put under contention
/// (README.md).
struct SetupTime {
  double cpu_s = 0;   // process CPU time, every thread
  double wall_s = 0;
};

/// Builds a workload's environment kSetupRuns times in an untraced run
/// (once in a traced one), destroying each before building the next, and
/// returns the last; *time gets the median build times. `setup(i, &err)`
/// builds the i-th. Null, with a failed check, when a build fails.
template <typename Fn>
auto RepeatSetup(const Args& args, Fn setup, SetupTime* time, Report* rep)
    -> decltype(setup(0, nullptr)) {
  decltype(setup(0, nullptr)) env;
  std::vector<double> cpu, wall;
  for (int i = 0; i < (args.trace ? 1 : kSetupRuns); ++i) {
    env.reset();
    std::string err;
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    env = setup(i, &err);
    wall.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    cpu.push_back(static_cast<double>(ProcessCpuNs() - c0) / 1e9);
    if (!env) {
      rep->Fail("setup: " + err);
      return env;
    }
  }
  time->cpu_s = Median(cpu);
  time->wall_s = Median(wall);
  return env;
}

/// Scans both tables and checks them against the acknowledged final
/// state (CheckFinalState); `what` names the check in a failure.
void CheckTables(skeena::Database* db, const skeena::TableHandle& mem,
                 const skeena::TableHandle& stor,
                 const std::map<uint64_t, Tag>& expected,
                 const std::string& what, Report* rep);

/// Fills in the result: operations attempted and failed over both
/// phases, then the end-to-end metrics (untraced run) or the per-layer
/// ones with the trace overhead and the span dump (traced run).
void Finish(const Args& args, const SetupTime& setup, const Phase& untraced,
            const Phase& traced, const Counters& delta, const TraceSink& sink,
            LayerExtras x, Report* rep);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
