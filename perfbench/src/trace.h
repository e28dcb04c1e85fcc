#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around each call it makes into the
// program's public entry points. One SpanLog per load thread, kept in
// memory for the run and written out at the end; a null SpanLog* means
// tracing is off, which costs one branch per call site.
//
// Every span carries the id of the logical transaction it belongs to and
// the id of its parent span. A layer's self time is its span's duration
// minus the part of that interval its child spans cover.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kTxn,           // logical transaction: due time / first Begin -> final commit
  kAttempt,       // one try of it (retries are siblings)
  kDbBegin,       // Database::Begin
  kGet,           // Transaction::Get
  kPut,           // Transaction::Put
  kScan,          // Transaction::Scan
  kDelete,        // Transaction::Delete
  kCommit,        // Transaction::Commit
  kAbort,         // Transaction::Abort (client-initiated rollback)
  kSendLag,       // open loop: due time -> send start
  kSend,          // SKNA: writing BEGIN+EXEC+COMMIT to the socket
  kRspBegin,      // SKNA: send end -> BEGIN_OK arrival
  kRspExec,       // SKNA: BEGIN_OK arrival -> EXEC_OK arrival
  kRspCommit,     // SKNA: EXEC_OK arrival -> COMMIT_OK / error arrival
  kRecover,       // Database reopen + Database::Recover
  kWaitCaughtUp,  // Replica::WaitCaughtUp
  kCount
};

const char* SpanKindName(SpanKind k);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t txn = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kTxn;
  bool committed = false;  // kTxn roots: the transaction committed
};

class SpanLog {
 public:
  explicit SpanLog(uint32_t thread)
      : base_((uint64_t{thread} + 1) << 40), next_id_(base_) {
    spans_.reserve(1 << 16);
  }
  /// Ids are unique across threads (thread index in the high bits) and
  /// dense within one log: base() + 1 .. base() + ids_allocated().
  uint64_t NewId() { return ++next_id_; }
  uint64_t base() const { return base_; }
  uint64_t ids_allocated() const { return next_id_ - base_; }
  void Add(uint64_t id, uint64_t parent, uint64_t txn, SpanKind kind,
           int64_t start_ns, int64_t end_ns, bool committed = false) {
    spans_.push_back({id, parent, txn, start_ns, end_ns, kind, committed});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t base_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// RAII span around one call; does nothing when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint64_t parent, uint64_t txn, SpanKind kind)
      : log_(log), parent_(parent), txn_(txn), kind_(kind) {
    if (log_) {
      id_ = log_->NewId();
      start_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (log_) log_->Add(id_, parent_, txn_, kind_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t parent_, txn_;
  SpanKind kind_;
  uint64_t id_ = 0;
  int64_t start_ = 0;
};

/// Per-kind totals derived from all spans of a run.
struct TraceSummary {
  struct Kind {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    Samples durations;
  };
  std::array<Kind, static_cast<size_t>(SpanKind::kCount)> kinds;
  uint64_t spans = 0;
  // kTxn roots of committed transactions; per-commit span totals divide
  // by this, so sampling does not scale them
  uint64_t committed_txns = 0;

  const Kind& of(SpanKind k) const { return kinds[static_cast<size_t>(k)]; }
};

/// Computes self times. Children of one span never overlap (a load thread
/// makes one call at a time, and the SKNA response spans tile their
/// attempt), so the covered part is the sum of the children's durations.
TraceSummary Summarize(const std::vector<const SpanLog*>& logs);

/// Writes all spans as TSV (id, parent, txn, kind, start_ns, end_ns).
bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
