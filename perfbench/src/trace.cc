#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* SpanKindName(SpanKind k) {
  static const char* kNames[] = {
      "txn",       "attempt",    "db.begin",   "txn.get",
      "txn.put",   "txn.scan",   "txn.delete", "txn.commit",
      "txn.abort", "gen.lag",    "wire.send",  "wire.rsp_begin",
      "wire.rsp_exec", "wire.rsp_commit", "db.recover",
      "replica.wait_caught_up"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanKind::kCount));
  return kNames[static_cast<size_t>(k)];
}

TraceSummary Summarize(const std::vector<const SpanLog*>& logs) {
  TraceSummary out;
  for (const SpanLog* log : logs) {
    const uint64_t base = log->base();
    const uint64_t n = log->ids_allocated();
    auto slot = [&](uint64_t id) -> int64_t {
      return id > base && id - base <= n ? static_cast<int64_t>(id - base - 1) : -1;
    };
    // Parents and children always share a log: a transaction's spans are
    // recorded by the thread that ran it.
    std::vector<int64_t> covered(n, 0);
    for (const Span& s : log->spans()) {
      const int64_t p = slot(s.parent);
      if (p >= 0) covered[p] += s.end_ns - s.start_ns;
    }
    for (const Span& s : log->spans()) {
      const int64_t dur = s.end_ns - s.start_ns;
      const int64_t i = slot(s.id);
      auto& k = out.kinds[static_cast<size_t>(s.kind)];
      k.count++;
      k.total_ns += dur;
      k.self_ns += dur - (i >= 0 ? covered[i] : 0);
      k.durations.Add(dur);
      if (s.kind == SpanKind::kTxn && s.committed) out.committed_txns++;
    }
    out.spans += log->spans().size();
  }
  return out;
}

bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\ttxn\tkind\tstart_ns\tend_ns\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.txn),
                   SpanKindName(s.kind), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
