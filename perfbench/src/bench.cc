#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "stordb/buffer_pool.h"

namespace perfbench {

using skeena::Database;
using skeena::Status;

void Tally::Merge(const Tally& o) {
  ops += o.ops;
  failed += o.failed;
  commits += o.commits;
  attempts += o.attempts;
  rollbacks += o.rollbacks;
  user_bytes += o.user_bytes;
  commit_lat.Merge(o.commit_lat);
  reads += o.reads;
  read_lat.Merge(o.read_lat);
  repl_lag.Merge(o.repl_lag);
}

int64_t PoissonGapNs(skeena::Rng& rng, double rate_per_s) {
  return static_cast<int64_t>(-std::log(1.0 - rng.NextDouble()) * 1e9 / rate_per_s);
}

uint64_t WaitUntilDue(SpanLog* log, uint64_t txn_id, int64_t due_ns) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due_ns)));
  if (!log) return 0;
  const uint64_t root = log->NewId();
  log->Add(log->NewId(), root, txn_id, SpanKind::kSendLag, due_ns, NowNs());
  return root;
}

Outcome RunTxn(Database* db, SpanLog* log, uint64_t txn_id, int64_t start_ns,
               const AttemptFn& attempt, Tally* tally, uint64_t root_id) {
  const uint64_t root = log && root_id == 0 ? log->NewId() : root_id;
  Outcome out = Outcome::kFailed;
  for (int i = 0; i < kMaxAttempts; ++i) {
    tally->attempts++;
    bool rolled_back = false;
    Status s;
    {
      ScopedSpan span(log, root, txn_id, SpanKind::kAttempt);
      TracedTxn txn(db, log, txn_id, span.id());
      s = attempt(txn, &rolled_back);
      if (!s.ok()) txn.Abort();
      if (s.ok() && !rolled_back) tally->user_bytes += txn.put_bytes();
    }
    if (rolled_back) {
      out = Outcome::kRolledBack;
      break;
    }
    if (s.ok()) {
      out = Outcome::kCommitted;
      break;
    }
    if (!s.IsAnyAbort()) {
      std::fprintf(stderr, "perfbench: operation failed: %s\n",
                   s.ToString().c_str());
      break;
    }
  }
  const int64_t end = NowNs();
  if (log) {
    log->Add(root, 0, txn_id, SpanKind::kTxn, start_ns, end,
             out == Outcome::kCommitted);
  }
  tally->ops++;
  switch (out) {
    case Outcome::kCommitted:
      tally->commits++;
      tally->commit_lat.Add(end - start_ns);
      break;
    case Outcome::kRolledBack:
      tally->rollbacks++;
      break;
    case Outcome::kFailed:
      tally->failed++;
      break;
  }
  return out;
}

#define PERFBENCH_COUNTER_FIELDS(X)                                        \
  X(csr_accesses) X(csr_select_aborts) X(csr_commit_aborts)                \
  X(csr_sealed_aborts) X(csr_partitions_recycled) X(pipe_parks)            \
  X(pipe_wake_syscalls) X(pipe_queued) X(pipe_drains) X(mem_flushes)       \
  X(mem_flush_gap_ns) X(mem_append_bytes) X(mem_space_waits)               \
  X(mem_flushed_bytes) X(stor_flushes) X(stor_flush_gap_ns)                \
  X(stor_append_bytes) X(stor_space_waits) X(stor_flushed_bytes)           \
  X(mem_aborts) X(mem_versions_pruned) X(stor_aborts) X(stor_undo_purged)  \
  X(pool_hits) X(pool_misses) X(pool_flush_waits) X(pool_write_backs)      \
  X(server_frames_out) X(repl_watermarks) X(repl_groups) X(repl_reconnects) \
  X(host_steal) X(host_total)

Counters& Counters::operator+=(const Counters& o) {
#define X(f) f += o.f;
  PERFBENCH_COUNTER_FIELDS(X)
#undef X
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
#define X(f) d.f = f - o.f;
  PERFBENCH_COUNTER_FIELDS(X)
#undef X
  return d;
}

Counters ReadCounters(Database* db) {
  Counters c;
  const Database::Stats st = db->stats();
  c.csr_accesses = st.csr.accesses;
  c.csr_select_aborts = st.csr.select_aborts;
  c.csr_commit_aborts = st.csr.commit_aborts;
  c.csr_sealed_aborts = st.csr.sealed_aborts;
  c.csr_partitions_recycled = st.csr.partitions_recycled;
  c.mem_aborts = st.mem.aborts;
  c.mem_versions_pruned = st.mem.versions_pruned;
  c.stor_aborts = st.stor.aborts;
  c.stor_undo_purged = st.stor.undo_purged;
  const auto pipe = db->pipeline().stats();
  c.pipe_parks = pipe.waiter_parks;
  c.pipe_wake_syscalls = pipe.wake_syscalls;
  c.pipe_queued = pipe.completed - pipe.completed_inline;
  c.pipe_drains = pipe.drain_batches;
  if (auto* l = db->mem()->Log()) {
    const auto ls = l->stats();
    c.mem_flushes = ls.flushes;
    c.mem_flush_gap_ns = ls.flush_gap_ns_total;
    c.mem_append_bytes = ls.append_bytes;
    c.mem_space_waits = ls.space_waits;
    c.mem_flushed_bytes = ls.flushed_bytes;
  }
  if (auto* l = db->stor()->Log()) {
    const auto ls = l->stats();
    c.stor_flushes = ls.flushes;
    c.stor_flush_gap_ns = ls.flush_gap_ns_total;
    c.stor_append_bytes = ls.append_bytes;
    c.stor_space_waits = ls.space_waits;
    c.stor_flushed_bytes = ls.flushed_bytes;
  }
  auto* pool = db->stor()->engine()->pool();
  c.pool_hits = pool->hits();
  c.pool_misses = pool->misses();
  c.pool_flush_waits = pool->flush_waits();
  c.pool_write_backs = pool->write_backs();
  // Aggregate "cpu" line: user nice system idle iowait irq softirq steal.
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) c.host_total += x;
      c.host_steal = v[7];
    }
    std::fclose(f);
  }
  return c;
}

void RunAlternating(int64_t total_ns,
                    const std::function<Phase(int64_t, TraceSink*)>& run_slice,
                    const std::function<Counters()>& read, TraceSink* sink,
                    Phase* untraced, Phase* traced, Counters* delta) {
  TraceSink off(false);
  for (int slice = 0; slice < 4; ++slice) {
    if (slice % 2 == 0) {
      untraced->Merge(run_slice(total_ns / 4, &off));
      continue;
    }
    const Counters before = read();
    traced->Merge(run_slice(total_ns / 4, sink));
    *delta += read() - before;
  }
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double F(uint64_t v) { return static_cast<double>(v); }
}  // namespace

void AddLayerMetrics(Report* rep, const Counters& c, const Phase& u,
                     const Phase& p, const TraceSummary& tr,
                     const LayerExtras& x) {
  const Tally& t = p.tally;
  const double commits = F(t.commits);
  const double attempts = F(t.attempts);
  auto pct = [&](const char* name, SpanKind k, double q, const char* unit) {
    const Samples& s = tr.of(k).durations;
    if (s.empty()) {
      rep->Add(name, 0, unit);  // layer absent from this workload
    } else {
      rep->AddPercentile(name, s, q, 1e-3, unit);
    }
  };
  auto per_commit_us = [&](std::initializer_list<SpanKind> kinds) {
    int64_t ns = 0;
    for (SpanKind k : kinds) ns += tr.of(k).total_ns;
    return Ratio(static_cast<double>(ns) / 1e3, F(tr.committed_txns));
  };
  auto per_1k = [&](uint64_t n, double base) { return 1e3 * Ratio(F(n), base); };

  // server (client-side, between successive response arrivals)
  pct("server.begin_rsp_p50_us", SpanKind::kRspBegin, 50, "us");
  pct("server.exec_rsp_p50_us", SpanKind::kRspExec, 50, "us");
  pct("server.commit_rsp_p50_us", SpanKind::kRspCommit, 50, "us");
  pct("server.commit_rsp_p99_us", SpanKind::kRspCommit, 99, "us");
  rep->Add("server.frames_out_per_commit", Ratio(F(c.server_frames_out), commits),
           "frames/txn");

  // load generator
  pct("gen.send_lag_p50_us", SpanKind::kSendLag, 50, "us");
  pct("gen.send_lag_p99_us", SpanKind::kSendLag, 99, "us");

  // core: Transaction
  rep->Add("core.txn.attempts_per_commit", Ratio(attempts, commits), "attempts/txn");
  rep->Add("core.txn.begin_us_per_commit", per_commit_us({SpanKind::kDbBegin}), "us");
  rep->Add("core.txn.op_us_per_commit",
           per_commit_us({SpanKind::kGet, SpanKind::kPut, SpanKind::kScan,
                          SpanKind::kDelete}),
           "us");
  pct("core.txn.commit_call_p50_us", SpanKind::kCommit, 50, "us");
  pct("core.txn.commit_call_p99_us", SpanKind::kCommit, 99, "us");

  // core: CSR
  rep->Add("core.csr.select_aborts_per_1k", per_1k(c.csr_select_aborts, attempts),
           "1/1k-attempts");
  rep->Add("core.csr.commit_aborts_per_1k", per_1k(c.csr_commit_aborts, attempts),
           "1/1k-attempts");
  rep->Add("core.csr.sealed_aborts_per_1k", per_1k(c.csr_sealed_aborts, attempts),
           "1/1k-attempts");
  rep->Add("core.csr.accesses_per_commit", Ratio(F(c.csr_accesses), commits),
           "count/txn");
  rep->Add("core.csr.partitions_recycled", F(c.csr_partitions_recycled), "count");

  // core: commit pipeline
  rep->Add("core.pipeline.parks_per_commit", Ratio(F(c.pipe_parks), commits),
           "count/txn");
  rep->Add("core.pipeline.wake_syscalls_per_commit",
           Ratio(F(c.pipe_wake_syscalls), commits), "count/txn");
  rep->Add("core.pipeline.commits_per_drain",
           Ratio(F(c.pipe_queued), F(c.pipe_drains)), "txn/drain");

  // log
  rep->Add("log.mem.flushes_per_commit", Ratio(F(c.mem_flushes), commits), "count/txn");
  rep->Add("log.stor.flushes_per_commit", Ratio(F(c.stor_flushes), commits), "count/txn");
  rep->Add("log.mem.flush_gap_us_mean",
           Ratio(F(c.mem_flush_gap_ns) / 1e3, F(c.mem_flushes)), "us");
  rep->Add("log.stor.flush_gap_us_mean",
           Ratio(F(c.stor_flush_gap_ns) / 1e3, F(c.stor_flushes)), "us");
  rep->Add("log.mem.bytes_per_commit", Ratio(F(c.mem_append_bytes), commits), "B/txn");
  rep->Add("log.stor.bytes_per_commit", Ratio(F(c.stor_append_bytes), commits), "B/txn");
  rep->Add("log.mem.space_waits", F(c.mem_space_waits), "count");
  rep->Add("log.stor.space_waits", F(c.stor_space_waits), "count");
  rep->Add("log.device_bytes_per_user_byte",
           Ratio(F(c.mem_flushed_bytes) + F(c.stor_flushed_bytes), F(t.user_bytes)),
           "B/B");

  // memdb
  rep->Add("memdb.aborts_per_1k", per_1k(c.mem_aborts, attempts), "1/1k-attempts");
  rep->Add("memdb.versions_pruned_per_commit",
           Ratio(F(c.mem_versions_pruned), commits), "count/txn");

  // stordb
  const double fetches = F(c.pool_hits) + F(c.pool_misses);
  rep->Add("stordb.pool_hit_ratio", fetches > 0 ? F(c.pool_hits) / fetches : 1.0,
           "ratio");
  rep->Add("stordb.pool_write_backs_per_commit", Ratio(F(c.pool_write_backs), commits),
           "count/txn");
  rep->Add("stordb.pool_flush_waits_per_1k", per_1k(c.pool_flush_waits, fetches),
           "1/1k-fetches");
  rep->Add("stordb.aborts_per_1k", per_1k(c.stor_aborts, attempts), "1/1k-attempts");
  rep->Add("stordb.undo_purged_per_commit", Ratio(F(c.stor_undo_purged), commits),
           "count/txn");

  // recovery
  rep->Add("recovery.recovery_s", x.recovery_s, "s");
  rep->Add("recovery.wal_bytes_replayed", F(x.wal_bytes_replayed), "B");

  // repl
  if (x.repl) {
    rep->AddPercentile("repl.lag_p50_ms", u.tally.repl_lag, 50, 1e-6, "ms");
    rep->AddPercentile("repl.lag_p99_ms", u.tally.repl_lag, 99, 1e-6, "ms");
    rep->Add("repl.replica_reads_per_s", Ratio(F(u.tally.reads), u.wall_s), "reads/s");
    rep->Add("repl.catchup_ms", x.repl_catchup_ms, "ms");
    rep->Add("repl.watermarks_per_s", Ratio(F(c.repl_watermarks), p.wall_s), "1/s");
    rep->Add("repl.groups_per_watermark",
             Ratio(F(c.repl_groups), F(c.repl_watermarks)), "groups/wm");
    rep->AddPercentile("repl.replica_read_p50_us", u.tally.read_lat, 50, 1e-3, "us");
    rep->Add("repl.reconnects", F(c.repl_reconnects), "count");
  } else {
    for (auto [name, unit] :
         {std::pair{"repl.lag_p50_ms", "ms"}, {"repl.lag_p99_ms", "ms"},
          {"repl.replica_reads_per_s", "reads/s"}, {"repl.catchup_ms", "ms"},
          {"repl.watermarks_per_s", "1/s"}, {"repl.groups_per_watermark", "groups/wm"},
          {"repl.replica_read_p50_us", "us"}, {"repl.reconnects", "count"}}) {
      rep->Add(name, 0, unit);
    }
  }

  // whole commit path and the process's CPU cost, from the untraced
  // slices, and the wall-clock set-up time; unbounded because host load on
  // a shared VM moves them by more than any bound (README.md)
  rep->AddPercentile("path.commit_p50_ms", u.tally.commit_lat, 50, 1e-6, "ms");
  rep->AddPercentile("path.commit_p99_ms", u.tally.commit_lat, 99, 1e-6, "ms");
  rep->Add("path.cpu_us_per_op", u.CpuUsPerOp(), "us");
  rep->Add("setup.wall_s", x.setup_wall_s, "s");
  rep->Add("host.steal_pct", 100.0 * Ratio(F(c.host_steal), F(c.host_total)), "%");

  // tracing itself
  rep->Add("trace.overhead_pct", x.trace_overhead_pct, "%");
  const auto& txn = tr.of(SpanKind::kTxn);
  const auto& att = tr.of(SpanKind::kAttempt);
  rep->Add("trace.unattributed_pct",
           100.0 * Ratio(static_cast<double>(txn.self_ns + att.self_ns),
                         static_cast<double>(txn.total_ns)),
           "%");
  rep->Add("trace.spans", F(tr.spans), "count");
}

namespace {

// Percent by which the traced slices' median commit latency exceeds the
// untraced slices'.
double TraceOverheadPct(const Phase& untraced, const Phase& traced) {
  double u = 0, t = 0;
  if (!untraced.tally.commit_lat.Percentile(50, &u) ||
      !traced.tally.commit_lat.Percentile(50, &t) || u <= 0) {
    return 0;
  }
  return 100.0 * (t - u) / u;
}

void AddEndToEnd(Report* rep, double setup_s, const Phase& p) {
  rep->Add("setup_s", setup_s, "s");
  rep->Add("commits_per_s", p.CommitsPerS(), "txn/s");
}

}  // namespace

void CheckTables(Database* db, const skeena::TableHandle& mem,
                 const skeena::TableHandle& stor,
                 const std::map<uint64_t, Tag>& expected,
                 const std::string& what, Report* rep) {
  TagMap mem_tags, stor_tags;
  auto txn = db->Begin();
  for (auto [table, out] : {std::pair{&mem, &mem_tags}, {&stor, &stor_tags}}) {
    Status s = txn->Scan(*table, skeena::kMinKey, 0,
                         [out](const skeena::Key& k, const std::string& v) {
                           Tag t;
                           (*out)[skeena::KeyPrefixU64(k)] =
                               DecodeTag(v, &t) ? std::optional<Tag>(t) : std::nullopt;
                           return true;
                         });
    if (!s.ok()) rep->Fail(what + ": scan: " + s.ToString());
  }
  txn->Abort();
  std::string why;
  if (!CheckFinalState(expected, mem_tags, stor_tags, &why)) {
    rep->Fail(what + ": " + why);
  }
}

void Finish(const Args& args, const SetupTime& setup, const Phase& untraced,
            const Phase& traced, const Counters& delta, const TraceSink& sink,
            LayerExtras x, Report* rep) {
  rep->attempted = untraced.tally.ops + traced.tally.ops;
  rep->failed = untraced.tally.failed + traced.tally.failed;
  if (!args.trace) {
    AddEndToEnd(rep, setup.cpu_s, untraced);
    return;
  }
  x.trace_overhead_pct = TraceOverheadPct(untraced, traced);
  x.setup_wall_s = setup.wall_s;
  AddLayerMetrics(rep, delta, untraced, traced, Summarize(sink.logs()), x);
  const std::string path = args.work_dir + "/spans-" + args.workload + ".tsv";
  if (WriteSpans(sink.logs(), path)) {
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
