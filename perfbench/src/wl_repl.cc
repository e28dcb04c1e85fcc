// repl-follow: a primary with a log Shipper and a replica Database fed by
// a Replica applier, in one process over localhost. Two writer threads
// commit cross-engine pairs (memdb and stordb rows of one key, same tag)
// with Poisson arrivals at a fixed rate; two reader threads run
// closed-loop snapshot reads of one pair at a time on the replica.
// Replication lag runs from the primary's commit acknowledgment to the
// first replica read that observes the write (or a later one of the key).

#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/random.h"
#include "repl/applier.h"
#include "repl/shipper.h"

namespace perfbench {
namespace {

using skeena::Database;
using skeena::DatabaseOptions;
using skeena::EngineKind;
using skeena::Key;
using skeena::MakeKey;
using skeena::Rng;
using skeena::Status;
using skeena::TableHandle;

constexpr int kWriters = 2;
constexpr int kReaders = 2;
constexpr uint64_t kKeys = 16;  // writer of key k: k % kWriters
constexpr size_t kValueBytes = 64;
constexpr double kRatePerS = 1000;  // aggregate offered write rate
constexpr uint32_t kInitWriter = kWriters;
constexpr auto kCatchUpTimeout = std::chrono::seconds(30);

struct Env {
  skeena::repl::CsrInstallJournal journal;
  std::unique_ptr<Database> primary, replica_db;
  TableHandle p_mem, p_stor, r_mem, r_stor;
  std::unique_ptr<skeena::repl::Shipper> shipper;
  std::unique_ptr<skeena::repl::Replica> replica;

  ~Env() {
    if (replica) replica->Stop();
    if (shipper) shipper->Stop();
  }
  bool WaitCaughtUp() {
    return replica->WaitCaughtUp(primary->engine(EngineKind::kMem)->CurrentLsn(),
                                 primary->engine(EngineKind::kStor)->CurrentLsn(),
                                 journal.size(), kCatchUpTimeout);
  }
};

std::unique_ptr<Env> Setup(std::string* err) {
  auto env = std::make_unique<Env>();
  DatabaseOptions popts;
  popts.csr.install_observer = env->journal.Observer();
  env->primary = std::make_unique<Database>(popts);
  DatabaseOptions ropts;
  ropts.replica = true;
  env->replica_db = std::make_unique<Database>(ropts);
  for (auto [db, mem, stor] : {std::tuple{env->primary.get(), &env->p_mem, &env->p_stor},
                               {env->replica_db.get(), &env->r_mem, &env->r_stor}}) {
    auto m = db->CreateTable("mem_t", EngineKind::kMem, kValueBytes);
    auto s = db->CreateTable("stor_t", EngineKind::kStor, kValueBytes);
    if (!m.ok() || !s.ok()) {
      *err = "create tables";
      return nullptr;
    }
    *mem = *m;
    *stor = *s;
  }
  env->shipper = std::make_unique<skeena::repl::Shipper>(env->primary.get(), &env->journal);
  if (Status s = env->shipper->Start(); !s.ok()) {
    *err = "shipper: " + s.ToString();
    return nullptr;
  }
  skeena::repl::Replica::Options ro;
  ro.port = env->shipper->port();
  env->replica = std::make_unique<skeena::repl::Replica>(env->replica_db.get(), ro);
  if (Status s = env->replica->Start(); !s.ok()) {
    *err = "replica: " + s.ToString();
    return nullptr;
  }
  const std::string v = EncodeValue({kInitWriter, 0}, kValueBytes);
  auto txn = env->primary->Begin();
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (!txn->Put(env->p_mem, MakeKey(k), v).ok() ||
        !txn->Put(env->p_stor, MakeKey(k), v).ok()) {
      *err = "preload";
      return nullptr;
    }
  }
  if (Status s = txn->Commit(); !s.ok()) {
    *err = "preload commit: " + s.ToString();
    return nullptr;
  }
  if (!env->WaitCaughtUp()) {
    *err = "replica did not catch up after preload";
    return nullptr;
  }
  return env;
}

/// Per key: writes acknowledged on the primary that no replica read has
/// observed yet, and the newest version any replica read has observed.
struct KeyLag {
  std::mutex mu;
  std::deque<std::pair<uint64_t, int64_t>> acked;  // (seq, ack time)
  uint64_t observed = 0;
};

struct Writer {
  int index = 0;
  Rng rng;
  uint64_t next_seq = 1;
  uint64_t next_txn = 0;
  std::map<uint64_t, Tag> acked;
};

struct Reader {
  int index = 0;
  uint64_t next_key = 0;
  VersionTracker versions;
  std::vector<std::string> errors;
};

struct Shared {
  Env* env;
  KeyLag lag[kKeys];
};

void WriteLoop(Shared& sh, Writer& w, SpanLog* log, Tally* t, int64_t start,
               int64_t deadline) {
  Env& env = *sh.env;
  auto gap = [&] { return PoissonGapNs(w.rng, kRatePerS / kWriters); };
  for (int64_t due = start + gap(); due < deadline; due += gap()) {
    const uint64_t key = static_cast<uint64_t>(w.index) +
                         kWriters * w.rng.Uniform(kKeys / kWriters);
    const uint64_t root = WaitUntilDue(log, w.next_txn, due);
    Tag tag;
    Outcome o = RunTxn(
        env.primary.get(), log, w.next_txn++, due,
        [&](TracedTxn& txn, bool*) {
          tag = {static_cast<uint32_t>(w.index), w.next_seq++};
          const std::string v = EncodeValue(tag, kValueBytes);
          SKEENA_RETURN_NOT_OK(txn.Put(env.p_mem, MakeKey(key), v));
          SKEENA_RETURN_NOT_OK(txn.Put(env.p_stor, MakeKey(key), v));
          return txn.Commit();
        },
        t, root);
    if (o != Outcome::kCommitted) continue;
    const int64_t ack = NowNs();
    w.acked[key] = tag;
    KeyLag& kl = sh.lag[key];
    std::lock_guard<std::mutex> g(kl.mu);
    if (tag.seq <= kl.observed) {
      t->repl_lag.Add(0);  // a replica read saw it before the ack returned
    } else {
      kl.acked.emplace_back(tag.seq, ack);
    }
  }
}

// Replica reads are timed directly (repl.replica_read_p50_us) and carry no
// spans, so the core.txn span totals stay per primary commit.
void ReadLoop(Shared& sh, Reader& r, Tally* t, int64_t deadline) {
  Env& env = *sh.env;
  std::string mv, sv;
  while (NowNs() < deadline) {
    const uint64_t key = (r.next_key++ * kReaders + static_cast<uint64_t>(r.index)) % kKeys;
    const int64_t t0 = NowNs();
    auto txn = env.replica_db->Begin();
    Status ms = txn->Get(env.r_mem, MakeKey(key), &mv);
    Status ss = txn->Get(env.r_stor, MakeKey(key), &sv);
    Status cs = ms.ok() && ss.ok() ? txn->Commit() : Status::OK();
    const int64_t now = NowNs();
    t->ops++;
    if (!ms.ok() || !ss.ok() || !cs.ok()) {
      txn->Abort();
      t->failed++;
      std::fprintf(stderr, "perfbench: replica read failed: %s / %s / %s\n",
                   ms.ToString().c_str(), ss.ToString().c_str(), cs.ToString().c_str());
      continue;
    }
    t->reads++;
    t->read_lat.Add(now - t0);
    std::string why;
    Tag tag;
    if (!CheckPair(true, mv, true, sv, &why) || !DecodeTag(mv, &tag)) {
      r.errors.push_back("replica key " + std::to_string(key) + ": " + why);
      continue;
    }
    if (!r.versions.Observe(key, tag.seq, &why)) {
      r.errors.push_back("replica reader " + std::to_string(r.index) + ": " + why);
      continue;
    }
    if (tag.writer == kInitWriter) continue;
    KeyLag& kl = sh.lag[key];
    std::lock_guard<std::mutex> g(kl.mu);
    if (tag.seq <= kl.observed) continue;
    kl.observed = tag.seq;
    while (!kl.acked.empty() && kl.acked.front().first <= tag.seq) {
      t->repl_lag.Add(now - kl.acked.front().second);
      kl.acked.pop_front();
    }
  }
}

Phase RunPhase(Shared& sh, std::vector<Writer>& writers, std::vector<Reader>& readers,
               int64_t duration_ns, TraceSink* sink) {
  std::vector<Tally> wt(writers.size()), rt(readers.size());
  std::vector<SpanLog*> wl;
  for (size_t i = 0; i < writers.size(); ++i) wl.push_back(sink->NewLog());
  const int64_t start = NowNs() + 2'000'000;
  const int64_t deadline = start + duration_ns;
  const int64_t cpu0 = ProcessCpuNs();
  std::vector<std::thread> threads;
  std::vector<int64_t> writer_end(writers.size(), deadline);
  for (size_t i = 0; i < writers.size(); ++i) {
    threads.emplace_back([&, i] {
      WriteLoop(sh, writers[i], wl[i], &wt[i], start, deadline);
      writer_end[i] = NowNs();
    });
  }
  for (size_t i = 0; i < readers.size(); ++i) {
    threads.emplace_back([&, i] { ReadLoop(sh, readers[i], &rt[i], deadline); });
  }
  for (auto& th : threads) th.join();
  Phase p;
  p.cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  int64_t end = deadline;
  for (int64_t e : writer_end) end = std::max(end, e);
  p.wall_s = static_cast<double>(end - start) / 1e9;
  for (const Tally& t : wt) p.tally.Merge(t);
  for (const Tally& t : rt) p.tally.Merge(t);
  return p;
}

std::map<uint64_t, Tag> Expected(const std::vector<Writer>& writers) {
  std::map<uint64_t, Tag> expected;
  for (uint64_t k = 0; k < kKeys; ++k) expected[k] = {kInitWriter, 0};
  for (const Writer& w : writers) {
    for (const auto& [k, tag] : w.acked) expected[k] = tag;
  }
  return expected;
}

}  // namespace

void RunRepl(const Args& args, Report* rep) {
  SetupTime setup;
  std::unique_ptr<Env> env = RepeatSetup(
      args, [](int, std::string* err) { return Setup(err); }, &setup, rep);
  if (!env) return;
  Shared sh{env.get(), {}};
  std::vector<Writer> writers(kWriters);
  for (int i = 0; i < kWriters; ++i) {
    writers[i].index = i;
    writers[i].rng = Rng(args.seed * 6151 + static_cast<uint64_t>(i));
  }
  std::vector<Reader> readers(kReaders);
  for (int i = 0; i < kReaders; ++i) readers[i].index = i;

  const int64_t secs_ns = int64_t{args.seconds} * 1'000'000'000;
  TraceSink off(false), sink(true);
  Phase untraced, traced;
  Counters delta;
  auto run = [&](int64_t ns, TraceSink* s) { return RunPhase(sh, writers, readers, ns, s); };
  if (!args.trace) {
    untraced = run(secs_ns, &off);
  } else {
    RunAlternating(
        secs_ns, run,
        [&] {
          Counters c = ReadCounters(env->primary.get());
          const auto pr = env->replica->progress();
          c.repl_watermarks = pr.watermarks;
          c.repl_groups = pr.groups_applied;
          c.repl_reconnects = pr.reconnects;
          return c;
        },
        &sink, &untraced, &traced, &delta);
  }
  LayerExtras x;
  x.repl = true;
  {
    ScopedSpan span(args.trace ? sink.NewLog() : nullptr, 0, 0,
                    SpanKind::kWaitCaughtUp);
    const int64_t t0 = NowNs();
    if (!env->WaitCaughtUp()) rep->Fail("replica did not catch up");
    x.repl_catchup_ms = static_cast<double>(NowNs() - t0) / 1e6;
  }
  for (const Reader& r : readers) {
    for (const auto& e : r.errors) rep->Fail(e);
  }
  CheckTables(env->replica_db.get(), env->r_mem, env->r_stor, Expected(writers),
              "replica after catch-up", rep);
  Finish(args, setup, untraced, traced, delta, sink, x, rep);
}

}  // namespace perfbench
