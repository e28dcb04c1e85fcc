// wal-disk-recover: open loop, in-process, four writer threads with
// Poisson arrivals at a fixed aggregate rate. Each transaction
// blind-writes the memdb and stordb rows of one key from the thread's own
// partition. The database lives in a fresh directory of the
// checkout's filesystem with the default log backend and flush policy, so
// every group commit is a real fdatasync. After the timed phase the
// database is closed, reopened and recovered, and every key must hold its
// thread's last acknowledged write in both engines.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/random.h"

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

constexpr int kThreads = 4;
constexpr double kRatePerS = 500;  // aggregate offered rate
constexpr uint64_t kKeys = 4096;  // partition of key k: k % kThreads
constexpr size_t kValueBytes = 64;
constexpr uint32_t kInitWriter = kThreads;

struct Env {
  std::string dir;
  std::unique_ptr<Database> db;
  TableHandle mem, stor;
};

DatabaseOptions Options(const std::string& dir) {
  DatabaseOptions opts;
  opts.data_dir = dir;
  return opts;
}

std::unique_ptr<Env> Setup(const std::string& dir, std::string* err) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *err = "mkdir " + dir;
    return nullptr;
  }
  auto env = std::make_unique<Env>();
  env->dir = dir;
  env->db = std::make_unique<Database>(Options(dir));
  auto m = env->db->CreateTable("mem_t", EngineKind::kMem, kValueBytes);
  auto s = env->db->CreateTable("stor_t", EngineKind::kStor, kValueBytes);
  if (!m.ok() || !s.ok()) {
    *err = "create tables";
    return nullptr;
  }
  env->mem = *m;
  env->stor = *s;
  const std::string v = EncodeValue({kInitWriter, 0}, kValueBytes);
  for (uint64_t start = 0; start < kKeys; start += 256) {
    auto txn = env->db->Begin();
    for (uint64_t k = start; k < start + 256; ++k) {
      if (!txn->Put(env->mem, MakeKey(k), v).ok() ||
          !txn->Put(env->stor, MakeKey(k), v).ok()) {
        *err = "preload put";
        return nullptr;
      }
    }
    if (Status st = txn->Commit(); !st.ok()) {
      *err = "preload commit: " + st.ToString();
      return nullptr;
    }
  }
  return env;
}

struct Writer {
  int index = 0;
  Rng rng;
  uint64_t next_seq = 1;
  uint64_t next_txn = 0;
  std::map<uint64_t, Tag> acked;
};

Phase RunPhase(Env& env, std::vector<Writer>& writers, int64_t duration_ns,
               TraceSink* sink) {
  std::vector<Tally> tallies(writers.size());
  std::vector<SpanLog*> logs;
  for (size_t i = 0; i < writers.size(); ++i) logs.push_back(sink->NewLog());
  const int64_t start = NowNs() + 2'000'000;
  const int64_t deadline = start + duration_ns;
  const int64_t cpu0 = ProcessCpuNs();
  std::vector<std::thread> threads;
  std::vector<int64_t> writer_end(writers.size(), deadline);
  for (size_t i = 0; i < writers.size(); ++i) {
    threads.emplace_back([&, i] {
      Writer& w = writers[i];
      Tally& t = tallies[i];
      auto gap = [&] { return PoissonGapNs(w.rng, kRatePerS / kThreads); };
      for (int64_t due = start + gap(); due < deadline; due += gap()) {
        const uint64_t key = static_cast<uint64_t>(w.index) +
                             kThreads * w.rng.Uniform(kKeys / kThreads);
        const uint64_t root = WaitUntilDue(logs[i], w.next_txn, due);
        Tag tag;
        Outcome o = RunTxn(
            env.db.get(), logs[i], w.next_txn++, due,
            [&](TracedTxn& txn, bool*) {
              tag = {static_cast<uint32_t>(w.index), w.next_seq++};
              const std::string v = EncodeValue(tag, kValueBytes);
              SKEENA_RETURN_NOT_OK(txn.Put(env.mem, MakeKey(key), v));
              SKEENA_RETURN_NOT_OK(txn.Put(env.stor, MakeKey(key), v));
              return txn.Commit();
            },
            &t, root);
        if (o == Outcome::kCommitted) {
          w.acked[key] = tag;
        }
      }
      writer_end[i] = NowNs();
    });
  }
  for (auto& th : threads) th.join();
  Phase p;
  p.cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  int64_t end = deadline;
  for (int64_t e : writer_end) end = std::max(end, e);
  p.wall_s = static_cast<double>(end - start) / 1e9;
  for (const Tally& t : tallies) p.tally.Merge(t);
  return p;
}

/// Closes the database, reopens it from its directory and recovers it;
/// returns the reopen + Recover() time.
double Reopen(Env& env, SpanLog* log, Report* rep) {
  env.db.reset();
  ScopedSpan span(log, 0, 0, SpanKind::kRecover);
  const int64_t t0 = NowNs();
  env.db = std::make_unique<Database>(Options(env.dir));
  Status s = env.db->Recover();
  const double secs = static_cast<double>(NowNs() - t0) / 1e9;
  if (!s.ok()) rep->Fail("recover: " + s.ToString());
  auto m = env.db->GetTable("mem_t");
  auto st = env.db->GetTable("stor_t");
  if (!m.ok() || !st.ok()) {
    rep->Fail("tables missing after recovery");
  } else {
    env.mem = *m;
    env.stor = *st;
  }
  return secs;
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

void RunWal(const Args& args, Report* rep) {
  // One directory per set-up, all removed at the end, so no set-up is
  // timed deleting the one before.
  const std::string base = args.work_dir + "/wal-" + std::to_string(::getpid());
  auto dir = [&](int i) { return base + "-" + std::to_string(i); };
  auto remove_dirs = [&] {
    std::error_code ec;
    for (int i = 0; i < kSetupRuns; ++i) std::filesystem::remove_all(dir(i), ec);
  };
  SetupTime setup;
  std::unique_ptr<Env> env = RepeatSetup(
      args, [&](int i, std::string* err) { return Setup(dir(i), err); }, &setup,
      rep);
  if (!env) {
    remove_dirs();
    return;
  }
  std::vector<Writer> writers(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    writers[i].index = i;
    writers[i].rng = Rng(args.seed * 7919 + static_cast<uint64_t>(i));
  }
  const int64_t secs_ns = int64_t{args.seconds} * 1'000'000'000;
  TraceSink off(false), sink(true);
  Phase untraced, traced;
  Counters delta;
  if (!args.trace) {
    untraced = RunPhase(*env, writers, secs_ns, &off);
  } else {
    RunAlternating(
        secs_ns, [&](int64_t ns, TraceSink* s) { return RunPhase(*env, writers, ns, s); },
        [&] { return ReadCounters(env->db.get()); }, &sink, &untraced, &traced,
        &delta);
  }
  LayerExtras x;
  x.recovery_s = Reopen(*env, args.trace ? sink.NewLog() : nullptr, rep);
  x.wal_bytes_replayed = env->db->engine(EngineKind::kMem)->CurrentLsn() +
                         env->db->engine(EngineKind::kStor)->CurrentLsn();
  CheckTables(env->db.get(), env->mem, env->stor, Expected(writers),
              "after recovery", rep);
  env.reset();
  remove_dirs();
  Finish(args, setup, untraced, traced, delta, sink, x, rep);
}

}  // namespace perfbench
