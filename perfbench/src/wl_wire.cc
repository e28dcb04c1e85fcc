// wire-cross-rw: open loop over SKNA against an in-process Server with
// default options. Four connections, each with its own load thread and
// Poisson arrivals; every transaction is BEGIN, one EXEC (GET the memdb and
// stordb rows of a random key, PUT both rows of a key in the connection's
// own partition), COMMIT, written to the socket in one pipelined send.
// Latency runs from the due time to the COMMIT_OK arrival; an aborted
// attempt is resent at once and its time counts.

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdio>
#include <deque>
#include <map>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/random.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace perfbench {
namespace {

using skeena::Database;
using skeena::EngineKind;
using skeena::Key;
using skeena::MakeKey;
using skeena::Rng;
using skeena::Status;
using skeena::TableHandle;
namespace srv = skeena::server;

constexpr int kConns = 4;
constexpr uint64_t kKeys = 4096;          // partition of key k: k % kConns
constexpr size_t kValueBytes = 64;
constexpr double kRatePerS = 2000;        // aggregate offered rate
constexpr uint32_t kInitWriter = kConns;  // tag of the preloaded rows
constexpr int64_t kDrainLimitNs = 20'000'000'000;

struct Env {
  std::unique_ptr<Database> db;
  TableHandle mem, stor;
  std::unique_ptr<srv::Server> server;
  std::vector<std::unique_ptr<srv::Client>> clients;
  uint32_t mem_tok = 0, stor_tok = 0;
};

bool Preload(Database* db, const TableHandle& mem, const TableHandle& stor) {
  const std::string v = EncodeValue({kInitWriter, 0}, kValueBytes);
  for (uint64_t start = 0; start < kKeys; start += 256) {
    auto txn = db->Begin();
    for (uint64_t k = start; k < start + 256; ++k) {
      if (!txn->Put(mem, MakeKey(k), v).ok() ||
          !txn->Put(stor, MakeKey(k), v).ok()) {
        return false;
      }
    }
    if (!txn->Commit().ok()) return false;
  }
  return true;
}

std::unique_ptr<Env> Setup(std::string* err) {
  auto env = std::make_unique<Env>();
  env->db = std::make_unique<Database>();
  auto m = env->db->CreateTable("mem_t", EngineKind::kMem, kValueBytes);
  auto s = env->db->CreateTable("stor_t", EngineKind::kStor, kValueBytes);
  if (!m.ok() || !s.ok()) {
    *err = "create tables";
    return nullptr;
  }
  env->mem = *m;
  env->stor = *s;
  if (!Preload(env->db.get(), env->mem, env->stor)) {
    *err = "preload";
    return nullptr;
  }
  env->server = std::make_unique<srv::Server>(env->db.get());
  if (Status st = env->server->Start(); !st.ok()) {
    *err = "server start: " + st.ToString();
    return nullptr;
  }
  for (int c = 0; c < kConns; ++c) {
    auto client = std::make_unique<srv::Client>();
    if (Status st = client->Connect("127.0.0.1", env->server->port()); !st.ok()) {
      *err = "connect: " + st.ToString();
      return nullptr;
    }
    auto mt = client->OpenTable("mem_t");
    auto stt = client->OpenTable("stor_t");
    if (!mt.ok() || !stt.ok()) {
      *err = "open table";
      return nullptr;
    }
    env->mem_tok = *mt;
    env->stor_tok = *stt;
    env->clients.push_back(std::move(client));
  }
  return env;
}

/// One connection's load thread state; persists across phases.
struct Conn {
  int index = 0;
  srv::Client* client = nullptr;
  uint32_t mem_tok = 0, stor_tok = 0;
  Rng rng;
  uint64_t next_seq = 1;
  uint64_t next_rid = 1u << 20;  // above the ids the sync handshake used
  uint64_t next_txn = 0;
  std::string inbuf;
  std::map<uint64_t, Tag> acked;  // key -> last acknowledged write
  std::vector<std::string> errors;
  int64_t end_ns = 0;
};

struct Attempt {
  uint64_t txn_id = 0;
  int64_t due = 0;
  SpanLog* log = nullptr;  // null unless this transaction is traced
  uint64_t root_span = 0;
  int attempt_no = 0;
  uint64_t read_key = 0, write_key = 0;
  Tag tag;
  uint64_t rid[3] = {0, 0, 0};  // BEGIN, EXEC, COMMIT
  int stage = 0;                // responses received so far
  int64_t send_start = 0, send_end = 0, begin_at = 0, exec_at = 0;
  bool exec_aborted = false;
  std::string failure;  // non-abort error seen; the operation fails
};

class ConnLoad {
 public:
  ConnLoad(Conn* c, SpanLog* log, Tally* tally) : c_(c), log_(log), t_(tally) {}

  void Run(int64_t start, int64_t deadline) {
    auto gap = [&] { return PoissonGapNs(c_->rng, kRatePerS / kConns); };
    int64_t next_due = start + gap();
    int64_t last_progress = NowNs();
    for (;;) {
      int64_t now = NowNs();
      if (next_due < deadline && now >= next_due) {
        Attempt a;
        a.txn_id = c_->next_txn++;
        a.due = next_due;
        a.log = log_;
        a.root_span = a.log ? a.log->NewId() : 0;
        a.read_key = c_->rng.Uniform(kKeys);
        a.write_key = static_cast<uint64_t>(c_->index) +
                      kConns * c_->rng.Uniform(kKeys / kConns);
        next_due += gap();
        if (!Send(a)) return;
        continue;
      }
      if (next_due >= deadline && inflight_.empty()) break;
      if (c_->errors.size() > 16) return;
      int64_t wait_ns = next_due < deadline ? next_due - now : 100'000'000;
      if (next_due >= deadline && now - last_progress > kDrainLimitNs) {
        c_->errors.push_back("drain timed out with responses outstanding");
        return;
      }
      pollfd pfd{c_->client->fd(), POLLIN, 0};
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      int r = ::ppoll(&pfd, 1, &ts, nullptr);
      if (r > 0) {
        if (!Receive()) return;
        last_progress = NowNs();
      }
    }
    c_->end_ns = last_arrival_;
  }

 private:
  bool Send(Attempt& a) {
    a.tag = {static_cast<uint32_t>(c_->index), c_->next_seq++};
    const std::string v = EncodeValue(a.tag, kValueBytes);
    for (auto& r : a.rid) r = c_->next_rid++;
    std::string frames =
        srv::EncodeBegin(a.rid[0], skeena::IsolationLevel::kSnapshot);
    frames += srv::EncodeExec(
        a.rid[1], {srv::Stmt::Get(c_->mem_tok, MakeKey(a.read_key)),
                   srv::Stmt::Get(c_->stor_tok, MakeKey(a.read_key)),
                   srv::Stmt::Put(c_->mem_tok, MakeKey(a.write_key), v),
                   srv::Stmt::Put(c_->stor_tok, MakeKey(a.write_key), v)});
    frames += srv::EncodeCommit(a.rid[2]);
    a.stage = 0;
    a.exec_aborted = false;
    a.failure.clear();
    a.send_start = NowNs();
    Status s = c_->client->SendRaw(frames);
    a.send_end = NowNs();
    t_->attempts++;
    if (!s.ok()) {
      c_->errors.push_back("send: " + s.ToString());
      return false;
    }
    if (a.log && a.attempt_no == 0) {
      a.log->Add(a.log->NewId(), a.root_span, a.txn_id, SpanKind::kSendLag, a.due,
                 a.send_start);
    }
    inflight_.push_back(a);
    return true;
  }

  bool Receive() {
    char buf[65536];
    for (;;) {
      ssize_t n = ::recv(c_->client->fd(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c_->inbuf.append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      c_->errors.push_back("connection closed by server");
      return false;
    }
    const int64_t at = NowNs();
    size_t off = 0;
    for (;;) {
      size_t consumed = 0;
      srv::Frame f;
      srv::Err err;
      uint64_t hint;
      auto r = srv::ExtractFrame(std::string_view(c_->inbuf).substr(off),
                                 &consumed, &f, &err, &hint);
      if (r == srv::ParseResult::kNeedMore) break;
      if (r == srv::ParseResult::kError) {
        c_->errors.push_back("server framing violation");
        return false;
      }
      off += consumed;
      if (!OnFrame(f, at)) return false;
    }
    c_->inbuf.erase(0, off);
    return true;
  }

  bool OnFrame(const srv::Frame& f, int64_t at) {
    if (inflight_.empty()) {
      c_->errors.push_back("response with nothing in flight");
      return false;
    }
    Attempt& a = inflight_.front();
    if (f.request_id != a.rid[a.stage]) {
      c_->errors.push_back("response out of order");
      return false;
    }
    const auto op = static_cast<srv::Op>(f.opcode);
    srv::Response rsp;
    rsp.request_id = f.request_id;
    rsp.op = op;
    rsp.body = f.body;
    last_arrival_ = at;
    switch (a.stage++) {
      case 0:
        a.begin_at = at;
        if (op != srv::Op::kBeginOk) a.failure = "BEGIN: " + rsp.err_message();
        return true;
      case 1:
        a.exec_at = at;
        if (!a.failure.empty()) return true;
        if (op != srv::Op::kExecOk) {
          a.failure = "EXEC: " + rsp.err_message();
          return true;
        }
        OnExec(a, f.body);
        return true;
      default:
        return OnCommit(a, op, rsp, at);
    }
  }

  void OnExec(Attempt& a, const std::string& body) {
    using K = srv::Stmt::Kind;
    std::vector<srv::StmtResult> res;
    if (!srv::DecodeExecOkBody(body, {K::kGet, K::kGet, K::kPut, K::kPut},
                               &res) ||
        res.size() != 4) {
      a.failure = "mangled EXEC_OK";
      return;
    }
    for (const auto& r : res) {
      if (r.status == srv::Err::kOk) continue;
      if (srv::ErrIsAbort(r.status) || r.status == srv::Err::kNoTxn) {
        a.exec_aborted = true;
        continue;
      }
      a.failure = std::string("statement error ") + srv::ErrName(r.status);
      return;
    }
    if (!a.exec_aborted) {
      std::string why;
      if (!CheckPair(res[0].found, res[0].value, res[1].found, res[1].value,
                     &why)) {
        c_->errors.push_back("key " + std::to_string(a.read_key) + ": " + why);
      }
    }
  }

  bool OnCommit(Attempt& a, srv::Op op, const srv::Response& rsp, int64_t at) {
    Attempt done = a;
    inflight_.pop_front();
    RecordAttemptSpans(done, at);
    if (!done.failure.empty()) return Fail(done.failure);
    if (op == srv::Op::kCommitOk) {
      if (done.exec_aborted) return Fail("COMMIT_OK after aborted EXEC");
      c_->acked[done.write_key] = done.tag;
      t_->ops++;
      t_->commits++;
      t_->user_bytes += 2 * (sizeof(Key) + kValueBytes);
      t_->commit_lat.Add(at - done.due);
      if (done.log) {
        done.log->Add(done.root_span, 0, done.txn_id, SpanKind::kTxn, done.due, at,
                      true);
      }
      return true;
    }
    srv::Err code = rsp.err_code();
    bool retry = srv::ErrIsAbort(code) ||
                 (done.exec_aborted && code == srv::Err::kNoTxn);
    if (!retry) return Fail("COMMIT: " + rsp.err_message());
    if (done.attempt_no + 1 >= kMaxAttempts) return Fail("retry cap");
    done.attempt_no++;
    return Send(done);
  }

  static void RecordAttemptSpans(const Attempt& a, int64_t at) {
    SpanLog* log = a.log;
    if (!log) return;
    const uint64_t id = log->NewId();
    log->Add(id, a.root_span, a.txn_id, SpanKind::kAttempt, a.send_start, at);
    log->Add(log->NewId(), id, a.txn_id, SpanKind::kSend, a.send_start, a.send_end);
    log->Add(log->NewId(), id, a.txn_id, SpanKind::kRspBegin, a.send_end, a.begin_at);
    log->Add(log->NewId(), id, a.txn_id, SpanKind::kRspExec, a.begin_at, a.exec_at);
    log->Add(log->NewId(), id, a.txn_id, SpanKind::kRspCommit, a.exec_at, at);
  }

  // A non-abort error or the retry cap: the operation fails (it is not a
  // check failure; the run stays correct if every check passes).
  bool Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: conn %d: operation failed: %s\n",
                 c_->index, why.c_str());
    t_->ops++;
    t_->failed++;
    return true;
  }

  Conn* c_;
  SpanLog* log_;
  Tally* t_;
  std::deque<Attempt> inflight_;
  int64_t last_arrival_ = 0;
};

Phase RunPhase(std::vector<Conn>& conns, int64_t duration_ns, TraceSink* sink) {
  std::vector<Tally> tallies(conns.size());
  std::vector<SpanLog*> logs;
  for (size_t i = 0; i < conns.size(); ++i) logs.push_back(sink->NewLog());
  const int64_t start = NowNs() + 2'000'000;
  const int64_t deadline = start + duration_ns;
  const int64_t cpu0 = ProcessCpuNs();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      ConnLoad d(&conns[i], logs[i], &tallies[i]);
      d.Run(start, deadline);
    });
  }
  for (auto& th : threads) th.join();
  Phase p;
  p.cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  int64_t end = deadline;
  for (size_t i = 0; i < conns.size(); ++i) {
    p.tally.Merge(tallies[i]);
    end = std::max(end, conns[i].end_ns);
  }
  p.wall_s = static_cast<double>(end - start) / 1e9;
  return p;
}

std::map<uint64_t, Tag> Expected(const std::vector<Conn>& conns) {
  std::map<uint64_t, Tag> expected;
  for (uint64_t k = 0; k < kKeys; ++k) expected[k] = {kInitWriter, 0};
  for (const Conn& c : conns) {
    for (const auto& [k, tag] : c.acked) expected[k] = tag;
  }
  return expected;
}

}  // namespace

void RunWire(const Args& args, Report* rep) {
  SetupTime setup;
  std::unique_ptr<Env> env = RepeatSetup(
      args, [](int, std::string* err) { return Setup(err); }, &setup, rep);
  if (!env) return;
  std::vector<Conn> conns(kConns);
  for (int i = 0; i < kConns; ++i) {
    conns[i].index = i;
    conns[i].client = env->clients[i].get();
    conns[i].mem_tok = env->mem_tok;
    conns[i].stor_tok = env->stor_tok;
    conns[i].rng = Rng(args.seed * 1000003 + static_cast<uint64_t>(i));
  }
  const int64_t secs_ns = int64_t{args.seconds} * 1'000'000'000;
  TraceSink off(false), sink(true);
  Phase untraced, traced;
  Counters delta;
  if (!args.trace) {
    untraced = RunPhase(conns, secs_ns, &off);
  } else {
    RunAlternating(
        secs_ns, [&](int64_t ns, TraceSink* s) { return RunPhase(conns, ns, s); },
        [&] {
          Counters c = ReadCounters(env->db.get());
          c.server_frames_out = env->server->stats().frames_out;
          return c;
        },
        &sink, &untraced, &traced, &delta);
  }
  for (const Conn& c : conns) {
    for (const auto& e : c.errors) rep->Fail("conn " + std::to_string(c.index) + ": " + e);
  }
  CheckTables(env->db.get(), env->mem, env->stor, Expected(conns), "final state", rep);
  Finish(args, setup, untraced, traced, delta, sink, LayerExtras(), rep);
}

}  // namespace perfbench
