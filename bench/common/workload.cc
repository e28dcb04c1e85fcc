#include "bench/common/workload.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <thread>

#include "bench/common/bench_json.h"
#include "common/env.h"

namespace skeena::bench {

namespace {
constexpr std::string_view kUserRollback = "user rollback";
}  // namespace

Status UserRollback() { return Status::Aborted(std::string(kUserRollback)); }

bool IsUserRollback(const Status& s) {
  return s.IsAborted() && s.message() == kUserRollback;
}

RunResult RunWorkload(int threads, uint64_t duration_ms, const TxnFn& fn) {
  struct ThreadStats {
    uint64_t commits = 0;
    uint64_t queries = 0;
    uint64_t engine_aborts = 0;
    uint64_t skeena_aborts = 0;
    uint64_t rollbacks = 0;
    Histogram latency;
  };
  std::vector<ThreadStats> stats(threads);
  std::barrier start_barrier(threads + 1);
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 13);
      ThreadStats& s = stats[t];
      start_barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_acquire)) {
        auto begin = std::chrono::steady_clock::now();
        uint64_t queries = 0;
        Status st = fn(t, rng, &queries);
        auto end = std::chrono::steady_clock::now();
        s.queries += queries;
        if (IsUserRollback(st)) {
          s.rollbacks++;
        } else if (st.ok()) {
          s.commits++;
          s.latency.Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                   begin)
                  .count()));
        } else if (st.IsSkeenaAbort()) {
          s.skeena_aborts++;
        } else {
          s.engine_aborts++;
        }
      }
    });
  }

  start_barrier.arrive_and_wait();
  auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  auto t1 = std::chrono::steady_clock::now();

  RunResult result;
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  for (const ThreadStats& s : stats) {
    result.commits += s.commits;
    result.queries += s.queries;
    result.engine_aborts += s.engine_aborts;
    result.skeena_aborts += s.skeena_aborts;
    result.rollbacks += s.rollbacks;
    result.latency.Merge(s.latency);
  }
  return result;
}

BenchScale BenchScale::FromEnv() {
  BenchScale scale;
  scale.full = GetEnvBool("SKEENA_BENCH_FULL", false);
  scale.duration_ms = static_cast<uint64_t>(
      GetEnvInt("SKEENA_BENCH_MS", scale.full ? 5000 : 400));
  // Default connection ladder tracks the hardware (the paper saturates its
  // 80-hyperthread box at 80 connections; oversubscribing a small machine
  // inverts every curve into scheduler noise).
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 4;
  std::string default_conns =
      "1," + std::to_string(hw) + "," + std::to_string(2 * hw);
  if (hw == 1) default_conns = "1,2";
  std::string conns = GetEnvString(
      "SKEENA_BENCH_CONNS", scale.full ? "1,40,80,160" : default_conns);
  std::istringstream in(conns);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (!tok.empty()) scale.connections.push_back(std::stoi(tok));
  }
  if (scale.connections.empty()) scale.connections = {1, hw};
  return scale;
}

ResultMatrix::ResultMatrix(std::string title, std::string row_header)
    : title_(std::move(title)), row_header_(std::move(row_header)) {}

void ResultMatrix::SetColumns(const std::vector<std::string>& columns) {
  columns_ = columns;
}

void ResultMatrix::Set(const std::string& row, const std::string& column,
                       double value) {
  size_t col = 0;
  for (; col < columns_.size(); ++col) {
    if (columns_[col] == column) break;
  }
  if (col == columns_.size()) columns_.push_back(column);
  size_t r = 0;
  for (; r < row_order_.size(); ++r) {
    if (row_order_[r] == row) break;
  }
  if (r == row_order_.size()) {
    row_order_.push_back(row);
    values_.emplace_back();
  }
  if (values_[r].size() <= col) values_[r].resize(col + 1, 0);
  values_[r][col] = value;
  // Every matrix cell is also a perf-trajectory point (BENCH_<bin>.json).
  JsonEmitter::Global().Add(title_, row, column, value);
}

void ResultMatrix::Print(int digits) const {
  std::printf("\n=== %s ===\n", title_.c_str());
  std::printf("%-28s", row_header_.c_str());
  for (const auto& c : columns_) std::printf(" %12s", c.c_str());
  std::printf("\n");
  for (size_t r = 0; r < row_order_.size(); ++r) {
    std::printf("%-28s", row_order_[r].c_str());
    for (size_t c = 0; c < columns_.size(); ++c) {
      double v = c < values_[r].size() ? values_[r][c] : 0;
      std::printf(" %12.*f", digits, v);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace skeena::bench
