// End-to-end validation of the TPC-C implementation used by the paper's
// Figures 13-16: population invariants, the five transactions, the spec's
// consistency conditions under concurrency, and table-placement variants.

#include "bench/common/tpcc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace skeena::bench {
namespace {

TpccConfig SmallConfig() {
  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_wh = 4;
  cfg.customers_per_district = 30;
  cfg.items = 200;
  cfg.pool_fraction = 2.0;
  return cfg;
}

TEST(TpccTest, PopulationSatisfiesConsistency) {
  Tpcc tpcc(SmallConfig());
  EXPECT_TRUE(tpcc.CheckConsistency().ok());
}

TEST(TpccTest, NewOrderAdvancesDistrictCounter) {
  Tpcc tpcc(SmallConfig());
  Rng rng(1);
  uint64_t q = 0;
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    if (tpcc.NewOrder(rng, 1, &q).ok()) committed++;
  }
  EXPECT_GT(committed, 0);
  EXPECT_TRUE(tpcc.CheckConsistency().ok())
      << "order ids must stay dense per district";
}

// Counts `table`'s rows whose key starts with warehouse `w`.
uint64_t CountRows(Tpcc& tpcc, const std::string& table, uint16_t w) {
  auto handle = tpcc.db()->GetTable(table);
  EXPECT_TRUE(handle.ok());
  KeyBuilder prefix;
  prefix.AppendU16(w);
  uint64_t n = 0;
  auto txn = tpcc.db()->Begin();
  EXPECT_TRUE(txn->Scan(*handle, prefix.Build(), 0,
                        [&](const Key& key, const std::string&) {
                          if (key[0] != prefix.Build()[0] ||
                              key[1] != prefix.Build()[1]) {
                            return false;
                          }
                          n++;
                          return true;
                        })
                  .ok());
  txn->Abort();
  return n;
}

TEST(TpccTest, NewOrderRollbackIsNeitherCommitNorAbort) {
  TpccConfig cfg = SmallConfig();
  cfg.warehouses = 1;
  Tpcc tpcc(cfg);
  const uint64_t orders_before = CountRows(tpcc, "orders", 1);
  Rng rng(11);
  uint64_t q = 0;
  int committed = 0, rolled_back = 0;
  for (int i = 0; i < 400; ++i) {
    Status s = tpcc.NewOrder(rng, 1, &q);
    if (s.ok()) {
      committed++;
    } else if (IsUserRollback(s)) {
      rolled_back++;
    } else {
      ASSERT_TRUE(s.IsAnyAbort()) << s.ToString();
    }
  }
  EXPECT_GT(rolled_back, 0) << "the 1% invalid-item rollback never fired";
  EXPECT_EQ(CountRows(tpcc, "orders", 1), orders_before + committed)
      << "only committed New-Orders may leave an ORDER row";
  EXPECT_TRUE(tpcc.CheckConsistency().ok());

  // The closed-loop driver tallies rollbacks apart from commits and aborts.
  RunResult r = RunWorkload(1, 20, [](int, Rng&, uint64_t*) {
    return UserRollback();
  });
  EXPECT_GT(r.rollbacks, 0u);
  EXPECT_EQ(r.commits, 0u);
  EXPECT_EQ(r.engine_aborts + r.skeena_aborts, 0u);
}

TEST(TpccTest, ConsistencyCatchesAMissingOrderLine) {
  TpccConfig cfg = SmallConfig();
  cfg.warehouses = 1;
  Tpcc tpcc(cfg);
  ASSERT_TRUE(tpcc.CheckConsistency().ok());

  // Drop one ORDER-LINE row: condition 4 (sum of O_OL_CNT == ORDER-LINE
  // rows per district) is the only one that sees it.
  auto order_line = tpcc.db()->GetTable("order_line");
  ASSERT_TRUE(order_line.ok());
  KeyBuilder district;
  district.AppendU16(1).AppendU8(2);
  Key victim{};
  bool found = false;
  auto txn = tpcc.db()->Begin();
  ASSERT_TRUE(txn->Scan(*order_line, district.Build(), 1,
                        [&](const Key& key, const std::string&) {
                          victim = key;
                          found = true;
                          return false;
                        })
                  .ok());
  ASSERT_TRUE(found);
  ASSERT_TRUE(txn->Delete(*order_line, victim).ok());
  ASSERT_TRUE(txn->Commit().ok());

  Status s = tpcc.CheckConsistency();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("ORDER-LINE"), std::string::npos)
      << s.ToString();
}

TEST(TpccTest, PaymentUpdatesYtdConsistently) {
  Tpcc tpcc(SmallConfig());
  Rng rng(2);
  uint64_t q = 0;
  for (int i = 0; i < 30; ++i) {
    tpcc.Payment(rng, 1, &q);
  }
  EXPECT_TRUE(tpcc.CheckConsistency().ok())
      << "W_YTD must equal sum of D_YTD after payments";
}

TEST(TpccTest, DeliveryDrainsNewOrders) {
  TpccConfig cfg = SmallConfig();
  cfg.warehouses = 1;
  Tpcc tpcc(cfg);
  Rng rng(3);
  uint64_t q = 0;
  // The load leaves 1/3 of orders undelivered; repeated Delivery must
  // drain them and keep consistency.
  for (int i = 0; i < cfg.customers_per_district; ++i) {
    Status s = tpcc.Delivery(rng, 1, &q);
    ASSERT_TRUE(s.ok() || s.IsAnyAbort()) << s.ToString();
  }
  EXPECT_TRUE(tpcc.CheckConsistency().ok());
}

TEST(TpccTest, OrderStatusAndStockLevelAreReadOnly) {
  Tpcc tpcc(SmallConfig());
  Rng rng(4);
  uint64_t q0 = 0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(tpcc.OrderStatus(rng, 1, &q0).ok());
    EXPECT_TRUE(tpcc.StockLevel(rng, 1, &q0).ok());
  }
  EXPECT_GT(q0, 40u) << "queries must be counted";
  auto stats = tpcc.db()->stats();
  EXPECT_EQ(stats.mem.commits + stats.stor.commits,
            stats.mem.commits + stats.stor.commits);
  EXPECT_TRUE(tpcc.CheckConsistency().ok());
}

TEST(TpccTest, MixRunsAllTransactionTypes) {
  Tpcc tpcc(SmallConfig());
  Rng rng(5);
  uint64_t q = 0;
  int committed = 0;
  for (int i = 0; i < 200; ++i) {
    Status s = tpcc.RunMix(0, rng, &q);
    if (s.ok()) committed++;
    ASSERT_TRUE(s.ok() || s.IsAnyAbort()) << s.ToString();
  }
  EXPECT_GT(committed, 150);
  EXPECT_TRUE(tpcc.CheckConsistency().ok());
}

// The paper's placement experiments: the same workload must stay correct
// for every home-engine assignment.
class TpccPlacementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TpccPlacementTest, ConsistencyHoldsUnderConcurrencyPerPlacement) {
  size_t n_mem = GetParam();
  TpccConfig cfg = SmallConfig();
  const auto& order = Tpcc::PlacementOrder();
  for (size_t i = 0; i < n_mem && i < order.size(); ++i) {
    cfg.mem_tables.insert(order[i]);
  }
  Tpcc tpcc(cfg);

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::atomic<uint64_t> commits{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      uint64_t q = 0;
      for (int i = 0; i < 100; ++i) {
        if (tpcc.RunMix(t, rng, &q).ok()) commits.fetch_add(1);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_GT(commits.load(), 100u);
  EXPECT_TRUE(tpcc.CheckConsistency().ok())
      << "placement with " << n_mem << " memory tables broke consistency";
}

INSTANTIATE_TEST_SUITE_P(Placements, TpccPlacementTest,
                         ::testing::Values(0, 1, 3, 7, 9));

TEST(TpccTest, CrossEnginePlacementProducesCsrTraffic) {
  TpccConfig cfg = SmallConfig();
  cfg.mem_tables = {"customer", "item"};  // New-Order-Opt
  Tpcc tpcc(cfg);
  Rng rng(6);
  uint64_t q = 0;
  for (int i = 0; i < 50; ++i) tpcc.RunMix(0, rng, &q);
  EXPECT_GT(tpcc.db()->stats().csr.accesses, 0u);
}

TEST(TpccTest, SkeenaOffStillRunsButUncoordinated) {
  TpccConfig cfg = SmallConfig();
  cfg.skeena_on = false;
  cfg.mem_tables = {"customer"};
  Tpcc tpcc(cfg);
  Rng rng(7);
  uint64_t q = 0;
  int committed = 0;
  for (int i = 0; i < 100; ++i) {
    if (tpcc.RunMix(0, rng, &q).ok()) committed++;
  }
  EXPECT_GT(committed, 50);
  EXPECT_EQ(tpcc.db()->stats().csr.accesses, 0u);
}

TEST(TpccTest, FixedHomeWarehouseBindsThreads) {
  TpccConfig cfg = SmallConfig();
  cfg.fixed_home_warehouse = true;
  Tpcc tpcc(cfg);
  Rng rng(8);
  EXPECT_EQ(tpcc.HomeWarehouse(0, rng), 1);
  EXPECT_EQ(tpcc.HomeWarehouse(1, rng), 2);
  EXPECT_EQ(tpcc.HomeWarehouse(2, rng), 1);  // wraps around 2 warehouses
}

}  // namespace
}  // namespace skeena::bench
