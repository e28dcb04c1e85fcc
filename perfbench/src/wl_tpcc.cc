// tpcc-new-order-opt: open loop, in-process, four terminal threads with
// Poisson arrivals at a fixed aggregate rate, each running the TPC-C
// standard mix (45/43/4/4/4) under the paper's New-Order-Opt
// placement: CUSTOMER and ITEM (with the customer-by-name index) in memdb,
// every other table in stordb. Each transaction picks a random home
// warehouse among four. The stordb buffer pool holds a quarter of the
// loaded data pages and its table spaces charge TmpfsStack latency, so
// this is the workload whose data is larger than the cache.
//
// The schema and transactions follow TPC-C clauses 1-2 at a reduced scale
// (README.md lists the sizes); money is kept in integer cents so the
// consistency conditions can be checked exactly.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/random.h"
#include "stordb/page.h"

namespace perfbench {
namespace {

using skeena::Database;
using skeena::DatabaseOptions;
using skeena::EngineKind;
using skeena::Key;
using skeena::KeyBuilder;
using skeena::KeyHasPrefix;
using skeena::Rng;
using skeena::Status;
using skeena::TableHandle;

constexpr int kThreads = 4;
constexpr double kRatePerS = 1000;  // aggregate offered rate
constexpr uint16_t kWarehouses = 4;
constexpr uint8_t kDistricts = 10;
constexpr uint32_t kCustomers = 120;  // per district
constexpr uint32_t kItems = 2000;
constexpr int64_t kWarehouseYtd = 30000000;  // cents: 10 x D_YTD
constexpr int64_t kDistrictYtd = 3000000;
constexpr uint8_t kLoaderThread = 255;

// ------------------------------------------------------------- rows
// Fixed-size packed rows padded toward the spec's row sizes, so buffer
// pool pressure resembles the spec's.
struct WarehouseRow {
  int64_t ytd;
  int32_t tax_bp;
  char filler[77];
};
struct DistrictRow {
  int64_t ytd;
  int32_t tax_bp;
  uint32_t next_o_id;
  char filler[79];
};
struct CustomerRow {
  int64_t balance;
  int64_t ytd_payment;
  int32_t discount_bp;
  uint32_t payment_cnt;
  uint32_t delivery_cnt;
  char last[16];
  char credit[2];
  char filler[610];
};
struct HistoryRow {
  int64_t amount;
  char filler[38];
};
struct NewOrderRow {
  uint32_t o_id;
  char filler[4];
};
struct OrderRow {
  uint32_t c_id;
  uint32_t carrier_id;
  uint32_t ol_cnt;
  uint32_t entry_d;
  char filler[8];
};
struct OrderLineRow {
  uint32_t i_id;
  uint16_t supply_w;
  uint16_t quantity;
  int64_t amount;
  uint32_t delivery_d;
  char filler[34];
};
struct ItemRow {
  int64_t price;
  uint32_t im_id;
  char name[24];
  char filler[46];
};
struct StockRow {
  uint32_t quantity;
  uint32_t ytd;
  uint32_t order_cnt;
  uint32_t remote_cnt;
  char filler[290];
};

template <typename T>
std::string_view Bytes(const T& row) {
  return {reinterpret_cast<const char*>(&row), sizeof(T)};
}
template <typename T>
bool Decode(const std::string& bytes, T* row) {
  if (bytes.size() != sizeof(T)) return false;
  std::memcpy(row, bytes.data(), sizeof(T));
  return true;
}
Status Corrupt(const char* what) {
  return Status::Corruption(std::string("malformed ") + what + " row");
}

// ------------------------------------------------------------- keys
Key WKey(uint16_t w) { return KeyBuilder().AppendU16(w).Build(); }
Key DKey(uint16_t w, uint8_t d) {
  return KeyBuilder().AppendU16(w).AppendU8(d).Build();
}
Key CKey(uint16_t w, uint8_t d, uint32_t c) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(c).Build();
}
Key CNameKey(uint16_t w, uint8_t d, std::string_view last, uint32_t c) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendHash64(last).AppendU32(c).Build();
}
Key CNamePrefix(uint16_t w, uint8_t d, std::string_view last) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendHash64(last).Build();
}
Key HKey(uint16_t w, uint8_t d, uint8_t thread, uint64_t seq) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU8(thread).AppendU64(seq).Build();
}
Key OKey(uint16_t w, uint8_t d, uint32_t o) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(o).Build();
}
// Complement-encoded o_id: an ascending scan finds the newest order first.
Key OByCKey(uint16_t w, uint8_t d, uint32_t c, uint32_t o) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(c).AppendU32(~o).Build();
}
Key OLKey(uint16_t w, uint8_t d, uint32_t o, uint8_t ol) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(o).AppendU8(ol).Build();
}
Key IKey(uint32_t i) { return KeyBuilder().AppendU32(i).Build(); }
Key SKey(uint16_t w, uint32_t i) {
  return KeyBuilder().AppendU16(w).AppendU32(i).Build();
}
uint32_t KeyU32(const Key& k, int off) {
  uint32_t v = 0;
  for (int b = off; b < off + 4; ++b) v = (v << 8) | k[b];
  return v;
}

// TPC-C last-name syllables (clause 4.3.2.3).
std::string LastName(uint64_t num) {
  static const char* kSyl[10] = {"BAR", "OUGHT", "ABLE",  "PRI",   "PRES",
                                 "ESE", "ANTI",  "CALLY", "ATION", "EING"};
  return std::string(kSyl[(num / 100) % 10]) + kSyl[(num / 10) % 10] +
         kSyl[num % 10];
}

struct Tables {
  TableHandle warehouse, district, customer, customer_by_name, history,
      new_orders, orders, orders_by_customer, order_line, item, stock;
};

// Data pages the loaded stordb tables occupy (rows are fixed-slot).
size_t StorDataPages() {
  auto pages = [](uint64_t rows, size_t value) {
    const uint64_t per = skeena::stordb::SlotsPerPage(value);
    return static_cast<size_t>((rows + per - 1) / per);
  };
  const uint64_t dists = uint64_t{kWarehouses} * kDistricts;
  return pages(kWarehouses, sizeof(WarehouseRow)) +
         pages(dists, sizeof(DistrictRow)) +
         pages(dists * kCustomers, sizeof(HistoryRow)) +
         pages(dists * (kCustomers / 3 + 1), sizeof(NewOrderRow)) +
         pages(dists * kCustomers, sizeof(OrderRow)) +
         pages(dists * kCustomers, 8) +
         pages(dists * kCustomers * 10, sizeof(OrderLineRow)) +
         pages(uint64_t{kWarehouses} * kItems, sizeof(StockRow));
}

// Load batches must survive transient aborts (concurrent loaders can trip
// the commit check); a dropped batch would corrupt the initial database.
template <typename Fn>
bool LoadBatch(Database* db, Fn&& fill) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto txn = db->Begin();
    Status s = fill(txn.get());
    if (s.ok()) s = txn->Commit();
    if (s.ok()) return true;
    txn->Abort();
    if (!s.IsAnyAbort()) return false;
  }
  return false;
}

struct Env {
  std::unique_ptr<Database> db;
  Tables t;
};

bool LoadWarehouse(Env& env, uint16_t w, uint64_t seed) {
  Database* db = env.db.get();
  const Tables& t = env.t;
  Rng rng(seed * 131 + w);
  bool ok = LoadBatch(db, [&](skeena::Transaction* txn) {
    WarehouseRow wr{};
    wr.ytd = kWarehouseYtd;
    wr.tax_bp = static_cast<int32_t>(rng.Uniform(2000));
    return txn->Put(t.warehouse, WKey(w), Bytes(wr));
  });
  for (uint32_t start = 1; ok && start <= kItems; start += 500) {
    ok = LoadBatch(db, [&](skeena::Transaction* txn) {
      Rng srng(seed * 7 + w * 100003 + start);
      for (uint32_t i = start; i < std::min(start + 500, kItems + 1); ++i) {
        StockRow sr{};
        sr.quantity = static_cast<uint32_t>(srng.UniformRange(10, 100));
        SKEENA_RETURN_NOT_OK(txn->Put(t.stock, SKey(w, i), Bytes(sr)));
      }
      return Status::OK();
    });
  }
  for (uint8_t d = 1; ok && d <= kDistricts; ++d) {
    ok = LoadBatch(db, [&](skeena::Transaction* txn) {
      DistrictRow dr{};
      dr.ytd = kDistrictYtd;
      dr.tax_bp = static_cast<int32_t>(rng.Uniform(2000));
      dr.next_o_id = kCustomers + 1;
      return txn->Put(t.district, DKey(w, d), Bytes(dr));
    });
    // Customers, one history row each.
    ok = ok && LoadBatch(db, [&](skeena::Transaction* txn) {
      Rng crng(seed * 11 + w * 1009 + d);
      for (uint32_t c = 1; c <= kCustomers; ++c) {
        CustomerRow cr{};
        cr.balance = -1000;
        cr.ytd_payment = 1000;
        cr.discount_bp = static_cast<int32_t>(crng.Uniform(5000));
        // Clause 4.3.2.3: the first 1000 customers get sequential names.
        std::string last = LastName(c <= 1000 ? c - 1 : crng.NURand(255, 0, 999, 173));
        std::memcpy(cr.last, last.data(), std::min<size_t>(last.size(), 15));
        cr.credit[0] = crng.Uniform(10) == 0 ? 'B' : 'G';
        cr.credit[1] = 'C';
        SKEENA_RETURN_NOT_OK(txn->Put(t.customer, CKey(w, d, c), Bytes(cr)));
        std::string cid;
        skeena::PutU32(&cid, c);
        SKEENA_RETURN_NOT_OK(
            txn->Put(t.customer_by_name, CNameKey(w, d, last, c), cid));
        HistoryRow hr{};
        hr.amount = 1000;
        SKEENA_RETURN_NOT_OK(
            txn->Put(t.history, HKey(w, d, kLoaderThread, c), Bytes(hr)));
      }
      return Status::OK();
    });
    // Orders: one per customer in a random permutation; the last third
    // still undelivered (clause 4.3.3.1's 2100/3000 split).
    std::vector<uint32_t> perm(kCustomers);
    for (uint32_t i = 0; i < kCustomers; ++i) perm[i] = i + 1;
    for (uint32_t i = kCustomers; i > 1; --i) std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    ok = ok && LoadBatch(db, [&](skeena::Transaction* txn) {
      Rng orng(seed * 13 + w * 2003 + d);
      for (uint32_t o = 1; o <= kCustomers; ++o) {
        const bool delivered = o <= kCustomers - kCustomers / 3;
        OrderRow orow{};
        orow.c_id = perm[o - 1];
        orow.carrier_id = delivered ? static_cast<uint32_t>(orng.UniformRange(1, 10)) : 0;
        orow.ol_cnt = static_cast<uint32_t>(orng.UniformRange(5, 15));
        SKEENA_RETURN_NOT_OK(txn->Put(t.orders, OKey(w, d, o), Bytes(orow)));
        std::string oid;
        skeena::PutU32(&oid, o);
        SKEENA_RETURN_NOT_OK(
            txn->Put(t.orders_by_customer, OByCKey(w, d, orow.c_id, o), oid));
        if (!delivered) {
          NewOrderRow nr{};
          nr.o_id = o;
          SKEENA_RETURN_NOT_OK(txn->Put(t.new_orders, OKey(w, d, o), Bytes(nr)));
        }
        for (uint8_t ol = 1; ol <= orow.ol_cnt; ++ol) {
          OrderLineRow lr{};
          lr.i_id = static_cast<uint32_t>(orng.UniformRange(1, kItems));
          lr.supply_w = w;
          lr.quantity = 5;
          lr.amount = delivered ? 0 : static_cast<int64_t>(orng.UniformRange(1, 999999));
          lr.delivery_d = delivered ? 1 : 0;
          SKEENA_RETURN_NOT_OK(
              txn->Put(t.order_line, OLKey(w, d, o, ol), Bytes(lr)));
        }
      }
      return Status::OK();
    });
  }
  return ok;
}

std::unique_ptr<Env> Setup(uint64_t seed, std::string* err) {
  DatabaseOptions opts;
  opts.stor.buffer_pool_pages = std::max<size_t>(StorDataPages() / 4, 16);
  opts.stor.data_latency = skeena::DeviceLatency::TmpfsStack();
  auto env = std::make_unique<Env>();
  env->db = std::make_unique<Database>(opts);
  Database* db = env->db.get();
  auto create = [&](const char* name, EngineKind home, size_t value,
                    TableHandle* out) {
    auto h = db->CreateTable(name, home, value);
    if (h.ok()) *out = *h;
    return h.ok();
  };
  const auto M = EngineKind::kMem, S = EngineKind::kStor;
  Tables& t = env->t;
  if (!create("warehouse", S, sizeof(WarehouseRow), &t.warehouse) ||
      !create("district", S, sizeof(DistrictRow), &t.district) ||
      !create("customer", M, sizeof(CustomerRow), &t.customer) ||
      !create("customer_by_name", M, 8, &t.customer_by_name) ||
      !create("history", S, sizeof(HistoryRow), &t.history) ||
      !create("new_orders", S, sizeof(NewOrderRow), &t.new_orders) ||
      !create("orders", S, sizeof(OrderRow), &t.orders) ||
      !create("orders_by_customer", S, 8, &t.orders_by_customer) ||
      !create("order_line", S, sizeof(OrderLineRow), &t.order_line) ||
      !create("item", M, sizeof(ItemRow), &t.item) ||
      !create("stock", S, sizeof(StockRow), &t.stock)) {
    *err = "create tables";
    return nullptr;
  }
  for (uint32_t start = 1; start <= kItems; start += 500) {
    bool ok = LoadBatch(db, [&](skeena::Transaction* txn) {
      Rng irng(seed * 17 + start);
      for (uint32_t i = start; i < std::min(start + 500, kItems + 1); ++i) {
        ItemRow ir{};
        ir.price = static_cast<int64_t>(irng.UniformRange(100, 10000));
        ir.im_id = static_cast<uint32_t>(irng.UniformRange(1, 10000));
        std::snprintf(ir.name, sizeof(ir.name), "item-%u", i);
        SKEENA_RETURN_NOT_OK(txn->Put(t.item, IKey(i), Bytes(ir)));
      }
      return Status::OK();
    });
    if (!ok) {
      *err = "load items";
      return nullptr;
    }
  }
  for (uint16_t w = 1; w <= kWarehouses; ++w) {
    if (!LoadWarehouse(*env, w, seed)) {
      *err = "load warehouses";
      return nullptr;
    }
  }
  return env;
}

// ------------------------------------------------------- transactions
/// One load thread's view: the tables, its RNG and what it saw commit.
struct Terminal {
  const Tables* t = nullptr;
  uint8_t index = 0;
  Rng rng;
  uint64_t history_seq = 1;
  uint64_t new_orders_committed = 0;
  uint64_t payments_committed = 0;
  uint64_t next_txn = 0;
};

uint32_t RandomCustomer(Rng& rng) {
  return static_cast<uint32_t>(rng.NURand(1023, 1, kCustomers, 259));
}
uint8_t RandomDistrict(Rng& rng) {
  return static_cast<uint8_t>(rng.UniformRange(1, kDistricts));
}
uint16_t OtherWarehouse(Rng& rng, uint16_t w) {
  uint16_t o;
  do {
    o = static_cast<uint16_t>(rng.UniformRange(1, kWarehouses));
  } while (o == w);
  return o;
}

/// Customer selection by last name (60%) or id (clause 2.5.1.2); returns
/// the id through *c. By name, the middle match is taken; a name with no
/// customer at this scale falls back to the drawn id.
Status FindCustomer(TracedTxn& txn, const Tables& t, uint16_t w, uint8_t d,
                    bool by_name, const std::string& last, uint32_t id,
                    uint32_t* c) {
  *c = id;
  if (!by_name) return Status::OK();
  const Key prefix = CNamePrefix(w, d, last);
  std::vector<uint32_t> matches;
  SKEENA_RETURN_NOT_OK(txn.Scan(
      t.customer_by_name, prefix, 0, [&](const Key& k, const std::string& v) {
        if (!KeyHasPrefix(k, prefix, 11)) return false;
        if (v.size() >= 4) matches.push_back(skeena::GetU32(v.data()));
        return true;
      }));
  if (!matches.empty()) {
    std::sort(matches.begin(), matches.end());
    *c = matches[(matches.size() - 1) / 2];
  }
  return Status::OK();
}

struct NewOrderIn {
  uint16_t w;
  uint8_t d;
  uint32_t c;
  uint32_t ol_cnt;
  bool rollback;
  uint32_t item[15];
  uint16_t supply[15];
  uint16_t qty[15];
};

Status NewOrder(TracedTxn& txn, const Tables& t, const NewOrderIn& in,
                bool* rolled_back) {
  std::string buf;
  SKEENA_RETURN_NOT_OK(txn.Get(t.warehouse, WKey(in.w), &buf));
  DistrictRow dr{};
  SKEENA_RETURN_NOT_OK(txn.Get(t.district, DKey(in.w, in.d), &buf));
  if (!Decode(buf, &dr)) return Corrupt("district");
  const uint32_t o_id = dr.next_o_id++;
  SKEENA_RETURN_NOT_OK(txn.Put(t.district, DKey(in.w, in.d), Bytes(dr)));
  SKEENA_RETURN_NOT_OK(txn.Get(t.customer, CKey(in.w, in.d, in.c), &buf));
  OrderRow orow{};
  orow.c_id = in.c;
  orow.ol_cnt = in.ol_cnt;
  orow.entry_d = o_id;
  SKEENA_RETURN_NOT_OK(txn.Put(t.orders, OKey(in.w, in.d, o_id), Bytes(orow)));
  NewOrderRow nr{};
  nr.o_id = o_id;
  SKEENA_RETURN_NOT_OK(txn.Put(t.new_orders, OKey(in.w, in.d, o_id), Bytes(nr)));
  std::string oid;
  skeena::PutU32(&oid, o_id);
  SKEENA_RETURN_NOT_OK(
      txn.Put(t.orders_by_customer, OByCKey(in.w, in.d, in.c, o_id), oid));
  for (uint32_t l = 0; l < in.ol_cnt; ++l) {
    ItemRow ir{};
    Status s = txn.Get(t.item, IKey(in.item[l]), &buf);
    if (s.IsNotFound() && in.rollback && l + 1 == in.ol_cnt) {
      // Clause 2.4.2.3: an unused item number rolls the order back.
      txn.Abort();
      *rolled_back = true;
      return Status::OK();
    }
    SKEENA_RETURN_NOT_OK(s);
    if (!Decode(buf, &ir)) return Corrupt("item");
    StockRow sr{};
    SKEENA_RETURN_NOT_OK(txn.Get(t.stock, SKey(in.supply[l], in.item[l]), &buf));
    if (!Decode(buf, &sr)) return Corrupt("stock");
    sr.quantity = sr.quantity >= in.qty[l] + 10u ? sr.quantity - in.qty[l]
                                                 : sr.quantity + 91 - in.qty[l];
    sr.ytd += in.qty[l];
    sr.order_cnt++;
    if (in.supply[l] != in.w) sr.remote_cnt++;
    SKEENA_RETURN_NOT_OK(txn.Put(t.stock, SKey(in.supply[l], in.item[l]), Bytes(sr)));
    OrderLineRow lr{};
    lr.i_id = in.item[l];
    lr.supply_w = in.supply[l];
    lr.quantity = in.qty[l];
    lr.amount = in.qty[l] * ir.price;
    SKEENA_RETURN_NOT_OK(txn.Put(t.order_line,
                                 OLKey(in.w, in.d, o_id, static_cast<uint8_t>(l + 1)),
                                 Bytes(lr)));
  }
  return txn.Commit();
}

struct PaymentIn {
  uint16_t w, c_w;
  uint8_t d, c_d;
  bool by_name;
  std::string last;
  uint32_t c_id;
  int64_t amount;
};

Status Payment(TracedTxn& txn, Terminal& term, const PaymentIn& in) {
  const Tables& t = *term.t;
  std::string buf;
  WarehouseRow wr{};
  SKEENA_RETURN_NOT_OK(txn.Get(t.warehouse, WKey(in.w), &buf));
  if (!Decode(buf, &wr)) return Corrupt("warehouse");
  wr.ytd += in.amount;
  SKEENA_RETURN_NOT_OK(txn.Put(t.warehouse, WKey(in.w), Bytes(wr)));
  DistrictRow dr{};
  SKEENA_RETURN_NOT_OK(txn.Get(t.district, DKey(in.w, in.d), &buf));
  if (!Decode(buf, &dr)) return Corrupt("district");
  dr.ytd += in.amount;
  SKEENA_RETURN_NOT_OK(txn.Put(t.district, DKey(in.w, in.d), Bytes(dr)));
  uint32_t c = 0;
  SKEENA_RETURN_NOT_OK(FindCustomer(txn, t, in.c_w, in.c_d, in.by_name, in.last, in.c_id, &c));
  CustomerRow cr{};
  SKEENA_RETURN_NOT_OK(txn.Get(t.customer, CKey(in.c_w, in.c_d, c), &buf));
  if (!Decode(buf, &cr)) return Corrupt("customer");
  cr.balance -= in.amount;
  cr.ytd_payment += in.amount;
  cr.payment_cnt++;
  SKEENA_RETURN_NOT_OK(txn.Put(t.customer, CKey(in.c_w, in.c_d, c), Bytes(cr)));
  HistoryRow hr{};
  hr.amount = in.amount;
  SKEENA_RETURN_NOT_OK(txn.Put(
      t.history, HKey(in.w, in.d, term.index, term.history_seq++), Bytes(hr)));
  return txn.Commit();
}

Status OrderStatus(TracedTxn& txn, const Tables& t, uint16_t w, uint8_t d,
                   bool by_name, const std::string& last, uint32_t c_id) {
  std::string buf;
  uint32_t c = 0;
  SKEENA_RETURN_NOT_OK(FindCustomer(txn, t, w, d, by_name, last, c_id, &c));
  SKEENA_RETURN_NOT_OK(txn.Get(t.customer, CKey(w, d, c), &buf));
  const Key prefix = KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(c).Build();
  uint32_t o_id = 0;
  SKEENA_RETURN_NOT_OK(txn.Scan(t.orders_by_customer, prefix, 1,
                                [&](const Key& k, const std::string& v) {
                                  if (KeyHasPrefix(k, prefix, 7) && v.size() >= 4) {
                                    o_id = skeena::GetU32(v.data());
                                  }
                                  return false;
                                }));
  if (o_id != 0) {
    SKEENA_RETURN_NOT_OK(txn.Get(t.orders, OKey(w, d, o_id), &buf));
    const Key ol_prefix = OKey(w, d, o_id);
    SKEENA_RETURN_NOT_OK(txn.Scan(t.order_line, ol_prefix, 0,
                                  [&](const Key& k, const std::string&) {
                                    return KeyHasPrefix(k, ol_prefix, 7);
                                  }));
  }
  return txn.Commit();
}

Status Delivery(TracedTxn& txn, const Tables& t, uint16_t w, uint32_t carrier) {
  std::string buf;
  for (uint8_t d = 1; d <= kDistricts; ++d) {
    const Key prefix = DKey(w, d);
    uint32_t o_id = 0;
    SKEENA_RETURN_NOT_OK(txn.Scan(t.new_orders, prefix, 1,
                                  [&](const Key& k, const std::string&) {
                                    if (KeyHasPrefix(k, prefix, 3)) o_id = KeyU32(k, 3);
                                    return false;
                                  }));
    if (o_id == 0) continue;  // clause 2.7.4.2: district skipped
    SKEENA_RETURN_NOT_OK(txn.Delete(t.new_orders, OKey(w, d, o_id)));
    OrderRow orow{};
    SKEENA_RETURN_NOT_OK(txn.Get(t.orders, OKey(w, d, o_id), &buf));
    if (!Decode(buf, &orow)) return Corrupt("orders");
    orow.carrier_id = carrier;
    SKEENA_RETURN_NOT_OK(txn.Put(t.orders, OKey(w, d, o_id), Bytes(orow)));
    int64_t total = 0;
    for (uint8_t ol = 1; ol <= orow.ol_cnt; ++ol) {
      OrderLineRow lr{};
      SKEENA_RETURN_NOT_OK(txn.Get(t.order_line, OLKey(w, d, o_id, ol), &buf));
      if (!Decode(buf, &lr)) return Corrupt("order_line");
      total += lr.amount;
      lr.delivery_d = 1;
      SKEENA_RETURN_NOT_OK(txn.Put(t.order_line, OLKey(w, d, o_id, ol), Bytes(lr)));
    }
    CustomerRow cr{};
    SKEENA_RETURN_NOT_OK(txn.Get(t.customer, CKey(w, d, orow.c_id), &buf));
    if (!Decode(buf, &cr)) return Corrupt("customer");
    cr.balance += total;
    cr.delivery_cnt++;
    SKEENA_RETURN_NOT_OK(txn.Put(t.customer, CKey(w, d, orow.c_id), Bytes(cr)));
  }
  return txn.Commit();
}

Status StockLevel(TracedTxn& txn, const Tables& t, uint16_t w, uint8_t d,
                  uint32_t threshold) {
  std::string buf;
  DistrictRow dr{};
  SKEENA_RETURN_NOT_OK(txn.Get(t.district, DKey(w, d), &buf));
  if (!Decode(buf, &dr)) return Corrupt("district");
  const uint32_t from = dr.next_o_id > 20 ? dr.next_o_id - 20 : 1;
  const Key dprefix = DKey(w, d);
  std::set<uint32_t> items;
  SKEENA_RETURN_NOT_OK(txn.Scan(t.order_line, OKey(w, d, from), 0,
                                [&](const Key& k, const std::string& v) {
                                  if (!KeyHasPrefix(k, dprefix, 3)) return false;
                                  OrderLineRow lr{};
                                  if (Decode(v, &lr)) items.insert(lr.i_id);
                                  return true;
                                }));
  uint32_t low = 0;
  for (uint32_t i : items) {
    StockRow sr{};
    SKEENA_RETURN_NOT_OK(txn.Get(t.stock, SKey(w, i), &buf));
    if (!Decode(buf, &sr)) return Corrupt("stock");
    if (sr.quantity < threshold) ++low;
  }
  (void)low;
  return txn.Commit();
}

/// Waits until the transaction is due, then draws one transaction of the
/// standard mix and runs it to completion. All inputs are drawn before the
/// first attempt, so a retry repeats the same transaction.
void RunOne(Database* db, Terminal& term, SpanLog* log, int64_t due, Tally* tally) {
  Rng& rng = term.rng;
  const Tables& t = *term.t;
  const uint64_t txn_id = term.next_txn++;
  const uint64_t root = WaitUntilDue(log, txn_id, due);
  const uint16_t w = static_cast<uint16_t>(rng.UniformRange(1, kWarehouses));
  const uint64_t roll = rng.Uniform(100);
  if (roll < 45) {
    NewOrderIn in{};
    in.w = w;
    in.d = RandomDistrict(rng);
    in.c = RandomCustomer(rng);
    in.ol_cnt = static_cast<uint32_t>(rng.UniformRange(5, 15));
    in.rollback = rng.Uniform(100) == 0;
    std::set<uint32_t> seen;
    for (uint32_t l = 0; l < in.ol_cnt; ++l) {
      uint32_t item;
      do {  // distinct items, so no order line updates a stock row twice
        item = static_cast<uint32_t>(rng.NURand(8191, 1, kItems, 7699));
      } while (!seen.insert(item).second);
      in.item[l] = item;
      in.supply[l] = rng.Uniform(100) == 0 ? OtherWarehouse(rng, w) : w;
      in.qty[l] = static_cast<uint16_t>(rng.UniformRange(1, 10));
    }
    if (in.rollback) in.item[in.ol_cnt - 1] = kItems + 1;
    Outcome o = RunTxn(db, log, txn_id, due,
                       [&](TracedTxn& txn, bool* rb) { return NewOrder(txn, t, in, rb); },
                       tally, root);
    if (o == Outcome::kCommitted) term.new_orders_committed++;
  } else if (roll < 88) {
    PaymentIn in{};
    in.w = w;
    in.d = RandomDistrict(rng);
    const bool remote = rng.Uniform(100) < 15;
    in.c_w = remote ? OtherWarehouse(rng, w) : w;
    in.c_d = remote ? RandomDistrict(rng) : in.d;
    in.by_name = rng.Uniform(100) < 60;
    in.last = LastName(rng.NURand(255, 0, 999, 223));
    in.c_id = RandomCustomer(rng);
    in.amount = static_cast<int64_t>(rng.UniformRange(100, 500000));
    Outcome o = RunTxn(db, log, txn_id, due,
                       [&](TracedTxn& txn, bool*) { return Payment(txn, term, in); },
                       tally, root);
    if (o == Outcome::kCommitted) term.payments_committed++;
  } else if (roll < 92) {
    const uint8_t d = RandomDistrict(rng);
    const bool by_name = rng.Uniform(100) < 60;
    const std::string last = LastName(rng.NURand(255, 0, 999, 223));
    const uint32_t c = RandomCustomer(rng);
    RunTxn(db, log, txn_id, due,
           [&](TracedTxn& txn, bool*) {
             return OrderStatus(txn, t, w, d, by_name, last, c);
           },
           tally, root);
  } else if (roll < 96) {
    const uint32_t carrier = static_cast<uint32_t>(rng.UniformRange(1, 10));
    RunTxn(db, log, txn_id, due,
           [&](TracedTxn& txn, bool*) { return Delivery(txn, t, w, carrier); },
           tally, root);
  } else {
    const uint8_t d = RandomDistrict(rng);
    const uint32_t threshold = static_cast<uint32_t>(rng.UniformRange(10, 20));
    RunTxn(db, log, txn_id, due,
           [&](TracedTxn& txn, bool*) { return StockLevel(txn, t, w, d, threshold); },
           tally, root);
  }
}

Phase RunPhase(Env& env, std::vector<Terminal>& terms, int64_t duration_ns,
               TraceSink* sink) {
  std::vector<Tally> tallies(terms.size());
  std::vector<SpanLog*> logs;
  for (size_t i = 0; i < terms.size(); ++i) logs.push_back(sink->NewLog());
  const int64_t start = NowNs() + 2'000'000;
  const int64_t deadline = start + duration_ns;
  const int64_t cpu0 = ProcessCpuNs();
  std::vector<std::thread> threads;
  std::vector<int64_t> term_end(terms.size(), deadline);
  for (size_t i = 0; i < terms.size(); ++i) {
    threads.emplace_back([&, i] {
      Terminal& term = terms[i];
      auto gap = [&] { return PoissonGapNs(term.rng, kRatePerS / kThreads); };
      for (int64_t due = start + gap(); due < deadline; due += gap()) {
        RunOne(env.db.get(), term, logs[i], due, &tallies[i]);
      }
      term_end[i] = NowNs();
    });
  }
  for (auto& th : threads) th.join();
  Phase p;
  p.cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  int64_t end = deadline;
  for (int64_t e : term_end) end = std::max(end, e);
  p.wall_s = static_cast<double>(end - start) / 1e9;
  for (const Tally& t : tallies) p.tally.Merge(t);
  return p;
}

// ------------------------------------------------------------ checks
/// The benchmark's own scan of the TPC-C state, in one snapshot.
Status ScanOnce(Env& env, TpccScan* out) {
  const Tables& t = env.t;
  auto txn = env.db->Begin();
  std::string buf;
  out->assign(kWarehouses, {});
  for (uint16_t w = 1; w <= kWarehouses; ++w) {
    WarehouseScan& ws = (*out)[w - 1];
    WarehouseRow wr{};
    SKEENA_RETURN_NOT_OK(txn->Get(t.warehouse, WKey(w), &buf));
    if (!Decode(buf, &wr)) return Corrupt("warehouse");
    ws.ytd_cents = wr.ytd;
    ws.districts.assign(kDistricts, {});
    for (uint8_t d = 1; d <= kDistricts; ++d) {
      DistrictScan& ds = ws.districts[d - 1];
      DistrictRow dr{};
      SKEENA_RETURN_NOT_OK(txn->Get(t.district, DKey(w, d), &buf));
      if (!Decode(buf, &dr)) return Corrupt("district");
      ds.ytd_cents = dr.ytd;
      ds.next_o_id = dr.next_o_id;
      const Key prefix = DKey(w, d);
      SKEENA_RETURN_NOT_OK(txn->Scan(t.orders, prefix, 0,
                                     [&](const Key& k, const std::string& v) {
                                       if (!KeyHasPrefix(k, prefix, 3)) return false;
                                       OrderRow o{};
                                       Decode(v, &o);
                                       ds.orders++;
                                       ds.sum_ol_cnt += o.ol_cnt;
                                       ds.max_o_id = std::max(ds.max_o_id, KeyU32(k, 3));
                                       return true;
                                     }));
      SKEENA_RETURN_NOT_OK(txn->Scan(t.new_orders, prefix, 0,
                                     [&](const Key& k, const std::string&) {
                                       if (!KeyHasPrefix(k, prefix, 3)) return false;
                                       ds.max_no_o_id = std::max(ds.max_no_o_id, KeyU32(k, 3));
                                       return true;
                                     }));
      SKEENA_RETURN_NOT_OK(txn->Scan(t.order_line, prefix, 0,
                                     [&](const Key& k, const std::string&) {
                                       if (!KeyHasPrefix(k, prefix, 3)) return false;
                                       ds.order_lines++;
                                       return true;
                                     }));
      SKEENA_RETURN_NOT_OK(txn->Scan(t.history, prefix, 0,
                                     [&](const Key& k, const std::string&) {
                                       if (!KeyHasPrefix(k, prefix, 3)) return false;
                                       ds.history++;
                                       return true;
                                     }));
    }
  }
  return txn->Commit();
}

bool Scan(Env& env, TpccScan* out, Report* rep) {
  Status s;
  for (int i = 0; i < kMaxAttempts; ++i) {
    s = ScanOnce(env, out);
    if (!s.IsAnyAbort()) break;
  }
  if (!s.ok()) rep->Fail("consistency scan: " + s.ToString());
  return s.ok();
}

}  // namespace

void RunTpcc(const Args& args, Report* rep) {
  SetupTime setup;
  std::unique_ptr<Env> env = RepeatSetup(
      args, [&](int, std::string* err) { return Setup(args.seed, err); }, &setup,
      rep);
  if (!env) return;
  std::vector<Terminal> terms(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    terms[i].t = &env->t;
    terms[i].index = static_cast<uint8_t>(i);
    terms[i].rng = Rng(args.seed * 104729 + static_cast<uint64_t>(i));
  }
  TpccScan before, after;
  if (!Scan(*env, &before, rep)) return;
  std::string why;
  if (!CheckTpccConditions(before, &why)) rep->Fail("after load: " + why);

  const int64_t secs_ns = int64_t{args.seconds} * 1'000'000'000;
  TraceSink off(false), sink(true);
  Phase untraced, traced;
  Counters delta;
  if (!args.trace) {
    untraced = RunPhase(*env, terms, secs_ns, &off);
  } else {
    RunAlternating(
        secs_ns, [&](int64_t ns, TraceSink* s) { return RunPhase(*env, terms, ns, s); },
        [&] { return ReadCounters(env->db.get()); }, &sink, &untraced, &traced,
        &delta);
  }
  if (Scan(*env, &after, rep)) {
    if (!CheckTpccConditions(after, &why)) rep->Fail("after run: " + why);
    uint64_t new_orders = 0, payments = 0;
    for (const Terminal& term : terms) {
      new_orders += term.new_orders_committed;
      payments += term.payments_committed;
    }
    if (!CheckTpccGrowth(before, after, new_orders, payments, &why)) {
      rep->Fail(why);
    }
  }
  std::fprintf(stderr, "tpcc: %zu data pages, pool %zu pages; rollbacks %llu\n",
               StorDataPages(), std::max<size_t>(StorDataPages() / 4, 16),
               static_cast<unsigned long long>(untraced.tally.rollbacks +
                                               traced.tally.rollbacks));
  Finish(args, setup, untraced, traced, delta, sink, LayerExtras(), rep);
}

}  // namespace perfbench
