#include "checks.h"

#include <cstring>

namespace perfbench {

std::string EncodeValue(Tag tag, size_t size) {
  std::string v(size < kTagBytes ? kTagBytes : size, '\0');
  std::memcpy(v.data(), &tag.writer, 4);
  std::memcpy(v.data() + 4, &tag.seq, 8);
  for (size_t i = kTagBytes; i < v.size(); ++i) {
    v[i] = static_cast<char>('a' + (tag.seq + i) % 26);
  }
  return v;
}

bool DecodeTag(std::string_view value, Tag* tag) {
  if (value.size() < kTagBytes) return false;
  std::memcpy(&tag->writer, value.data(), 4);
  std::memcpy(&tag->seq, value.data() + 4, 8);
  return true;
}

std::string TagString(const std::optional<Tag>& t) {
  if (!t) return "<none>";
  return std::to_string(t->writer) + ":" + std::to_string(t->seq);
}

bool CheckPair(bool mem_found, std::string_view mem, bool stor_found,
               std::string_view stor, std::string* why) {
  if (!mem_found || !stor_found) {
    *why = std::string("pair half missing: mem ") +
           (mem_found ? "found" : "missing") + ", stor " +
           (stor_found ? "found" : "missing");
    return false;
  }
  Tag a, b;
  if (!DecodeTag(mem, &a) || !DecodeTag(stor, &b)) {
    *why = "undecodable pair value";
    return false;
  }
  if (!(a == b)) {
    *why = "torn cross-engine read: mem " + TagString(a) + " vs stor " +
           TagString(b);
    return false;
  }
  return true;
}

bool CheckFinalState(const std::map<uint64_t, Tag>& expected,
                     const TagMap& mem, const TagMap& stor, std::string* why) {
  for (const TagMap* side : {&mem, &stor}) {
    const char* name = side == &mem ? "mem" : "stor";
    if (side->size() != expected.size()) {
      *why = std::string(name) + " holds " + std::to_string(side->size()) +
             " keys, expected " + std::to_string(expected.size());
      return false;
    }
    for (const auto& [key, tag] : expected) {
      auto it = side->find(key);
      if (it == side->end()) {
        *why = std::string(name) + " lost key " + std::to_string(key);
        return false;
      }
      if (!it->second || !(*it->second == tag)) {
        *why = std::string(name) + " key " + std::to_string(key) +
               " holds " + TagString(it->second) +
               ", last acknowledged write was " + TagString(tag);
        return false;
      }
    }
  }
  return true;
}

bool VersionTracker::Observe(uint64_t key, uint64_t seq, std::string* why) {
  auto [it, fresh] = last_.try_emplace(key, seq);
  if (fresh) return true;
  if (seq < it->second) {
    *why = "key " + std::to_string(key) + " went back from version " +
           std::to_string(it->second) + " to " + std::to_string(seq);
    return false;
  }
  it->second = seq;
  return true;
}

bool CheckTpccConditions(const TpccScan& scan, std::string* why) {
  for (size_t w = 0; w < scan.size(); ++w) {
    const WarehouseScan& ws = scan[w];
    int64_t d_sum = 0;
    for (size_t d = 0; d < ws.districts.size(); ++d) {
      const DistrictScan& ds = ws.districts[d];
      std::string where = "w";
      where += std::to_string(w + 1) + " d" + std::to_string(d + 1) + ": ";
      d_sum += ds.ytd_cents;
      if (ds.next_o_id - 1 != ds.max_o_id) {
        *why = where + "D_NEXT_O_ID-1=" + std::to_string(ds.next_o_id - 1) +
               " but max(O_ID)=" + std::to_string(ds.max_o_id);
        return false;
      }
      if (ds.max_no_o_id != 0 && ds.max_no_o_id != ds.max_o_id) {
        *why = where + "max(NO_O_ID)=" + std::to_string(ds.max_no_o_id) +
               " but max(O_ID)=" + std::to_string(ds.max_o_id);
        return false;
      }
      if (ds.sum_ol_cnt != ds.order_lines) {
        *why = where + "sum(O_OL_CNT)=" + std::to_string(ds.sum_ol_cnt) +
               " but ORDER-LINE has " + std::to_string(ds.order_lines) +
               " rows";
        return false;
      }
    }
    if (d_sum != ws.ytd_cents) {
      *why = "w";
      *why += std::to_string(w + 1) + ": W_YTD=" +
             std::to_string(ws.ytd_cents) + " but sum(D_YTD)=" +
             std::to_string(d_sum) + " (cents)";
      return false;
    }
  }
  return true;
}

bool CheckTpccGrowth(const TpccScan& before, const TpccScan& after,
                     uint64_t new_orders_committed,
                     uint64_t payments_committed, std::string* why) {
  auto totals = [](const TpccScan& s, uint64_t* orders, uint64_t* history) {
    *orders = *history = 0;
    for (const WarehouseScan& w : s) {
      for (const DistrictScan& d : w.districts) {
        *orders += d.orders;
        *history += d.history;
      }
    }
  };
  uint64_t o0, h0, o1, h1;
  totals(before, &o0, &h0);
  totals(after, &o1, &h1);
  if (o1 - o0 != new_orders_committed) {
    *why = "ORDER grew by " + std::to_string(o1 - o0) + " rows but " +
           std::to_string(new_orders_committed) + " New-Orders committed";
    return false;
  }
  if (h1 - h0 != payments_committed) {
    *why = "HISTORY grew by " + std::to_string(h1 - h0) + " rows but " +
           std::to_string(payments_committed) + " Payments committed";
    return false;
  }
  return true;
}

}  // namespace perfbench
