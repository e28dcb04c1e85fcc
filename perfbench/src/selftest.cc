// Self-tests for the benchmark's output checks: each check must accept a
// consistent input and reject one injected violation. Run with
//   python3 perfbench/run.py --selftest
// Exit code 0 means every check caught its injected violation.

#include <cstdio>
#include <string>

#include "checks.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%-60s %s\n", what, cond ? "ok" : "FAILED");
  if (!cond) ++failures;
}

void PairCheck() {
  std::string why;
  std::string a = EncodeValue({1, 7}, 64);
  std::string b = EncodeValue({1, 7}, 64);
  Expect(CheckPair(true, a, true, b, &why), "pair: matching tags pass");
  std::string torn = EncodeValue({1, 8}, 64);
  Expect(!CheckPair(true, a, true, torn, &why), "pair: torn mem/stor pair fails");
  Expect(!CheckPair(true, a, false, "", &why), "pair: missing half fails");
}

void FinalStateCheck() {
  std::string why;
  std::map<uint64_t, Tag> expected = {{1, {0, 5}}, {2, {1, 9}}};
  TagMap mem = {{1, Tag{0, 5}}, {2, Tag{1, 9}}};
  TagMap stor = mem;
  Expect(CheckFinalState(expected, mem, stor, &why),
         "final state: acknowledged state passes");

  TagMap lost = stor;
  lost[2] = Tag{1, 8};  // an older write survived: the last ack was lost
  Expect(!CheckFinalState(expected, mem, lost, &why),
         "final state: lost acknowledged write fails");

  TagMap unacked = mem;
  unacked[1] = Tag{0, 6};  // a write that was never acknowledged
  Expect(!CheckFinalState(expected, unacked, stor, &why),
         "final state: unacknowledged value fails");

  TagMap extra = mem;
  extra[3] = Tag{2, 1};
  Expect(!CheckFinalState(expected, extra, stor, &why),
         "final state: unexpected key fails");

  TagMap missing = stor;
  missing.erase(1);
  Expect(!CheckFinalState(expected, mem, missing, &why),
         "final state: missing key fails");
}

void VersionCheck() {
  std::string why;
  VersionTracker t;
  bool ok = t.Observe(4, 10, &why) && t.Observe(4, 10, &why) &&
            t.Observe(4, 12, &why) && t.Observe(5, 1, &why);
  Expect(ok, "versions: non-decreasing sequence passes");
  Expect(!t.Observe(4, 11, &why), "versions: going backwards fails");
}

TpccScan ConsistentTpcc() {
  TpccScan scan(2);
  for (WarehouseScan& w : scan) {
    w.districts.resize(3);
    for (DistrictScan& d : w.districts) {
      d.ytd_cents = 3000000;
      d.next_o_id = 31;
      d.max_o_id = 30;
      d.max_no_o_id = 30;
      d.orders = 30;
      d.sum_ol_cnt = 300;
      d.order_lines = 300;
      d.history = 30;
    }
    w.ytd_cents = 3 * 3000000;
  }
  return scan;
}

void TpccCheck() {
  std::string why;
  TpccScan good = ConsistentTpcc();
  Expect(CheckTpccConditions(good, &why), "tpcc: consistent scan passes");

  TpccScan c1 = good;
  c1[1].ytd_cents += 1;
  Expect(!CheckTpccConditions(c1, &why), "tpcc: W_YTD != sum(D_YTD) fails");

  TpccScan c2 = good;
  c2[0].districts[2].next_o_id = 32;
  Expect(!CheckTpccConditions(c2, &why),
         "tpcc: D_NEXT_O_ID-1 != max(O_ID) fails");

  TpccScan c2b = good;
  c2b[0].districts[1].max_no_o_id = 29;
  Expect(!CheckTpccConditions(c2b, &why),
         "tpcc: max(NO_O_ID) != max(O_ID) fails");

  TpccScan c3 = good;
  c3[1].districts[0].order_lines -= 1;
  Expect(!CheckTpccConditions(c3, &why),
         "tpcc: sum(O_OL_CNT) != order-line rows fails");

  TpccScan after = good;
  after[0].districts[0].orders += 2;
  after[1].districts[2].history += 3;
  Expect(CheckTpccGrowth(good, after, 2, 3, &why),
         "tpcc: growth matching client commits passes");
  Expect(!CheckTpccGrowth(good, after, 3, 3, &why),
         "tpcc: ORDER growth != committed New-Orders fails");
  Expect(!CheckTpccGrowth(good, after, 2, 2, &why),
         "tpcc: HISTORY growth != committed Payments fails");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PairCheck();
  perfbench::FinalStateCheck();
  perfbench::VersionCheck();
  perfbench::TpccCheck();
  if (perfbench::failures != 0) {
    std::printf("%d check self-tests FAILED\n", perfbench::failures);
    return 1;
  }
  std::printf("all check self-tests passed\n");
  return 0;
}
