#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks, written apart from the program: each compares what the
// database returned against state the benchmark computed itself from the
// acknowledgments it received, or against a property Skeena must have.
// They are plain functions over plain data so selftest.cc can feed each
// one an injected violation.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Every value the benchmark writes starts with a writer tag: which load
/// thread or connection wrote it and that writer's sequence number. Both
/// rows of a cross-engine pair carry the same tag.
struct Tag {
  uint32_t writer = 0;
  uint64_t seq = 0;
  bool operator==(const Tag&) const = default;
};
inline constexpr size_t kTagBytes = 12;

/// Tag followed by deterministic filler up to `size` bytes (>= kTagBytes).
std::string EncodeValue(Tag tag, size_t size);
bool DecodeTag(std::string_view value, Tag* tag);
std::string TagString(const std::optional<Tag>& t);

/// One snapshot read of a key's memdb and stordb rows: both rows must be
/// present and carry the same tag, or the reader saw a torn cross-engine
/// snapshot.
bool CheckPair(bool mem_found, std::string_view mem, bool stor_found,
               std::string_view stor, std::string* why);

/// A table's rows as scanned after the run: key -> tag (nullopt when the
/// value carried no decodable tag).
using TagMap = std::map<uint64_t, std::optional<Tag>>;

/// Both engines must hold exactly the acknowledged final state: every
/// expected key with its last acknowledged tag, and no other key or value
/// (an unacknowledged write that became visible fails here too).
bool CheckFinalState(const std::map<uint64_t, Tag>& expected,
                     const TagMap& mem, const TagMap& stor, std::string* why);

/// Per reader: the version (writer sequence) it sees for a key never goes
/// backwards. Keys have exactly one writer, so sequences are versions.
class VersionTracker {
 public:
  bool Observe(uint64_t key, uint64_t seq, std::string* why);

 private:
  std::unordered_map<uint64_t, uint64_t> last_;
};

/// TPC-C state the benchmark's own scan extracts, per district.
struct DistrictScan {
  int64_t ytd_cents = 0;
  uint32_t next_o_id = 0;
  uint32_t max_o_id = 0;
  uint32_t max_no_o_id = 0;  // 0 when the district has no new-order row
  uint64_t orders = 0;
  uint64_t sum_ol_cnt = 0;
  uint64_t order_lines = 0;
  uint64_t history = 0;
};
struct WarehouseScan {
  int64_t ytd_cents = 0;
  std::vector<DistrictScan> districts;
};
using TpccScan = std::vector<WarehouseScan>;

/// TPC-C consistency conditions 1-4 (spec 3.3.2.1-3.3.2.4) on one scan:
/// W_YTD = sum(D_YTD); D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID);
/// sum(O_OL_CNT) = count of ORDER-LINE rows, per district.
bool CheckTpccConditions(const TpccScan& scan, std::string* why);

/// Growth between two scans must equal what the client saw commit: one
/// ORDER row per committed New-Order, one HISTORY row per committed
/// Payment.
bool CheckTpccGrowth(const TpccScan& before, const TpccScan& after,
                     uint64_t new_orders_committed,
                     uint64_t payments_committed, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
