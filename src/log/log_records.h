#ifndef SKEENA_LOG_LOG_RECORDS_H_
#define SKEENA_LOG_LOG_RECORDS_H_

#include <cstring>
#include <string>
#include <string_view>

#include "common/encoding.h"
#include "common/types.h"
#include "log/log_manager.h"

namespace skeena {

/// Log record types shared by both engines.
///
/// Cross-engine transactions piggyback `kCommitBegin` (appended at
/// pre-commit) and `kCommitEnd` (appended after post-commit) on each engine's
/// own log, exactly as paper Section 4.6 describes; recovery pairs them by
/// global transaction id across both logs and rolls back any cross-engine
/// transaction that is missing a kCommitEnd in either log.
enum class LogRecordType : uint8_t {
  kData = 1,         // one row image (insert/update/tombstone)
  kCommit = 2,       // single-engine transaction commit
  kCommitBegin = 3,  // cross-engine: sub-transaction pre-committed
  kCommitEnd = 4,    // cross-engine: sub-transaction post-committed
};

/// Encoded payload size of a record without its value: type, gtid, cts,
/// table, tombstone flag, key, value length.
inline constexpr size_t kLogRecordFixedBytes = 1 + 8 + 8 + 4 + 1 + 16 + 4;

/// A decoded log record. Data records carry the full after-image of the row
/// (both engines recover by replaying committed transactions' images in
/// commit-timestamp order, ERMIA-style log-only recovery).
struct LogRecord {
  LogRecordType type = LogRecordType::kData;
  GlobalTxnId gtid = 0;
  Timestamp cts = 0;
  TableId table = 0;
  bool tombstone = false;
  Key key = {};
  std::string value;

  std::string Encode() const {
    std::string out;
    out.push_back(static_cast<char>(type));
    PutU64(&out, gtid);
    PutU64(&out, cts);
    PutU32(&out, table);
    out.push_back(tombstone ? 1 : 0);
    out.append(reinterpret_cast<const char*>(key.data()), key.size());
    PutU32(&out, static_cast<uint32_t>(value.size()));
    out.append(value);
    return out;
  }

  static bool Decode(std::string_view in, LogRecord* out) {
    constexpr size_t kFixed = kLogRecordFixedBytes;
    if (in.size() < kFixed) return false;
    const char* p = in.data();
    out->type = static_cast<LogRecordType>(*p++);
    out->gtid = GetU64(p);
    p += 8;
    out->cts = GetU64(p);
    p += 8;
    out->table = GetU32(p);
    p += 4;
    out->tombstone = (*p++ != 0);
    std::memcpy(out->key.data(), p, 16);
    p += 16;
    uint32_t vlen = GetU32(p);
    p += 4;
    if (in.size() < kFixed + vlen) return false;
    out->value.assign(p, vlen);
    return true;
  }
};

/// Appends one record's frame to `frames`, encoding the payload in place.
/// The payload is byte-identical to the matching LogRecord's Encode()
/// (log_test pins this), without the intermediate string.
inline void AddLogRecordFrame(LogFrameBuffer* frames, LogRecordType type,
                              GlobalTxnId gtid, Timestamp cts,
                              TableId table = 0, bool tombstone = false,
                              const Key& key = {},
                              std::string_view value = {}) {
  static_assert(sizeof(gtid) == 8 && sizeof(cts) == 8 && sizeof(table) == 4);
  frames->Add(kLogRecordFixedBytes + value.size(), [&](uint8_t* p) {
    const uint32_t vlen = static_cast<uint32_t>(value.size());
    *p++ = static_cast<uint8_t>(type);
    std::memcpy(p, &gtid, 8);
    p += 8;
    std::memcpy(p, &cts, 8);
    p += 8;
    std::memcpy(p, &table, 4);
    p += 4;
    *p++ = tombstone ? 1 : 0;
    std::memcpy(p, key.data(), key.size());
    p += key.size();
    std::memcpy(p, &vlen, 4);
    p += 4;
    if (vlen > 0) std::memcpy(p, value.data(), vlen);
  });
}

}  // namespace skeena

#endif  // SKEENA_LOG_LOG_RECORDS_H_
