#ifndef SKEENA_LOG_STORAGE_DEVICE_H_
#define SKEENA_LOG_STORAGE_DEVICE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace skeena {

/// Latency model for a simulated device.
///
/// The paper stresses Skeena on tmpfs ("I/O as fast as memory") and on a real
/// SSD (Section 6.7). We reproduce both: `Tmpfs()` adds no delay, `Ssd()`
/// spin-waits for a configurable per-operation latency so a buffer-pool miss
/// or log flush costs what it would on the paper's 760 MB/s SSD.
struct DeviceLatency {
  uint64_t read_ns = 0;
  uint64_t write_ns = 0;
  uint64_t sync_ns = 0;

  static DeviceLatency Tmpfs() { return {}; }
  static DeviceLatency Ssd() {
    return {.read_ns = 80'000, .write_ns = 20'000, .sync_ns = 100'000};
  }
  /// Models the per-page cost of the real storage stack on tmpfs-backed
  /// files (syscall + page verification + LRU bookkeeping a production
  /// buffer pool pays on a miss) — our in-process miss path would otherwise
  /// be a bare memcpy. Used by the "storage-resident on tmpfs" experiments
  /// (paper Figures 7-13); see DESIGN.md substitutions.
  static DeviceLatency TmpfsStack() {
    return {.read_ns = 8'000, .write_ns = 8'000, .sync_ns = 0};
  }
};

/// Byte-addressable storage abstraction backing logs and table spaces.
/// Implementations must be thread-safe.
class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  /// Appends `data` at the end; returns the offset it was written at.
  virtual Status Append(std::span<const uint8_t> data, uint64_t* offset) = 0;

  /// Writes `data` at `offset`, extending the device if needed.
  virtual Status WriteAt(uint64_t offset, std::span<const uint8_t> data) = 0;

  /// Reads exactly `out.size()` bytes at `offset`.
  virtual Status ReadAt(uint64_t offset, std::span<uint8_t> out) const = 0;

  /// Makes all prior writes durable.
  virtual Status Sync() = 0;

  /// Shrinks the device to `size` bytes, discarding everything beyond.
  /// Used by log tail recovery to cut off a torn frame. Optional: devices
  /// that cannot truncate return kNotSupported, which callers must treat as
  /// "the stale bytes remain but will be overwritten in place".
  virtual Status Truncate(uint64_t size) {
    (void)size;
    return Status::NotSupported("truncate not supported");
  }

  virtual uint64_t Size() const = 0;

  /// Total bytes read / written (for experiment reporting).
  virtual uint64_t bytes_read() const = 0;
  virtual uint64_t bytes_written() const = 0;
};

/// In-memory device with optional injected latency. The default for tests
/// and benchmarks: deterministic, no filesystem dependence, still charges
/// the configured per-operation latency like a real device would.
///
/// Bytes live in fixed-size chunks, so growing the device never copies what
/// it already holds (a log of hundreds of MB would otherwise be re-copied on
/// every doubling, under the device mutex). Bytes between the old end and a
/// write past it read as zeros, as they would on a file.
class MemDevice : public StorageDevice {
 public:
  explicit MemDevice(DeviceLatency latency = DeviceLatency::Tmpfs());

  Status Append(std::span<const uint8_t> data, uint64_t* offset) override;
  Status WriteAt(uint64_t offset, std::span<const uint8_t> data) override;
  Status ReadAt(uint64_t offset, std::span<uint8_t> out) const override;
  Status Sync() override;
  Status Truncate(uint64_t size) override;
  uint64_t Size() const override;
  uint64_t bytes_read() const override;
  uint64_t bytes_written() const override;

 private:
  /// A multiple of every stordb page size, so a page never straddles two.
  static constexpr uint64_t kChunkBytes = 1 << 20;

  /// Calls `fn(uint8_t* chunk_bytes, size_t n, size_t done)` for each
  /// chunk piece of [offset, offset + n), in order; those chunks exist.
  template <typename Fn>
  void ForEachPiece(uint64_t offset, uint64_t n, Fn&& fn) const
      SKEENA_REQUIRES(mu_);
  /// Writes `data` at `offset`: allocates missing chunks, zeroes any hole
  /// between the old end and `offset`, and grows size_.
  void WriteLocked(uint64_t offset, std::span<const uint8_t> data)
      SKEENA_REQUIRES(mu_);

  mutable Mutex mu_;
  /// Chunk i holds bytes [i * kChunkBytes, (i + 1) * kChunkBytes); only
  /// bytes below size_ are meaningful.
  std::vector<std::unique_ptr<uint8_t[]>> chunks_ SKEENA_GUARDED_BY(mu_);
  uint64_t size_ SKEENA_GUARDED_BY(mu_) = 0;
  DeviceLatency latency_;
  mutable uint64_t bytes_read_ SKEENA_GUARDED_BY(mu_) = 0;
  uint64_t bytes_written_ SKEENA_GUARDED_BY(mu_) = 0;
};

/// File-backed device (pread/pwrite/fsync). Used by the durability examples
/// and the recovery tests to survive process restarts.
class FileDevice : public StorageDevice {
 public:
  /// Opens (creating if needed) the file at `path`.
  static Result<std::unique_ptr<FileDevice>> Open(
      const std::string& path, DeviceLatency latency = DeviceLatency::Tmpfs());

  ~FileDevice() override;

  Status Append(std::span<const uint8_t> data, uint64_t* offset) override;
  Status WriteAt(uint64_t offset, std::span<const uint8_t> data) override;
  Status ReadAt(uint64_t offset, std::span<uint8_t> out) const override;
  Status Sync() override;
  Status Truncate(uint64_t size) override;
  uint64_t Size() const override;
  uint64_t bytes_read() const override;
  uint64_t bytes_written() const override;

  const std::string& path() const { return path_; }

  /// Test hook: replaces the pwrite syscall for this device. The hook has
  /// the raw pwrite contract — it may write fewer bytes than asked (short
  /// write) or fail — letting tests exercise the full-write retry loop.
  using PwriteFn = ssize_t (*)(int fd, const void* buf, size_t count,
                               off_t offset);
  void SetPwriteHookForTest(PwriteFn fn) { pwrite_hook_ = fn; }

 private:
  FileDevice(int fd, std::string path, uint64_t size, DeviceLatency latency);

  /// Issues pwrite (or the test hook) until every byte of `data` is
  /// written: POSIX allows short writes (quota boundaries, signals, >2GiB
  /// chunks), and treating one as failure would wrongly fail the flush.
  Status PwriteFully(uint64_t offset, std::span<const uint8_t> data);

  mutable Mutex mu_;
  int fd_;
  std::string path_;
  uint64_t size_ SKEENA_GUARDED_BY(mu_);
  DeviceLatency latency_;
  PwriteFn pwrite_hook_ = nullptr;
  mutable uint64_t bytes_read_ SKEENA_GUARDED_BY(mu_) = 0;
  uint64_t bytes_written_ SKEENA_GUARDED_BY(mu_) = 0;
};

/// Busy-waits for `ns` nanoseconds to emulate device latency without the
/// scheduler noise of sleeping (sub-100us sleeps routinely overshoot 10x).
void SpinWaitNs(uint64_t ns);

}  // namespace skeena

#endif  // SKEENA_LOG_STORAGE_DEVICE_H_
