/// \file wal.h
/// \brief Write-ahead log: length-prefixed, checksummed mutation
/// records with group-commit batched fsyncs.
///
/// The WAL is the durability path between incremental checkpoints
/// (see storage/recovery.h): every collection mutation appends one
/// record, so a crash loses at most the torn tail of the last write
/// instead of everything since the last snapshot.
///
/// Segment file layout (little-endian, the "DTB1"/"DTW1" framing
/// discipline):
///
///   u32 magic "DTL1" | u16 version | u16 flags (0)
///   per record:
///     u32 payload length
///     u64 checksum = HashCombine(Fnv1a64("DTL1v1"), Fnv1a64(payload))
///     payload bytes
///
/// Record payload (via storage/codec.h BinaryWriter):
///
///   u8 op | string collection | u64 incarnation | u64 epoch | op args
///     kInsert/kUpdate: u64 doc id + encoded DocValue
///     kRemove:         u64 doc id
///     kCreateIndex:    u32 count + count path strings
///     kCreateCollection: ns string + u32 num_shards +
///                        u64 initial/max extent bytes
///     kDropCollection: (none)
///
/// Reading never trusts the input: every length is bounds-checked, a
/// record whose frame or payload does not validate ends the read as a
/// *torn tail* — the valid prefix is returned and the junk suffix
/// reported in `WalReadStats`, never an error and never a crash. (A
/// bad file header, by contrast, is kCorruption: the file is not a
/// WAL segment at all.)
///
/// Durability of an append is governed by `Durability`:
///
///   kNone    WAL disabled entirely (the manager never opens one)
///   kAsync   write() per append, fsync only on Sync()/Close()
///   kGroup   every append is fsynced before returning, but one
///            leader thread syncs for every append written at the
///            moment it enters the kernel — N concurrent writers pay
///            ~1 fsync, not N (leader-based group commit). Inside a
///            `WalManager::CommitScope` the opening thread's appends
///            are only written; its `Commit` waits for one fsync.
///   kStrict  fsync per append while holding the writer mutex
///
/// Note kill -9 (the crash-fuzz harness) never loses write()n bytes —
/// the page cache belongs to the kernel — so fsync placement is a
/// power-loss guarantee; the torn-tail codepath is what process
/// crashes exercise.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "common/status.h"
#include "storage/docvalue.h"
#include "storage/index.h"

namespace dt::storage {

/// When does an acknowledged mutation survive power loss?
enum class Durability : uint8_t {
  kNone = 0,    ///< no WAL: only checkpoints/snapshots persist
  kAsync = 1,   ///< after the kernel flushes (no fsync per append)
  kGroup = 2,   ///< on return (group-commit batched fsync)
  kStrict = 3,  ///< on return (one fsync per append)
};

const char* DurabilityName(Durability d);

/// First bytes of a WAL segment: "DTL1" read as a little-endian u32.
inline constexpr uint32_t kWalMagic = 0x314C5444u;
inline constexpr uint16_t kWalVersion = 1;
/// u32 magic + u16 version + u16 flags.
inline constexpr size_t kWalFileHeaderSize = 8;
/// u32 payload length + u64 checksum.
inline constexpr size_t kWalRecordHeaderSize = 12;
/// Payloads past this cannot be legitimate (one document tops out at
/// the codec's u32 framing); treating bigger claims as torn garbage
/// bounds what a crafted length can make the reader buffer.
inline constexpr uint32_t kMaxWalRecordSize = 1u << 30;

/// Salted FNV over the payload — same discipline as the wire frame's
/// "DTW1v1" checksum, under the log's own salt so a WAL record can
/// never masquerade as a wire frame or vice versa.
uint64_t WalChecksum(std::string_view payload);

/// One logged mutation. `epoch` is the collection's post-mutation
/// epoch: replay applies a record iff it is the next epoch of the
/// named (collection, incarnation) lineage, which makes replay
/// idempotent against whatever prefix a checkpoint already captured.
struct WalRecord {
  enum class Op : uint8_t {
    kInsert = 1,
    kUpdate = 2,
    kRemove = 3,
    kCreateIndex = 4,
    kCreateCollection = 5,
    kDropCollection = 6,
  };

  Op op = Op::kInsert;
  std::string collection;   ///< registry name in the DocumentStore
  uint64_t incarnation = 0; ///< lineage id of the mutated collection
  uint64_t epoch = 0;       ///< post-mutation epoch (0 for create/drop)
  DocId id = 0;             ///< insert/update/remove
  DocValue doc;             ///< insert/update payload
  std::vector<std::string> index_paths;  ///< create_index components
  // create_collection arguments (the persisted CollectionOptions
  // subset, mirroring the snapshot section):
  std::string ns;
  uint32_t num_shards = 0;
  uint64_t initial_extent_size_bytes = 0;
  uint64_t max_extent_size_bytes = 0;
};

/// Serializes `rec` into a record payload (no frame).
Status EncodeWalRecord(const WalRecord& rec, std::string* payload);

/// Inverse of `EncodeWalRecord`; bounds-checked, trailing bytes are
/// kCorruption.
Status DecodeWalRecord(std::string_view payload, WalRecord* out);

/// Appends the framed form (length + checksum + payload) to `out`.
void AppendWalFrame(std::string_view payload, std::string* out);

/// Appends the segment file header to `out`.
void AppendWalFileHeader(std::string* out);

struct WalReadStats {
  uint64_t records = 0;     ///< valid records decoded
  uint64_t torn_bytes = 0;  ///< junk suffix dropped (0 = clean tail)
  uint64_t valid_bytes = 0; ///< file prefix holding header + records
};

/// Decodes every valid record of a segment image. A frame or payload
/// that does not validate ends the read: the records before it are
/// returned and the suffix is counted as torn. Only a bad *file
/// header* is an error.
Status ReadWalSegment(std::string_view file, std::vector<WalRecord>* out,
                      WalReadStats* stats);
Status ReadWalSegmentFile(const std::string& path,
                          std::vector<WalRecord>* out, WalReadStats* stats);

struct WalWriterStats {
  uint64_t appends = 0;
  uint64_t bytes = 0;          ///< file bytes including the header
  uint64_t syncs = 0;          ///< fsync calls issued
  uint64_t group_batches = 0;  ///< syncs that covered > 1 append
};

/// \brief Single segment file appender. Thread-safe; `Append` returns
/// with the record durable per the segment's durability mode.
///
/// `Append` is `Write` followed by the mode's sync step. The two halves
/// are public so a caller can write several records and then wait
/// once: `Write` frames and write()s a record and returns its sequence
/// number; `WaitDurable(seq)` runs the group-commit leader/follower
/// loop until an fsync covers every record up to `seq`. A batch of N
/// `Write`s followed by one `WaitDurable` of the last sequence number
/// costs one fsync (what `WalManager::CommitScope` does under kGroup).
class WalWriter {
 public:
  /// Creates (truncating) the segment at `path`, writes and syncs the
  /// file header.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   Durability mode);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Frames and appends one record payload. On return the record is
  /// durable per the mode (see Durability). An I/O failure makes the
  /// writer sticky-unhealthy: every later Append fails with the same
  /// status, so one lost record can never be silently followed by
  /// acknowledged ones.
  Status Append(std::string_view payload);

  /// Frames and write()s one record payload without syncing; returns
  /// its sequence number (1, 2, ... per segment). Failures are sticky
  /// exactly as in `Append`.
  Result<uint64_t> Write(std::string_view payload);

  /// Returns once an fsync covers every record written up to `seq`:
  /// the first waiter that finds no sync in flight leads one fsync for
  /// everything written so far; the rest wait for it. Returns at once
  /// if `seq` is already covered, and the sticky failure if a sync
  /// failed first.
  Status WaitDurable(uint64_t seq);

  /// Forces everything appended so far to disk (any mode).
  Status Sync();

  const std::string& path() const { return path_; }
  uint64_t bytes_written() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  WalWriterStats stats() const;

 private:
  WalWriter(std::string path, int fd, Durability mode);

  std::string path_;
  int fd_;
  Durability mode_;
  std::atomic<uint64_t> bytes_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Status health_;            // sticky first I/O failure
  uint64_t written_seq_ = 0; // appends that hit write()
  uint64_t synced_seq_ = 0;  // appends covered by a completed fsync
  bool sync_in_flight_ = false;
  WalWriterStats stats_;
};

namespace crashpoint {

/// Crash-point hook for the recovery fuzz harness: when >= 0, every
/// byte the WAL writer and the atomic snapshot writer push through
/// write() decrements this budget, and the write that would cross
/// zero is cut short at the boundary before the process raises
/// SIGKILL — a deterministic torn write at an arbitrary byte offset.
/// Negative (the default) disables the hook.
extern std::atomic<int64_t> g_crash_after_bytes;

/// write() wrapper honoring `g_crash_after_bytes` (loops on EINTR is
/// the caller's job, exactly as with raw write()).
ssize_t CrashAwareWrite(int fd, const void* buf, size_t n);

}  // namespace crashpoint

}  // namespace dt::storage
