#include "storage/wal.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/hash.h"
#include "storage/codec.h"
#include "storage/snapshot.h"

namespace dt::storage {

namespace crashpoint {

std::atomic<int64_t> g_crash_after_bytes{-1};

ssize_t CrashAwareWrite(int fd, const void* buf, size_t n) {
  int64_t budget = g_crash_after_bytes.load(std::memory_order_relaxed);
  if (budget < 0) return ::write(fd, buf, n);
  // Burn the budget atomically so concurrent writers cannot both claim
  // the crashing write.
  int64_t before = g_crash_after_bytes.fetch_sub(static_cast<int64_t>(n),
                                                 std::memory_order_relaxed);
  if (before >= static_cast<int64_t>(n)) return ::write(fd, buf, n);
  // This write crosses the crash point: land the partial prefix (a
  // torn record for recovery to truncate), then die like kill -9.
  size_t partial = before > 0 ? static_cast<size_t>(before) : 0;
  if (partial > 0) {
    size_t done = 0;
    while (done < partial) {
      ssize_t w = ::write(fd, static_cast<const char*>(buf) + done,
                          partial - done);
      if (w < 0) {
        if (errno == EINTR) continue;
        break;
      }
      done += static_cast<size_t>(w);
    }
  }
  raise(SIGKILL);
  // Unreachable in practice; keep the contract if SIGKILL is blocked
  // by a debugger.
  errno = EIO;
  return -1;
}

}  // namespace crashpoint

const char* DurabilityName(Durability d) {
  switch (d) {
    case Durability::kNone:
      return "none";
    case Durability::kAsync:
      return "async";
    case Durability::kGroup:
      return "group";
    case Durability::kStrict:
      return "strict";
  }
  return "unknown";
}

uint64_t WalChecksum(std::string_view payload) {
  return HashCombine(Fnv1a64("DTL1v1"), Fnv1a64(payload));
}

// ---- record codec ------------------------------------------------------

Status EncodeWalRecord(const WalRecord& rec, std::string* payload) {
  BinaryWriter w(payload);
  w.PutU8(static_cast<uint8_t>(rec.op));
  w.PutString(rec.collection);
  w.PutU64(rec.incarnation);
  w.PutU64(rec.epoch);
  switch (rec.op) {
    case WalRecord::Op::kInsert:
    case WalRecord::Op::kUpdate:
      w.PutU64(rec.id);
      DT_RETURN_NOT_OK(EncodeDocValue(rec.doc, payload));
      break;
    case WalRecord::Op::kRemove:
      w.PutU64(rec.id);
      break;
    case WalRecord::Op::kCreateIndex:
      PutIndexSpec(&w, rec.index_paths);
      break;
    case WalRecord::Op::kCreateCollection:
      w.PutString(rec.ns);
      w.PutU32(rec.num_shards);
      w.PutU64(rec.initial_extent_size_bytes);
      w.PutU64(rec.max_extent_size_bytes);
      break;
    case WalRecord::Op::kDropCollection:
      break;
  }
  return Status::OK();
}

Status DecodeWalRecord(std::string_view payload, WalRecord* out) {
  *out = WalRecord{};
  BinaryReader r(payload);
  uint8_t op = 0;
  DT_RETURN_NOT_OK(r.ReadU8(&op));
  if (op < static_cast<uint8_t>(WalRecord::Op::kInsert) ||
      op > static_cast<uint8_t>(WalRecord::Op::kDropCollection)) {
    return Status::Corruption("unknown WAL op " + std::to_string(op));
  }
  out->op = static_cast<WalRecord::Op>(op);
  DT_RETURN_NOT_OK(r.ReadString(&out->collection));
  DT_RETURN_NOT_OK(r.ReadU64(&out->incarnation));
  DT_RETURN_NOT_OK(r.ReadU64(&out->epoch));
  switch (out->op) {
    case WalRecord::Op::kInsert:
    case WalRecord::Op::kUpdate: {
      uint64_t id = 0;
      DT_RETURN_NOT_OK(r.ReadU64(&id));
      if (id == 0 || id >= (1ull << 63)) {
        return Status::Corruption("implausible document id " +
                                  std::to_string(id));
      }
      out->id = static_cast<DocId>(id);
      DT_RETURN_NOT_OK(DecodeDocValue(&r, &out->doc));
      break;
    }
    case WalRecord::Op::kRemove: {
      uint64_t id = 0;
      DT_RETURN_NOT_OK(r.ReadU64(&id));
      if (id == 0 || id >= (1ull << 63)) {
        return Status::Corruption("implausible document id " +
                                  std::to_string(id));
      }
      out->id = static_cast<DocId>(id);
      break;
    }
    case WalRecord::Op::kCreateIndex:
      DT_RETURN_NOT_OK(ReadIndexSpec(&r, &out->index_paths));
      break;
    case WalRecord::Op::kCreateCollection: {
      DT_RETURN_NOT_OK(r.ReadString(&out->ns));
      DT_RETURN_NOT_OK(r.ReadU32(&out->num_shards));
      DT_RETURN_NOT_OK(r.ReadU64(&out->initial_extent_size_bytes));
      DT_RETURN_NOT_OK(r.ReadU64(&out->max_extent_size_bytes));
      // Same plausibility bounds as the snapshot section reader.
      if (out->num_shards == 0 || out->num_shards > (1u << 20)) {
        return Status::Corruption("implausible shard count " +
                                  std::to_string(out->num_shards));
      }
      if (out->initial_extent_size_bytes >= (1ull << 63) ||
          out->max_extent_size_bytes >= (1ull << 63)) {
        return Status::Corruption("implausible extent sizes");
      }
      break;
    }
    case WalRecord::Op::kDropCollection:
      break;
  }
  if (r.remaining() != 0) {
    return Status::Corruption(std::to_string(r.remaining()) +
                              " trailing bytes in WAL record");
  }
  return Status::OK();
}

void AppendWalFrame(std::string_view payload, std::string* out) {
  BinaryWriter w(out);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU64(WalChecksum(payload));
  out->append(payload.data(), payload.size());
}

void AppendWalFileHeader(std::string* out) {
  BinaryWriter w(out);
  w.PutU32(kWalMagic);
  w.PutU16(kWalVersion);
  w.PutU16(0);  // flags
}

// ---- segment reading ---------------------------------------------------

Status ReadWalSegment(std::string_view file, std::vector<WalRecord>* out,
                      WalReadStats* stats) {
  *stats = WalReadStats{};
  BinaryReader r(file);
  uint32_t magic = 0;
  uint16_t version = 0, flags = 0;
  // A header that does not parse at all means this is not a WAL
  // segment — that is corruption, not a torn tail (the header is
  // written and synced before the first record can exist).
  Status hdr = r.ReadU32(&magic);
  if (hdr.ok()) hdr = r.ReadU16(&version);
  if (hdr.ok()) hdr = r.ReadU16(&flags);
  if (!hdr.ok() || magic != kWalMagic) {
    return Status::Corruption("not a WAL segment (bad header)");
  }
  if (version == 0 || version > kWalVersion) {
    return Status::Corruption("unsupported WAL segment version " +
                              std::to_string(version));
  }
  stats->valid_bytes = kWalFileHeaderSize;
  while (r.remaining() > 0) {
    size_t record_start = r.offset();
    uint32_t len = 0;
    uint64_t checksum = 0;
    std::string_view payload;
    bool torn = r.remaining() < kWalRecordHeaderSize;
    if (!torn) {
      (void)r.ReadU32(&len);
      (void)r.ReadU64(&checksum);
      torn = len > kMaxWalRecordSize || len > r.remaining();
    }
    if (!torn) {
      (void)r.ReadSpan(len, &payload);
      torn = WalChecksum(payload) != checksum;
    }
    WalRecord rec;
    if (!torn) torn = !DecodeWalRecord(payload, &rec).ok();
    if (torn) {
      // Torn tail: everything from this record on is the residue of a
      // write the crash interrupted. Keep the valid prefix.
      stats->torn_bytes = file.size() - record_start;
      break;
    }
    out->push_back(std::move(rec));
    ++stats->records;
    stats->valid_bytes = r.offset();
  }
  return Status::OK();
}

Status ReadWalSegmentFile(const std::string& path,
                          std::vector<WalRecord>* out, WalReadStats* stats) {
  std::string buf;
  DT_RETURN_NOT_OK(ReadFileToString(path, &buf));
  return ReadWalSegment(buf, out, stats);
}

// ---- WalWriter ---------------------------------------------------------

WalWriter::WalWriter(std::string path, int fd, Durability mode)
    : path_(std::move(path)), fd_(fd), mode_(mode) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    // Final durability point for kAsync; the other modes are already
    // synced through their Append contract.
    (void)::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     Durability mode) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open WAL segment " + path + ": " +
                           std::string(strerror(errno)));
  }
  std::string header;
  AppendWalFileHeader(&header);
  size_t done = 0;
  while (done < header.size()) {
    ssize_t n = crashpoint::CrashAwareWrite(fd, header.data() + done,
                                            header.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("cannot write WAL header to " + path);
    }
    done += static_cast<size_t>(n);
  }
  // The header must be durable before any record: recovery treats a
  // bad header as corruption, not a torn tail.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IOError("cannot sync WAL header to " + path);
  }
  auto writer =
      std::unique_ptr<WalWriter>(new WalWriter(path, fd, mode));
  writer->bytes_.store(header.size(), std::memory_order_relaxed);
  return writer;
}

Result<uint64_t> WalWriter::Write(std::string_view payload) {
  if (payload.size() > kMaxWalRecordSize) {
    return Status::OutOfRange("WAL record of " +
                              std::to_string(payload.size()) +
                              " bytes exceeds the frame limit");
  }
  std::string frame;
  frame.reserve(kWalRecordHeaderSize + payload.size());
  AppendWalFrame(payload, &frame);

  std::lock_guard<std::mutex> lock(mu_);
  if (!health_.ok()) return health_;
  size_t done = 0;
  while (done < frame.size()) {
    ssize_t n = crashpoint::CrashAwareWrite(fd_, frame.data() + done,
                                            frame.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      health_ = Status::IOError("WAL append to " + path_ + " failed: " +
                                std::string(strerror(errno)));
      cv_.notify_all();
      return health_;
    }
    done += static_cast<size_t>(n);
  }
  ++stats_.appends;
  stats_.bytes += frame.size();
  bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  return ++written_seq_;
}

Status WalWriter::WaitDurable(uint64_t seq) {
  // Leader-based group commit: whoever finds no sync in flight syncs
  // on behalf of every append written so far; the rest wait on the
  // condvar until a completed sync covers their sequence number.
  std::unique_lock<std::mutex> lock(mu_);
  while (synced_seq_ < seq) {
    if (!health_.ok()) return health_;
    if (!sync_in_flight_) {
      sync_in_flight_ = true;
      const uint64_t target = written_seq_;
      lock.unlock();
      int rc = ::fsync(fd_);
      lock.lock();
      sync_in_flight_ = false;
      if (rc != 0) {
        health_ = Status::IOError("WAL fsync of " + path_ + " failed");
        cv_.notify_all();
        return health_;
      }
      ++stats_.syncs;
      if (target - synced_seq_ > 1) ++stats_.group_batches;
      synced_seq_ = std::max(synced_seq_, target);
      cv_.notify_all();
    } else {
      cv_.wait(lock);
    }
  }
  return Status::OK();
}

Status WalWriter::Append(std::string_view payload) {
  DT_ASSIGN_OR_RETURN(const uint64_t seq, Write(payload));
  switch (mode_) {
    case Durability::kNone:
    case Durability::kAsync:
      return Status::OK();
    case Durability::kStrict: {
      std::lock_guard<std::mutex> lock(mu_);
      if (!health_.ok()) return health_;
      if (::fsync(fd_) != 0) {
        health_ = Status::IOError("WAL fsync of " + path_ + " failed");
        cv_.notify_all();
        return health_;
      }
      ++stats_.syncs;
      synced_seq_ = written_seq_;
      return Status::OK();
    }
    case Durability::kGroup:
      break;
  }
  return WaitDurable(seq);
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!health_.ok()) return health_;
  const uint64_t target = written_seq_;
  lock.unlock();
  int rc = ::fsync(fd_);
  lock.lock();
  if (rc != 0) {
    health_ = Status::IOError("WAL fsync of " + path_ + " failed");
    cv_.notify_all();
    return health_;
  }
  ++stats_.syncs;
  synced_seq_ = std::max(synced_seq_, target);
  cv_.notify_all();
  return Status::OK();
}

WalWriterStats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dt::storage
