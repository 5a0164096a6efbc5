/// \file codec.h
/// \brief Length-prefixed binary encoding of `DocValue` trees.
///
/// The wire format follows BSON's framing discipline (every variable-
/// length payload is preceded by its byte length, so a reader can skip
/// or validate without parsing children) but keeps the repository's own
/// type tags. All multi-byte integers are little-endian and read/written
/// via `memcpy`, so the codec is safe on alignment-strict targets and
/// independent of host byte order on the platforms we support.
///
/// Value encoding (one type byte, then the payload):
///
///   kNull    (empty)
///   kBool    u8 (0 or 1)
///   kInt64   i64 little-endian
///   kDouble  IEEE-754 bits, little-endian
///   kString  u32 byte length + bytes (no terminator)
///   kArray   u32 payload byte length + u32 element count + elements
///   kObject  u32 payload byte length + u32 field count +
///            (u32 key length + key bytes + value)*
///
/// Streams of encoded values are framed by a versioned header
/// (`AppendCodecHeader` / `ReadCodecHeader`): magic "DTB1", a format
/// version that readers must match, and a flags word reserved for
/// future compression/checksum bits. Decoding NEVER crashes on corrupt
/// or truncated input: every read is bounds-checked and failures come
/// back as `Status::Corruption` carrying the byte offset.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/docvalue.h"

namespace dt::storage {

/// First bytes of any codec-framed stream: "DTB1" read as a
/// little-endian u32.
inline constexpr uint32_t kCodecMagic = 0x31425444u;

/// Bumped on any change to the value encoding or the stream layout.
/// Version history:
///   1  original format
///   2  collection sections carry epoch lineage (incarnation + epoch)
///      after next_id
///   3  collection sections carry one per-index statistics record
///      (histogram + distinct sketches, see storage/stats.h) after the
///      index specs
///   4  index specs use the `PutIndexSpec` layout (u32 component
///      count + component paths), the same as WAL create-index records
/// Readers accept exactly kCodecVersion and reject anything else with
/// kCorruption: an older file is migrated by the build that wrote it.
inline constexpr uint16_t kCodecVersion = 4;

/// Both directions refuse trees nested deeper than this: decode
/// because a 4-byte-per-level crafted input could otherwise overflow
/// the stack, encode so that a save can never produce a file the
/// decoder would refuse.
inline constexpr int kMaxDecodeDepth = 128;

/// \brief Append-only little-endian writer over a caller-owned string.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof v); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof v); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof v); }
  void PutDouble(double v) { PutRaw(&v, sizeof v); }

  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }

  /// Reserves a u32 slot to be patched by `EndLengthPrefix` with the
  /// number of bytes written in between. Nests (patch inner first is
  /// not required; positions are absolute).
  size_t BeginLengthPrefix() {
    size_t pos = out_->size();
    PutU32(0);
    return pos;
  }
  void EndLengthPrefix(size_t pos) {
    uint32_t len = static_cast<uint32_t>(out_->size() - pos - sizeof(uint32_t));
    std::memcpy(&(*out_)[pos], &len, sizeof len);
  }

  size_t size() const { return out_->size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    out_->append(reinterpret_cast<const char*>(p), n);
  }

  std::string* out_;
};

/// \brief Bounds-checked little-endian reader over a borrowed buffer.
///
/// Every accessor returns `Status::Corruption` (with the offending
/// offset) instead of reading past the end; the cursor does not advance
/// on failure.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit BinaryReader(std::string_view buf)
      : BinaryReader(buf.data(), buf.size()) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  Status ReadU8(uint8_t* v) { return ReadRaw(v, sizeof *v); }
  Status ReadU16(uint16_t* v) { return ReadRaw(v, sizeof *v); }
  Status ReadU32(uint32_t* v) { return ReadRaw(v, sizeof *v); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, sizeof *v); }
  Status ReadI64(int64_t* v) { return ReadRaw(v, sizeof *v); }
  Status ReadDouble(double* v) { return ReadRaw(v, sizeof *v); }

  /// u32 length prefix + raw bytes (the inverse of
  /// `BinaryWriter::PutString`).
  Status ReadString(std::string* out);

  /// Borrows the next `n` bytes as a view into the underlying buffer
  /// (no copy) and advances past them. The view is only valid while
  /// the buffer outlives the reader.
  Status ReadSpan(size_t n, std::string_view* out) {
    DT_RETURN_NOT_OK(Need(n));
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  Status Skip(size_t n) {
    DT_RETURN_NOT_OK(Need(n));
    pos_ += n;
    return Status::OK();
  }

 private:
  Status Need(size_t n) const {
    if (n > remaining()) {
      return Status::Corruption("truncated input: need " + std::to_string(n) +
                                " bytes at offset " + std::to_string(pos_) +
                                ", have " + std::to_string(remaining()));
    }
    return Status::OK();
  }
  Status ReadRaw(void* out, size_t n) {
    DT_RETURN_NOT_OK(Need(n));
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Appends the binary encoding of `v` (type byte + payload) to `out`.
/// Nesting beyond `kMaxDecodeDepth` and strings/containers whose
/// length overflows the u32 framing are kOutOfRange (the decoder
/// would reject such a stream, so it must not be writable); on any
/// error the partial bytes appended to `out` are unspecified —
/// discard them.
Status EncodeDocValue(const DocValue& v, std::string* out);

/// Decodes one value from the reader's cursor. On success the cursor
/// sits just past the value; on failure it is unspecified and the
/// status is kCorruption. Nesting beyond `kMaxDecodeDepth` is rejected.
Status DecodeDocValue(BinaryReader* reader, DocValue* out);

/// Convenience: decodes exactly one value spanning the whole buffer
/// (trailing bytes are kCorruption).
Status DecodeDocValue(std::string_view buf, DocValue* out);

/// Appends the stream header: magic, version, flags (0).
void AppendCodecHeader(std::string* out);

/// Validates magic and version at the reader's cursor and advances past
/// the header. Wrong magic, or any version but kCodecVersion, is
/// kCorruption naming the version found.
Status ReadCodecHeader(BinaryReader* reader);

/// Appends an index spec — its component paths in index order — as a
/// u32 count followed by `PutString` paths: the one persisted form of
/// an index spec, shared by snapshots and the WAL.
void PutIndexSpec(BinaryWriter* w, const std::vector<std::string>& paths);

/// Inverse of `PutIndexSpec`. A count of 0, or one the remaining bytes
/// cannot hold (each path costs at least its 4-byte length prefix), is
/// kCorruption.
Status ReadIndexSpec(BinaryReader* r, std::vector<std::string>* paths);

}  // namespace dt::storage
