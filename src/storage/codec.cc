#include "storage/codec.h"

#include <algorithm>
#include <limits>

namespace dt::storage {

namespace {

constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();

Status CorruptAt(size_t offset, const std::string& what) {
  return Status::Corruption(what + " at offset " + std::to_string(offset));
}

/// The wire format frames strings, keys and container payloads with
/// u32 lengths; anything larger must fail the encode (silent mod-2^32
/// truncation would write a file the decoder refuses).
Status PutCheckedString(BinaryWriter* w, const std::string& s) {
  if (s.size() > kMaxU32) {
    return Status::OutOfRange("string of " + std::to_string(s.size()) +
                              " bytes exceeds the u32 length prefix");
  }
  w->PutString(s);
  return Status::OK();
}

Status EncodeValue(const DocValue& v, BinaryWriter* w, int depth) {
  if (depth > kMaxDecodeDepth) {
    return Status::OutOfRange(
        "nesting deeper than " + std::to_string(kMaxDecodeDepth) +
        " cannot be encoded (the decoder would reject it)");
  }
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DocType::kNull:
      break;
    case DocType::kBool:
      w->PutU8(v.bool_value() ? 1 : 0);
      break;
    case DocType::kInt64:
      w->PutI64(v.int_value());
      break;
    case DocType::kDouble:
      w->PutDouble(v.double_value());
      break;
    case DocType::kString:
      DT_RETURN_NOT_OK(PutCheckedString(w, v.string_value()));
      break;
    case DocType::kArray: {
      if (v.array_items().size() > kMaxU32) {
        return Status::OutOfRange("array element count exceeds u32");
      }
      size_t prefix = w->BeginLengthPrefix();
      w->PutU32(static_cast<uint32_t>(v.array_items().size()));
      for (const DocValue& item : v.array_items()) {
        DT_RETURN_NOT_OK(EncodeValue(item, w, depth + 1));
      }
      if (w->size() - prefix - sizeof(uint32_t) > kMaxU32) {
        return Status::OutOfRange("array payload exceeds the u32 prefix");
      }
      w->EndLengthPrefix(prefix);
      break;
    }
    case DocType::kObject: {
      if (v.fields().size() > kMaxU32) {
        return Status::OutOfRange("object field count exceeds u32");
      }
      size_t prefix = w->BeginLengthPrefix();
      w->PutU32(static_cast<uint32_t>(v.fields().size()));
      for (const auto& [key, value] : v.fields()) {
        DT_RETURN_NOT_OK(PutCheckedString(w, key));
        DT_RETURN_NOT_OK(EncodeValue(value, w, depth + 1));
      }
      if (w->size() - prefix - sizeof(uint32_t) > kMaxU32) {
        return Status::OutOfRange("object payload exceeds the u32 prefix");
      }
      w->EndLengthPrefix(prefix);
      break;
    }
  }
  return Status::OK();
}

Status DecodeValue(BinaryReader* r, int depth, DocValue* out);

/// Reads a container's length prefix and element count, validating that
/// the declared payload actually fits in the remaining buffer (a lying
/// length would otherwise let a later read appear in-bounds) and that
/// the count cannot exceed the payload (each element costs >= 1 byte).
Status ReadContainerHeader(BinaryReader* r, uint32_t* payload_len,
                           uint32_t* count, size_t* end_offset) {
  size_t at = r->offset();
  DT_RETURN_NOT_OK(r->ReadU32(payload_len));
  if (*payload_len > r->remaining()) {
    return CorruptAt(at, "container length " + std::to_string(*payload_len) +
                             " exceeds remaining " +
                             std::to_string(r->remaining()));
  }
  *end_offset = r->offset() + *payload_len;
  DT_RETURN_NOT_OK(r->ReadU32(count));
  if (static_cast<uint64_t>(*count) + sizeof(uint32_t) >
      static_cast<uint64_t>(*payload_len)) {
    return CorruptAt(at, "container count " + std::to_string(*count) +
                             " impossible for payload of " +
                             std::to_string(*payload_len) + " bytes");
  }
  return Status::OK();
}

Status DecodeValue(BinaryReader* r, int depth, DocValue* out) {
  if (depth > kMaxDecodeDepth) {
    return CorruptAt(r->offset(), "nesting deeper than " +
                                      std::to_string(kMaxDecodeDepth));
  }
  size_t at = r->offset();
  uint8_t tag = 0;
  DT_RETURN_NOT_OK(r->ReadU8(&tag));
  switch (static_cast<DocType>(tag)) {
    case DocType::kNull:
      *out = DocValue::Null();
      return Status::OK();
    case DocType::kBool: {
      uint8_t b = 0;
      DT_RETURN_NOT_OK(r->ReadU8(&b));
      if (b > 1) return CorruptAt(at, "bool byte " + std::to_string(b));
      *out = DocValue::Bool(b == 1);
      return Status::OK();
    }
    case DocType::kInt64: {
      int64_t i = 0;
      DT_RETURN_NOT_OK(r->ReadI64(&i));
      *out = DocValue::Int(i);
      return Status::OK();
    }
    case DocType::kDouble: {
      double d = 0;
      DT_RETURN_NOT_OK(r->ReadDouble(&d));
      *out = DocValue::Double(d);
      return Status::OK();
    }
    case DocType::kString: {
      std::string s;
      DT_RETURN_NOT_OK(r->ReadString(&s));
      *out = DocValue::Str(std::move(s));
      return Status::OK();
    }
    case DocType::kArray: {
      uint32_t payload_len = 0, count = 0;
      size_t end = 0;
      DT_RETURN_NOT_OK(ReadContainerHeader(r, &payload_len, &count, &end));
      DocValue arr = DocValue::Array();
      // Clamped: a crafted count passing the 1-byte-per-element header
      // check could otherwise force an ~88x-amplified allocation before
      // any element decode fails. Past the clamp, amortized growth is
      // paid only as real elements actually decode.
      arr.mutable_array().reserve(std::min<uint32_t>(count, 1u << 12));
      for (uint32_t i = 0; i < count; ++i) {
        DocValue item;
        DT_RETURN_NOT_OK(DecodeValue(r, depth + 1, &item));
        arr.Push(std::move(item));
      }
      if (r->offset() != end) {
        return CorruptAt(at, "array payload length mismatch (declared end " +
                                 std::to_string(end) + ", decoded to " +
                                 std::to_string(r->offset()) + ")");
      }
      *out = std::move(arr);
      return Status::OK();
    }
    case DocType::kObject: {
      uint32_t payload_len = 0, count = 0;
      size_t end = 0;
      DT_RETURN_NOT_OK(ReadContainerHeader(r, &payload_len, &count, &end));
      DocValue obj = DocValue::Object();
      // Clamped for the same reason as the array case above.
      obj.mutable_fields().reserve(std::min<uint32_t>(count, 1u << 12));
      for (uint32_t i = 0; i < count; ++i) {
        std::string key;
        DT_RETURN_NOT_OK(r->ReadString(&key));
        DocValue value;
        DT_RETURN_NOT_OK(DecodeValue(r, depth + 1, &value));
        obj.Add(std::move(key), std::move(value));
      }
      if (r->offset() != end) {
        return CorruptAt(at, "object payload length mismatch (declared end " +
                                 std::to_string(end) + ", decoded to " +
                                 std::to_string(r->offset()) + ")");
      }
      *out = std::move(obj);
      return Status::OK();
    }
  }
  return CorruptAt(at, "unknown type tag " + std::to_string(tag));
}

}  // namespace

Status BinaryReader::ReadString(std::string* out) {
  size_t at = pos_;
  uint32_t len = 0;
  DT_RETURN_NOT_OK(ReadU32(&len));
  if (len > remaining()) {
    pos_ = at;
    return Status::Corruption("string length " + std::to_string(len) +
                              " exceeds remaining " +
                              std::to_string(remaining()) + " at offset " +
                              std::to_string(at));
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status EncodeDocValue(const DocValue& v, std::string* out) {
  BinaryWriter w(out);
  return EncodeValue(v, &w, 0);
}

Status DecodeDocValue(BinaryReader* reader, DocValue* out) {
  return DecodeValue(reader, 0, out);
}

Status DecodeDocValue(std::string_view buf, DocValue* out) {
  BinaryReader r(buf);
  DT_RETURN_NOT_OK(DecodeValue(&r, 0, out));
  if (r.remaining() != 0) {
    return CorruptAt(r.offset(), std::to_string(r.remaining()) +
                                     " trailing bytes after value");
  }
  return Status::OK();
}

void AppendCodecHeader(std::string* out) {
  BinaryWriter w(out);
  w.PutU32(kCodecMagic);
  w.PutU16(kCodecVersion);
  w.PutU16(0);  // flags, reserved
}

Status ReadCodecHeader(BinaryReader* reader) {
  uint32_t magic = 0;
  uint16_t version = 0, flags = 0;
  DT_RETURN_NOT_OK(reader->ReadU32(&magic));
  if (magic != kCodecMagic) {
    return Status::Corruption("bad magic: not a dt binary stream");
  }
  DT_RETURN_NOT_OK(reader->ReadU16(&version));
  if (version != kCodecVersion) {
    return Status::Corruption("unsupported codec version " +
                              std::to_string(version) + " (this build reads " +
                              std::to_string(kCodecVersion) + ")");
  }
  DT_RETURN_NOT_OK(reader->ReadU16(&flags));
  if (flags != 0) {
    return Status::Corruption("unknown codec flags " + std::to_string(flags));
  }
  return Status::OK();
}

void PutIndexSpec(BinaryWriter* w, const std::vector<std::string>& paths) {
  w->PutU32(static_cast<uint32_t>(paths.size()));
  for (const std::string& p : paths) w->PutString(p);
}

Status ReadIndexSpec(BinaryReader* r, std::vector<std::string>* paths) {
  paths->clear();
  uint32_t count = 0;
  DT_RETURN_NOT_OK(r->ReadU32(&count));
  if (count == 0 || count > r->remaining() / 4) {
    return Status::Corruption("implausible index component count " +
                              std::to_string(count));
  }
  paths->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string p;
    DT_RETURN_NOT_OK(r->ReadString(&p));
    paths->push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace dt::storage
