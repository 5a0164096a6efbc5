/// Unit tests for the binary DocValue codec: every type round-trips,
/// the header is versioned, and corrupt/truncated input always comes
/// back as a clean kCorruption status.

#include "storage/codec.h"

#include <gtest/gtest.h>

#include <string>

#include "storage/docvalue.h"

namespace dt::storage {
namespace {

DocValue SampleDoc() {
  DocValue inner = DocBuilder()
                       .Set("city", "Boston")
                       .Set("zip", 2139)
                       .Set("area_km2", 232.1)
                       .Build();
  DocValue arr = DocValue::Array();
  arr.Push(DocValue::Int(1));
  arr.Push(DocValue::Str("two"));
  arr.Push(DocValue::Null());
  arr.Push(DocValue::Array({DocValue::Bool(true), DocValue::Double(-0.5)}));
  return DocBuilder()
      .Set("name", "Data Tamer")
      .Set("year", 2014)
      .Set("score", 0.875)
      .Set("published", true)
      .Set("venue", DocValue::Null())
      .Set("address", std::move(inner))
      .Set("tags", std::move(arr))
      .Build();
}

std::string Encode(const DocValue& v) {
  std::string buf;
  Status st = EncodeDocValue(v, &buf);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return buf;
}

TEST(CodecTest, ScalarsRoundTrip) {
  for (const DocValue& v :
       {DocValue::Null(), DocValue::Bool(true), DocValue::Bool(false),
        DocValue::Int(0), DocValue::Int(-1), DocValue::Int(INT64_MAX),
        DocValue::Int(INT64_MIN), DocValue::Double(0.0),
        DocValue::Double(-1.5e308), DocValue::Str(""),
        DocValue::Str("héllo \"world\"\n"),
        DocValue::Str(std::string("embedded\0nul", 12)),
        DocValue::Str(std::string(100000, 'x'))}) {
    std::string buf = Encode(v);
    DocValue back;
    ASSERT_TRUE(DecodeDocValue(buf, &back).ok()) << v.ToJson();
    EXPECT_TRUE(v.Equals(back)) << v.ToJson();
  }
}

TEST(CodecTest, EmptyContainersRoundTrip) {
  for (const DocValue& v : {DocValue::Array(), DocValue::Object()}) {
    std::string buf = Encode(v);
    DocValue back;
    ASSERT_TRUE(DecodeDocValue(buf, &back).ok());
    EXPECT_TRUE(v.Equals(back));
    EXPECT_EQ(v.type(), back.type());
  }
}

TEST(CodecTest, NestedDocumentRoundTripsAndReEncodesIdentically) {
  DocValue doc = SampleDoc();
  std::string buf = Encode(doc);
  DocValue back;
  ASSERT_TRUE(DecodeDocValue(buf, &back).ok());
  EXPECT_TRUE(doc.Equals(back));
  // encode(decode(encode(x))) == encode(x): the format has exactly one
  // representation per value.
  EXPECT_EQ(buf, Encode(back));
}

TEST(CodecTest, IntAndDoubleStayDistinct) {
  std::string buf = Encode(DocValue::Int(2));
  DocValue back;
  ASSERT_TRUE(DecodeDocValue(buf, &back).ok());
  EXPECT_TRUE(back.is_int());
  ASSERT_TRUE(DecodeDocValue(Encode(DocValue::Double(2.0)), &back).ok());
  EXPECT_TRUE(back.is_double());
}

TEST(CodecTest, FieldOrderIsPreserved) {
  DocValue doc = DocBuilder().Set("z", 1).Set("a", 2).Set("m", 3).Build();
  DocValue back;
  ASSERT_TRUE(DecodeDocValue(Encode(doc), &back).ok());
  ASSERT_EQ(back.fields().size(), 3u);
  EXPECT_EQ(back.fields()[0].first, "z");
  EXPECT_EQ(back.fields()[1].first, "a");
  EXPECT_EQ(back.fields()[2].first, "m");
}

TEST(CodecTest, HeaderRoundTrips) {
  std::string buf;
  AppendCodecHeader(&buf);
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.substr(0, 4), "DTB1");
  BinaryReader r(buf);
  EXPECT_TRUE(ReadCodecHeader(&r).ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CodecTest, HeaderRejectsBadMagicAndVersion) {
  std::string buf;
  AppendCodecHeader(&buf);
  {
    std::string bad = buf;
    bad[0] = 'X';
    BinaryReader r(bad);
    Status st = ReadCodecHeader(&r);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
  // A newer version and the previous one are both rejected: a reader
  // accepts exactly kCodecVersion.
  for (int version : {kCodecVersion + 1, kCodecVersion - 1}) {
    std::string bad = buf;
    bad[4] = static_cast<char>(version);
    BinaryReader r(bad);
    Status st = ReadCodecHeader(&r);
    EXPECT_TRUE(st.IsCorruption());
    EXPECT_NE(st.message().find("version " + std::to_string(version)),
              std::string::npos)
        << st.ToString();
  }
}

TEST(CodecTest, EveryTruncationFailsCleanly) {
  std::string buf = Encode(SampleDoc());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    DocValue back;
    Status st = DecodeDocValue(std::string_view(buf.data(), cut), &back);
    EXPECT_TRUE(st.IsCorruption()) << "cut=" << cut << " -> " << st.ToString();
  }
}

TEST(CodecTest, TrailingBytesAreCorruption) {
  std::string buf = Encode(DocValue::Int(7));
  buf.push_back('\0');
  DocValue back;
  Status st = DecodeDocValue(buf, &back);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("trailing"), std::string::npos);
}

TEST(CodecTest, UnknownTypeTagIsCorruption) {
  std::string buf(1, static_cast<char>(0x7F));
  DocValue back;
  EXPECT_TRUE(DecodeDocValue(buf, &back).IsCorruption());
}

TEST(CodecTest, LyingContainerLengthIsCorruption) {
  // An array claiming a payload far larger than the buffer.
  std::string buf;
  BinaryWriter w(&buf);
  w.PutU8(static_cast<uint8_t>(DocType::kArray));
  w.PutU32(0xFFFFFF00u);  // payload length
  w.PutU32(1);            // count
  DocValue back;
  Status st = DecodeDocValue(buf, &back);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("exceeds"), std::string::npos);
}

TEST(CodecTest, ImpossibleElementCountIsCorruption) {
  // Payload of 8 bytes cannot hold 1000 elements.
  std::string buf;
  BinaryWriter w(&buf);
  w.PutU8(static_cast<uint8_t>(DocType::kArray));
  w.PutU32(8);
  w.PutU32(1000);
  buf.append(4, '\0');
  DocValue back;
  EXPECT_TRUE(DecodeDocValue(buf, &back).IsCorruption());
}

TEST(CodecTest, LyingStringLengthIsCorruption) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutU8(static_cast<uint8_t>(DocType::kString));
  w.PutU32(0xFFFFFFFFu);
  buf += "abc";
  DocValue back;
  EXPECT_TRUE(DecodeDocValue(buf, &back).IsCorruption());
}

TEST(CodecTest, DeepNestingIsRejectedNotOverflowed) {
  // kMaxDecodeDepth+10 nested single-element arrays, hand-built so the
  // encoder's own recursion is not exercised.
  const int depth = kMaxDecodeDepth + 10;
  std::string payload;  // innermost value
  BinaryWriter inner(&payload);
  inner.PutU8(static_cast<uint8_t>(DocType::kNull));
  for (int i = 0; i < depth; ++i) {
    std::string outer;
    BinaryWriter w(&outer);
    w.PutU8(static_cast<uint8_t>(DocType::kArray));
    w.PutU32(static_cast<uint32_t>(payload.size() + 4));
    w.PutU32(1);
    outer += payload;
    payload = std::move(outer);
  }
  DocValue back;
  Status st = DecodeDocValue(payload, &back);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("nesting"), std::string::npos);
}

TEST(CodecTest, EncodeRejectsOverDeepNesting) {
  // The decoder would refuse this stream, so the encoder must refuse
  // to produce it — save can never write an unloadable file.
  DocValue v = DocValue::Null();
  for (int i = 0; i < kMaxDecodeDepth + 1; ++i) v = DocValue::Array({v});
  std::string buf;
  Status st = EncodeDocValue(v, &buf);
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
}

TEST(CodecTest, DecodeAtDepthLimitStillWorks) {
  DocValue v = DocValue::Null();
  for (int i = 0; i < kMaxDecodeDepth; ++i) v = DocValue::Array({v});
  std::string buf = Encode(v);
  DocValue back;
  EXPECT_TRUE(DecodeDocValue(buf, &back).ok());
  EXPECT_TRUE(v.Equals(back));
}

TEST(CodecTest, ReaderPrimitivesAreBoundsChecked) {
  std::string buf = "ab";
  BinaryReader r(buf);
  uint32_t v32 = 0;
  EXPECT_TRUE(r.ReadU32(&v32).IsCorruption());
  EXPECT_EQ(r.offset(), 0u);  // failed reads do not advance
  uint8_t v8 = 0;
  EXPECT_TRUE(r.ReadU8(&v8).ok());
  EXPECT_TRUE(r.ReadU8(&v8).ok());
  EXPECT_TRUE(r.ReadU8(&v8).IsCorruption());
}

}  // namespace
}  // namespace dt::storage
