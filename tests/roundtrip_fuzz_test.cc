/// Seeded randomized roundtrip properties: arbitrary document trees
/// survive JSON serialization, arbitrary tables survive CSV
/// serialization, and the similarity/blocking layers behave sanely on
/// random byte strings. Deterministic "fuzzing" — every failure is
/// reproducible from the seed.

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "dedup/blocking.h"
#include "ingest/csv.h"
#include "ingest/json.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "server/frame.h"
#include "storage/codec.h"
#include "storage/collection.h"
#include "storage/docvalue.h"
#include "storage/wal.h"

namespace dt {
namespace {

using storage::DocValue;

// Random printable-ish string including JSON/CSV-hostile characters.
std::string RandomString(Rng* rng, int max_len) {
  static const char* kAlphabet =
      "abcXYZ 019_,;|\"'\\/{}[]\n\t\r:%$\xe2\x82\xac";
  const size_t n = std::strlen(kAlphabet);
  std::string out;
  int len = static_cast<int>(rng->Uniform(static_cast<uint64_t>(max_len + 1)));
  for (int i = 0; i < len; ++i) {
    // Keep multi-byte € intact: only sample its lead byte when the
    // remaining two bytes follow.
    size_t pick = rng->Uniform(n - 2);
    out.push_back(kAlphabet[pick]);
  }
  return out;
}

DocValue RandomValue(Rng* rng, int depth) {
  double r = rng->NextDouble();
  if (depth <= 0 || r < 0.45) {
    switch (rng->Uniform(5)) {
      case 0:
        return DocValue::Null();
      case 1:
        return DocValue::Bool(rng->Bernoulli(0.5));
      case 2:
        return DocValue::Int(rng->UniformInt(-1000000, 1000000));
      case 3:
        // Doubles chosen to be exactly representable through the
        // 10-digit printer AND never integral: an integral double
        // prints without a fraction and legitimately reparses as Int
        // (odd/8 is always fractional).
        return DocValue::Double(
            (2 * rng->UniformInt(-5000, 5000) + 1) / 8.0);
      default:
        return DocValue::Str(RandomString(rng, 24));
    }
  }
  if (r < 0.7) {
    DocValue arr = DocValue::Array();
    int n = static_cast<int>(rng->Uniform(4));
    for (int i = 0; i < n; ++i) arr.Push(RandomValue(rng, depth - 1));
    return arr;
  }
  DocValue obj = DocValue::Object();
  int n = static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < n; ++i) {
    obj.Add("k" + std::to_string(i) + RandomString(rng, 4),
            RandomValue(rng, depth - 1));
  }
  return obj;
}

class JsonRoundtripFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundtripFuzz, ParseOfToJsonIsIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    DocValue original = RandomValue(&rng, 4);
    std::string json = original.ToJson();
    auto reparsed = ingest::ParseJson(json);
    ASSERT_TRUE(reparsed.ok())
        << "seed=" << GetParam() << " trial=" << trial << "\n"
        << json << "\n"
        << reparsed.status().ToString();
    EXPECT_TRUE(original.Equals(*reparsed))
        << "seed=" << GetParam() << " trial=" << trial << "\n"
        << json << "\nvs\n"
        << reparsed->ToJson();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundtripFuzz,
                         ::testing::Values(101, 202, 303, 404));

class BinaryCodecFuzz : public ::testing::TestWithParam<uint64_t> {};

// encode -> decode -> encode is byte-identical for arbitrary trees (a
// strictly stronger property than Equals: the format has exactly one
// representation per value, which the snapshot byte-identity guarantee
// builds on).
TEST_P(BinaryCodecFuzz, EncodeDecodeEncodeIsByteIdentical) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    DocValue original = RandomValue(&rng, 4);
    std::string bytes;
    ASSERT_TRUE(storage::EncodeDocValue(original, &bytes).ok());
    DocValue decoded;
    Status st = storage::DecodeDocValue(bytes, &decoded);
    ASSERT_TRUE(st.ok()) << "seed=" << GetParam() << " trial=" << trial
                         << "\n" << original.ToJson() << "\n" << st.ToString();
    ASSERT_TRUE(original.Equals(decoded))
        << "seed=" << GetParam() << " trial=" << trial;
    std::string reencoded;
    ASSERT_TRUE(storage::EncodeDocValue(decoded, &reencoded).ok());
    ASSERT_EQ(bytes, reencoded)
        << "seed=" << GetParam() << " trial=" << trial;
  }
}

// Every strict prefix of a valid encoding decodes to a clean
// kCorruption status — never a crash, never a bogus success.
TEST_P(BinaryCodecFuzz, TruncationsFailWithCorruption) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 30; ++trial) {
    std::string bytes;
    ASSERT_TRUE(storage::EncodeDocValue(RandomValue(&rng, 3), &bytes).ok());
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      DocValue out;
      Status st =
          storage::DecodeDocValue(std::string_view(bytes.data(), cut), &out);
      ASSERT_TRUE(st.IsCorruption())
          << "seed=" << GetParam() << " trial=" << trial << " cut=" << cut
          << " -> " << st.ToString();
    }
  }
}

// Random byte flips either decode to some value or fail with a Status;
// under the CI sanitizer job this doubles as a memory-safety proof.
TEST_P(BinaryCodecFuzz, RandomMutationsNeverCrash) {
  Rng rng(GetParam() + 17);
  for (int trial = 0; trial < 150; ++trial) {
    std::string bytes;
    ASSERT_TRUE(storage::EncodeDocValue(RandomValue(&rng, 4), &bytes).ok());
    if (bytes.empty()) continue;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Uniform(bytes.size())] = static_cast<char>(rng.Uniform(256));
    }
    DocValue out;
    Status st = storage::DecodeDocValue(bytes, &out);
    if (!st.ok()) {
      ASSERT_TRUE(st.IsCorruption()) << st.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryCodecFuzz,
                         ::testing::Values(1001, 2002, 3003));

// ---------------------------------------------------------------------
// Planner vs full-scan oracle over randomized collections: hostile
// documents (nested trees, arrays/objects under indexed paths, absent
// fields) and random Eq/Range/And/Or/TextContains trees. The planner's
// id set must be identical to evaluating the predicate on every
// document, whatever mix of secondary/text indexes exists and however
// many threads the fallback scan uses.
// ---------------------------------------------------------------------

class PlannerOracleFuzz : public ::testing::TestWithParam<uint64_t> {};

namespace planner_fuzz {

constexpr const char* kWords[] = {"alpha", "beta",  "gamma",
                                  "delta", "omega", "zeta"};

query::PredicatePtr RandomPredicate(Rng* rng, int depth) {
  static const char* kPaths[] = {"a", "b", "c", "missing"};
  if (depth <= 0 || rng->Bernoulli(0.5)) {
    switch (rng->Uniform(4)) {
      case 0: {
        std::string keywords;
        int n = static_cast<int>(rng->Uniform(3));  // 0 tokens happens
        for (int i = 0; i < n; ++i) {
          keywords += std::string(kWords[rng->Uniform(6)]) + " ";
        }
        return query::Predicate::TextContains("text", keywords);
      }
      case 1:
        return query::Predicate::Range(kPaths[rng->Uniform(4)],
                                       RandomValue(rng, 0),
                                       RandomValue(rng, 0));
      default:
        return query::Predicate::Eq(kPaths[rng->Uniform(4)],
                                    RandomValue(rng, 0));
    }
  }
  int n = 2 + static_cast<int>(rng->Uniform(2));
  std::vector<query::PredicatePtr> children;
  for (int i = 0; i < n; ++i) {
    children.push_back(RandomPredicate(rng, depth - 1));
  }
  return rng->Bernoulli(0.5) ? query::Predicate::And(std::move(children))
                             : query::Predicate::Or(std::move(children));
}

}  // namespace planner_fuzz

TEST_P(PlannerOracleFuzz, IndexedExecutionMatchesScanOracle) {
  using planner_fuzz::kWords;
  Rng rng(GetParam());
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    storage::Collection coll("dt.fuzz");
    for (int i = 0; i < 120; ++i) {
      DocValue doc = DocValue::Object();
      if (rng.Bernoulli(0.9)) doc.Add("a", RandomValue(&rng, 1));
      if (rng.Bernoulli(0.9)) doc.Add("b", RandomValue(&rng, 2));
      if (rng.Bernoulli(0.5)) {
        doc.Add("c", DocValue::Int(rng.UniformInt(0, 20)));
      }
      if (rng.Bernoulli(0.8)) {
        std::string text;
        int n = 1 + static_cast<int>(rng.Uniform(6));
        for (int w = 0; w < n; ++w) {
          text += std::string(kWords[rng.Uniform(6)]) + " ";
        }
        doc.Add("text", DocValue::Str(text));
      }
      coll.Insert(std::move(doc));
    }
    if (rng.Bernoulli(0.7)) ASSERT_TRUE(coll.CreateIndex("a").ok());
    if (rng.Bernoulli(0.5)) ASSERT_TRUE(coll.CreateIndex("c").ok());
    // Compound configurations exercise the And matcher and
    // order-covering prefixes against the same oracle.
    if (rng.Bernoulli(0.4)) ASSERT_TRUE(coll.CreateIndex({"a", "b"}).ok());
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(coll.CreateIndex({"c", "a", "b"}).ok());
    }
    // Views taken from here on carry the text index (or not).
    const bool with_text = rng.Bernoulli(0.7);
    if (with_text) (void)coll.GetViewWithTextIndex("text");

    for (int trial = 0; trial < 25; ++trial) {
      query::PredicatePtr pred = planner_fuzz::RandomPredicate(&rng, 3);
      std::string order_by;
      bool desc = false;
      if (rng.Bernoulli(0.5)) {
        static const char* kOrderPaths[] = {"a", "b", "c", "missing"};
        order_by = kOrderPaths[rng.Uniform(4)];
        desc = rng.Bernoulli(0.5);
      }
      const int64_t limit =
          rng.Bernoulli(0.5) ? -1 : static_cast<int64_t>(rng.Uniform(30));
      const storage::CollectionView view = coll.GetView();
      std::vector<storage::DocId> expected;
      view.ForEach([&](storage::DocId id, const DocValue& doc) {
        if (pred->Matches(doc)) expected.push_back(id);
      });
      if (!order_by.empty()) {
        auto key_of = [&](storage::DocId id) {
          const DocValue* v = view.Get(id)->FindPath(order_by);
          return v == nullptr ? storage::IndexKey()
                              : storage::IndexKey::FromValue(*v);
        };
        std::sort(expected.begin(), expected.end(),
                  [&](storage::DocId x, storage::DocId y) {
                    storage::IndexKey kx = key_of(x), ky = key_of(y);
                    if (kx < ky) return !desc;
                    if (ky < kx) return desc;
                    return x < y;
                  });
      }
      if (limit >= 0 && static_cast<int64_t>(expected.size()) > limit) {
        expected.resize(static_cast<size_t>(limit));
      }
      for (int threads : {1, 4}) {
        query::FindOptions opts;
        opts.pool = threads > 1 ? &pool : nullptr;
        opts.order_by = order_by;
        opts.order_desc = desc;
        opts.limit = limit;
        auto got = query::Find(view, pred, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(*got, expected)
            << "seed=" << GetParam() << " round=" << round
            << " trial=" << trial << " threads=" << threads
            << " order_by=" << order_by << " desc=" << desc
            << " limit=" << limit << "\npred: " << pred->ToString()
            << "\nplan: " << query::ExplainFind(view, pred, opts);

        // Resume fuzzing: stitch the same query through pages at a
        // random size, chaining continuation tokens across every
        // access path the trees hit (IXSCAN runs, collscans, text,
        // unions ordered and not) — the stitched stream must be
        // byte-identical to the one-shot result.
        query::FindOptions paged = opts;
        paged.page_size = 1 + static_cast<int64_t>(rng.Uniform(9));
        std::vector<storage::DocId> stitched;
        for (int pages = 0;; ++pages) {
          ASSERT_LT(pages, 400) << "pagination failed to terminate";
          auto page = query::FindPage(view, pred, paged);
          ASSERT_TRUE(page.ok()) << page.status().ToString();
          stitched.insert(stitched.end(), page->ids.begin(),
                          page->ids.end());
          if (page->next_token.empty()) break;
          paged.resume_token = page->next_token;
        }
        ASSERT_EQ(stitched, expected)
            << "seed=" << GetParam() << " round=" << round
            << " trial=" << trial << " threads=" << threads
            << " page_size=" << paged.page_size
            << " order_by=" << order_by << " desc=" << desc
            << " limit=" << limit << "\npred: " << pred->ToString()
            << "\nplan: " << query::ExplainFind(view, pred, opts);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerOracleFuzz,
                         ::testing::Values(501, 502, 503, 504));

class CsvRoundtripFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundtripFuzz, ParseOfRenderIsIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    int ncols = 1 + static_cast<int>(rng.Uniform(5));
    relational::Schema schema;
    for (int c = 0; c < ncols; ++c) {
      ASSERT_TRUE(schema
                      .AddAttribute({"c" + std::to_string(c),
                                     relational::ValueType::kString})
                      .ok());
    }
    relational::Table table("fuzz", schema);
    int nrows = 1 + static_cast<int>(rng.Uniform(8));
    for (int r = 0; r < nrows; ++r) {
      relational::Row row;
      for (int c = 0; c < ncols; ++c) {
        // Cells must survive the null convention: empty strings render
        // as empty cells which reparse as Null, so avoid them here
        // (covered by dedicated tests).
        std::string cell;
        do {
          cell = RandomString(&rng, 16);
        } while (Trim(cell).empty());
        // CSV does not preserve bare \r; normalize it away.
        for (auto& ch : cell) {
          if (ch == '\r') ch = '.';
        }
        row.push_back(relational::Value::Str(cell));
      }
      ASSERT_TRUE(table.Append(std::move(row)).ok());
    }
    std::string csv = ingest::TableToCsv(table);
    ingest::CsvOptions opts;
    opts.infer_types = false;
    auto reparsed = ingest::CsvToTable("fuzz2", csv, opts);
    ASSERT_TRUE(reparsed.ok())
        << "seed=" << GetParam() << " trial=" << trial << "\n"
        << csv << "\n"
        << reparsed.status().ToString();
    ASSERT_EQ(reparsed->num_rows(), table.num_rows());
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      for (int c = 0; c < ncols; ++c) {
        // Leading/trailing whitespace is trimmed by the typed parser;
        // compare trimmed.
        EXPECT_EQ(Trim(reparsed->row(r)[c].ToString()),
                  Trim(table.row(r)[c].ToString()))
            << "seed=" << GetParam() << " trial=" << trial << " r=" << r
            << " c=" << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundtripFuzz,
                         ::testing::Values(11, 22, 33));

class SimilarityFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityFuzz, MetricsTotalOnRandomBytes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = RandomString(&rng, 30);
    std::string b = RandomString(&rng, 30);
    for (double s :
         {LevenshteinSimilarity(a, b), JaroWinklerSimilarity(a, b),
          QGramJaccard(a, b, 2), TokenCosine(WordTokens(a), WordTokens(b))}) {
      ASSERT_GE(s, 0.0) << a << " / " << b;
      ASSERT_LE(s, 1.0) << a << " / " << b;
    }
    ASSERT_DOUBLE_EQ(LevenshteinSimilarity(a, a), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityFuzz, ::testing::Values(7, 77));

TEST(BlockingFuzz, RandomRecordsNeverCrashAndPairsAreOrdered) {
  Rng rng(13);
  std::vector<dedup::DedupRecord> records;
  for (int i = 0; i < 300; ++i) {
    dedup::DedupRecord r;
    r.id = i;
    r.entity_type = rng.Bernoulli(0.5) ? "A" : "B";
    r.fields["name"] = RandomString(&rng, 20);
    records.push_back(r);
  }
  dedup::BlockingOptions opts;
  opts.qgram_size = 3;
  opts.prefix_len = 2;
  dedup::BlockingStats stats;
  auto pairs = dedup::GenerateCandidatePairs(records, opts, &stats);
  for (const auto& [i, j] : pairs) {
    ASSERT_LT(i, j);
    ASSERT_LT(j, records.size());
    // Blocking keys are type-scoped.
    ASSERT_EQ(records[i].entity_type, records[j].entity_type);
  }
  ASSERT_EQ(stats.num_records, 300);
}

// ---------------------------------------------------------------------
// DTW1 wire frames: the server's framing must uphold the same
// discipline as the storage codec — one representation per payload,
// incremental "need more" on any honest prefix, and kCorruption (never
// a crash, never a bogus frame) on anything else.
// ---------------------------------------------------------------------

std::string EncodeOneFrame(const DocValue& payload) {
  std::string frame;
  Status st = server::EncodeFrame(payload, server::kDefaultMaxFrameSize,
                                  &frame);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return frame;
}

class WireFrameFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFrameFuzz, EncodeDecodeEncodeIsByteIdentical) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    DocValue payload = RandomValue(&rng, 4);
    std::string frame = EncodeOneFrame(payload);
    // Trailing garbage must not disturb the frame at the front.
    std::string buf = frame + RandomString(&rng, 8);
    DocValue decoded;
    size_t consumed = 0;
    Status st = server::TryDecodeFrame(buf, server::kDefaultMaxFrameSize,
                                       &decoded, &consumed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(consumed, frame.size());
    ASSERT_TRUE(decoded.Equals(payload));
    ASSERT_EQ(EncodeOneFrame(decoded), frame)
        << "seed=" << GetParam() << " trial=" << trial;
  }
}

TEST_P(WireFrameFuzz, EveryTruncationReportsNeedMoreBytes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    std::string frame = EncodeOneFrame(RandomValue(&rng, 3));
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      DocValue decoded;
      size_t consumed = 0;
      Status st =
          server::TryDecodeFrame(std::string_view(frame.data(), cut),
                                 server::kDefaultMaxFrameSize, &decoded,
                                 &consumed);
      // An honest prefix is never corruption and never a bogus
      // complete frame — always "need more".
      ASSERT_TRUE(st.ok()) << "cut=" << cut << ": " << st.ToString();
      ASSERT_EQ(consumed, 0u) << "cut=" << cut;
    }
  }
}

TEST_P(WireFrameFuzz, RandomMutationsNeverCrashAndNeverOverrun) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    std::string frame = EncodeOneFrame(RandomValue(&rng, 3));
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(frame.size());
      frame[pos] = static_cast<char>(frame[pos] ^
                                     (1u << rng.Uniform(8)));
    }
    DocValue decoded;
    size_t consumed = 0;
    Status st = server::TryDecodeFrame(frame, server::kDefaultMaxFrameSize,
                                       &decoded, &consumed);
    // Any outcome is allowed except a lie: completion may not consume
    // more bytes than exist, and errors must be kCorruption.
    if (st.ok()) {
      ASSERT_LE(consumed, frame.size());
    } else {
      ASSERT_TRUE(st.IsCorruption()) << st.ToString();
    }
  }
}

TEST(WireFrameTest, OversizedLengthRejectedFromHeaderAlone) {
  std::string frame = EncodeOneFrame(DocValue::Str("payload"));
  // Declare a payload far past the cap; hand the decoder only the
  // header. It must refuse immediately instead of waiting for bytes
  // that could never redeem the frame.
  for (int i = 0; i < 4; ++i) frame[8 + i] = static_cast<char>(0xFF);
  DocValue decoded;
  size_t consumed = 0;
  Status st =
      server::TryDecodeFrame(std::string_view(frame.data(), 12),
                             server::kDefaultMaxFrameSize, &decoded, &consumed);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // A small cap rejects honest frames over it the same way.
  std::string big = EncodeOneFrame(DocValue::Str(std::string(256, 'x')));
  st = server::TryDecodeFrame(big, /*max_frame_size=*/64, &decoded, &consumed);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(WireFrameTest, BadChecksumMagicVersionFlagsRejected) {
  const std::string frame = EncodeOneFrame(DocValue::Str("hello"));
  DocValue decoded;
  size_t consumed = 0;
  auto expect_corrupt = [&](std::string buf) {
    Status st = server::TryDecodeFrame(buf, server::kDefaultMaxFrameSize,
                                       &decoded, &consumed);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  };
  std::string bad = frame;
  bad[12] ^= 0x01;  // checksum
  expect_corrupt(bad);
  bad = frame;
  bad[0] ^= 0x01;  // magic — rejected from the first 4 bytes alone
  expect_corrupt(bad.substr(0, 4));
  bad = frame;
  bad[4] ^= 0x01;  // version
  expect_corrupt(bad);
  bad = frame;
  bad[6] ^= 0x01;  // reserved flags must be zero
  expect_corrupt(bad);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFrameFuzz, ::testing::Values(5, 55, 555));

// ---------------------------------------------------------------------
// DTL1 WAL segments: the same discipline applied to the durability
// log — truncation at any byte yields a clean record prefix (that is
// what crash recovery replays), and arbitrary corruption never
// crashes, never overruns, and never invents a record that was not
// written.
// ---------------------------------------------------------------------

storage::WalRecord RandomWalRecord(Rng* rng, int i) {
  using Op = storage::WalRecord::Op;
  storage::WalRecord rec;
  rec.op = static_cast<Op>(1 + rng->Uniform(6));
  rec.collection = rng->Bernoulli(0.5) ? "instance" : "entity";
  rec.incarnation = rng->Uniform(1u << 20);
  rec.epoch = static_cast<uint64_t>(i) + 1;
  switch (rec.op) {
    case Op::kInsert:
    case Op::kUpdate:
      rec.id = 1 + rng->Uniform(1000);
      rec.doc = RandomValue(rng, 3);
      break;
    case Op::kRemove:
      rec.id = 1 + rng->Uniform(1000);
      break;
    case Op::kCreateIndex: {
      int n = 1 + static_cast<int>(rng->Uniform(3));
      for (int k = 0; k < n; ++k)
        rec.index_paths.push_back(RandomString(rng, 8));
      break;
    }
    case Op::kCreateCollection:
      rec.ns = RandomString(rng, 8);
      rec.num_shards = 1 + static_cast<uint32_t>(rng->Uniform(8));
      rec.initial_extent_size_bytes = rng->Uniform(1u << 16);
      rec.max_extent_size_bytes = rng->Uniform(1u << 20);
      rec.epoch = 0;
      break;
    case Op::kDropCollection:
      rec.epoch = 0;
      break;
  }
  return rec;
}

// One segment image plus the deterministic encodings of its records
// (encoding is canonical, so byte equality of re-encoded payloads is
// record equality).
std::string RandomWalSegment(Rng* rng, std::vector<std::string>* payloads) {
  std::string file;
  storage::AppendWalFileHeader(&file);
  int n = 2 + static_cast<int>(rng->Uniform(5));
  for (int i = 0; i < n; ++i) {
    std::string payload;
    Status st = storage::EncodeWalRecord(RandomWalRecord(rng, i), &payload);
    EXPECT_TRUE(st.ok()) << st.ToString();
    storage::AppendWalFrame(payload, &file);
    payloads->push_back(std::move(payload));
  }
  return file;
}

class WalSegmentFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalSegmentFuzz, EveryTruncationYieldsCleanRecordPrefix) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::string> payloads;
    const std::string file = RandomWalSegment(&rng, &payloads);
    for (size_t cut = 0; cut <= file.size(); ++cut) {
      std::vector<storage::WalRecord> recs;
      storage::WalReadStats stats;
      Status st = storage::ReadWalSegment(
          std::string_view(file.data(), cut), &recs, &stats);
      if (cut < storage::kWalFileHeaderSize) {
        // Not even a file header: the caller (recovery) decides what a
        // torn header means; the reader reports corruption.
        ASSERT_TRUE(st.IsCorruption()) << "cut=" << cut;
        continue;
      }
      ASSERT_TRUE(st.ok()) << "cut=" << cut << ": " << st.ToString();
      ASSERT_EQ(stats.valid_bytes + stats.torn_bytes, cut) << "cut=" << cut;
      ASSERT_LE(recs.size(), payloads.size());
      for (size_t k = 0; k < recs.size(); ++k) {
        std::string re;
        ASSERT_TRUE(storage::EncodeWalRecord(recs[k], &re).ok());
        ASSERT_EQ(re, payloads[k]) << "cut=" << cut << " record=" << k;
      }
      if (cut == file.size()) {
        ASSERT_EQ(recs.size(), payloads.size());
        ASSERT_EQ(stats.torn_bytes, 0u);
      }
    }
  }
}

TEST_P(WalSegmentFuzz, RandomMutationsNeverCrashAndNeverInventRecords) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 250; ++trial) {
    std::vector<std::string> payloads;
    std::string file = RandomWalSegment(&rng, &payloads);
    // Flip bits, and sometimes lop off a tail too, so flips land in a
    // torn file as often as a whole one.
    if (rng.Bernoulli(0.3)) {
      file.resize(storage::kWalFileHeaderSize +
                  rng.Uniform(file.size() - storage::kWalFileHeaderSize + 1));
    }
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(file.size());
      file[pos] = static_cast<char>(file[pos] ^ (1u << rng.Uniform(8)));
    }
    std::vector<storage::WalRecord> recs;
    storage::WalReadStats stats;
    Status st = storage::ReadWalSegment(file, &recs, &stats);
    if (!st.ok()) {
      // Only a mangled file header errors, and only as corruption.
      ASSERT_TRUE(st.IsCorruption()) << st.ToString();
      continue;
    }
    ASSERT_EQ(stats.valid_bytes + stats.torn_bytes, file.size());
    // A salted 64-bit checksum guards every frame: a handful of bit
    // flips cannot forge a record, so whatever survives is a clean
    // prefix of what was written.
    ASSERT_LE(recs.size(), payloads.size());
    for (size_t k = 0; k < recs.size(); ++k) {
      std::string re;
      ASSERT_TRUE(storage::EncodeWalRecord(recs[k], &re).ok());
      ASSERT_EQ(re, payloads[k]) << "record=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalSegmentFuzz, ::testing::Values(3, 33, 333));

}  // namespace
}  // namespace dt
