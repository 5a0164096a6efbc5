/// The statistics subsystem: KMV distinct sketches (exact below k,
/// multiplicity-aware removal, merge, bounded estimator error when
/// saturated), equi-depth key histograms (heavy-hitter singleton
/// buckets, numeric range interpolation), the per-index IndexStats
/// bundle (incremental vs rebuild determinism, codec round trips,
/// scan estimation), SecondaryIndex::EstimateScan's bounded walk, and
/// snapshot persistence of stats.

#include "storage/stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/codec.h"
#include "storage/collection.h"
#include "storage/index.h"
#include "storage/snapshot.h"
#include "test_files.h"

namespace dt::storage {
namespace {

/// Deterministic well-mixed 64-bit stream (splitmix64) standing in for
/// the key-hash domain in sketch tests.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

IndexKey IntKey(int64_t v) { return IndexKey::FromValue(DocValue::Int(v)); }
IndexKey StrKey(const std::string& s) {
  return IndexKey::FromValue(DocValue::Str(s));
}

CompositeKey Key1(const IndexKey& a) {
  return CompositeKey(std::vector<IndexKey>{a});
}
CompositeKey Key2(const IndexKey& a, const IndexKey& b) {
  return CompositeKey(std::vector<IndexKey>{a, b});
}

// ---------------------------------------------------------------------------
// DistinctSketch

TEST(DistinctSketchTest, ExactBelowK) {
  DistinctSketch s(8);
  for (uint64_t i = 0; i < 5; ++i) s.Add(Mix64(i));
  EXPECT_FALSE(s.saturated());
  EXPECT_DOUBLE_EQ(s.Estimate(), 5.0);
  // Re-adding an existing hash raises multiplicity, not cardinality.
  s.Add(Mix64(3));
  EXPECT_DOUBLE_EQ(s.Estimate(), 5.0);
}

TEST(DistinctSketchTest, RemoveTracksMultiplicity) {
  DistinctSketch s(8);
  const uint64_t h = Mix64(1);
  s.Add(h);
  s.Add(h);
  s.Remove(h);
  EXPECT_DOUBLE_EQ(s.Estimate(), 1.0) << "one instance still present";
  s.Remove(h);
  EXPECT_DOUBLE_EQ(s.Estimate(), 0.0);
  // Removing a hash the sketch never saw is a no-op.
  s.Remove(Mix64(2));
  EXPECT_DOUBLE_EQ(s.Estimate(), 0.0);
}

TEST(DistinctSketchTest, MergeDisjointBelowK) {
  DistinctSketch a(16), b(16);
  for (uint64_t i = 0; i < 5; ++i) a.Add(Mix64(i));
  for (uint64_t i = 100; i < 108; ++i) b.Add(Mix64(i));
  a.Merge(b);
  EXPECT_FALSE(a.saturated());
  EXPECT_DOUBLE_EQ(a.Estimate(), 13.0);
}

TEST(DistinctSketchTest, SaturatedEstimateWithinTolerance) {
  DistinctSketch s;  // default k
  const double n = 10000;
  for (uint64_t i = 0; i < static_cast<uint64_t>(n); ++i) s.Add(Mix64(i));
  EXPECT_TRUE(s.saturated());
  // KMV standard error is ~1/sqrt(k-2) (~7% at the default k); 25%
  // gives the deterministic stream a wide margin.
  EXPECT_NEAR(s.Estimate(), n, 0.25 * n);
}

TEST(DistinctSketchTest, EncodeDecodeRoundTrip) {
  DistinctSketch s(32);
  for (uint64_t i = 0; i < 200; ++i) s.Add(Mix64(i));
  ASSERT_TRUE(s.saturated());
  std::string bytes;
  s.EncodeTo(&bytes);
  BinaryReader r(bytes);
  DistinctSketch decoded;
  ASSERT_TRUE(DistinctSketch::DecodeFrom(&r, &decoded).ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(s == decoded);
  std::string again;
  decoded.EncodeTo(&again);
  EXPECT_EQ(bytes, again);
}

// ---------------------------------------------------------------------------
// KeyHistogram

TEST(KeyHistogramTest, EquiDepthOverUniformKeys) {
  KeyHistogram::Builder b(100, 10);
  for (int64_t i = 0; i < 100; ++i) b.Add(IntKey(i), 1);
  KeyHistogram h = b.Finish();
  EXPECT_EQ(h.total_rows(), 100);
  EXPECT_EQ(h.total_distinct(), 100);
  ASSERT_EQ(h.buckets().size(), 10u);
  for (const HistogramBucket& bucket : h.buckets()) {
    EXPECT_EQ(bucket.rows, 10);
    EXPECT_EQ(bucket.distinct, 10);
  }
  // Uniform keys: per-key depth is bucket rows / distinct = 1 exactly.
  EXPECT_DOUBLE_EQ(h.EstimateEq(IntKey(42)), 1.0);
}

TEST(KeyHistogramTest, HeavyHitterGetsSingletonBucket) {
  // 70 rows, depth ceil(70/8) = 9; the 50-row run dwarfs it.
  KeyHistogram::Builder b(70, 8);
  for (int64_t i = 0; i < 10; ++i) b.Add(IntKey(i), 1);
  b.Add(IntKey(10), 50);
  for (int64_t i = 11; i <= 20; ++i) b.Add(IntKey(i), 1);
  KeyHistogram h = b.Finish();
  // The heavy key sits alone in its bucket, so its estimate is exact
  // at build time; light neighbours keep the per-key average.
  EXPECT_DOUBLE_EQ(h.EstimateEq(IntKey(10)), 50.0);
  EXPECT_DOUBLE_EQ(h.EstimateEq(IntKey(5)), 1.0);
}

TEST(KeyHistogramTest, RangeInterpolatesNumericBounds) {
  KeyHistogram::Builder b(100, 10);
  for (int64_t i = 0; i < 100; ++i) b.Add(IntKey(i), 1);
  KeyHistogram h = b.Finish();
  const IndexKey lo = IntKey(25), hi = IntKey(74);
  EXPECT_NEAR(h.EstimateRange(&lo, &hi), 50.0, 10.0);
  const IndexKey hi_only = IntKey(49);
  EXPECT_NEAR(h.EstimateRange(nullptr, &hi_only), 50.0, 10.0);
  // Unbounded on both sides covers everything, clamped to total rows.
  EXPECT_DOUBLE_EQ(h.EstimateRange(nullptr, nullptr), 100.0);
}

TEST(KeyHistogramTest, EncodeDecodeRoundTrip) {
  KeyHistogram::Builder b(300, 16);
  for (int64_t i = 0; i < 50; ++i) b.Add(IntKey(i), 1 + (i % 3));
  b.Add(StrKey("zzz"), 200);
  KeyHistogram h = b.Finish();
  std::string bytes;
  h.EncodeTo(&bytes);
  BinaryReader r(bytes);
  KeyHistogram decoded;
  ASSERT_TRUE(KeyHistogram::DecodeFrom(&r, &decoded).ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(h == decoded);
  std::string again;
  decoded.EncodeTo(&again);
  EXPECT_EQ(bytes, again);
}

// ---------------------------------------------------------------------------
// IndexStats

TEST(IndexStatsTest, NeedsRebuildThreshold) {
  IndexStats s(1);
  for (int64_t i = 0; i < 31; ++i) s.OnInsert(Key1(IntKey(i)));
  EXPECT_FALSE(s.NeedsRebuild()) << "2*31 < 0 + 64";
  s.OnInsert(Key1(IntKey(31)));
  EXPECT_TRUE(s.NeedsRebuild()) << "2*32 >= 0 + 64";

  IndexStats::Rebuilder rb(&s, 32);
  for (int64_t i = 0; i < 32; ++i) rb.Add(Key1(IntKey(i)));
  rb.Finish();
  EXPECT_FALSE(s.NeedsRebuild());
  EXPECT_EQ(s.mutations_since_build(), 0);
  EXPECT_EQ(s.rows_at_build(), 32);
  EXPECT_EQ(s.total_rows(), 32);
}

TEST(IndexStatsTest, RebuildIsDeterministic) {
  IndexStats a(2), b(2);
  for (IndexStats* s : {&a, &b}) {
    IndexStats::Rebuilder rb(s, 400);
    for (int64_t i = 0; i < 400; ++i) {
      rb.Add(Key2(IntKey(i / 40), IntKey(i % 40)));
    }
    rb.Finish();
  }
  EXPECT_TRUE(a == b);
  std::string ba, bb;
  a.EncodeTo(&ba);
  b.EncodeTo(&bb);
  EXPECT_EQ(ba, bb);
}

TEST(IndexStatsTest, EncodeDecodeRoundTrip) {
  IndexStats s(2);
  IndexStats::Rebuilder rb(&s, 500);
  for (int64_t i = 0; i < 500; ++i) {
    rb.Add(Key2(StrKey("g" + std::to_string(i / 25)), IntKey(i)));
  }
  rb.Finish();
  // Post-build drift must round-trip too.
  s.OnInsert(Key2(StrKey("g99"), IntKey(999)));
  s.OnRemove(Key2(StrKey("g0"), IntKey(0)));

  std::string bytes;
  s.EncodeTo(&bytes);
  BinaryReader r(bytes);
  IndexStats decoded;
  ASSERT_TRUE(IndexStats::DecodeFrom(&r, &decoded).ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(s == decoded);
  std::string again;
  decoded.EncodeTo(&again);
  EXPECT_EQ(bytes, again);
}

TEST(IndexStatsTest, EstimateScanTracksSkewAndDepth) {
  // Width 1: a heavy run and a light run, streamed in key order.
  IndexStats s(1);
  IndexStats::Rebuilder rb(&s, 9050);
  for (int64_t i = 0; i < 9000; ++i) rb.Add(Key1(StrKey("big")));
  for (int64_t i = 0; i < 50; ++i) rb.Add(Key1(StrKey("small")));
  rb.Finish();
  // Both runs land in singleton buckets, so their estimates are exact.
  EXPECT_NEAR(s.EstimateScan(1, StrKey("big"), nullptr, nullptr), 9000, 1);
  EXPECT_NEAR(s.EstimateScan(1, StrKey("small"), nullptr, nullptr), 50, 1);

  // Width 2: a second equality component divides by its distinct count.
  IndexStats s2(2);
  IndexStats::Rebuilder rb2(&s2, 1000);
  for (int64_t i = 0; i < 1000; ++i) {
    rb2.Add(Key2(StrKey("a"), IntKey(i / 100)));
  }
  rb2.Finish();
  const double deep = s2.EstimateScan(2, StrKey("a"), nullptr, nullptr);
  EXPECT_NEAR(deep, 100, 15) << "1000 rows / 10 distinct second components";
}

// ---------------------------------------------------------------------------
// SecondaryIndex::EstimateScan

TEST(SecondaryIndexEstimateTest, BoundedWalkExactSmallEstimatedLarge) {
  Collection coll("dt.est");
  ASSERT_TRUE(coll.CreateIndex("bucket").ok());
  for (int64_t i = 0; i < 40; ++i) {
    coll.Insert(DocBuilder().Set("bucket", "small").Set("seq", i).Build());
  }
  for (int64_t i = 0; i < 5000; ++i) {
    coll.Insert(DocBuilder().Set("bucket", "big").Set("seq", i).Build());
  }
  CollectionView view = coll.GetView();
  const SecondaryIndex* idx = view.IndexOn("bucket");
  ASSERT_NE(idx, nullptr);

  const DocValue small = DocValue::Str("small"), big = DocValue::Str("big");
  SecondaryIndex::ScanEstimate se =
      idx->EstimateScan({small}, nullptr, nullptr);
  EXPECT_TRUE(se.exact);
  EXPECT_DOUBLE_EQ(se.rows, 40.0);
  EXPECT_LE(se.entries_counted, SecondaryIndex::kExactCountThreshold + 1);

  se = idx->EstimateScan({big}, nullptr, nullptr);
  EXPECT_FALSE(se.exact) << "5000 hits exceed the bounded walk";
  EXPECT_EQ(se.entries_counted, SecondaryIndex::kExactCountThreshold + 1);
  EXPECT_GE(se.rows, static_cast<double>(se.entries_counted));
  EXPECT_LE(se.rows, static_cast<double>(idx->entry_count()));
  // The 5000-row run is a histogram heavy hitter; drift scaling keeps
  // the estimate near truth even mid-rebuild-cycle.
  EXPECT_NEAR(se.rows, 5000, 1000);

  se = idx->EstimateScan({big}, nullptr, nullptr, /*force_exact=*/true);
  EXPECT_TRUE(se.exact);
  EXPECT_DOUBLE_EQ(se.rows, 5000.0);
  EXPECT_EQ(se.entries_counted, 5000);
}

// ---------------------------------------------------------------------------
// Snapshot persistence

TEST(StatsSnapshotTest, StatsSurviveRoundTripByteIdentically) {
  Collection coll("dt.stats");
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());
  for (int64_t i = 0; i < 2000; ++i) {
    coll.Insert(DocBuilder()
                    .Set("type", i % 2 == 0 ? "Movie" : "Person")
                    .Set("name", "n" + std::to_string(i % 500))
                    .Build());
  }
  // Leave some incremental drift on top of the last rebuild so the
  // snapshot carries a mid-cycle state, not a freshly built one.
  for (DocId id = 1; id <= 10; ++id) ASSERT_TRUE(coll.Remove(id).ok());

  TempPath f1("rt1"), f2("rt2");
  ASSERT_TRUE(SaveSnapshot(coll, f1.path()).ok());
  auto loaded = LoadCollectionSnapshot(f1.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The loaded indexes carry the writer's stats verbatim — not the
  // stats an id-order reinsertion would have built.
  const CollectionView orig_view = coll.GetView();
  const CollectionView got_view = (*loaded)->GetView();
  std::vector<const SecondaryIndex*> orig = orig_view.Indexes();
  std::vector<const SecondaryIndex*> got = got_view.Indexes();
  ASSERT_EQ(orig.size(), got.size());
  for (size_t i = 0; i < orig.size(); ++i) {
    EXPECT_TRUE(orig[i]->stats() == got[i]->stats())
        << "stats mismatch on index " << orig[i]->field_path();
  }

  ASSERT_TRUE(SaveSnapshot(**loaded, f2.path()).ok());
  EXPECT_EQ(Slurp(f1.path()), Slurp(f2.path()));
}

}  // namespace
}  // namespace dt::storage
