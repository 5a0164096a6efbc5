#include "storage/collection.h"

#include <gtest/gtest.h>

namespace dt::storage {
namespace {

CollectionOptions SmallExtents() {
  CollectionOptions opts;
  opts.num_shards = 4;
  opts.initial_extent_size_bytes = 256;
  opts.max_extent_size_bytes = 1024;
  return opts;
}

DocValue MakeDoc(int i) {
  return DocBuilder()
      .Set("name", "entity_" + std::to_string(i))
      .Set("type", i % 2 == 0 ? "Movie" : "Person")
      .Set("score", i * 1.5)
      .Build();
}

/// Ids whose `path` equals `value`, read off the index on `path` in
/// the currently published version.
std::vector<DocId> IndexLookup(const Collection& coll, const std::string& path,
                               const DocValue& value) {
  const CollectionView view = coll.GetView();
  const SecondaryIndex* idx = view.IndexOn(path);
  EXPECT_NE(idx, nullptr) << path;
  return idx == nullptr ? std::vector<DocId>{} : idx->Lookup(value);
}

TEST(CollectionTest, InsertAssignsIdsAndIdField) {
  Collection coll("dt.test");
  DocId a = coll.Insert(MakeDoc(1));
  DocId b = coll.Insert(MakeDoc(2));
  EXPECT_NE(a, b);
  const CollectionView view = coll.GetView();
  const DocValue* doc = view.Get(a);
  ASSERT_NE(doc, nullptr);
  ASSERT_NE(doc->Find("_id"), nullptr);
  EXPECT_EQ(doc->Find("_id")->int_value(), static_cast<int64_t>(a));
  EXPECT_EQ(coll.count(), 2);
}

TEST(CollectionTest, GetMissingReturnsNull) {
  Collection coll("dt.test");
  EXPECT_EQ(coll.GetView().Get(12345), nullptr);
}

TEST(CollectionTest, UpdateReplacesAndReindexes) {
  Collection coll("dt.test");
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  DocId id = coll.Insert(MakeDoc(2));  // type Movie
  ASSERT_EQ(IndexLookup(coll, "type", DocValue::Str("Movie")).size(), 1u);
  ASSERT_TRUE(coll.Update(id, MakeDoc(3)).ok());  // type Person
  EXPECT_TRUE(IndexLookup(coll, "type", DocValue::Str("Movie")).empty());
  ASSERT_EQ(IndexLookup(coll, "type", DocValue::Str("Person")).size(), 1u);
}

TEST(CollectionTest, UpdateMissingFails) {
  Collection coll("dt.test");
  EXPECT_TRUE(coll.Update(999, MakeDoc(1)).IsNotFound());
}

TEST(CollectionTest, RemoveDeletesAndUnindexes) {
  Collection coll("dt.test");
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  DocId id = coll.Insert(MakeDoc(2));
  ASSERT_TRUE(coll.Remove(id).ok());
  EXPECT_EQ(coll.GetView().Get(id), nullptr);
  EXPECT_EQ(coll.count(), 0);
  EXPECT_TRUE(IndexLookup(coll, "type", DocValue::Str("Movie")).empty());
  EXPECT_TRUE(coll.Remove(id).IsNotFound());
}

TEST(CollectionTest, ForEachVisitsInIdOrder) {
  Collection coll("dt.test");
  for (int i = 0; i < 10; ++i) coll.Insert(MakeDoc(i));
  DocId prev = 0;
  int visits = 0;
  coll.GetView().ForEach([&](DocId id, const DocValue&) {
    EXPECT_GT(id, prev);
    prev = id;
    ++visits;
  });
  EXPECT_EQ(visits, 10);
}

TEST(CollectionTest, DefaultIdIndexExists) {
  Collection coll("dt.test");
  EXPECT_TRUE(coll.GetView().HasIndex("_id"));
  EXPECT_EQ(coll.Stats().nindexes, 1);
}

TEST(CollectionTest, CreateIndexBackfillsExistingDocs) {
  Collection coll("dt.test");
  for (int i = 0; i < 20; ++i) coll.Insert(MakeDoc(i));
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  EXPECT_EQ(IndexLookup(coll, "type", DocValue::Str("Movie")).size(), 10u);
  EXPECT_EQ(IndexLookup(coll, "type", DocValue::Str("Person")).size(), 10u);
}

TEST(CollectionTest, DuplicateIndexRejected) {
  Collection coll("dt.test");
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  EXPECT_TRUE(coll.CreateIndex("type").IsAlreadyExists());
}

TEST(CollectionTest, CompoundIndexBasics) {
  Collection coll("dt.test");
  for (int i = 0; i < 10; ++i) coll.Insert(MakeDoc(i));
  ASSERT_TRUE(coll.CreateIndex({"type", "score"}).ok());
  const CollectionView view = coll.GetView();
  EXPECT_TRUE(view.HasIndex("type,score"));
  const SecondaryIndex* idx = view.IndexOn("type,score");
  ASSERT_NE(idx, nullptr);
  EXPECT_TRUE(idx->is_compound());
  EXPECT_EQ(idx->width(), 2);
  EXPECT_EQ(idx->entry_count(), 10);
  // Leading-component lookup: the 5 "Movie" docs.
  EXPECT_EQ(idx->Lookup(DocValue::Str("Movie")).size(), 5u);
  EXPECT_EQ(idx->CountEqual(DocValue::Str("Movie")), 5);
  // Prefix + range on the next component: Movie docs are even i with
  // score 0, 3, 6, 9, 12 -> [3, 9] holds three.
  const DocValue lo = DocValue::Double(3.0), hi = DocValue::Double(9.0);
  EXPECT_EQ(idx->CountScan({DocValue::Str("Movie")}, &lo, &hi), 3);
  // The scan streams in (type, score) order.
  auto scan = idx->ScanPrefix({DocValue::Str("Movie")}, nullptr, nullptr,
                              /*descending=*/false);
  const CompositeKey* key;
  DocId id;
  double prev = -1;
  int seen = 0;
  while (scan.Next(&key, &id)) {
    const DocValue* doc = view.Get(id);
    ASSERT_NE(doc, nullptr);
    double score = doc->FindPath("score")->double_value();
    EXPECT_GE(score, prev);
    prev = score;
    ++seen;
  }
  EXPECT_EQ(seen, 5);
  // A second index with the same components is a duplicate.
  EXPECT_TRUE(coll.CreateIndex({"type", "score"}).IsAlreadyExists());
  // The single-field index on "type" is a distinct index.
  EXPECT_TRUE(coll.CreateIndex("type").ok());
}

TEST(CollectionTest, CompoundIndexValidation) {
  Collection coll("dt.test");
  EXPECT_TRUE(coll.CreateIndex(std::vector<std::string>{})
                  .IsInvalidArgument());
  EXPECT_TRUE(coll.CreateIndex({"a", ""}).IsInvalidArgument());
  EXPECT_TRUE(coll.CreateIndex({"a", "b", "a"}).IsInvalidArgument());
  EXPECT_TRUE(coll.CreateIndex({"a", "b\x1f" "c"}).IsInvalidArgument());
  // ',' is the canonical-name separator: a path containing it could
  // collide with a compound index's canonical name.
  EXPECT_TRUE(coll.CreateIndex("a,b").IsInvalidArgument());
  EXPECT_TRUE(coll.CreateIndex({"a", "b"}).ok());
}

TEST(CollectionTest, CompoundIndexMaintainedOnUpdateAndRemove) {
  Collection coll("dt.test");
  DocId a = coll.Insert(MakeDoc(0));
  DocId b = coll.Insert(MakeDoc(2));
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());
  const CollectionView before = coll.GetView();
  EXPECT_EQ(IndexLookup(coll, "type,name", DocValue::Str("Movie")).size(), 2u);
  ASSERT_TRUE(coll.Update(a, MakeDoc(1)).ok());  // now a Person
  EXPECT_EQ(IndexLookup(coll, "type,name", DocValue::Str("Movie")).size(), 1u);
  ASSERT_TRUE(coll.Remove(b).ok());
  EXPECT_TRUE(IndexLookup(coll, "type,name", DocValue::Str("Movie")).empty());
  EXPECT_EQ(coll.GetView().IndexOn("type,name")->entry_count(), 1);
  // The view pinned before the writes still sees its own index state.
  EXPECT_EQ(before.IndexOn("type,name")->Lookup(DocValue::Str("Movie")).size(),
            2u);
}

TEST(CollectionTest, DocCursorPullsEveryDocInIdOrder) {
  Collection coll("dt.test");
  for (int i = 0; i < 7; ++i) coll.Insert(MakeDoc(i));
  auto cursor = coll.GetView().ScanDocs();
  DocId id;
  const DocValue* doc;
  DocId prev = 0;
  int n = 0;
  while (cursor.Next(&id, &doc)) {
    EXPECT_GT(id, prev);
    prev = id;
    ASSERT_NE(doc, nullptr);
    ++n;
  }
  EXPECT_EQ(n, 7);
}

TEST(CollectionTest, IndexRangeNumeric) {
  Collection coll("dt.test");
  for (int i = 0; i < 10; ++i) coll.Insert(MakeDoc(i));
  ASSERT_TRUE(coll.CreateIndex("score").ok());
  // scores are 0, 1.5, 3, ..., 13.5
  auto ids = coll.GetView().IndexOn("score")->Range(DocValue::Double(3.0),
                                                    DocValue::Double(6.0));
  EXPECT_EQ(ids.size(), 3u);  // 3, 4.5, 6
}

TEST(CollectionTest, NestedPathIndex) {
  Collection coll("dt.test");
  DocValue doc = DocValue::Object();
  doc.Add("meta", DocBuilder().Set("kind", "blog").Build());
  coll.Insert(doc);
  ASSERT_TRUE(coll.CreateIndex("meta.kind").ok());
  EXPECT_EQ(IndexLookup(coll, "meta.kind", DocValue::Str("blog")).size(), 1u);
}

TEST(CollectionStatsTest, CountsDocsAndExtents) {
  Collection coll("dt.instance", SmallExtents());
  for (int i = 0; i < 200; ++i) coll.Insert(MakeDoc(i));
  CollectionStats st = coll.Stats();
  EXPECT_EQ(st.ns, "dt.instance");
  EXPECT_EQ(st.count, 200);
  EXPECT_GT(st.num_extents, 4);  // more than one extent per shard
  EXPECT_GT(st.data_size, 0);
  EXPECT_GT(st.storage_size, 0);
  EXPECT_GE(st.storage_size, st.data_size);
  EXPECT_EQ(st.avg_obj_size, st.data_size / st.count);
  EXPECT_EQ(st.num_shards, 4);
}

TEST(CollectionStatsTest, ExtentDoubling) {
  CollectionOptions opts;
  opts.num_shards = 1;
  opts.initial_extent_size_bytes = 64;
  opts.max_extent_size_bytes = 256;
  Collection coll("dt.x", opts);
  // Each doc ~40 bytes; first extent 64 fits 1, next 128, then 256 cap.
  for (int i = 0; i < 50; ++i) {
    coll.Insert(DocBuilder().Set("k", int64_t{i}).Build());
  }
  CollectionStats st = coll.Stats();
  EXPECT_EQ(st.last_extent_size, 256);
  EXPECT_GT(st.num_extents, 3);
}

TEST(CollectionStatsTest, IndexSizeGrowsWithEntries) {
  Collection coll("dt.x");
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  int64_t before = coll.Stats().total_index_size;
  for (int i = 0; i < 100; ++i) coll.Insert(MakeDoc(i));
  int64_t after = coll.Stats().total_index_size;
  EXPECT_GT(after, before + 100 * 30);  // both _id and name indexes grew
}

TEST(CollectionStatsTest, ToStringHasMongoShape) {
  Collection coll("dt.instance");
  coll.Insert(MakeDoc(0));
  std::string s = coll.Stats().ToString();
  EXPECT_NE(s.find("\"ns\" : \"dt.instance\""), std::string::npos);
  EXPECT_NE(s.find("\"count\" : 1"), std::string::npos);
  EXPECT_NE(s.find("\"numExtents\""), std::string::npos);
  EXPECT_NE(s.find("\"nindexes\" : 1"), std::string::npos);
  EXPECT_NE(s.find("\"lastExtentSize\""), std::string::npos);
  EXPECT_NE(s.find("\"totalIndexSize\""), std::string::npos);
}

TEST(CollectionTest, OversizedDocumentGetsFittedExtent) {
  CollectionOptions opts;
  opts.num_shards = 1;
  opts.initial_extent_size_bytes = 32;
  opts.max_extent_size_bytes = 64;
  Collection coll("dt.big", opts);
  coll.Insert(DocBuilder().Set("blob", std::string(500, 'x')).Build());
  CollectionStats st = coll.Stats();
  EXPECT_GE(st.last_extent_size, 500);
  EXPECT_EQ(st.count, 1);
}

// Sweep: document counts from tiny to moderate keep invariants.
class CollectionScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectionScaleTest, StatsInvariants) {
  Collection coll("dt.scale", SmallExtents());
  const int n = GetParam();
  for (int i = 0; i < n; ++i) coll.Insert(MakeDoc(i));
  CollectionStats st = coll.Stats();
  EXPECT_EQ(st.count, n);
  EXPECT_GE(st.storage_size, st.data_size);
  if (n > 0) {
    EXPECT_GT(st.num_extents, 0);
    EXPECT_GT(st.last_extent_size, 0);
  }
  // _id index has one entry per doc.
  EXPECT_GE(st.total_index_size, n * SecondaryIndex::kEntryOverheadBytes);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectionScaleTest,
                         ::testing::Values(0, 1, 10, 100, 1000));

}  // namespace
}  // namespace dt::storage
