#include "storage/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "storage/collection.h"
#include "storage/snapshot.h"
#include "test_files.h"

namespace dt::query {
namespace {

using storage::Collection;
using storage::CollectionView;
using storage::InvertedIndex;
using storage::DocBuilder;
using storage::DocId;

Collection MakeFragments() {
  Collection coll("dt.instance");
  const char* texts[] = {
      "Matilda grossed 960,998 this week at the Shubert.",
      "Matilda an award-winning import from London.",
      "Wicked fans lined the block outside the Gershwin.",
      "The Walking Dead dominated every feed again.",
      "Box office tracking shows Matilda and Wicked leading.",
  };
  for (const char* t : texts) {
    coll.Insert(DocBuilder().Set("text", t).Set("source", "news").Build());
  }
  return coll;
}

TEST(InvertedIndexTest, BuildCountsDocuments) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  EXPECT_EQ(idx.Build(coll.GetView()), 5);
  EXPECT_EQ(idx.num_documents(), 5);
  EXPECT_GT(idx.num_terms(), 20);
}

TEST(InvertedIndexTest, PostingsCaseInsensitive) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  idx.Build(coll.GetView());
  EXPECT_EQ(idx.Postings("matilda").size(), 3u);
  EXPECT_EQ(idx.Postings("MATILDA").size(), 3u);
  EXPECT_TRUE(idx.Postings("nonexistent").empty());
}

TEST(InvertedIndexTest, ConjunctiveSearch) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  idx.Build(coll.GetView());
  auto hits = idx.Search("matilda wicked");
  ASSERT_EQ(hits.size(), 1u);  // only the tracking fragment has both
  auto single = idx.Search("matilda");
  EXPECT_EQ(single.size(), 3u);
}

TEST(InvertedIndexTest, MissingTermMeansNoHits) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  idx.Build(coll.GetView());
  EXPECT_TRUE(idx.Search("matilda zebra").empty());
  EXPECT_TRUE(idx.Search("").empty());
}

TEST(InvertedIndexTest, RankingPrefersFocusedDocuments) {
  InvertedIndex idx("text");
  idx.Add(1, "matilda");  // short, fully on-topic
  idx.Add(2,
          "matilda appears once inside a very long rambling fragment about "
          "many unrelated things and some more words to pad the length out");
  auto hits = idx.Search("matilda", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc_id, 1u);
  EXPECT_GT(hits[0].score, hits[1].score);
}

TEST(InvertedIndexTest, RareTermsWeighMore) {
  InvertedIndex idx("text");
  for (DocId i = 1; i <= 20; ++i) {
    idx.Add(i, i == 1 ? "common rareword" : "common filler");
  }
  auto common = idx.Search("common", 20);
  auto rare = idx.Search("rareword", 20);
  ASSERT_EQ(rare.size(), 1u);
  ASSERT_FALSE(common.empty());
  EXPECT_GT(rare[0].score, common[0].score);
}

TEST(InvertedIndexTest, TopKLimit) {
  InvertedIndex idx("text");
  for (DocId i = 1; i <= 50; ++i) idx.Add(i, "matilda again");
  EXPECT_EQ(idx.Search("matilda", 7).size(), 7u);
}

TEST(InvertedIndexTest, ReAddMergesFrequencies) {
  InvertedIndex idx("text");
  idx.Add(1, "matilda");
  idx.Add(1, "matilda matilda");
  EXPECT_EQ(idx.num_documents(), 1);
  EXPECT_EQ(idx.Postings("matilda").size(), 1u);
}

TEST(InvertedIndexTest, SkipsDocsWithoutField) {
  Collection coll("dt.x");
  coll.Insert(DocBuilder().Set("text", "hello world").Build());
  coll.Insert(DocBuilder().Set("other", "no text field").Build());
  coll.Insert(DocBuilder().Set("text", 42).Build());  // non-string
  InvertedIndex idx("text");
  EXPECT_EQ(idx.Build(coll.GetView()), 1);
}

TEST(InvertedIndexTest, AddAfterBuildKeepsDocFrequencyConsistent) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  idx.Build(coll.GetView());
  const int64_t df_before = idx.DocFrequency("matilda");
  ASSERT_EQ(df_before, 3);
  const int64_t docs_before = idx.num_documents();

  // Live insert after the bulk build: ids keep growing monotonically.
  DocId new_id = coll.Insert(
      DocBuilder().Set("text", "Matilda extended through spring.").Build());
  idx.Add(new_id, "Matilda extended through spring.");

  EXPECT_EQ(idx.num_documents(), docs_before + 1);
  EXPECT_EQ(idx.DocFrequency("matilda"), df_before + 1);
  EXPECT_EQ(idx.DocFrequency("spring"), 1);
  auto postings = idx.Postings("matilda");
  ASSERT_EQ(postings.size(), 4u);
  EXPECT_TRUE(std::is_sorted(postings.begin(), postings.end()));
  EXPECT_EQ(postings.back(), new_id);

  // IDF stays consistent with the grown doc frequencies: the term now
  // in 4/6 documents must rank below a term in 1/6 for equal-length
  // docs, and the new document is searchable.
  auto hits = idx.Search("matilda", 10);
  ASSERT_EQ(hits.size(), 4u);
  bool found_new = false;
  for (const auto& h : hits) found_new |= h.doc_id == new_id;
  EXPECT_TRUE(found_new);
  auto rare = idx.Search("spring", 10);
  ASSERT_EQ(rare.size(), 1u);
  EXPECT_EQ(rare[0].doc_id, new_id);
}

TEST(InvertedIndexTest, EmptyQueryReturnsNothing) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  idx.Build(coll.GetView());
  EXPECT_TRUE(idx.Search("").empty());
  EXPECT_TRUE(idx.Search("   ,;!  ").empty());  // tokenizes to nothing
  // An empty index answers any query with nothing (no division by the
  // zero document count).
  InvertedIndex empty("text");
  EXPECT_TRUE(empty.Search("matilda").empty());
  EXPECT_TRUE(empty.Search("").empty());
  EXPECT_EQ(empty.DocFrequency("matilda"), 0);
}

TEST(InvertedIndexTest, OnlyUnknownTokensReturnsNothing) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  idx.Build(coll.GetView());
  EXPECT_TRUE(idx.Search("zebra").empty());
  EXPECT_TRUE(idx.Search("zebra quagga okapi").empty());
  EXPECT_EQ(idx.DocFrequency("zebra"), 0);
  EXPECT_TRUE(idx.Postings("zebra").empty());
}

TEST(InvertedIndexTest, KLargerThanHitCountReturnsAllHits) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  idx.Build(coll.GetView());
  auto hits = idx.Search("matilda", 1000);
  EXPECT_EQ(hits.size(), 3u);  // every hit, no padding, no crash
  EXPECT_EQ(idx.Search("matilda", 3).size(), 3u);
  EXPECT_TRUE(idx.Search("matilda", 0).empty());
}

TEST(InvertedIndexTest, DuplicateQueryTermsCollapse) {
  Collection coll = MakeFragments();
  InvertedIndex idx("text");
  idx.Build(coll.GetView());
  auto once = idx.Search("matilda");
  auto twice = idx.Search("matilda matilda");
  ASSERT_EQ(once.size(), twice.size());
  EXPECT_DOUBLE_EQ(once[0].score, twice[0].score);
}

// ---- the inverted index as a granule of versioned storage ----

/// Hits and scores of `got` equal those of a from-scratch build over
/// the same view.
void ExpectMatchesRebuild(const CollectionView& view, const char* keywords) {
  const InvertedIndex* got = view.TextIndexOn("text");
  ASSERT_NE(got, nullptr);
  InvertedIndex oracle("text");
  oracle.Build(view);
  EXPECT_EQ(got->num_documents(), oracle.num_documents());
  auto want = oracle.Search(keywords, 100);
  auto have = got->Search(keywords, 100);
  ASSERT_EQ(have.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(have[i].doc_id, want[i].doc_id);
    EXPECT_DOUBLE_EQ(have[i].score, want[i].score);
  }
}

TEST(VersionedTextIndexTest, ViewPinnedBeforeUpdateKeepsOldPostings) {
  Collection fused("dt.fused");
  const DocId id =
      fused.Insert(DocBuilder().Set("text", "Matilda Shubert").Build());
  fused.Insert(DocBuilder().Set("text", "Wicked Gershwin").Build());
  EXPECT_EQ(fused.GetView().TextIndexOn("text"), nullptr);
  const CollectionView before = fused.GetViewWithTextIndex("text");
  ASSERT_NE(before.TextIndexOn("text"), nullptr);
  EXPECT_EQ(before.TextIndexOn("name"), nullptr);

  ASSERT_TRUE(
      fused.Update(id, DocBuilder().Set("text", "Matilda Broadway").Build())
          .ok());
  const CollectionView after = fused.GetView();
  EXPECT_EQ(before.TextIndexOn("text")->Postings("shubert"),
            std::vector<DocId>{id});
  EXPECT_TRUE(before.TextIndexOn("text")->Postings("broadway").empty());
  ASSERT_NE(after.TextIndexOn("text"), nullptr);
  EXPECT_TRUE(after.TextIndexOn("text")->Postings("shubert").empty());
  EXPECT_EQ(after.TextIndexOn("text")->Postings("broadway"),
            std::vector<DocId>{id});
  ExpectMatchesRebuild(before, "matilda");
  ExpectMatchesRebuild(after, "matilda");
}

TEST(VersionedTextIndexTest, WritesMaintainTheIndexLikeARebuild) {
  Collection coll = MakeFragments();
  (void)coll.GetViewWithTextIndex("text");
  const DocId added = coll.Insert(
      DocBuilder().Set("text", "Matilda extended through spring.").Build());
  coll.Insert(DocBuilder().Set("other", "no text").Build());
  ASSERT_TRUE(coll.Remove(1).ok());
  ASSERT_TRUE(coll.Update(3, DocBuilder()
                                 .Set("text", "Matilda at the Gershwin")
                                 .Build())
                  .ok());
  const CollectionView view = coll.GetView();
  EXPECT_EQ(view.TextIndexOn("text")->Postings("spring"),
            std::vector<DocId>{added});
  ExpectMatchesRebuild(view, "matilda");
  ExpectMatchesRebuild(view, "gershwin");
}

TEST(VersionedTextIndexTest, BuildingTheIndexIsNotAMutation) {
  Collection coll = MakeFragments();
  TempPath before_path("text_index_before");
  TempPath after_path("text_index_after");
  ASSERT_TRUE(storage::SaveSnapshot(coll, before_path.path()).ok());
  const uint64_t epoch = coll.mutation_epoch();
  const uint64_t version = coll.version_id();

  const CollectionView indexed = coll.GetViewWithTextIndex("text");
  EXPECT_EQ(coll.mutation_epoch(), epoch);
  EXPECT_EQ(indexed.mutation_epoch(), epoch);
  // A fresh identity, so tokens minted before the build keep resuming
  // against the version they pinned.
  EXPECT_NE(coll.version_id(), version);
  EXPECT_EQ(coll.GetViewWithTextIndex("text").version_id(),
            coll.version_id());  // built once, then reused

  // Nothing persisted changes, and a loaded collection starts without
  // the index.
  ASSERT_TRUE(storage::SaveSnapshot(coll, after_path.path()).ok());
  EXPECT_TRUE(Slurp(before_path.path()) == Slurp(after_path.path()));
  auto loaded = storage::LoadCollectionSnapshot(after_path.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->GetView().TextIndexOn("text"), nullptr);
}

}  // namespace
}  // namespace dt::query
