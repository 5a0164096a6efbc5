#include "fusion/data_tamer.h"

#include <gtest/gtest.h>

#include "datagen/ftables_gen.h"
#include "datagen/webtext_gen.h"

namespace dt::fusion {
namespace {

class DataTamerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::WebTextGenOptions wopts;
    wopts.num_fragments = 400;
    webgen_ = std::make_unique<datagen::WebTextGenerator>(wopts);
    gazetteer_ = webgen_->BuildGazetteer();

    DataTamerOptions opts;
    opts.collection_options.initial_extent_size_bytes = 1 << 12;
    opts.collection_options.max_extent_size_bytes = 1 << 18;
    tamer_ = std::make_unique<DataTamer>(opts);
    tamer_->SetGazetteer(&gazetteer_);
  }

  void IngestText() {
    for (const auto& frag : webgen_->Generate()) {
      ASSERT_TRUE(
          tamer_->IngestTextFragment(frag.text, frag.feed, frag.timestamp)
              .ok());
    }
  }

  void IngestStructured(int num_sources = 6) {
    datagen::FTablesGenOptions fopts;
    fopts.num_sources = num_sources;
    datagen::FusionTablesGenerator gen(fopts);
    for (auto& src : gen.Generate()) {
      auto report = tamer_->IngestStructuredTable(std::move(src.table));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
  }

  std::unique_ptr<datagen::WebTextGenerator> webgen_;
  textparse::Gazetteer gazetteer_;
  std::unique_ptr<DataTamer> tamer_;
};

TEST_F(DataTamerTest, RequiresGazetteer) {
  DataTamer bare;
  EXPECT_TRUE(bare.IngestTextFragment("x", "blog", 0)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DataTamerTest, TextIngestPopulatesCollections) {
  IngestText();
  EXPECT_EQ(tamer_->instance_collection()->count(), 400);
  EXPECT_GT(tamer_->entity_collection()->count(), 400);
  EXPECT_EQ(tamer_->stats().fragments_ingested, 400);
  EXPECT_EQ(tamer_->stats().entities_extracted,
            tamer_->entity_collection()->count());
}

TEST_F(DataTamerTest, StandardIndexesMatchPaperCounts) {
  IngestText();
  ASSERT_TRUE(tamer_->CreateStandardIndexes().ok());
  // Table I: dt.instance has 1 index; Table II: dt.entity has 8.
  EXPECT_EQ(tamer_->instance_collection()->Stats().nindexes, 1);
  EXPECT_EQ(tamer_->entity_collection()->Stats().nindexes, 8);
}

TEST_F(DataTamerTest, StructuredIngestBuildsGlobalSchema) {
  IngestStructured();
  EXPECT_EQ(tamer_->stats().structured_tables, 6);
  EXPECT_GT(tamer_->global_schema().num_attributes(), 5);
  // Far fewer global attributes than total source attributes — matching
  // collapsed the synonym variants.
  int total_source_attrs = 0;
  for (const auto& name : tamer_->catalog().TableNames()) {
    total_source_attrs += tamer_->catalog()
                              .GetTable(name)
                              .ValueOrDie()
                              ->schema()
                              .num_attributes();
  }
  EXPECT_LT(tamer_->global_schema().num_attributes(), total_source_attrs);
}

TEST_F(DataTamerTest, TopDiscussedFindsAwardWinners) {
  IngestText();
  auto top = tamer_->TopDiscussed("Movie", 10, /*award_winning_only=*/true);
  ASSERT_FALSE(top.empty());
  ASSERT_LE(top.size(), 10u);
  // Every returned title is one of the paper's award winners.
  for (const auto& row : top) {
    EXPECT_TRUE(webgen_->IsAwardWinning(row.key)) << row.key;
  }
  // Counts descend.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].count, top[i].count);
  }
}

TEST_F(DataTamerTest, QueryEntityTextOnlyHasTextFeedNoTheater) {
  IngestText();
  auto result = tamer_->QueryEntity("Movie", "Matilda",
                                    /*include_structured=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  bool has_feed = false, has_theater = false;
  for (int64_t r = 0; r < result->num_rows(); ++r) {
    std::string attr = result->at(r, "ATTRIBUTE").string_value();
    if (attr == "TEXT_FEED") {
      has_feed = true;
      EXPECT_NE(result->at(r, "VALUE").string_value().find("960,998"),
                std::string::npos);
    }
    if (attr == "THEATER") has_theater = true;
  }
  EXPECT_TRUE(has_feed);
  EXPECT_FALSE(has_theater);  // Table V: no theater info from text alone
}

TEST_F(DataTamerTest, QueryEntityFusedIsEnriched) {
  IngestText();
  IngestStructured();
  auto result = tamer_->QueryEntity("Movie", "Matilda",
                                    /*include_structured=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::map<std::string, std::string> fields;
  for (int64_t r = 0; r < result->num_rows(); ++r) {
    fields[result->at(r, "ATTRIBUTE").string_value()] =
        result->at(r, "VALUE").string_value();
  }
  // Table VI shape: name + theater + performance + text feed + price +
  // first date all present.
  ASSERT_EQ(fields.count("SHOW_NAME"), 1u);
  EXPECT_EQ(fields["SHOW_NAME"], "Matilda");
  ASSERT_EQ(fields.count("THEATER"), 1u);
  EXPECT_EQ(fields["THEATER"], "Shubert 225 W. 44th St between 7th and 8th");
  ASSERT_EQ(fields.count("PERFORMANCE"), 1u);
  EXPECT_NE(fields["PERFORMANCE"].find("Tues at 7pm"), std::string::npos);
  ASSERT_EQ(fields.count("CHEAPEST_PRICE"), 1u);
  EXPECT_EQ(fields["CHEAPEST_PRICE"], "$27");
  ASSERT_EQ(fields.count("FIRST"), 1u);
  EXPECT_EQ(fields["FIRST"], "3/4/2013");
  ASSERT_EQ(fields.count("TEXT_FEED"), 1u);
  EXPECT_NE(fields["TEXT_FEED"].find("960,998"), std::string::npos);
}

TEST_F(DataTamerTest, QueryEntityUnknownNameFails) {
  IngestText();
  EXPECT_TRUE(tamer_->QueryEntity("Movie", "No Such Show", true)
                  .status()
                  .IsNotFound());
}

TEST_F(DataTamerTest, ConsolidateAllClustersTextAndStructured) {
  IngestText();
  IngestStructured();
  dedup::ConsolidationStats stats;
  auto composites = tamer_->ConsolidateAll("Movie", &stats);
  ASSERT_TRUE(composites.ok());
  EXPECT_GT(stats.clusters, 0);
  EXPECT_GT(stats.merged_records, 0);
  // Some composite should fuse text + structured sources.
  bool fused = false;
  for (const auto& e : *composites) {
    bool has_text = false, has_struct = false;
    for (const auto& s : e.contributing_sources) {
      if (s == "webtext") has_text = true;
      if (s.rfind("ftables/", 0) == 0) has_struct = true;
    }
    if (has_text && has_struct) fused = true;
  }
  EXPECT_TRUE(fused);
}

TEST_F(DataTamerTest, CleaningStatsAccumulate) {
  IngestStructured();
  // The generator injects ~4% dirty cells; the cleaner must have fixed
  // some of them.
  EXPECT_GT(tamer_->stats().cleaning.cells_examined, 0);
  EXPECT_GT(tamer_->stats().cleaning.nulls_canonicalized, 0);
}

TEST_F(DataTamerTest, ReviewResolverIsConsulted) {
  datagen::FTablesGenOptions fopts;
  fopts.num_sources = 4;
  datagen::FusionTablesGenerator gen(fopts);
  auto sources = gen.Generate();
  // Make auto-accept impossible so everything routes to review.
  DataTamerOptions opts;
  opts.schema_options.accept_threshold = 1.01;
  opts.schema_options.review_threshold = 0.30;
  DataTamer tamer(opts);
  int resolver_calls = 0;
  ReviewResolver resolver = [&](const match::AttributeMatchResult& res,
                                const match::GlobalSchema&) {
    ++resolver_calls;
    return res.suggestions.empty() ? -1 : res.suggestions[0].global_index;
  };
  for (auto& src : sources) {
    ASSERT_TRUE(tamer.IngestStructuredTable(std::move(src.table), resolver)
                    .ok());
  }
  EXPECT_GT(resolver_calls, 0);
}

TEST_F(DataTamerTest, SearchFragmentsFindsTheGrossesStory) {
  IngestText();
  auto hits = tamer_->SearchFragments("matilda grossed", 5);
  ASSERT_FALSE(hits.empty());
  const storage::CollectionView fragments =
      tamer_->instance_collection()->GetView();
  const auto* doc = fragments.Get(hits[0].doc_id);
  ASSERT_NE(doc, nullptr);
  EXPECT_NE(doc->Find("text")->string_value().find("Matilda"),
            std::string::npos);
  // Index refreshes when new fragments arrive.
  ASSERT_TRUE(tamer_
                  ->IngestTextFragment(
                      "zzyzx quirkword Matilda grossed nothing", "blog", 9)
                  .ok());
  auto hits2 = tamer_->SearchFragments("zzyzx quirkword", 5);
  ASSERT_EQ(hits2.size(), 1u);
}

TEST_F(DataTamerTest, FragmentIndexAppliesAppendDeltasAndRebuildsOnRemoval) {
  IngestText();
  (void)tamer_->SearchFragments("matilda", 3);  // force the initial build
  // Appended fragments go through the Add-after-Build delta path; the
  // result must be indistinguishable from a from-scratch build (same
  // hits, same TF-IDF scores).
  auto id1 = tamer_->IngestTextFragment("quirkava Matilda encore", "blog", 7);
  auto id2 = tamer_->IngestTextFragment("quirkava once more", "blog", 8);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  auto incremental = tamer_->SearchFragments("quirkava", 5);
  ASSERT_EQ(incremental.size(), 2u);
  storage::InvertedIndex oracle("text");
  oracle.Build(tamer_->instance_collection()->GetView());
  auto rebuilt = oracle.Search("quirkava", 5);
  ASSERT_EQ(rebuilt.size(), incremental.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(incremental[i].doc_id, rebuilt[i].doc_id);
    EXPECT_DOUBLE_EQ(incremental[i].score, rebuilt[i].score);
  }
  // Removing a fragment forces the rebuild fallback: the dead document
  // must stop matching.
  ASSERT_TRUE(tamer_->instance_collection()->Remove(*id1).ok());
  auto after_removal = tamer_->SearchFragments("quirkava", 5);
  ASSERT_EQ(after_removal.size(), 1u);
  EXPECT_EQ(after_removal[0].doc_id, *id2);
  // And append deltas keep working after the rebuild.
  ASSERT_TRUE(
      tamer_->IngestTextFragment("quirkava returns", "blog", 9).ok());
  EXPECT_EQ(tamer_->SearchFragments("quirkava", 5).size(), 2u);
  // Count-neutral churn (remove one + append one, doc count unchanged)
  // must invalidate too — staleness is judged by the mutation epoch,
  // not the count.
  ASSERT_TRUE(tamer_->instance_collection()->Remove(*id2).ok());
  ASSERT_TRUE(tamer_->IngestTextFragment("wobblux debut", "blog", 10).ok());
  EXPECT_EQ(tamer_->SearchFragments("quirkava", 5).size(), 1u);
  EXPECT_EQ(tamer_->SearchFragments("wobblux", 5).size(), 1u);
}

TEST_F(DataTamerTest, ExtentAccountingScalesWithCorpus) {
  IngestText();
  auto stats = tamer_->instance_collection()->Stats();
  EXPECT_GT(stats.num_extents, 8);  // beyond one extent per shard
  EXPECT_GT(stats.data_size, 10000);
  EXPECT_GE(stats.storage_size, stats.data_size);
}

}  // namespace
}  // namespace dt::fusion
