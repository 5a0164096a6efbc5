/// End-to-end integration tests: the full Fig. 1 pipeline wired
/// together, property-style invariants across module boundaries, and
/// failure injection (corrupt inputs at every entry point).

#include <gtest/gtest.h>

#include <set>

#include "datagen/dedup_labels.h"
#include "datagen/ftables_gen.h"
#include "datagen/webtext_gen.h"
#include "fusion/data_tamer.h"
#include "ingest/csv.h"
#include "ingest/flatten.h"
#include "ingest/json.h"

namespace dt {
namespace {

// ---------------------------------------------------------------------
// Pipeline invariants at varying corpus scales.
// ---------------------------------------------------------------------

class PipelineScaleTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(PipelineScaleTest, InvariantsHold) {
  datagen::WebTextGenOptions wopts;
  wopts.num_fragments = GetParam();
  datagen::WebTextGenerator webgen(wopts);
  auto gazetteer = webgen.BuildGazetteer();

  fusion::DataTamer tamer;
  tamer.SetGazetteer(&gazetteer);
  int64_t mention_lower_bound = 0;
  for (const auto& frag : webgen.Generate()) {
    ASSERT_TRUE(
        tamer.IngestTextFragment(frag.text, frag.feed, frag.timestamp).ok());
    mention_lower_bound += frag.truth_mentions.empty() ? 0 : 1;
  }
  ASSERT_TRUE(tamer.CreateStandardIndexes().ok());

  // Invariant 1: every fragment stored exactly once.
  EXPECT_EQ(tamer.instance_collection()->count(), GetParam());
  // Invariant 2: extracted entities >= fragments that planted mentions
  // (the parser can add heuristic mentions but misses almost nothing).
  EXPECT_GE(tamer.entity_collection()->count(), mention_lower_bound);
  // Invariant 3: every entity doc references a live instance.
  int64_t dangling = 0;
  const storage::CollectionView entities = tamer.entity_collection()->GetView();
  const storage::CollectionView fragments =
      tamer.instance_collection()->GetView();
  entities.ForEach([&](storage::DocId, const storage::DocValue& doc) {
    const auto* iid = doc.Find("instance_id");
    ASSERT_NE(iid, nullptr);
    if (fragments.Get(static_cast<storage::DocId>(iid->int_value())) ==
        nullptr) {
      ++dangling;
    }
  });
  EXPECT_EQ(dangling, 0);
  // Invariant 4: index-backed lookup agrees with a predicate scan.
  auto via_index =
      entities.IndexOn("name")->Lookup(storage::DocValue::Str("Matilda"));
  int64_t via_scan = 0;
  entities.ForEach([&](storage::DocId, const storage::DocValue& doc) {
    const auto* name = doc.Find("name");
    if (name != nullptr && name->is_string() &&
        name->string_value() == "Matilda") {
      ++via_scan;
    }
  });
  EXPECT_EQ(static_cast<int64_t>(via_index.size()), via_scan);
}

INSTANTIATE_TEST_SUITE_P(Scales, PipelineScaleTest,
                         ::testing::Values(50, 500, 2000));

// ---------------------------------------------------------------------
// Schema integration invariants over the full FTABLES feed.
// ---------------------------------------------------------------------

TEST(SchemaIntegrationInvariants, EverySourceAttributeMapsSomewhere) {
  datagen::FusionTablesGenerator gen;
  auto sources = gen.Generate();
  fusion::DataTamer tamer;
  std::vector<std::string> table_names;
  for (auto& src : sources) {
    table_names.push_back(src.table.name());
    ASSERT_TRUE(tamer.IngestStructuredTable(std::move(src.table)).ok());
  }
  const auto& schema = tamer.global_schema();
  // Every (table, attribute) pair has a global mapping.
  for (const auto& name : table_names) {
    const auto* table = tamer.catalog().GetTable(name).ValueOrDie();
    for (const auto& attr : table->schema().attributes()) {
      EXPECT_GE(schema.MappingOf(name, attr.name), 0)
          << name << "." << attr.name;
    }
  }
  // Provenance closure: global attribute provenance covers exactly the
  // mapped pairs.
  int64_t total_provenance = 0;
  for (int g = 0; g < schema.num_attributes(); ++g) {
    total_provenance +=
        static_cast<int64_t>(schema.attribute(g).provenance.size());
  }
  int64_t total_attrs = 0;
  for (const auto& name : table_names) {
    total_attrs += tamer.catalog()
                       .GetTable(name)
                       .ValueOrDie()
                       ->schema()
                       .num_attributes();
  }
  EXPECT_EQ(total_provenance, total_attrs);
}

TEST(SchemaIntegrationInvariants, ReingestOrderInsensitiveAttributeCount) {
  // Integrating the same sources in a different order may produce
  // differently-named attributes but similar schema sizes (no
  // catastrophic fragmentation either way).
  datagen::FusionTablesGenerator gen;
  auto a_sources = gen.Generate();
  datagen::FusionTablesGenerator gen2;
  auto b_sources = gen2.Generate();
  std::reverse(b_sources.begin() + 1, b_sources.end());  // keep canonical 1st

  fusion::DataTamer a, b;
  for (auto& src : a_sources) {
    ASSERT_TRUE(a.IngestStructuredTable(std::move(src.table)).ok());
  }
  for (auto& src : b_sources) {
    ASSERT_TRUE(b.IngestStructuredTable(std::move(src.table)).ok());
  }
  int na = a.global_schema().num_attributes();
  int nb = b.global_schema().num_attributes();
  EXPECT_LT(std::abs(na - nb), 8) << na << " vs " << nb;
}

// ---------------------------------------------------------------------
// Consolidation properties.
// ---------------------------------------------------------------------

TEST(ConsolidationProperties, ClustersPartitionRecords) {
  datagen::DedupLabelOptions opts;
  opts.num_pairs = 400;
  auto pairs =
      datagen::GenerateLabeledPairs(textparse::EntityType::kMovie, opts);
  std::vector<dedup::DedupRecord> records;
  for (const auto& p : pairs) {
    records.push_back(p.a);
    records.push_back(p.b);
  }
  auto composites = dedup::Consolidate(records, {});
  ASSERT_TRUE(composites.ok());
  // Every record id appears in exactly one composite.
  std::set<int64_t> seen;
  for (const auto& e : *composites) {
    for (int64_t id : e.member_record_ids) {
      EXPECT_TRUE(seen.insert(id).second) << "record " << id << " twice";
    }
  }
  EXPECT_EQ(seen.size(), records.size());
}

TEST(ConsolidationProperties, CompositeFieldsComeFromMembers) {
  datagen::DedupLabelOptions opts;
  opts.num_pairs = 200;
  auto pairs =
      datagen::GenerateLabeledPairs(textparse::EntityType::kCompany, opts);
  std::vector<dedup::DedupRecord> records;
  for (const auto& p : pairs) {
    records.push_back(p.a);
    records.push_back(p.b);
  }
  auto composites = dedup::Consolidate(records, {});
  ASSERT_TRUE(composites.ok());
  std::map<int64_t, const dedup::DedupRecord*> by_id;
  for (const auto& r : records) by_id[r.id] = &r;
  for (const auto& e : *composites) {
    for (const auto& [field, value] : e.fields) {
      bool provided = false;
      for (int64_t id : e.member_record_ids) {
        auto it = by_id[id]->fields.find(field);
        if (it != by_id[id]->fields.end() && it->second == value) {
          provided = true;
        }
      }
      EXPECT_TRUE(provided) << field << "=" << value;
    }
  }
}

// ---------------------------------------------------------------------
// Failure injection: corrupt inputs at every entry point.
// ---------------------------------------------------------------------

TEST(FailureInjection, CorruptCsvNeverCrashesIngest) {
  const char* bad_csvs[] = {
      "",                       // empty
      "a,b\n1",                 // ragged
      "a\n\"unterminated",      // quote
      "a,b\nx\"y,2\n",          // stray quote
  };
  for (const char* csv : bad_csvs) {
    auto t = ingest::CsvToTable("bad", csv);
    EXPECT_FALSE(t.ok()) << csv;
  }
}

TEST(FailureInjection, CorruptJsonRejectedCleanly) {
  const char* bad_jsons[] = {"{", "[1,", "\"", "{\"a\":}", "nul", "{]"};
  for (const char* j : bad_jsons) {
    EXPECT_TRUE(ingest::ParseJson(j).status().IsCorruption()) << j;
  }
}

TEST(FailureInjection, HostileTextFragmentsSurviveIngest) {
  datagen::WebTextGenOptions wopts;
  wopts.num_fragments = 10;
  datagen::WebTextGenerator webgen(wopts);
  auto gazetteer = webgen.BuildGazetteer();
  fusion::DataTamer tamer;
  tamer.SetGazetteer(&gazetteer);
  std::string hostile[] = {
      "",                                   // empty
      std::string(100000, 'A'),             // giant run
      std::string("\0embedded\0nul", 13),   // NUL bytes
      "\xff\xfe invalid utf8 \x80\x81",     // bad encoding
      "((((((((!!!!....))))))))",           // punctuation storm
      "\"\"\"\"\"\"\"",                     // quote storm
      "http://",                            // degenerate URL prefix
  };
  for (const auto& text : hostile) {
    auto r = tamer.IngestTextFragment(text, "blog", 1);
    EXPECT_TRUE(r.ok()) << "len=" << text.size();
  }
  EXPECT_EQ(tamer.instance_collection()->count(), 7);
}

TEST(FailureInjection, EmptyTableIntegrationIsHarmless) {
  fusion::DataTamer tamer;
  relational::Schema schema({{"a", relational::ValueType::kString}});
  relational::Table empty("empty_src", schema);
  auto report = tamer.IngestStructuredTable(std::move(empty));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->new_attributes, 1);
}

TEST(FailureInjection, DuplicateTableNameRejectedWithoutSideEffects) {
  fusion::DataTamer tamer;
  relational::Schema schema({{"a", relational::ValueType::kString}});
  relational::Table t1("dup_name", schema);
  (void)t1.Append({relational::Value::Str("x")});
  ASSERT_TRUE(tamer.IngestStructuredTable(std::move(t1)).ok());
  relational::Table t2("dup_name", schema);
  auto second = tamer.IngestStructuredTable(std::move(t2));
  EXPECT_FALSE(second.ok());
  // The first table remains queryable.
  EXPECT_TRUE(tamer.catalog().GetTable("dup_name").ok());
}

TEST(FailureInjection, AllNullSourceSurvivesPipeline) {
  fusion::DataTamer tamer;
  relational::Schema schema({{"name", relational::ValueType::kString},
                             {"price", relational::ValueType::kString}});
  relational::Table t("nulls", schema);
  for (int i = 0; i < 20; ++i) {
    (void)t.Append({relational::Value::Null(), relational::Value::Null()});
  }
  EXPECT_TRUE(tamer.IngestStructuredTable(std::move(t)).ok());
}

// ---------------------------------------------------------------------
// Determinism of the whole pipeline.
// ---------------------------------------------------------------------

TEST(PipelineDeterminism, TwoRunsProduceIdenticalStats) {
  auto run = [] {
    datagen::WebTextGenOptions wopts;
    wopts.num_fragments = 300;
    datagen::WebTextGenerator webgen(wopts);
    auto gazetteer = webgen.BuildGazetteer();
    fusion::DataTamer tamer;
    tamer.SetGazetteer(&gazetteer);
    for (const auto& frag : webgen.Generate()) {
      (void)tamer.IngestTextFragment(frag.text, frag.feed, frag.timestamp);
    }
    datagen::FusionTablesGenerator ftgen;
    for (auto& src : ftgen.Generate()) {
      (void)tamer.IngestStructuredTable(std::move(src.table));
    }
    auto stats = tamer.entity_collection()->Stats();
    return std::make_tuple(stats.count, stats.data_size,
                           stats.total_index_size,
                           tamer.global_schema().num_attributes());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dt
