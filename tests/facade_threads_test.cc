/// The facade's one thread knob: `DataTamerOptions::num_threads` sizes
/// the single pool every parallel stage runs on, and no answer may
/// depend on it. Facades at 1 and 4 threads fed the same text,
/// structured sources and streaming batches must agree on batch
/// consolidation, the streamed entity set, full-scan `Execute` ids and
/// the bytes `SaveSnapshot` writes (encoded and decoded on the pool).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "datagen/dedup_labels.h"
#include "datagen/ftables_gen.h"
#include "datagen/webtext_gen.h"
#include "dedup/consolidation.h"
#include "fusion/data_tamer.h"
#include "query/request.h"
#include "storage/codec.h"
#include "test_files.h"

namespace dt::fusion {
namespace {

std::vector<std::string> EntityBytes(
    const std::vector<dedup::CompositeEntity>& entities) {
  std::vector<std::string> out;
  for (const dedup::CompositeEntity& e : entities) {
    out.emplace_back();
    storage::EncodeDocValue(dedup::CompositeEntityToDoc(e), &out.back());
  }
  return out;
}

std::vector<dedup::DedupRecord> StreamRecords() {
  datagen::DedupLabelOptions opts;
  opts.num_pairs = 300;
  opts.seed = 17;
  std::vector<dedup::DedupRecord> records;
  for (const auto& p :
       datagen::GenerateLabeledPairs(textparse::EntityType::kPerson, opts)) {
    records.push_back(p.a);
    records.push_back(p.b);
  }
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<int64_t>(i);
  }
  return records;
}

class FacadeThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::WebTextGenOptions wopts;
    wopts.num_fragments = 1200;
    webgen_ = std::make_unique<datagen::WebTextGenerator>(wopts);
    gazetteer_ = webgen_->BuildGazetteer();
  }

  /// A facade of `threads` fed the whole fixture corpus.
  std::unique_ptr<DataTamer> Build(int threads) {
    DataTamerOptions opts;
    opts.num_threads = threads;
    auto tamer = std::make_unique<DataTamer>(opts);
    tamer->SetGazetteer(&gazetteer_);
    for (const auto& frag : webgen_->Generate()) {
      EXPECT_TRUE(
          tamer->IngestTextFragment(frag.text, frag.feed, frag.timestamp)
              .ok());
    }
    datagen::FTablesGenOptions fopts;
    fopts.num_sources = 6;
    datagen::FusionTablesGenerator gen(fopts);
    for (auto& src : gen.Generate()) {
      EXPECT_TRUE(tamer->IngestStructuredTable(std::move(src.table)).ok());
    }
    EXPECT_TRUE(tamer->CreateStandardIndexes().ok());
    // Streaming ingest in uneven batches.
    std::vector<dedup::DedupRecord> stream = StreamRecords();
    for (size_t at = 0; at < stream.size();) {
      const size_t n = std::min<size_t>(stream.size() - at, 1 + at % 97);
      std::vector<dedup::DedupRecord> batch(stream.begin() + at,
                                            stream.begin() + at + n);
      EXPECT_TRUE(tamer->IngestRecords(std::move(batch)).ok());
      at += n;
    }
    return tamer;
  }

  std::unique_ptr<datagen::WebTextGenerator> webgen_;
  textparse::Gazetteer gazetteer_;
};

TEST_F(FacadeThreadsTest, OneAndFourThreadsAgreeEverywhere) {
  std::unique_ptr<DataTamer> serial = Build(1);
  std::unique_ptr<DataTamer> wide = Build(4);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Batch consolidation over text + structured records.
  dedup::ConsolidationStats serial_stats, wide_stats;
  auto serial_all = serial->ConsolidateAll("Movie", &serial_stats);
  auto wide_all = wide->ConsolidateAll("Movie", &wide_stats);
  ASSERT_TRUE(serial_all.ok()) << serial_all.status().ToString();
  ASSERT_TRUE(wide_all.ok()) << wide_all.status().ToString();
  ASSERT_GT(serial_stats.merged_records, 0);
  EXPECT_EQ(EntityBytes(*serial_all), EntityBytes(*wide_all));
  EXPECT_EQ(serial_stats.pairs_scored, wide_stats.pairs_scored);

  // The streamed entity set.
  auto serial_streamed = serial->IngestedEntities();
  auto wide_streamed = wide->IngestedEntities();
  ASSERT_TRUE(serial_streamed.ok()) << serial_streamed.status().ToString();
  ASSERT_TRUE(wide_streamed.ok()) << wide_streamed.status().ToString();
  ASSERT_FALSE(serial_streamed->empty());
  EXPECT_EQ(EntityBytes(*serial_streamed), EntityBytes(*wide_streamed));

  // A full-scan find: 0 asks for the facade's whole budget.
  query::QueryRequest req;
  req.op = query::QueryOp::kFind;
  req.collection = "entity";
  req.predicate =
      query::Predicate::Eq("type", storage::DocValue::Str("Movie"));
  req.use_indexes = false;
  req.num_threads = 0;
  auto serial_ids = serial->Execute(req);
  auto wide_ids = wide->Execute(req);
  ASSERT_TRUE(serial_ids.ok()) << serial_ids.status().ToString();
  ASSERT_TRUE(wide_ids.ok()) << wide_ids.status().ToString();
  ASSERT_FALSE(serial_ids->ids.empty());
  EXPECT_EQ(serial_ids->ids, wide_ids->ids);

  // Snapshot bytes. Collection incarnations are random per facade, so
  // the byte comparison runs on one lineage: the serial facade's
  // snapshot, loaded (decoded on the pool) and re-saved (encoded on
  // the pool) by a 4-thread facade, and by a 1-thread one.
  TempPath original("facade_threads_1"), reloaded_wide("facade_threads_4"),
      reloaded_serial("facade_threads_1b");
  ASSERT_TRUE(serial->SaveSnapshot(original.path()).ok());
  const std::string bytes = Slurp(original.path());
  ASSERT_GT(bytes.size(), 0u);
  for (int threads : {4, 1}) {
    DataTamerOptions opts;
    opts.num_threads = threads;
    DataTamer fresh(opts);
    ASSERT_TRUE(fresh.LoadSnapshot(original.path()).ok());
    const TempPath& out = threads == 4 ? reloaded_wide : reloaded_serial;
    ASSERT_TRUE(fresh.SaveSnapshot(out.path()).ok());
    EXPECT_TRUE(Slurp(out.path()) == bytes) << "threads=" << threads;
    // The loaded facade re-seeds its streaming state on its own pool.
    auto seeded = fresh.IngestedEntities();
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
    EXPECT_EQ(EntityBytes(*seeded), EntityBytes(*serial_streamed))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dt::fusion
