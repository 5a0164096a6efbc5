/// The headline invariant of streaming consolidation (`ingest` ctest
/// label; runs in the sanitizer and TSan CI lanes): after ANY
/// interleaving of ingests, the entity set is byte-identical to a
/// from-scratch batch `Consolidate` over the same final corpus — 200
/// randomized interleavings, serial and on a shared 4-thread pool,
/// with a small block cap so oversize-block retirement and the
/// retraction slow path fire throughout. Plus the facade-level
/// contract: `DataTamer::IngestRecord(s)` persists through the normal
/// mutation path, survives a durable close/reopen (record log replay +
/// `Seed`), serves `SearchEntities`, and routes `kIngest` only through
/// `ExecuteMutable`.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/dedup_labels.h"
#include "dedup/consolidation.h"
#include "dedup/record.h"
#include "dedup/streaming.h"
#include "fusion/data_tamer.h"
#include "query/request.h"
#include "storage/codec.h"
#include "test_files.h"

namespace dt::fusion {
namespace {

using dedup::CompositeEntity;
using dedup::ConsolidationOptions;
using dedup::Consolidate;
using dedup::DedupRecord;
using dedup::StreamingConsolidator;

std::vector<DedupRecord> BaseCorpus(int64_t num_pairs, uint64_t seed) {
  datagen::DedupLabelOptions opts;
  opts.num_pairs = num_pairs;
  opts.seed = seed;
  auto pairs =
      datagen::GenerateLabeledPairs(textparse::EntityType::kPerson, opts);
  std::vector<DedupRecord> records;
  for (const auto& p : pairs) {
    records.push_back(p.a);
    records.push_back(p.b);
  }
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<int64_t>(i);
    records[i].ingest_seq = static_cast<int64_t>(i + 1);
  }
  return records;
}

std::string EntityBytes(const CompositeEntity& e) {
  std::string out;
  storage::EncodeDocValue(dedup::CompositeEntityToDoc(e), &out);
  return out;
}

void ExpectByteIdentical(const std::vector<CompositeEntity>& batch,
                         const std::vector<CompositeEntity>& streaming,
                         const std::string& trace) {
  ASSERT_EQ(batch.size(), streaming.size()) << trace;
  for (size_t g = 0; g < batch.size(); ++g) {
    ASSERT_EQ(EntityBytes(batch[g]), EntityBytes(streaming[g]))
        << trace << " cluster " << g;
  }
}

// One randomized interleaving: shuffle the corpus with `seed`, ingest
// record by record, compare the materialized set byte-for-byte against
// batch consolidation over the same arrival order.
void RunInterleaving(const std::vector<DedupRecord>& corpus, uint64_t seed,
                     const ConsolidationOptions& opts, ThreadPool* pool,
                     int64_t* retirements_seen) {
  std::vector<DedupRecord> shuffled = corpus;
  Rng rng(seed);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }

  StreamingConsolidator sc(opts);
  for (const auto& rec : shuffled) {
    auto delta = sc.Ingest(rec, pool);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  }
  auto streamed = sc.Entities(pool);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  auto batch = Consolidate(shuffled, opts, nullptr, pool);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  ExpectByteIdentical(*batch, *streamed, "seed " + std::to_string(seed));
  *retirements_seen += sc.stats().retired_blocks;
}

TEST(IngestParityDifferential, TwoHundredRandomInterleavings) {
  // ~50 records, q-grams on, tiny block cap: blocks retire constantly,
  // so the differential hammers the retraction slow path as well as
  // the fast single-merge path.
  auto corpus = BaseCorpus(25, 2026);
  ConsolidationOptions opts;
  opts.blocking.qgram_size = 2;
  opts.blocking.max_block_size = 5;

  int64_t retirements = 0;
  for (uint64_t iter = 0; iter < 100; ++iter) {
    RunInterleaving(corpus, 1000 + iter, opts, nullptr, &retirements);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(retirements, 0) << "cap never hit: differential too gentle";

  // Same battery on a shared 4-thread pool (scoring chunks in
  // parallel; output must not notice).
  ThreadPool pool(4);
  retirements = 0;
  for (uint64_t iter = 0; iter < 100; ++iter) {
    RunInterleaving(corpus, 5000 + iter, opts, &pool, &retirements);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(retirements, 0);
}

TEST(FacadeIngestTest, MatchesBatchAndSurvivesDurableReopen) {
  TempPath dir("reopen");
  auto corpus = BaseCorpus(20, 7);
  const size_t half = corpus.size() / 2;

  DataTamerOptions opts;
  opts.consolidation_options.blocking.qgram_size = 2;
  opts.consolidation_options.blocking.max_block_size = 6;
  opts.durability.dir = dir.path();
  opts.durability.checkpoint_wal_bytes = 0;

  // First run: ingest the first half, one record at a time and as one
  // batch call, through the durable facade.
  {
    auto tamer = DataTamer::Open(opts);
    ASSERT_TRUE(tamer.ok()) << tamer.status().ToString();
    IngestResult first =
        (*tamer)->IngestRecord(corpus[0]).ValueOrDie();
    EXPECT_EQ(first.ingested, 1);
    EXPECT_EQ(first.clusters_upserted, 1);
    std::vector<DedupRecord> rest(corpus.begin() + 1,
                                  corpus.begin() + half);
    auto r = (*tamer)->IngestRecords(std::move(rest));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ingested, static_cast<int64_t>(half - 1));
    EXPECT_EQ((*tamer)->ingest_stats().records_ingested,
              static_cast<int64_t>(half));
  }

  // Reopen: the record log reseeds the resident streaming state; the
  // second half then lands on top and the result is byte-identical to
  // batch consolidation over the full corpus in arrival order.
  auto tamer = DataTamer::Open(opts);
  ASSERT_TRUE(tamer.ok()) << tamer.status().ToString();
  std::vector<DedupRecord> second(corpus.begin() + half, corpus.end());
  auto r = (*tamer)->IngestRecords(std::move(second));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*tamer)->ingest_stats().seeded_records,
            static_cast<int64_t>(half));
  // records_ingested counts this facade's own ingest calls; the
  // reseeded first half is accounted separately above.
  EXPECT_EQ((*tamer)->ingest_stats().records_ingested,
            static_cast<int64_t>(corpus.size() - half));

  auto entities = (*tamer)->IngestedEntities();
  ASSERT_TRUE(entities.ok()) << entities.status().ToString();
  auto batch = Consolidate(corpus, opts.consolidation_options);
  ASSERT_TRUE(batch.ok());
  ExpectByteIdentical(*batch, *entities, "durable reopen");
  EXPECT_EQ((*tamer)->ingest_stats().resident_clusters,
            static_cast<int64_t>(batch->size()));

  // The fused collection mirrors the entity set one doc per cluster
  // (served through the ordinary query path), and keyword search over
  // the fused docs answers from the incremental index.
  query::QueryRequest count;
  count.op = query::QueryOp::kCount;
  count.collection = "fused";
  count.group_path = "entity_type";
  auto served = (*tamer)->Execute(count);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  int64_t fused_docs = 0;
  for (const auto& row : served->groups) fused_docs += row.count;
  EXPECT_EQ(fused_docs, static_cast<int64_t>(batch->size()));
  ASSERT_FALSE((*batch)[0].fields.empty());
  auto hits = (*tamer)->SearchEntities((*batch)[0].fields.begin()->second, 5);
  EXPECT_FALSE(hits.empty());
}

TEST(FacadeIngestTest, ExecuteRoutesIngestOnlyThroughMutable) {
  DataTamer tamer;
  auto corpus = BaseCorpus(6, 3);

  query::QueryRequest req;
  req.op = query::QueryOp::kIngest;
  req.ingest_records = corpus;

  // The const surface refuses the mutating op...
  auto denied = tamer.Execute(req);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsInvalidArgument())
      << denied.status().ToString();

  // ...the mutable surface executes it and reports what changed.
  auto resp = tamer.ExecuteMutable(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->ingested, static_cast<int64_t>(corpus.size()));
  EXPECT_GT(resp->ingest_clusters_upserted, 0);

  auto entities = tamer.IngestedEntities();
  ASSERT_TRUE(entities.ok());
  auto batch = Consolidate(corpus, ConsolidationOptions{});
  ASSERT_TRUE(batch.ok());
  ExpectByteIdentical(*batch, *entities, "ExecuteMutable");

  // Read ops pass straight through ExecuteMutable.
  query::QueryRequest count;
  count.op = query::QueryOp::kCount;
  count.collection = "fused";
  count.group_path = "entity_type";
  auto found = tamer.ExecuteMutable(count);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  int64_t fused_docs = 0;
  for (const auto& row : found->groups) fused_docs += row.count;
  EXPECT_EQ(fused_docs, static_cast<int64_t>(batch->size()));
}

}  // namespace
}  // namespace dt::fusion
