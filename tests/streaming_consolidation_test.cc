/// Unit tests of the streaming consolidation engine: the growable
/// union-find, the shared scoring path, per-record ingest parity with
/// batch `Consolidate` (including the oversize-block retirement /
/// match-retraction slow path), `Seed` equivalence with sequential
/// ingest, thread-count determinism of shard assignment and candidate
/// sets, the Fellegi-Sunter decision path, and the upsert/remove delta
/// stream reconstructing the entity set exactly.

#include "dedup/streaming.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/dedup_labels.h"
#include "dedup/blocking.h"
#include "dedup/clustering.h"
#include "dedup/consolidation.h"
#include "dedup/fellegi_sunter.h"
#include "dedup/record.h"
#include "storage/codec.h"

namespace dt::dedup {
namespace {

std::vector<DedupRecord> TestRecords(int64_t num_pairs, uint64_t seed) {
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
    records[i].ingest_seq = static_cast<int64_t>(i);
  }
  return records;
}

std::string EntityBytes(const CompositeEntity& e) {
  std::string out;
  storage::EncodeDocValue(CompositeEntityToDoc(e), &out);
  return out;
}

void ExpectSameEntities(const std::vector<CompositeEntity>& batch,
                        const std::vector<CompositeEntity>& streaming) {
  ASSERT_EQ(batch.size(), streaming.size());
  for (size_t g = 0; g < batch.size(); ++g) {
    SCOPED_TRACE("cluster " + std::to_string(g));
    EXPECT_EQ(EntityBytes(batch[g]), EntityBytes(streaming[g]));
  }
}

TEST(UnionFindTest, AddGrowsFreshSingletons) {
  UnionFind uf(2);
  ASSERT_TRUE(uf.Union(0, 1));
  EXPECT_EQ(uf.num_sets(), 1u);
  size_t e = uf.Add();
  EXPECT_EQ(e, 2u);
  EXPECT_EQ(uf.size(), 3u);
  EXPECT_EQ(uf.num_sets(), 2u);
  EXPECT_EQ(uf.Find(e), e);
  EXPECT_FALSE(uf.Connected(0, e));
  ASSERT_TRUE(uf.Union(1, e));
  EXPECT_TRUE(uf.Connected(0, e));
  // Growth after unions keeps prior sets intact.
  size_t f = uf.Add();
  EXPECT_EQ(f, 3u);
  EXPECT_EQ(uf.num_sets(), 2u);
  auto groups = uf.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(groups[1], (std::vector<size_t>{3}));
}

TEST(ScoreCandidatePairsTest, MatchesBatchDecisionOnEveryPair) {
  auto records = TestRecords(120, 17);
  ConsolidationOptions opts;
  auto candidates = GenerateCandidatePairs(records, opts.blocking);
  ASSERT_FALSE(candidates.empty());

  std::vector<std::pair<size_t, size_t>> serial;
  ASSERT_TRUE(
      ScoreCandidatePairs(records, candidates, opts, nullptr, &serial).ok());
  // The exact rule-blend oracle, pair by pair.
  std::vector<std::pair<size_t, size_t>> oracle;
  for (const auto& [i, j] : candidates) {
    PairSignals s = ComputePairSignals(records[i], records[j]);
    if (s.same_type != 0 && s.RuleScore() >= opts.match_threshold) {
      oracle.emplace_back(i, j);
    }
  }
  EXPECT_EQ(serial, oracle);
  ASSERT_FALSE(serial.empty());

  // Chunked on a pool: byte-identical order and content.
  ThreadPool pool(4);
  std::vector<std::pair<size_t, size_t>> parallel;
  ASSERT_TRUE(
      ScoreCandidatePairs(records, candidates, opts, &pool, &parallel).ok());
  EXPECT_EQ(serial, parallel);
}

TEST(ScoreCandidatePairsTest, RejectsMisconfiguredScorers) {
  auto records = TestRecords(4, 1);
  auto candidates = GenerateCandidatePairs(records, BlockingOptions{});
  std::vector<std::pair<size_t, size_t>> matches;

  ml::NaiveBayesClassifier clf;
  ConsolidationOptions no_dict;
  no_dict.classifier = &clf;
  Status st = ScoreCandidatePairs(records, candidates, no_dict, nullptr,
                                  &matches);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();

  FellegiSunterScorer unfitted;
  ConsolidationOptions bad_fs;
  bad_fs.fs_scorer = &unfitted;
  st = ScoreCandidatePairs(records, candidates, bad_fs, nullptr, &matches);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(StreamingConsolidatorTest, SequentialIngestMatchesBatch) {
  auto records = TestRecords(100, 42);
  ConsolidationOptions opts;

  ConsolidationStats batch_stats;
  auto batch = Consolidate(records, opts, &batch_stats);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_GT(batch_stats.pairs_matched, 0);

  StreamingConsolidator sc(opts);
  for (const auto& rec : records) {
    auto delta = sc.Ingest(rec);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_FALSE(delta->upserted.empty());
  }
  auto streamed = sc.Entities();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectSameEntities(*batch, *streamed);
  EXPECT_EQ(sc.stats().records_ingested,
            static_cast<int64_t>(records.size()));
  EXPECT_EQ(sc.stats().pairs_matched, batch_stats.pairs_matched);
  EXPECT_EQ(static_cast<int64_t>(sc.num_clusters()), batch_stats.clusters);
}

TEST(StreamingConsolidatorTest, RetirementSlowPathPreservesParity) {
  // A tiny block cap forces blocks to die mid-stream, exercising the
  // retraction + union-find rebuild path; parity must survive it.
  auto records = TestRecords(80, 9);
  ConsolidationOptions opts;
  opts.blocking.max_block_size = 4;
  opts.blocking.qgram_size = 2;

  StreamingConsolidator sc(opts);
  for (const auto& rec : records) {
    ASSERT_TRUE(sc.Ingest(rec).ok());
  }
  ASSERT_GT(sc.stats().retired_blocks, 0)
      << "cap too large to exercise retirement";

  auto batch = Consolidate(records, opts);
  ASSERT_TRUE(batch.ok());
  auto streamed = sc.Entities();
  ASSERT_TRUE(streamed.ok());
  ExpectSameEntities(*batch, *streamed);
}

TEST(StreamingConsolidatorTest, SeedEqualsSequentialIngest) {
  auto records = TestRecords(80, 33);
  ConsolidationOptions opts;
  opts.blocking.max_block_size = 6;  // make retirement reachable

  StreamingConsolidator seq(opts);
  for (const auto& rec : records) ASSERT_TRUE(seq.Ingest(rec).ok());

  StreamingConsolidator seeded(opts);
  ASSERT_TRUE(seeded.Seed(records).ok());
  // Seeding a non-empty consolidator is refused.
  EXPECT_TRUE(seeded.Seed(records).IsInvalidArgument());

  EXPECT_EQ(seq.ClusterKeys(), seeded.ClusterKeys());
  EXPECT_EQ(seq.stats().pairs_matched, seeded.stats().pairs_matched);
  EXPECT_EQ(seq.stats().live_blocks, seeded.stats().live_blocks);
  EXPECT_EQ(seq.stats().retired_blocks, seeded.stats().retired_blocks);
  // Seed expands its own live blocks; they yield the batch candidates.
  EXPECT_EQ(seeded.stats().candidates_generated,
            static_cast<int64_t>(
                GenerateCandidatePairs(records, opts.blocking).size()));
  auto a = seq.Entities();
  auto b = seeded.Entities();
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameEntities(*a, *b);

  // And both continue identically after further ingests.
  auto more = TestRecords(10, 99);
  for (auto& rec : more) {
    rec.id += 10'000;
    ASSERT_TRUE(seq.Ingest(rec).ok());
    ASSERT_TRUE(seeded.Ingest(rec).ok());
  }
  auto a2 = seq.Entities();
  auto b2 = seeded.Entities();
  ASSERT_TRUE(a2.ok() && b2.ok());
  ExpectSameEntities(*a2, *b2);
}

TEST(StreamingConsolidatorTest, ShardAssignmentDeterministicAcrossThreads) {
  // Satellite contract: blocking-key shard assignment and candidate
  // sets are byte-identical for num_threads 1 vs 4, both through the
  // batch sharder and through streaming ingest/seed.
  auto records = TestRecords(150, 5);
  BlockingOptions bopts;
  bopts.qgram_size = 2;
  BlockingStats serial_stats;
  auto serial_pairs = GenerateCandidatePairs(records, bopts, &serial_stats);
  ThreadPool pool4(4);
  BlockingStats par_stats;
  auto par_pairs = GenerateCandidatePairs(records, bopts, &par_stats, &pool4);
  EXPECT_EQ(serial_pairs, par_pairs);
  EXPECT_EQ(serial_stats.num_blocks, par_stats.num_blocks);
  EXPECT_EQ(serial_stats.candidate_pairs, par_stats.candidate_pairs);

  ConsolidationOptions opts;
  opts.blocking = bopts;
  StreamingConsolidator serial_sc(opts);
  StreamingConsolidator par_sc(opts);
  for (const auto& rec : records) {
    auto d1 = serial_sc.Ingest(rec, nullptr);
    auto d4 = par_sc.Ingest(rec, &pool4);
    ASSERT_TRUE(d1.ok() && d4.ok());
    EXPECT_EQ(d1->upserted, d4->upserted);
    EXPECT_EQ(d1->removed, d4->removed);
    EXPECT_EQ(d1->pairs_scored, d4->pairs_scored);
  }
  EXPECT_EQ(serial_sc.stats().candidates_generated,
            par_sc.stats().candidates_generated);
  EXPECT_EQ(serial_sc.stats().pairs_scored, par_sc.stats().pairs_scored);
  EXPECT_EQ(serial_sc.stats().live_blocks, par_sc.stats().live_blocks);
  EXPECT_EQ(serial_sc.ClusterKeys(), par_sc.ClusterKeys());
  auto e1 = serial_sc.Entities();
  auto e4 = par_sc.Entities(&pool4);
  ASSERT_TRUE(e1.ok() && e4.ok());
  ExpectSameEntities(*e1, *e4);

  // Seed on a pool agrees too.
  StreamingConsolidator seeded(opts);
  ASSERT_TRUE(seeded.Seed(records, &pool4).ok());
  EXPECT_EQ(seeded.ClusterKeys(), serial_sc.ClusterKeys());
  EXPECT_EQ(seeded.stats().candidates_generated,
            serial_sc.stats().candidates_generated);
}

TEST(StreamingConsolidatorTest, FellegiSunterPathStaysInParity) {
  datagen::DedupLabelOptions lopts;
  lopts.num_pairs = 200;
  lopts.seed = 5;
  auto labeled =
      datagen::GenerateLabeledPairs(textparse::EntityType::kPerson, lopts);
  std::vector<std::pair<PairSignals, int>> training;
  for (const auto& p : labeled) {
    training.emplace_back(ComputePairSignals(p.a, p.b), p.label);
  }
  FellegiSunterScorer scorer;
  ASSERT_TRUE(scorer.Fit(training).ok());

  auto records = TestRecords(80, 23);
  ConsolidationOptions opts;
  opts.fs_scorer = &scorer;
  auto batch = Consolidate(records, opts);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  StreamingConsolidator sc(opts);
  for (const auto& rec : records) ASSERT_TRUE(sc.Ingest(rec).ok());
  auto streamed = sc.Entities();
  ASSERT_TRUE(streamed.ok());
  ExpectSameEntities(*batch, *streamed);
}

TEST(StreamingConsolidatorTest, DeltaStreamReconstructsEntitySet) {
  // Applying each ingest's upserted/removed delta to a key -> entity
  // map must land exactly on the final materialized set: this is the
  // contract the facade's fused collection relies on.
  auto records = TestRecords(60, 77);
  ConsolidationOptions opts;
  opts.blocking.max_block_size = 5;  // include the slow path

  StreamingConsolidator sc(opts);
  std::map<size_t, std::string> docs;
  for (const auto& rec : records) {
    auto delta = sc.Ingest(rec);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    for (size_t key : delta->removed) docs.erase(key);
    for (size_t key : delta->upserted) {
      CompositeEntity e = sc.EntityOf(key);
      ASSERT_FALSE(e.member_record_ids.empty()) << "stale upsert key " << key;
      docs[key] = EntityBytes(e);
    }
  }

  std::vector<size_t> keys = sc.ClusterKeys();
  ASSERT_EQ(docs.size(), keys.size());
  auto entities = sc.Entities();
  ASSERT_TRUE(entities.ok());
  ASSERT_EQ(entities->size(), keys.size());
  size_t g = 0;
  for (const auto& [key, bytes] : docs) {
    EXPECT_EQ(key, keys[g]);
    // The delta stream carries stable keys; the materialized set dense
    // batch ids. Same content otherwise.
    CompositeEntity dense = (*entities)[g];
    dense.cluster_id = static_cast<int64_t>(key);
    EXPECT_EQ(bytes, EntityBytes(dense)) << "cluster " << key;
    ++g;
  }

  // Stale keys answer empty, never a crash.
  EXPECT_TRUE(sc.ClusterMembers(records.size() + 7).empty());
  EXPECT_TRUE(sc.EntityOf(records.size() + 7).member_record_ids.empty());
}

}  // namespace
}  // namespace dt::dedup
