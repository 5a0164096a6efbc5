/// Determinism contract of the parallel consolidation engine: for any
/// pool size, candidate pairs, blocking stats and the consolidated
/// clusters are identical to the serial run.

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "datagen/dedup_labels.h"
#include "dedup/blocking.h"
#include "dedup/consolidation.h"
#include "dedup/fellegi_sunter.h"

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

void ExpectSameEntities(const std::vector<CompositeEntity>& serial,
                        const std::vector<CompositeEntity>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t g = 0; g < serial.size(); ++g) {
    SCOPED_TRACE("cluster " + std::to_string(g));
    EXPECT_EQ(serial[g].cluster_id, parallel[g].cluster_id);
    EXPECT_EQ(serial[g].entity_type, parallel[g].entity_type);
    EXPECT_EQ(serial[g].fields, parallel[g].fields);
    EXPECT_EQ(serial[g].member_record_ids, parallel[g].member_record_ids);
    EXPECT_EQ(serial[g].contributing_sources,
              parallel[g].contributing_sources);
  }
}

TEST(ParallelBlockingTest, CandidatePairsMatchSerialForAnyThreadCount) {
  auto records = TestRecords(400, 7);
  BlockingOptions opts;
  opts.qgram_size = 3;
  opts.prefix_len = 2;

  BlockingStats serial_stats;
  auto serial = GenerateCandidatePairs(records, opts, &serial_stats);
  ASSERT_FALSE(serial.empty());

  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    BlockingStats par_stats;
    auto parallel = GenerateCandidatePairs(records, opts, &par_stats, &pool);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
    EXPECT_EQ(serial_stats.num_records, par_stats.num_records);
    EXPECT_EQ(serial_stats.num_blocks, par_stats.num_blocks);
    EXPECT_EQ(serial_stats.oversize_blocks_skipped,
              par_stats.oversize_blocks_skipped);
    EXPECT_EQ(serial_stats.candidate_pairs, par_stats.candidate_pairs);
    EXPECT_DOUBLE_EQ(serial_stats.reduction_ratio, par_stats.reduction_ratio);
  }
}

TEST(ParallelConsolidationTest, ClustersMatchSerialWithFourThreads) {
  auto records = TestRecords(400, 21);
  ConsolidationOptions opts;
  opts.blocking.qgram_size = 2;
  ConsolidationStats serial_stats;
  auto serial = Consolidate(records, opts, &serial_stats);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial_stats.pairs_scored, 0);
  ASSERT_GT(serial_stats.pairs_matched, 0);

  ThreadPool pool(4);
  ConsolidationStats par_stats;
  auto parallel = Consolidate(records, opts, &par_stats, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ExpectSameEntities(*serial, *parallel);
  EXPECT_EQ(serial_stats.pairs_scored, par_stats.pairs_scored);
  EXPECT_EQ(serial_stats.pairs_matched, par_stats.pairs_matched);
  EXPECT_EQ(serial_stats.clusters, par_stats.clusters);
  EXPECT_EQ(serial_stats.merged_records, par_stats.merged_records);
  EXPECT_EQ(serial_stats.blocking.num_blocks, par_stats.blocking.num_blocks);
}

TEST(ParallelConsolidationTest, MergePoliciesStayDeterministic) {
  auto records = TestRecords(150, 3);
  ThreadPool pool(3);
  for (auto policy : {MergePolicy::kMajority, MergePolicy::kLongest,
                      MergePolicy::kMostRecent}) {
    ConsolidationOptions opts;
    opts.merge_policy = policy;
    auto serial = Consolidate(records, opts);
    ASSERT_TRUE(serial.ok());
    auto parallel = Consolidate(records, opts, nullptr, &pool);
    ASSERT_TRUE(parallel.ok());
    SCOPED_TRACE(MergePolicyName(policy));
    ExpectSameEntities(*serial, *parallel);
  }
}

TEST(ParallelPairSignalsTest, BatchMatchesSingleComputation) {
  auto records = TestRecords(100, 11);
  auto pairs = GenerateCandidatePairs(records, BlockingOptions{});
  ASSERT_FALSE(pairs.empty());
  ThreadPool pool(4);
  std::vector<PairSignals> batch, serial;
  ASSERT_TRUE(
      ComputeAllPairSignals(records, pairs, &pool, &batch).ok());
  ASSERT_TRUE(
      ComputeAllPairSignals(records, pairs, nullptr, &serial).ok());
  ASSERT_EQ(batch.size(), pairs.size());
  ASSERT_EQ(serial.size(), pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    PairSignals one =
        ComputePairSignals(records[pairs[k].first], records[pairs[k].second]);
    EXPECT_DOUBLE_EQ(batch[k].RuleScore(), one.RuleScore()) << "pair " << k;
    EXPECT_EQ(batch[k].RuleScore(), serial[k].RuleScore()) << "pair " << k;
  }
}

TEST(ParallelPairSignalsTest, OutOfRangePairFails) {
  auto records = TestRecords(10, 1);
  std::vector<std::pair<size_t, size_t>> pairs = {{0, records.size() + 5}};
  std::vector<PairSignals> out;
  Status st = ComputeAllPairSignals(records, pairs, nullptr, &out);
  EXPECT_TRUE(st.IsOutOfRange());
}

TEST(ParallelFellegiSunterTest, DecideAllMatchesDecide) {
  auto records = TestRecords(200, 5);
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

  auto pairs = GenerateCandidatePairs(records, BlockingOptions{});
  std::vector<PairSignals> signals;
  ASSERT_TRUE(ComputeAllPairSignals(records, pairs, nullptr, &signals).ok());
  ThreadPool pool(4);
  auto batch = scorer.DecideAll(signals, &pool);
  ASSERT_EQ(batch.size(), signals.size());
  for (size_t k = 0; k < signals.size(); ++k) {
    EXPECT_EQ(batch[k], scorer.Decide(signals[k])) << "pair " << k;
  }
}

}  // namespace
}  // namespace dt::dedup
