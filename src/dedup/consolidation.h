/// \file consolidation.h
/// \brief The entity-consolidation engine (Fig. 1's "entity
/// consolidation" box): block → match → cluster → merge into composite
/// entity records.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dedup/blocking.h"
#include "dedup/clustering.h"
#include "dedup/fellegi_sunter.h"
#include "dedup/pair_features.h"
#include "dedup/record.h"
#include "ml/classifier.h"

namespace dt::dedup {

/// How conflicting field values merge inside a cluster.
enum class MergePolicy {
  /// Value from the highest trust_priority source wins; ties broken by
  /// recency (highest ingest_seq).
  kSourcePriority = 0,
  /// Most frequent value wins; ties by source priority.
  kMajority = 1,
  /// Longest value wins (useful for free-text enrichment fields).
  kLongest = 2,
  /// Most recently ingested wins.
  kMostRecent = 3,
};

const char* MergePolicyName(MergePolicy p);

/// Consolidation configuration.
struct ConsolidationOptions {
  BlockingOptions blocking;
  /// Pairs scoring >= this are matches.
  double match_threshold = 0.80;
  MergePolicy merge_policy = MergePolicy::kSourcePriority;
  /// When set, the ML classifier scores pairs instead of the rule
  /// blend; its probability compares against match_threshold.
  const ml::Classifier* classifier = nullptr;
  /// Dictionary the classifier was trained with (required with
  /// classifier; inference-time features use add=false).
  ml::FeatureDictionary* feature_dict = nullptr;
  /// When set (must be fitted), the Fellegi-Sunter scorer decides
  /// pairs instead of the classifier / rule blend: only kMatch
  /// decisions merge (kPossibleMatch is clerical-review territory,
  /// never an automatic merge). Takes precedence over `classifier`.
  const FellegiSunterScorer* fs_scorer = nullptr;
};

/// Outcome statistics of one consolidation run.
struct ConsolidationStats {
  BlockingStats blocking;
  int64_t pairs_scored = 0;
  int64_t pairs_matched = 0;
  int64_t clusters = 0;
  int64_t merged_records = 0;  ///< records in non-singleton clusters
};

/// \brief Runs entity consolidation over `records`.
///
/// Returns one composite entity per cluster (singletons included).
/// Candidate generation, pair scoring and cluster merging run on
/// `pool` when non-null (serial otherwise); the clusters produced are
/// byte-identical for every pool size. Fails with InvalidArgument when
/// a classifier is configured without a feature dictionary.
Result<std::vector<CompositeEntity>> Consolidate(
    const std::vector<DedupRecord>& records, const ConsolidationOptions& opts,
    ConsolidationStats* stats = nullptr, ThreadPool* pool = nullptr);

/// \brief Scores `candidates` (i < j index pairs into `records`) with
/// the configured decision procedure — Fellegi-Sunter scorer, ML
/// classifier or the rule blend, in that precedence — and appends the
/// matching pairs to `matches` in candidate order, byte-identical for
/// any `pool`. This is the one scoring path shared by batch
/// `Consolidate` and the streaming consolidator, so incremental ingest
/// can never drift from the batch decision boundary.
Status ScoreCandidatePairs(
    const std::vector<DedupRecord>& records,
    const std::vector<std::pair<size_t, size_t>>& candidates,
    const ConsolidationOptions& opts, ThreadPool* pool,
    std::vector<std::pair<size_t, size_t>>* matches);

/// \brief Merges one cluster of records into a composite entity using
/// `policy` (exposed for tests and for the query layer's on-the-fly
/// fusion).
CompositeEntity MergeCluster(const std::vector<DedupRecord>& records,
                             const std::vector<size_t>& member_indexes,
                             int64_t cluster_id, MergePolicy policy);

}  // namespace dt::dedup
