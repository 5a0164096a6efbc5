/// \file streaming.h
/// \brief Incremental (streaming) entity consolidation: absorb one
/// `DedupRecord` at a time at O(candidate-neighborhood) cost instead
/// of re-running the whole batch pipeline per arrival.
///
/// The consolidator keeps the blocking layer resident as a persistent
/// key -> member-list candidate map, scores each arriving record only
/// against the records it shares a live block with (through the exact
/// `ScoreCandidatePairs` path batch `Consolidate` uses), and folds the
/// resulting matches into a growable union-find. The headline
/// invariant, asserted by the parity differential suite:
///
///   after ANY interleaving of `Ingest` calls, `Entities()` is
///   byte-identical to a from-scratch `Consolidate` over the same
///   final corpus in arrival order.
///
/// The one subtlety is oversize-block retirement. Batch blocking skips
/// blocks larger than `max_block_size` entirely, so a block's pairs
/// must stop counting the moment it crosses the cap. Streaming handles
/// this by *retiring* the block permanently (member lists only ever
/// grow, so a dead block can never come back) and retracting every
/// previously matched pair whose only support was the dying block; a
/// retraction splits clusters, which is the rare slow path that
/// rebuilds the union-find from the surviving match set.
///
/// Cluster identity across ingests uses *stable keys* (the smallest
/// corpus index in a cluster) rather than the dense batch cluster ids,
/// which renumber on every merge; dense ids are assigned only when
/// `Entities()` materializes the full set, restoring batch order.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "dedup/consolidation.h"

namespace dt::dedup {

/// Running counters of one streaming consolidator.
struct StreamingStats {
  int64_t records_ingested = 0;
  /// Candidate pairs scored so far (including a `Seed` bulk load).
  int64_t pairs_scored = 0;
  /// Currently live matched pairs (retractions subtract).
  int64_t pairs_matched = 0;
  int64_t candidates_generated = 0;
  int64_t max_candidates_per_record = 0;
  int64_t live_blocks = 0;
  /// Blocks that crossed max_block_size and stopped supplying
  /// candidates (permanently, matching batch blocking's skip).
  int64_t retired_blocks = 0;
  /// Matches erased because their only supporting block died.
  int64_t retracted_matches = 0;
  /// Union-find rebuilds forced by retractions (the rare slow path).
  int64_t rebuilds = 0;
};

/// \brief Grow-only consolidation state with per-record ingest.
///
/// Not thread-safe; parallelism lives *inside* one call (candidate
/// scoring chunks on the supplied pool). Like the batch engine, the
/// output is byte-identical for every thread count.
class StreamingConsolidator {
 public:
  /// What one ingest changed, keyed by stable cluster keys.
  struct IngestDelta {
    /// Corpus index assigned to the ingested record.
    size_t record_index = 0;
    /// Cluster keys whose composite must be (re)materialized,
    /// ascending. Always contains the new record's cluster.
    std::vector<size_t> upserted;
    /// Cluster keys that no longer exist (absorbed by a merge or
    /// renamed by a split), ascending.
    std::vector<size_t> removed;
    int64_t pairs_scored = 0;
    int64_t pairs_matched = 0;
  };

  explicit StreamingConsolidator(ConsolidationOptions opts);

  /// \brief Ingests one record: updates the candidate map, scores the
  /// record against its blocking neighbors only, merges clusters (and
  /// retracts matches orphaned by a block retirement). Candidate
  /// scoring runs on `pool` when non-null.
  Result<IngestDelta> Ingest(DedupRecord record, ThreadPool* pool = nullptr);

  /// \brief Bulk-loads `records` through the batch blocking + scoring
  /// pipeline. The resulting state is identical to ingesting them one
  /// at a time in order (block death is permanent and member lists
  /// grow monotonically, so the final-state criterion "total members >
  /// cap" coincides with the sequential one). Requires an empty
  /// consolidator; this is the recovery path that restores resident
  /// state from a persisted record log.
  Status Seed(std::vector<DedupRecord> records, ThreadPool* pool = nullptr);

  /// \brief Materializes the full entity set: clusters ordered by
  /// smallest member with dense cluster ids in that order —
  /// byte-identical to `Consolidate(records(), options())`.
  Result<std::vector<CompositeEntity>> Entities(
      ThreadPool* pool = nullptr) const;

  /// Composite entity of one cluster; `cluster_id` carries the stable
  /// key (not the dense batch id). Default-constructed result when the
  /// key does not name a current cluster.
  CompositeEntity EntityOf(size_t cluster_key) const;

  /// Sorted member corpus indexes of the cluster with `cluster_key`
  /// (empty when the key names no current cluster).
  std::vector<size_t> ClusterMembers(size_t cluster_key) const;

  /// All stable cluster keys, ascending.
  std::vector<size_t> ClusterKeys() const;

  const std::vector<DedupRecord>& records() const { return records_; }
  const ConsolidationOptions& options() const { return opts_; }
  const StreamingStats& stats() const { return stats_; }
  size_t num_clusters() const { return members_of_root_.size(); }

 private:
  struct Block {
    /// Ascending corpus indexes; cleared once dead.
    std::vector<size_t> members;
    /// Crossed max_block_size. Permanent: batch blocking would skip
    /// this block for every suffix corpus too.
    bool dead = false;
  };

  static uint64_t PairKey(size_t a, size_t b) {
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
  }

  /// True when records `a` and `b` still co-occur in some live block
  /// (i.e. batch blocking over the current corpus would emit the
  /// pair).
  bool SharesLiveBlock(size_t a, size_t b) const;

  /// Fast-path union: merges the clusters of `a` and `b`, folding the
  /// sorted member lists together.
  void MergeClusterPair(size_t a, size_t b);

  /// Slow path after retractions: rebuilds the union-find and the
  /// member map from the surviving match set.
  void RebuildClusters();

  /// Every pair of records sharing a live block, sorted and unique —
  /// what `GenerateCandidatePairs` yields over `records_`, without
  /// recomputing any blocking key. Identical for every pool size.
  Result<std::vector<std::pair<size_t, size_t>>> LiveBlockPairs(
      ThreadPool* pool) const;

  ConsolidationOptions opts_;
  std::vector<DedupRecord> records_;
  std::vector<std::vector<std::string>> keys_of_record_;
  std::unordered_map<std::string, Block> blocks_;
  /// Live matched pairs, keyed (a<<32)|b with a < b.
  std::unordered_set<uint64_t> matches_;
  /// Find is path-compressing (mutating); const accessors still answer
  /// pure queries, hence mutable.
  mutable UnionFind uf_{0};
  /// Current root -> sorted member corpus indexes. The cluster's
  /// stable key is the front of its member list.
  std::unordered_map<size_t, std::vector<size_t>> members_of_root_;
  StreamingStats stats_;
};

}  // namespace dt::dedup
