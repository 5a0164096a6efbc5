#include "dedup/consolidation.h"

#include <algorithm>
#include <map>
#include <set>

namespace dt::dedup {

const char* MergePolicyName(MergePolicy p) {
  switch (p) {
    case MergePolicy::kSourcePriority:
      return "source-priority";
    case MergePolicy::kMajority:
      return "majority";
    case MergePolicy::kLongest:
      return "longest";
    case MergePolicy::kMostRecent:
      return "most-recent";
  }
  return "?";
}

CompositeEntity MergeCluster(const std::vector<DedupRecord>& records,
                             const std::vector<size_t>& member_indexes,
                             int64_t cluster_id, MergePolicy policy) {
  CompositeEntity out;
  out.cluster_id = cluster_id;
  if (!member_indexes.empty()) {
    out.entity_type = records[member_indexes[0]].entity_type;
  }
  std::set<std::string> sources;
  // field -> candidate (value, trust, seq) list
  std::map<std::string, std::vector<const DedupRecord*>> contributors;
  for (size_t idx : member_indexes) {
    const DedupRecord& r = records[idx];
    out.member_record_ids.push_back(r.id);
    sources.insert(r.source_id);
    for (const auto& [field, value] : r.fields) {
      if (value.empty()) continue;
      contributors[field].push_back(&r);
    }
  }
  out.contributing_sources.assign(sources.begin(), sources.end());

  for (const auto& [field, recs] : contributors) {
    const std::string* best = nullptr;
    // Owns the winning value in the majority case, whose vote map dies
    // at the end of its case block (a pointer into it would dangle).
    std::string majority_value;
    switch (policy) {
      case MergePolicy::kSourcePriority: {
        const DedupRecord* winner = nullptr;
        for (const DedupRecord* r : recs) {
          if (winner == nullptr ||
              r->trust_priority > winner->trust_priority ||
              (r->trust_priority == winner->trust_priority &&
               r->ingest_seq > winner->ingest_seq)) {
            winner = r;
          }
        }
        best = &winner->fields.at(field);
        break;
      }
      case MergePolicy::kMajority: {
        std::map<std::string, std::pair<int, int>> votes;  // value -> (n, max_trust)
        for (const DedupRecord* r : recs) {
          auto& v = votes[r->fields.at(field)];
          ++v.first;
          v.second = std::max(v.second, r->trust_priority);
        }
        std::pair<int, int> best_vote{-1, -1};
        for (const auto& [value, vote] : votes) {
          if (vote > best_vote) {
            best_vote = vote;
            majority_value = value;
          }
        }
        if (best_vote.first >= 0) best = &majority_value;
        break;
      }
      case MergePolicy::kLongest: {
        for (const DedupRecord* r : recs) {
          const std::string& v = r->fields.at(field);
          if (best == nullptr || v.size() > best->size()) best = &v;
        }
        break;
      }
      case MergePolicy::kMostRecent: {
        const DedupRecord* winner = nullptr;
        for (const DedupRecord* r : recs) {
          if (winner == nullptr || r->ingest_seq > winner->ingest_seq) {
            winner = r;
          }
        }
        best = &winner->fields.at(field);
        break;
      }
    }
    if (best != nullptr) out.fields[field] = *best;
  }
  return out;
}

Status ScoreCandidatePairs(
    const std::vector<DedupRecord>& records,
    const std::vector<std::pair<size_t, size_t>>& candidates,
    const ConsolidationOptions& opts, ThreadPool* pool,
    std::vector<std::pair<size_t, size_t>>* matches) {
  if (opts.fs_scorer == nullptr && opts.classifier != nullptr &&
      opts.feature_dict == nullptr) {
    return Status::InvalidArgument(
        "consolidation with a classifier requires the feature dictionary "
        "it was trained with");
  }
  if (opts.fs_scorer != nullptr && !opts.fs_scorer->fitted()) {
    return Status::InvalidArgument(
        "consolidation with a Fellegi-Sunter scorer requires a fitted one");
  }
  const int num_threads = pool != nullptr ? pool->num_threads() : 1;

  if (opts.fs_scorer != nullptr) {
    // Decision-theoretic path: materialize the signals once, batch-
    // classify on the pool, keep the kMatch region. Both helpers are
    // index-aligned and thread-count-invariant.
    std::vector<PairSignals> signals;
    DT_RETURN_NOT_OK(
        ComputeAllPairSignals(records, candidates, pool, &signals));
    std::vector<LinkageDecision> decisions =
        opts.fs_scorer->DecideAll(signals, pool);
    for (size_t k = 0; k < candidates.size(); ++k) {
      if (signals[k].same_type == 0) continue;
      if (decisions[k] == LinkageDecision::kMatch) {
        matches->push_back(candidates[k]);
      }
    }
    return Status::OK();
  }

  // Compute signals and score candidates in contiguous chunks; each
  // chunk appends to its own slot and slots concatenate in chunk
  // order, so the match list (and therefore the clustering) is
  // identical to the serial run. Signals stream through each chunk —
  // never materialized for the whole candidate set. Inference-time
  // featurization and PredictProb are read-only on the
  // dictionary/model, so workers share them without locks.
  auto score_range = [&](size_t lo, size_t hi,
                         std::vector<std::pair<size_t, size_t>>* out) {
    for (size_t k = lo; k < hi; ++k) {
      const PairSignals s =
          ComputePairSignals(records[candidates[k].first],
                             records[candidates[k].second]);
      if (s.same_type == 0) continue;
      double score;
      if (opts.classifier != nullptr) {
        ml::FeatureVector fv = PairSignalsToFeatures(
            s, opts.feature_dict, /*add_features=*/false);
        score = opts.classifier->PredictProb(fv);
      } else {
        score = s.RuleScore();
      }
      if (score >= opts.match_threshold) out->push_back(candidates[k]);
    }
  };
  if (pool != nullptr) {
    const size_t num_chunks = static_cast<size_t>(num_threads) * 4;
    std::vector<std::vector<std::pair<size_t, size_t>>> chunk_matches(
        num_chunks);
    DT_RETURN_NOT_OK(pool->ParallelForChunks(
        0, candidates.size(), num_chunks,
        [&](size_t chunk, size_t lo, size_t hi) -> Status {
          score_range(lo, hi, &chunk_matches[chunk]);
          return Status::OK();
        }));
    for (const auto& cm : chunk_matches) {
      matches->insert(matches->end(), cm.begin(), cm.end());
    }
  } else {
    score_range(0, candidates.size(), matches);
  }
  return Status::OK();
}

Result<std::vector<CompositeEntity>> Consolidate(
    const std::vector<DedupRecord>& records, const ConsolidationOptions& opts,
    ConsolidationStats* stats, ThreadPool* pool) {
  BlockingStats bstats;
  auto candidates =
      GenerateCandidatePairs(records, opts.blocking, &bstats, pool);

  std::vector<std::pair<size_t, size_t>> matches;
  DT_RETURN_NOT_OK(
      ScoreCandidatePairs(records, candidates, opts, pool, &matches));

  auto groups = ClusterPairs(records.size(), matches);
  // Cluster merges are independent; group order (and with it
  // cluster_id assignment) comes from ClusterPairs, which is already
  // deterministic.
  std::vector<CompositeEntity> out(groups.size());
  int64_t merged_records = 0;
  auto merge_group = [&](size_t g) {
    out[g] = MergeCluster(records, groups[g], static_cast<int64_t>(g),
                          opts.merge_policy);
  };
  if (pool != nullptr) {
    DT_RETURN_NOT_OK(pool->ParallelFor(0, groups.size(),
                                       [&](size_t g) -> Status {
                                         merge_group(g);
                                         return Status::OK();
                                       }));
  } else {
    for (size_t g = 0; g < groups.size(); ++g) merge_group(g);
  }
  for (const auto& group : groups) {
    if (group.size() > 1) merged_records += static_cast<int64_t>(group.size());
  }
  if (stats != nullptr) {
    stats->blocking = bstats;
    stats->pairs_scored = static_cast<int64_t>(candidates.size());
    stats->pairs_matched = static_cast<int64_t>(matches.size());
    stats->clusters = static_cast<int64_t>(out.size());
    stats->merged_records = merged_records;
  }
  return out;
}

}  // namespace dt::dedup
