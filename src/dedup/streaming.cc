#include "dedup/streaming.h"

#include <algorithm>

namespace dt::dedup {

StreamingConsolidator::StreamingConsolidator(ConsolidationOptions opts)
    : opts_(std::move(opts)) {}

bool StreamingConsolidator::SharesLiveBlock(size_t a, size_t b) const {
  for (const std::string& key : keys_of_record_[a]) {
    auto it = blocks_.find(key);
    if (it == blocks_.end() || it->second.dead) continue;
    const std::vector<size_t>& m = it->second.members;
    if (std::binary_search(m.begin(), m.end(), b)) return true;
  }
  return false;
}

void StreamingConsolidator::MergeClusterPair(size_t a, size_t b) {
  size_t ra = uf_.Find(a), rb = uf_.Find(b);
  if (ra == rb) return;
  uf_.Union(ra, rb);
  size_t winner = uf_.Find(ra);
  size_t loser = winner == ra ? rb : ra;
  std::vector<size_t>& into = members_of_root_[winner];
  std::vector<size_t>& from = members_of_root_[loser];
  std::vector<size_t> merged;
  merged.reserve(into.size() + from.size());
  std::merge(into.begin(), into.end(), from.begin(), from.end(),
             std::back_inserter(merged));
  into = std::move(merged);
  members_of_root_.erase(loser);
}

void StreamingConsolidator::RebuildClusters() {
  const size_t n = records_.size();
  uf_ = UnionFind(n);
  for (uint64_t key : matches_) {
    uf_.Union(static_cast<size_t>(key >> 32),
              static_cast<size_t>(key & 0xffffffffu));
  }
  members_of_root_.clear();
  // Ascending corpus order keeps every member list sorted.
  for (size_t i = 0; i < n; ++i) members_of_root_[uf_.Find(i)].push_back(i);
  ++stats_.rebuilds;
}

Result<StreamingConsolidator::IngestDelta> StreamingConsolidator::Ingest(
    DedupRecord record, ThreadPool* pool) {
  const size_t n = records_.size();
  records_.push_back(std::move(record));
  keys_of_record_.push_back(BlockingKeys(records_.back(), opts_.blocking));
  uf_.Add();
  members_of_root_.emplace(n, std::vector<size_t>{n});

  IngestDelta delta;
  delta.record_index = n;

  // ---- Candidate generation + persistent block maintenance. ----
  std::vector<size_t> candidates;
  std::vector<std::vector<size_t>> retired;
  for (const std::string& key : keys_of_record_[n]) {
    auto [it, created] = blocks_.try_emplace(key);
    if (created) ++stats_.live_blocks;
    Block& block = it->second;
    if (block.dead) continue;
    if (static_cast<int>(block.members.size()) >=
        opts_.blocking.max_block_size) {
      // Adding this record would push the block past the cap. Batch
      // blocking skips such a block entirely, so from this corpus on
      // it supplies no candidates — retire it for good and queue its
      // members for match retraction below.
      block.dead = true;
      --stats_.live_blocks;
      ++stats_.retired_blocks;
      retired.push_back(std::move(block.members));
      block.members.clear();
      block.members.shrink_to_fit();
      continue;
    }
    candidates.insert(candidates.end(), block.members.begin(),
                      block.members.end());
    block.members.push_back(n);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // ---- Score only the candidate neighborhood. ----
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(candidates.size());
  for (size_t m : candidates) pairs.emplace_back(m, n);
  std::vector<std::pair<size_t, size_t>> new_matches;
  DT_RETURN_NOT_OK(ScoreCandidatePairs(records_, pairs, opts_, pool,
                                       &new_matches));
  ++stats_.records_ingested;
  stats_.pairs_scored += static_cast<int64_t>(pairs.size());
  stats_.candidates_generated += static_cast<int64_t>(candidates.size());
  stats_.max_candidates_per_record =
      std::max(stats_.max_candidates_per_record,
               static_cast<int64_t>(candidates.size()));
  delta.pairs_scored = static_cast<int64_t>(pairs.size());
  delta.pairs_matched = static_cast<int64_t>(new_matches.size());

  // ---- Retract matches orphaned by block retirement. ----
  // A matched pair stays matched only while some live block still
  // contains both endpoints (exactly the batch criterion). Only pairs
  // inside a dying block can lose that property.
  bool retracted_any = false;
  for (const std::vector<size_t>& members : retired) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        auto it = matches_.find(PairKey(members[i], members[j]));
        if (it == matches_.end()) continue;
        if (SharesLiveBlock(members[i], members[j])) continue;
        matches_.erase(it);
        ++stats_.retracted_matches;
        retracted_any = true;
      }
    }
  }

  if (retracted_any) {
    // Slow path: splits are possible, so rebuild connectivity from the
    // surviving matches and diff the whole cluster map. Rare — it
    // needs a block to cross max_block_size *and* orphan a match.
    std::unordered_map<size_t, std::vector<size_t>> before;
    before.reserve(members_of_root_.size());
    for (auto& [root, members] : members_of_root_) {
      // n's transient singleton is not pre-existing state: leaving it
      // out guarantees n's final cluster always diffs as changed, so
      // the delta upserts it even when n stays a singleton.
      if (members.front() == n) continue;
      before.emplace(members.front(), std::move(members));
    }
    for (const auto& [a, b] : new_matches) matches_.insert(PairKey(a, b));
    RebuildClusters();
    for (const auto& [root, members] : members_of_root_) {
      auto it = before.find(members.front());
      if (it == before.end() || it->second != members) {
        delta.upserted.push_back(members.front());
      }
    }
    for (const auto& [key, members] : before) {
      bool still = false;
      auto mit = members_of_root_.find(uf_.Find(key));
      if (mit != members_of_root_.end() && mit->second.front() == key) {
        still = true;
      }
      if (!still) delta.removed.push_back(key);
    }
  } else {
    // Fast path: every new match touches the fresh record n, so all
    // affected clusters collapse into the one containing n. Upserted =
    // that single cluster; removed = the pre-merge keys it absorbed.
    std::vector<size_t> before_keys;
    before_keys.push_back(n);  // the new singleton's key
    for (const auto& [a, b] : new_matches) {
      matches_.insert(PairKey(a, b));
      before_keys.push_back(members_of_root_.at(uf_.Find(a)).front());
      MergeClusterPair(a, b);
    }
    std::sort(before_keys.begin(), before_keys.end());
    before_keys.erase(std::unique(before_keys.begin(), before_keys.end()),
                      before_keys.end());
    const size_t final_key = members_of_root_.at(uf_.Find(n)).front();
    delta.upserted.push_back(final_key);
    for (size_t key : before_keys) {
      if (key != final_key) delta.removed.push_back(key);
    }
  }
  std::sort(delta.upserted.begin(), delta.upserted.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  stats_.pairs_matched = static_cast<int64_t>(matches_.size());
  return delta;
}

Result<std::vector<std::pair<size_t, size_t>>>
StreamingConsolidator::LiveBlockPairs(ThreadPool* pool) const {
  std::vector<const std::vector<size_t>*> live;
  live.reserve(blocks_.size());
  for (const auto& [key, block] : blocks_) {
    if (!block.dead) live.push_back(&block.members);
  }
  // Member lists are ascending, so every pair comes out (i < j). Each
  // chunk sorts its own share; the merge below restores one global
  // order, independent of the chunk count.
  const size_t num_chunks =
      pool != nullptr ? static_cast<size_t>(pool->num_threads()) : 1;
  std::vector<std::vector<std::pair<size_t, size_t>>> parts(num_chunks);
  auto expand = [&](size_t chunk, size_t lo, size_t hi) -> Status {
    std::vector<std::pair<size_t, size_t>>& out = parts[chunk];
    for (size_t b = lo; b < hi; ++b) {
      const std::vector<size_t>& m = *live[b];
      for (size_t i = 0; i < m.size(); ++i) {
        for (size_t j = i + 1; j < m.size(); ++j) out.emplace_back(m[i], m[j]);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return Status::OK();
  };
  if (num_chunks > 1) {
    DT_RETURN_NOT_OK(
        pool->ParallelForChunks(0, live.size(), num_chunks, expand));
  } else {
    DT_RETURN_NOT_OK(expand(0, 0, live.size()));
  }
  std::vector<std::pair<size_t, size_t>> pairs = std::move(parts[0]);
  for (size_t c = 1; c < num_chunks; ++c) {
    pairs.insert(pairs.end(), parts[c].begin(), parts[c].end());
  }
  if (num_chunks > 1) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  }
  return pairs;
}

Status StreamingConsolidator::Seed(std::vector<DedupRecord> records,
                                   ThreadPool* pool) {
  if (!records_.empty()) {
    return Status::InvalidArgument("Seed requires an empty consolidator");
  }
  records_ = std::move(records);
  const size_t n = records_.size();
  keys_of_record_.assign(n, {});
  if (pool != nullptr) {
    DT_RETURN_NOT_OK(pool->ParallelFor(0, n, [&](size_t i) -> Status {
      keys_of_record_[i] = BlockingKeys(records_[i], opts_.blocking);
      return Status::OK();
    }));
  } else {
    for (size_t i = 0; i < n; ++i) {
      keys_of_record_[i] = BlockingKeys(records_[i], opts_.blocking);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& key : keys_of_record_[i]) {
      blocks_[key].members.push_back(i);
    }
  }
  for (auto& [key, block] : blocks_) {
    if (static_cast<int>(block.members.size()) >
        opts_.blocking.max_block_size) {
      block.dead = true;
      block.members.clear();
      block.members.shrink_to_fit();
      ++stats_.retired_blocks;
    } else {
      ++stats_.live_blocks;
    }
  }

  // Candidates from the live blocks just built (the batch candidate
  // set: dead blocks are exactly the ones batch blocking skips), then
  // scoring through the exact batch path.
  DT_ASSIGN_OR_RETURN(auto candidates, LiveBlockPairs(pool));
  std::vector<std::pair<size_t, size_t>> matched;
  DT_RETURN_NOT_OK(
      ScoreCandidatePairs(records_, candidates, opts_, pool, &matched));
  uf_ = UnionFind(n);
  matches_.reserve(matched.size());
  for (const auto& [a, b] : matched) {
    matches_.insert(PairKey(a, b));
    uf_.Union(a, b);
  }
  members_of_root_.clear();
  for (size_t i = 0; i < n; ++i) members_of_root_[uf_.Find(i)].push_back(i);
  stats_.records_ingested = static_cast<int64_t>(n);
  stats_.pairs_scored = static_cast<int64_t>(candidates.size());
  stats_.candidates_generated = static_cast<int64_t>(candidates.size());
  stats_.pairs_matched = static_cast<int64_t>(matches_.size());
  return Status::OK();
}

Result<std::vector<CompositeEntity>> StreamingConsolidator::Entities(
    ThreadPool* pool) const {
  std::vector<const std::vector<size_t>*> groups;
  groups.reserve(members_of_root_.size());
  for (const auto& [root, members] : members_of_root_) {
    groups.push_back(&members);
  }
  // Batch `ClusterPairs` orders groups by smallest member and assigns
  // dense cluster ids in that order; reproduce it exactly.
  std::sort(groups.begin(), groups.end(),
            [](const std::vector<size_t>* a, const std::vector<size_t>* b) {
              return a->front() < b->front();
            });
  std::vector<CompositeEntity> out(groups.size());
  auto merge_group = [&](size_t g) {
    out[g] = MergeCluster(records_, *groups[g], static_cast<int64_t>(g),
                          opts_.merge_policy);
  };
  if (pool != nullptr) {
    DT_RETURN_NOT_OK(
        pool->ParallelFor(0, groups.size(), [&](size_t g) -> Status {
          merge_group(g);
          return Status::OK();
        }));
  } else {
    for (size_t g = 0; g < groups.size(); ++g) merge_group(g);
  }
  return out;
}

CompositeEntity StreamingConsolidator::EntityOf(size_t cluster_key) const {
  if (cluster_key >= records_.size()) return {};
  auto it = members_of_root_.find(uf_.Find(cluster_key));
  if (it == members_of_root_.end() || it->second.front() != cluster_key) {
    return {};
  }
  return MergeCluster(records_, it->second,
                      static_cast<int64_t>(cluster_key), opts_.merge_policy);
}

std::vector<size_t> StreamingConsolidator::ClusterMembers(
    size_t cluster_key) const {
  if (cluster_key >= records_.size()) return {};
  auto it = members_of_root_.find(uf_.Find(cluster_key));
  if (it == members_of_root_.end() || it->second.front() != cluster_key) {
    return {};
  }
  return it->second;
}

std::vector<size_t> StreamingConsolidator::ClusterKeys() const {
  std::vector<size_t> keys;
  keys.reserve(members_of_root_.size());
  for (const auto& [root, members] : members_of_root_) {
    keys.push_back(members.front());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace dt::dedup
