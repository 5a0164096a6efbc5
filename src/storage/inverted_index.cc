#include "storage/inverted_index.h"

#include <algorithm>
#include <cmath>

#include "common/strutil.h"
#include "storage/collection.h"

namespace dt::storage {

void InvertedIndex::Add(DocId id, std::string_view text) {
  std::vector<std::string> tokens = WordTokens(text);
  if (doc_length_.count(id) == 0) {
    ++num_docs_;
  }
  doc_length_[id] += static_cast<int32_t>(tokens.size());
  std::unordered_map<std::string, int32_t> tf;
  for (const auto& t : tokens) ++tf[t];
  for (const auto& [term, freq] : tf) {
    auto& plist = postings_[term];
    // The common case is append in ingest order (monotonic ids), which
    // the back-check keeps O(1); out-of-order ids (an updated older
    // doc) insert in position so postings stay sorted. Re-adding the
    // same doc merges frequencies.
    if (!plist.empty() && plist.back().doc_id < id) {
      plist.push_back({id, freq});
      continue;
    }
    auto it = std::lower_bound(
        plist.begin(), plist.end(), id,
        [](const Posting& p, DocId want) { return p.doc_id < want; });
    if (it != plist.end() && it->doc_id == id) {
      it->term_frequency += freq;
    } else {
      plist.insert(it, {id, freq});
    }
  }
}

void InvertedIndex::Remove(DocId id, std::string_view text) {
  std::vector<std::string> tokens = WordTokens(text);
  auto len_it = doc_length_.find(id);
  if (len_it == doc_length_.end()) return;
  std::unordered_map<std::string, int32_t> tf;
  for (const auto& t : tokens) ++tf[t];
  for (const auto& [term, freq] : tf) {
    auto pit = postings_.find(term);
    if (pit == postings_.end()) continue;
    auto& plist = pit->second;
    auto it = std::lower_bound(
        plist.begin(), plist.end(), id,
        [](const Posting& p, DocId want) { return p.doc_id < want; });
    if (it == plist.end() || it->doc_id != id) continue;
    it->term_frequency -= freq;
    if (it->term_frequency <= 0) plist.erase(it);
    if (plist.empty()) postings_.erase(pit);
  }
  len_it->second -= static_cast<int32_t>(tokens.size());
  if (len_it->second <= 0) {
    doc_length_.erase(len_it);
    --num_docs_;
  }
}

bool InvertedIndex::AddDoc(DocId id, const DocValue& doc) {
  const DocValue* field = doc.FindPath(field_path_);
  if (field == nullptr || !field->is_string()) return false;
  Add(id, field->string_value());
  return true;
}

void InvertedIndex::RemoveDoc(DocId id, const DocValue& doc) {
  const DocValue* field = doc.FindPath(field_path_);
  if (field != nullptr && field->is_string()) {
    Remove(id, field->string_value());
  }
}

int64_t InvertedIndex::Build(const CollectionView& view) {
  int64_t indexed = 0;
  view.ForEach([&](DocId id, const DocValue& doc) {
    if (AddDoc(id, doc)) ++indexed;
  });
  return indexed;
}

int64_t InvertedIndex::DocFrequency(std::string_view token) const {
  auto it = postings_.find(ToLower(token));
  return it == postings_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

std::vector<DocId> InvertedIndex::Postings(
    std::string_view token) const {
  std::vector<DocId> out;
  auto it = postings_.find(ToLower(token));
  if (it == postings_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& p : it->second) out.push_back(p.doc_id);
  return out;
}

std::vector<SearchHit> InvertedIndex::Search(std::string_view keywords,
                                             int k) const {
  std::vector<std::string> terms = WordTokens(keywords);
  if (terms.empty() || num_docs_ == 0) return {};
  // Dedup query terms.
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  // Conjunctive: start from the rarest term's postings and intersect.
  std::vector<const std::vector<Posting>*> lists;
  for (const auto& term : terms) {
    auto it = postings_.find(term);
    if (it == postings_.end()) return {};  // some term matches nothing
    lists.push_back(&it->second);
  }
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<Posting>* a, const std::vector<Posting>* b) {
              return a->size() < b->size();
            });

  std::unordered_map<DocId, double> scores;
  for (const auto& p : *lists[0]) scores.emplace(p.doc_id, 0.0);
  for (const auto* plist : lists) {
    double idf = std::log(
        (num_docs_ + 1.0) / (static_cast<double>(plist->size()) + 1.0)) + 1.0;
    std::unordered_map<DocId, double> next;
    for (const auto& p : *plist) {
      auto it = scores.find(p.doc_id);
      if (it == scores.end()) continue;
      next.emplace(p.doc_id, it->second + p.term_frequency * idf);
    }
    scores.swap(next);
    if (scores.empty()) return {};
  }

  std::vector<SearchHit> hits;
  hits.reserve(scores.size());
  for (const auto& [id, score] : scores) {
    double len = std::max<int32_t>(doc_length_.at(id), 1);
    hits.push_back({id, score / std::sqrt(len)});
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a,
                                         const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (static_cast<int>(hits.size()) > k) hits.resize(k);
  return hits;
}

}  // namespace dt::storage
