/// \file text_search.h
/// \brief Keyword search over text fragments (how the §V user "queries
/// the WEBINSTANCE dataset" before knowing any entity names).
///
/// A classic in-memory inverted index: lower-cased word tokens map to
/// postings with term frequencies; queries are conjunctive keyword
/// sets ranked by TF-IDF with length normalization.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/collection.h"

namespace dt::query {

/// \brief One search hit.
struct SearchHit {
  storage::DocId doc_id = 0;
  double score = 0;
};

/// \brief TF-IDF ranked inverted index over one string field of a
/// document collection.
class InvertedIndex {
 public:
  /// \param field_path the dotted path holding the indexed text
  ///        ("text" for dt.instance).
  explicit InvertedIndex(std::string field_path = "text")
      : field_path_(std::move(field_path)) {}

  /// Indexes (or re-indexes) one document's text. Postings stay
  /// sorted by doc id for any id order (appends take the O(1) tail
  /// path; out-of-order ids — entity upserts under streaming ingest —
  /// insert in position).
  void Add(storage::DocId id, std::string_view text);

  /// Removes one document's contribution, given the exact text it was
  /// added with (the entity-side append-delta path keeps the old text
  /// at hand when upserting). Unknown id/text pairs are a no-op.
  void Remove(storage::DocId id, std::string_view text);

  /// Builds the index over every document of `view` (documents lacking
  /// the field are skipped). Returns the number of documents indexed.
  int64_t Build(const storage::CollectionView& view);

  /// \brief Conjunctive keyword search: documents containing *all*
  /// query tokens, ranked by summed TF-IDF / sqrt(doc length), top `k`.
  std::vector<SearchHit> Search(std::string_view keywords, int k = 10) const;

  /// Documents containing the token (unranked, ascending id).
  std::vector<storage::DocId> Postings(std::string_view token) const;

  /// Number of documents containing the token (0 for unknown tokens).
  /// The planner's selectivity estimate for TextContains predicates.
  int64_t DocFrequency(std::string_view token) const;

  const std::string& field_path() const { return field_path_; }
  int64_t num_documents() const { return num_docs_; }
  int64_t num_terms() const { return static_cast<int64_t>(postings_.size()); }

 private:
  struct Posting {
    storage::DocId doc_id;
    int32_t term_frequency;
  };

  std::string field_path_;
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  std::unordered_map<storage::DocId, int32_t> doc_length_;
  int64_t num_docs_ = 0;
};

}  // namespace dt::query
