/// \file inverted_index.h
/// \brief Keyword search over text fragments (how the §V user "queries
/// the WEBINSTANCE dataset" before knowing any entity names).
///
/// A classic in-memory inverted index: lower-cased word tokens map to
/// postings with term frequencies; queries are conjunctive keyword
/// sets ranked by TF-IDF with length normalization.
///
/// A collection carries at most one, as a copy-on-write granule of its
/// storage version (see `Collection::GetViewWithTextIndex`): built the
/// first time a text read asks for it, maintained by every write after
/// that, and read through `CollectionView::TextIndexOn`. It is derived
/// state only: no epoch bump, no WAL record, no snapshot field.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/docvalue.h"
#include "storage/index_key.h"

namespace dt::storage {

class CollectionView;

/// \brief One search hit.
struct SearchHit {
  DocId doc_id = 0;
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
  /// path; out-of-order ids — an `Update` re-adding an older doc —
  /// insert in position).
  void Add(DocId id, std::string_view text);

  /// Removes one document's contribution, given the exact text it was
  /// added with (writes hand over the document they replace or
  /// remove). Unknown id/text pairs are a no-op.
  void Remove(DocId id, std::string_view text);

  /// `Add`/`Remove` of the string at `field_path()` in `doc`; a doc
  /// lacking it (or holding a non-string) is skipped. AddDoc returns
  /// whether it indexed anything.
  bool AddDoc(DocId id, const DocValue& doc);
  void RemoveDoc(DocId id, const DocValue& doc);

  /// Builds the index over every document of `view` (documents lacking
  /// the field are skipped). Returns the number of documents indexed.
  int64_t Build(const CollectionView& view);

  /// \brief Conjunctive keyword search: documents containing *all*
  /// query tokens, ranked by summed TF-IDF / sqrt(doc length), top `k`.
  std::vector<SearchHit> Search(std::string_view keywords, int k = 10) const;

  /// Documents containing the token (unranked, ascending id).
  std::vector<DocId> Postings(std::string_view token) const;

  /// Number of documents containing the token (0 for unknown tokens).
  /// The planner's selectivity estimate for TextContains predicates.
  int64_t DocFrequency(std::string_view token) const;

  const std::string& field_path() const { return field_path_; }
  int64_t num_documents() const { return num_docs_; }
  int64_t num_terms() const { return static_cast<int64_t>(postings_.size()); }

 private:
  struct Posting {
    DocId doc_id;
    int32_t term_frequency;
  };

  std::string field_path_;
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  std::unordered_map<DocId, int32_t> doc_length_;
  int64_t num_docs_ = 0;
};

}  // namespace dt::storage
