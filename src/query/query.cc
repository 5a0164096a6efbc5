#include "query/query.h"

#include <algorithm>
#include <unordered_map>

#include "common/thread_pool.h"

namespace dt::query {

using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;
using storage::DocValue;
using storage::IndexKey;

namespace {

/// Group-key rendering shared by every counting path: the index key's
/// string form. Null keys (missing fields, explicit nulls and
/// non-indexable arrays/objects) are not countable — the same rule the
/// index-only aggregation applies, so scan and index counting agree.
bool CountKeyOf(const DocValue* v, std::string* key) {
  if (v == nullptr) return false;
  IndexKey k = IndexKey::FromValue(*v);
  if (k.is_null()) return false;
  *key = k.ToString();
  return true;
}

/// Descending count, ties broken by ascending key.
bool BetterRow(const CountRow& a, const CountRow& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

using GroupCounts = std::unordered_map<std::string, int64_t>;

/// Streams an index's per-key counts straight into rows — the visit
/// itself is already the whole aggregation for an unfiltered count, so
/// no hash-map intermediate and no second pass over the entries. The
/// reservation comes from the index's distinct-count sketch. Distinct
/// index keys can render to the same string (Str("true") vs
/// Bool(true)), so rows merge adjacent-after-sort before returning.
std::vector<CountRow> IndexGroupRows(const storage::CollectionView& view,
                                     const storage::SecondaryIndex& idx) {
  std::vector<CountRow> rows;
  rows.reserve(static_cast<size_t>(idx.stats().EstimateDistinct(0)));
  idx.VisitKeyCounts([&](const IndexKey& k, int64_t n) {
    if (!k.is_null()) rows.push_back({k.ToString(), n});
  });
  std::sort(rows.begin(), rows.end(),
            [](const CountRow& a, const CountRow& b) { return a.key < b.key; });
  size_t w = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (w > 0 && rows[w - 1].key == rows[r].key) {
      rows[w - 1].count += rows[r].count;
    } else {
      if (w != r) rows[w] = std::move(rows[r]);
      ++w;
    }
  }
  rows.resize(w);
  view.NoteIndexScan();
  return rows;
}

/// The unfiltered-over-an-indexed-path fast path both aggregations
/// share: non-null when the index's key counts are the whole answer.
const storage::SecondaryIndex* AggIndex(const storage::CollectionView& view,
                                        const std::string& path,
                                        const PredicatePtr& pred,
                                        const FindOptions& opts) {
  if (pred != nullptr || !opts.use_indexes) return nullptr;
  return view.IndexOn(path);
}

/// Group counts of `path` over the documents matching `pred` (null =
/// all). The unfiltered indexed form goes through `IndexGroupRows`
/// instead (the callers dispatch), so this always scans or folds.
/// Every document read to take its group key counts into
/// `opts.stats->docs_examined`.
GroupCounts CountGroups(const storage::CollectionView& view,
                        const std::string& path, const PredicatePtr& pred,
                        const FindOptions& opts) {
  GroupCounts counts;
  int64_t fetched = 0;
  if (pred == nullptr) {
    view.ForEach([&](storage::DocId, const DocValue& doc) {
      ++fetched;
      std::string key;
      if (CountKeyOf(doc.FindPath(path), &key)) ++counts[key];
    });
    view.NoteCollScan();
    if (opts.stats != nullptr) opts.stats->docs_examined += fetched;
    return counts;
  }
  // Counting needs every matching document: a leftover limit, order or
  // page decoration from a reused FindOptions must not truncate the
  // group counts (or pay for an ordering the hash aggregation
  // ignores). The fold streams ids straight off the cursor tree — no
  // intermediate id vector however large the match set.
  FindOptions find_opts = opts;
  find_opts.limit = -1;
  find_opts.order_by.clear();
  find_opts.page_size = -1;
  find_opts.resume_token.clear();
  Status st = FindFold(view, pred, find_opts, [&](storage::DocId id) {
    const DocValue* doc = view.Get(id);
    if (doc == nullptr) return;
    ++fetched;
    std::string key;
    if (CountKeyOf(doc->FindPath(path), &key)) ++counts[key];
  });
  RethrowIfError(st);  // scan bodies cannot fail short of OOM
  // FindFold reset the stats and counted what its own cursors read;
  // the group-key fetches above come on top.
  if (opts.stats != nullptr) opts.stats->docs_examined += fetched;
  return counts;
}

std::vector<CountRow> SortAllGroups(const GroupCounts& counts) {
  std::vector<CountRow> out;
  out.reserve(counts.size());
  for (const auto& [key, count] : counts) out.push_back({key, count});
  std::sort(out.begin(), out.end(), BetterRow);
  return out;
}

/// Bounded selection — the same k-element-heap machinery as the
/// executor's TopKCursor, applied to group counts instead of sort
/// keys: O(groups * log k) instead of sorting every group.
std::vector<CountRow> TopKGroups(const GroupCounts& counts, int64_t k) {
  BoundedTopK<CountRow, bool (*)(const CountRow&, const CountRow&)> top(
      k, BetterRow);
  for (const auto& [key, count] : counts) top.Offer({key, count});
  return top.TakeSorted();
}

}  // namespace

std::vector<CountRow> CountByField(const storage::CollectionView& view,
                                   const std::string& path,
                                   const PredicatePtr& pred,
                                   const FindOptions& opts) {
  // Every read below — index key counts, full scans, the filtered fold
  // and its document fetches — touches the view's one immutable
  // storage version, so the counts are consistent even with writers
  // publishing new versions mid-aggregation.
  if (const storage::SecondaryIndex* idx = AggIndex(view, path, pred, opts)) {
    std::vector<CountRow> rows = IndexGroupRows(view, *idx);
    std::sort(rows.begin(), rows.end(), BetterRow);
    return rows;
  }
  return SortAllGroups(CountGroups(view, path, pred, opts));
}

std::vector<CountRow> TopKByCount(const storage::CollectionView& view,
                                  const std::string& path, int64_t k,
                                  const PredicatePtr& pred,
                                  const FindOptions& opts) {
  if (const storage::SecondaryIndex* idx = AggIndex(view, path, pred, opts)) {
    BoundedTopK<CountRow, bool (*)(const CountRow&, const CountRow&)> top(
        k, BetterRow);
    for (CountRow& row : IndexGroupRows(view, *idx)) top.Offer(std::move(row));
    return top.TakeSorted();
  }
  return TopKGroups(CountGroups(view, path, pred, opts), k);
}

Result<Table> Project(const Table& table,
                      const std::vector<std::string>& attrs) {
  Schema schema;
  std::vector<int> indexes;
  for (const auto& name : attrs) {
    auto idx = table.schema().IndexOf(name);
    if (!idx.has_value()) {
      return Status::NotFound("attribute " + name + " not in table " +
                              table.name());
    }
    indexes.push_back(*idx);
    DT_RETURN_NOT_OK(schema.AddAttribute(table.schema().attribute(*idx)));
  }
  Table out(table.name() + "_proj", schema);
  out.set_source_id(table.source_id());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    Row row;
    row.reserve(indexes.size());
    for (int idx : indexes) row.push_back(table.row(r)[idx]);
    DT_RETURN_NOT_OK(out.Append(std::move(row)));
  }
  return out;
}

Result<Table> OrderBy(const Table& table, const std::string& attr,
                      bool descending) {
  auto idx = table.schema().IndexOf(attr);
  if (!idx.has_value()) {
    return Status::NotFound("attribute " + attr + " not in table " +
                            table.name());
  }
  std::vector<int64_t> order(table.num_rows());
  for (int64_t i = 0; i < table.num_rows(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    int cmp = table.row(a)[*idx].Compare(table.row(b)[*idx]);
    return descending ? cmp > 0 : cmp < 0;
  });
  Table out(table.name() + "_sorted", table.schema());
  out.set_source_id(table.source_id());
  for (int64_t i : order) {
    DT_RETURN_NOT_OK(out.Append(table.row(i)));
  }
  return out;
}

Table Limit(const Table& table, int64_t n) {
  Table out(table.name() + "_limit", table.schema());
  out.set_source_id(table.source_id());
  for (int64_t r = 0; r < std::min(n, table.num_rows()); ++r) {
    (void)out.Append(table.row(r));
  }
  return out;
}

Result<Table> HashJoin(const Table& left, const std::string& left_attr,
                       const Table& right, const std::string& right_attr) {
  auto li = left.schema().IndexOf(left_attr);
  auto ri = right.schema().IndexOf(right_attr);
  if (!li.has_value()) {
    return Status::NotFound("attribute " + left_attr + " not in " +
                            left.name());
  }
  if (!ri.has_value()) {
    return Status::NotFound("attribute " + right_attr + " not in " +
                            right.name());
  }
  Schema schema;
  for (const auto& a : left.schema().attributes()) {
    DT_RETURN_NOT_OK(schema.AddAttribute(a));
  }
  for (const auto& a : right.schema().attributes()) {
    relational::Attribute attr = a;
    if (schema.Contains(attr.name)) attr.name = "right_" + attr.name;
    DT_RETURN_NOT_OK(schema.AddAttribute(attr));
  }
  // Build on the smaller side conceptually; keep it simple and build on
  // right.
  std::unordered_map<std::string, std::vector<int64_t>> index;
  for (int64_t r = 0; r < right.num_rows(); ++r) {
    const Value& v = right.row(r)[*ri];
    if (v.is_null()) continue;
    index[v.ToString()].push_back(r);
  }
  Table out(left.name() + "_join_" + right.name(), schema);
  for (int64_t l = 0; l < left.num_rows(); ++l) {
    const Value& v = left.row(l)[*li];
    if (v.is_null()) continue;
    auto it = index.find(v.ToString());
    if (it == index.end()) continue;
    for (int64_t r : it->second) {
      Row row = left.row(l);
      for (const auto& cell : right.row(r)) row.push_back(cell);
      DT_RETURN_NOT_OK(out.Append(std::move(row)));
    }
  }
  return out;
}

}  // namespace dt::query
