/// \file query.h
/// \brief Query operators over document collections and relational
/// tables — enough algebra for the paper's demo queries (top-k most
/// discussed, point lookups, projections, joins).

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "relational/table.h"
#include "storage/collection.h"

namespace dt::query {

/// \brief One group of a count aggregation.
struct CountRow {
  std::string key;
  int64_t count = 0;
};

/// \brief Group-by-count of the values at `path`: one row per distinct
/// index key (missing fields, nulls and non-indexable arrays/objects
/// are skipped), rendered through the key's string form. Results are
/// sorted by descending count, ties by key.
///
/// Documents are restricted to those matching `pred` (null = all),
/// routed through the planner: an indexable predicate drives an index
/// scan, and the unfiltered form over an indexed `path` is answered
/// straight off the index's key counts without touching any document.
std::vector<CountRow> CountByField(const storage::CollectionView& view,
                                   const std::string& path,
                                   const PredicatePtr& pred = nullptr,
                                   const FindOptions& opts = {});

/// \brief First `k` groups of CountByField — the Table IV "top 10 most
/// discussed" query shape. Selection keeps a bounded heap of at most
/// min(k, groups) rows instead of sorting every group; `k` <= 0 yields
/// no rows.
std::vector<CountRow> TopKByCount(const storage::CollectionView& view,
                                  const std::string& path, int64_t k,
                                  const PredicatePtr& pred = nullptr,
                                  const FindOptions& opts = {});

/// \brief Projection: keeps `attrs` in the given order. Unknown
/// attributes are an error.
Result<relational::Table> Project(const relational::Table& table,
                                  const std::vector<std::string>& attrs);

/// \brief Sorts by one attribute (stable); `descending` flips order.
Result<relational::Table> OrderBy(const relational::Table& table,
                                  const std::string& attr, bool descending);

/// \brief Keeps the first `n` rows.
relational::Table Limit(const relational::Table& table, int64_t n);

/// \brief Hash equi-join on string-rendered key equality. Output schema
/// is left's attributes followed by right's (right-side name clashes
/// get a "right_" prefix).
Result<relational::Table> HashJoin(const relational::Table& left,
                                   const std::string& left_attr,
                                   const relational::Table& right,
                                   const std::string& right_attr);

}  // namespace dt::query
