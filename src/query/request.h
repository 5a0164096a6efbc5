/// \file request.h
/// \brief The unified serializable query surface: the one
/// request/response pair the facade's read entry point
/// (`DataTamer::Execute`: find, page, explain, count, top-k,
/// top-discussed) takes and returns.
///
/// `QueryRequest`/`QueryResponse` encode to/from `DocValue`, so the
/// wire protocol (src/server/) ships exactly what the in-process API
/// accepts: a request captured off the wire replays byte-identically
/// through `DataTamer::Execute`. Only the *serializable* execution
/// knobs ride here — process-local `FindOptions` members (the borrowed
/// thread pool, the stats out-param) are resolved by the executing
/// facade, never marshalled; what the execution touched comes back as
/// `QueryResponse::stats`.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dedup/record.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/query.h"
#include "storage/docvalue.h"

namespace dt::query {

/// Which query operation a request invokes.
enum class QueryOp : uint8_t {
  kFind = 0,          ///< matching ids (one-shot; pagination token dropped)
  kFindPage = 1,      ///< one resumable page: ids + continuation token
  kExplain = 2,       ///< render the plan without executing
  kCount = 3,         ///< group-by-count of `group_path` values
  kTopK = 4,          ///< first `k` groups by descending count
  kTopDiscussed = 5,  ///< the Table IV demo query over dt.entity
  kIngest = 6,        ///< streaming consolidation: ingest dedup records
};

/// Stable wire name of an op ("find", "find_page", ...).
const char* QueryOpName(QueryOp op);

/// Inverse of `QueryOpName`; kInvalidArgument on an unknown name.
Result<QueryOp> QueryOpFromName(const std::string& name);

/// \brief One serializable query: the op, its target collection, the
/// predicate tree and the execution knobs that travel over the wire.
///
/// Field relevance by op: `collection`+`predicate`+ordering/limit/
/// paging fields drive kFind/kFindPage/kExplain; `group_path` (+`k`)
/// drive kCount/kTopK; `entity_type`/`k`/`award_winning_only` drive
/// kTopDiscussed (which always targets the entity collection).
/// Irrelevant fields are ignored by `DataTamer::Execute`.
struct QueryRequest {
  QueryOp op = QueryOp::kFind;
  /// Store collection name ("instance", "entity", ...).
  std::string collection;
  /// Filter; null = match all (rejected for ops that require one
  /// exactly where the underlying entry point rejects it).
  PredicatePtr predicate;

  // ---- serializable FindOptions subset ----
  int64_t limit = -1;
  std::string order_by;
  bool order_desc = false;
  int64_t page_size = -1;
  /// Opaque continuation token from a prior kFindPage response.
  std::string resume_token;
  bool use_indexes = true;
  /// Scan parallelism request, bounded by the executing facade's
  /// thread budget: 1 scans serially, 0 or any count up to the budget
  /// scans on the facade's one pool, and a count outside [0, budget]
  /// is kInvalidArgument.
  int64_t num_threads = 1;

  // ---- aggregation ops ----
  /// Dotted path grouped by kCount/kTopK.
  std::string group_path;
  /// Result bound for kTopK/kTopDiscussed (negative is
  /// kInvalidArgument).
  int64_t k = 10;
  /// kTopDiscussed: entity type filter and the award restriction.
  std::string entity_type;
  bool award_winning_only = false;

  // ---- streaming ingest (kIngest) ----
  /// Records to absorb into the streaming consolidator. Executed only
  /// by `DataTamer::ExecuteMutable` (the const `Execute` rejects the
  /// op — reads never mutate).
  std::vector<dedup::DedupRecord> ingest_records;

  /// Canonical object encoding: every field, fixed order, so
  /// encode -> decode -> encode is byte-identical under the codec.
  storage::DocValue ToDocValue() const;

  /// Strict decode: kInvalidArgument on a non-object, an unknown op,
  /// or any mistyped field. Absent fields keep their defaults and
  /// unknown fields are ignored (forward compatibility).
  static Result<QueryRequest> FromDocValue(const storage::DocValue& v);
};

/// \brief The serializable result of `DataTamer::Execute`. Which
/// members are populated follows the op: `ids`(+`next_token`) for
/// kFind/kFindPage, `groups` for the aggregations, `explain`+`plan`
/// for kExplain. `stats` always reports what the execution touched
/// (kExplain, which plans without executing, reports only the
/// planning-side fields: `planning_ns`, `plan_entries_counted` and the
/// estimate provenance).
struct QueryResponse {
  std::vector<storage::DocId> ids;
  /// kFindPage: opaque continuation token, empty when exhausted.
  std::string next_token;
  /// kCount/kTopK/kTopDiscussed group rows.
  std::vector<CountRow> groups;
  /// kExplain: the human rendering (`RenderPlan` of `plan`, plus the
  /// resume decoration when a token was supplied).
  std::string explain;
  /// kExplain: the machine-readable plan (`QueryPlan::ToDocValue`);
  /// null for every other op.
  storage::DocValue plan;
  ExecStats stats;
  /// kIngest: records absorbed and the fused-entity docs the ingest
  /// upserted/removed through the normal mutation path.
  int64_t ingested = 0;
  int64_t ingest_clusters_upserted = 0;
  int64_t ingest_clusters_removed = 0;

  /// Canonical object encoding (fixed field order, see QueryRequest).
  storage::DocValue ToDocValue() const;

  /// Strict decode; kInvalidArgument on shape errors.
  static Result<QueryResponse> FromDocValue(const storage::DocValue& v);
};

}  // namespace dt::query
