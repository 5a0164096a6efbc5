/// \file planner.h
/// \brief Cost-aware query planner for document collections — the
/// index-routed read path behind `Find` (execution lives in
/// executor.h's cursor operators).
///
/// Given a predicate tree, the planner picks the cheapest access path:
///
///   IXSCAN       Eq/Range predicates over a `SecondaryIndex` — single
///                field or a compound index prefix: an And's equality
///                children bind leading components, one range child
///                binds the next, and an `order_by` on the following
///                component rides the scan order (sort push-down).
///   TEXT         TextContains predicates via the postings of the
///                view's own `InvertedIndex` (smallest list first);
///                a view without one on the path plans COLLSCAN.
///   UNION        Or whose branches are all individually
///                index-routable (ascending-id streaming merge).
///   MERGE_UNION  Or under an `order_by` all of whose branches are
///                order-covering index scans: a k-way (order key,
///                id-asc) merge, so the ordered Or executes SORT-free
///                and a limit early-terminates the branch walks.
///   COLLSCAN     everything else: a full scan, chunked over
///                `FindOptions::pool` when it has more than one thread.
///
/// The access path is then decorated into an operator pipeline —
/// FILTER for residual re-checks, SORT / TOPK (fused sort+limit) when
/// no index covers the requested order, LIMIT — and executed as a
/// pull-based cursor tree, so an order-covering indexed `limit` query
/// early-terminates after ~limit index entries instead of scanning,
/// materializing and sorting everything. Whatever the path, the result
/// is exactly the documents the predicate matches, ordered by
/// `order_by` (ties ascending id; ascending id overall when unset) —
/// index execution and full scans agree by construction, a property
/// the differential fuzz harness asserts over randomized predicate
/// trees, orders and limits.
///
/// Every execution bumps the collection's `index_scans`/`coll_scans`
/// counters (surfaced in `db.<coll>.stats()`), and `ExplainFind`
/// renders the chosen operator tree without running it, e.g.
/// `IXSCAN(type,award_winning) { type == "Movie", award_winning ==
/// "true" } est=12 -> LIMIT(10)`.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "storage/collection.h"

namespace dt::query {

/// Execution knobs for `Find`.
struct FindOptions {
  /// Keep only the first `limit` results (in the requested order);
  /// -1 = unlimited. Honored inside execution: an order-covering index
  /// scan stops after ~limit entries.
  int64_t limit = -1;
  /// Order results by the index keys of the values at these dotted
  /// paths — one path, or several comma-separated ("type,name") for a
  /// lexicographic multi-field order (paths cannot contain ',', so the
  /// separator is unambiguous). Missing fields and non-indexable
  /// values sort as the null key, first ascending; ties across all
  /// paths break by ascending id. Empty = ascending id. An index whose
  /// components cover the paths in sequence (after any equality-bound
  /// prefix) serves the order scan-free.
  std::string order_by;
  /// Flips the `order_by` key comparison (ties stay ascending by id).
  bool order_desc = false;
  /// Planner escape hatch: false forces COLLSCAN (differential tests;
  /// measuring raw scan cost).
  bool use_indexes = true;
  /// Debug/testing knob (never serialized): true reproduces the
  /// pre-statistics planner — candidates cost with full O(hits) exact
  /// counts instead of the O(1) bounded-walk + histogram estimates,
  /// and the stats-driven filtered order-walk switch stays off. The
  /// plan-quality differential harness and the bench baselines compare
  /// against this.
  bool debug_exact_count_planning = false;
  /// \brief Page size for resumable execution: `FindPage` returns at
  /// most this many ids plus an opaque continuation token when more
  /// remain. -1 = unpaged (the whole result in one shot, no token);
  /// 0 and other negatives are invalid. Orthogonal to `limit`, which
  /// bounds the *total* across all pages.
  int64_t page_size = -1;
  /// \brief Opaque continuation token from a prior page's
  /// `FindResult::next_token`. Execution restarts strictly after the
  /// last id that page returned, against the *same immutable storage
  /// version* the token was minted on — stitched pages are
  /// byte-identical to the one-shot result even when writers mutate
  /// the collection between pages, because minting a token retains
  /// that version for resumption. Rejected with `kInvalidArgument`
  /// when malformed/tampered, when the token belongs to a different
  /// collection incarnation (e.g. a pre-restart lineage), when the
  /// version it pins has been reclaimed (the error message contains
  /// "stale"), or when the re-planned query fingerprint (predicate,
  /// index bounds, order, limit) differs.
  std::string resume_token;
  /// Borrowed worker pool for the full-scan fallback; null = serial.
  /// Results are identical for every pool size.
  ThreadPool* pool = nullptr;
  /// Out-param: reset and filled by `Find` with what the execution
  /// actually touched (push-down observability). May be null.
  ExecStats* stats = nullptr;
};

/// How a (sub)plan accesses the collection.
enum class AccessPath : uint8_t {
  kIndexEq = 0,    ///< secondary-index point lookup (equality bounds only)
  kIndexRange = 1, ///< secondary-index ordered range / prefix scan
  kTextIndex = 2,  ///< inverted-index postings intersection
  kUnion = 3,      ///< union of index-routable Or branches
  kCollScan = 4,   ///< full scan (parallel-chunked fallback)
  kMergeUnion = 5  ///< ordered k-way merge of order-covering Or branches
};

const char* AccessPathName(AccessPath access);

/// \brief The chosen execution strategy for one predicate (tree): an
/// access path plus its operator-pipeline decoration (residual filter,
/// order, limit).
struct QueryPlan {
  AccessPath access = AccessPath::kCollScan;
  /// Predicate this plan answers exactly.
  PredicatePtr node;
  /// kIndexEq/kIndexRange/kTextIndex: a representative driving leaf
  /// (the first equality child for compound scans; null for a pure
  /// order-driven scan).
  PredicatePtr driver;
  /// True when the driving scan over-approximates `node`: fetched
  /// documents are re-checked with `node->Matches` (FILTER operator).
  bool residual = false;
  /// Driver cardinality estimate from the index (COLLSCAN: doc count).
  int64_t estimated_rows = 0;
  /// True when `estimated_rows` (and every branch's) came from exact
  /// bounded counts; false when a histogram/sketch estimate was
  /// involved — rendered as `est=N (exact)` vs `est=~N (hist)`.
  bool est_exact = true;
  /// kUnion: one exact sub-plan per Or branch.
  std::vector<QueryPlan> branches;

  // ---- IXSCAN access detail ----

  /// Index driving a kIndexEq/kIndexRange scan. Borrowed from the
  /// collection: valid while the collection outlives the plan and the
  /// index is not dropped.
  const storage::SecondaryIndex* index = nullptr;
  /// Equality bounds on the index's leading components, in component
  /// order.
  std::vector<storage::DocValue> eq_values;
  /// Optional inclusive range bound on the next component.
  bool has_range = false;
  storage::DocValue range_lo, range_hi;

  // ---- Pipeline decoration (from FindOptions at plan time) ----

  std::string order_by;
  bool order_desc = false;
  int64_t limit = -1;
  /// True when the index scan already streams in the requested order
  /// (no SORT/TOPK operator; a limit becomes an early-terminating
  /// LIMIT over the scan).
  bool order_covered = false;

  /// Operator-tree rendering, e.g.
  ///   `IXSCAN(type,name) { type == "Movie" } est=12 -> LIMIT(10)`.
  /// Implemented as `RenderPlan(ToDocValue())`, so the human string and
  /// the structured wire form can never drift apart.
  std::string ToString() const;

  /// \brief Structured machine-readable form of the plan (what
  /// `Explain` ships to remote clients): access tag, predicates in
  /// `Predicate::ToDocValue` form, index bounds and the pipeline
  /// decoration, with `branches` recursing.
  storage::DocValue ToDocValue() const;
};

/// \brief Formats a `QueryPlan::ToDocValue` document back into the
/// exact `QueryPlan::ToString` rendering. Tolerant of malformed input
/// (missing/mistyped fields render as placeholders, never crash) so a
/// client can safely pretty-print whatever a server sent.
std::string RenderPlan(const storage::DocValue& plan);

/// \brief Chooses the cheapest access path for `pred` over the storage
/// version behind `view` (does not execute). A null `pred` plans as a
/// match-all COLLSCAN. The plan's `index` pointer borrows from that
/// version, so the plan is valid while `view` (or a copy) is alive.
QueryPlan PlanFind(const storage::CollectionView& view,
                   const PredicatePtr& pred, const FindOptions& opts = {});

/// \brief One page of a resumable `Find`: the ids plus the opaque
/// token that continues the stream (empty when exhausted or unpaged).
struct FindResult {
  std::vector<storage::DocId> ids;
  std::string next_token;
};

/// \brief Plans and executes one page: exactly the documents matching
/// `pred` in the requested order, `opts.page_size` at a time, resumed
/// strictly after `opts.resume_token`'s position. Execution runs
/// against `view`'s immutable storage version; when a continuation
/// token is minted that version is retained so the next page resumes
/// against the exact same data — stitching pages yields byte-identical
/// output to the one-shot call even under concurrent writers, and
/// resuming an order-covering indexed query examines O(page_size)
/// index entries — not O(consumed offset). A token whose version has
/// since been reclaimed (the collection retains a bounded window of
/// versions) is rejected with `kInvalidArgument` whose message
/// contains "stale". Every page bumps the collection's index-scan /
/// coll-scan counter once. Errors on invalid arguments (null
/// predicate, bad page size, rejected token) or a scan body failure
/// (thread-pool propagated).
Result<FindResult> FindPage(const storage::CollectionView& view,
                            const PredicatePtr& pred,
                            const FindOptions& opts = {});

/// \brief Plans and executes: returns the ids of exactly the documents
/// matching `pred` in the requested order (ascending id by default),
/// truncated to `limit` inside execution, and bumps the collection's
/// index-scan / coll-scan counter. Pagination options are honored
/// (one page's ids come back) but the continuation token is dropped —
/// use `FindPage` to paginate. Errors only on invalid arguments or a
/// scan body failure (thread-pool propagated).
Result<std::vector<storage::DocId>> Find(const storage::CollectionView& view,
                                         const PredicatePtr& pred,
                                         const FindOptions& opts = {});

/// \brief Streaming execution: invokes `fn` for every matching id in
/// the requested order without materializing the id vector — the
/// aggregation fold behind `CountByField`/`TopKByCount`. Pagination
/// options are ignored.
Status FindFold(const storage::CollectionView& view, const PredicatePtr& pred,
                const FindOptions& opts,
                const std::function<void(storage::DocId)>& fn);

/// The plan `Find` would run, rendered for humans (the shape of the
/// mongo shell's `explain()` next to the paper's `stats()` calls).
/// With a resume token set, appends where the resumed execution would
/// restart: `resume=<checkpoint json>` against the current version,
/// `resume=RETAINED <checkpoint json>` against a retained older
/// version, or why the token would be rejected (`resume=INVALID`,
/// `resume=STALE(...)`, `resume=PLAN_MISMATCH`).
std::string ExplainFind(const storage::CollectionView& view,
                        const PredicatePtr& pred,
                        const FindOptions& opts = {});

}  // namespace dt::query
