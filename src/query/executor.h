/// \file executor.h
/// \brief Pull-based operator cursors — the execution half of the query
/// layer (the planner chooses the tree, these run it).
///
/// A plan executes as a tree of `Cursor`s, each pulling document ids
/// from its child on demand:
///
///   IxScanCursor       ordered (key, id) stream off a `SecondaryIndex`
///                      scan, run-buffered so ties come back in
///                      ascending id order.
///   CollScanCursor     full collection scan with the predicate applied
///                      inline (serial pull; the parallel form
///                      materializes once on the thread pool and
///                      replays).
///   FilterCursor       residual predicate re-check on fetched docs.
///   UnionCursor        deduplicated ascending-id streaming merge of
///                      branch cursors.
///   MergeUnionCursor   ordered k-way merge of order-covering index
///                      branches: (order key, id-asc) heap order, so an
///                      `Or` + `order_by` executes SORT-free.
///   SortCursor         materialize + sort by (order key, id).
///   LimitCursor        stop pulling after k ids.
///   TopKCursor         fused sort+limit: bounded k-element heap
///                      instead of sorting everything.
///
/// Pull composition is what makes sort/limit push-down work: a
/// `LimitCursor` over an order-covering `IxScanCursor` stops the index
/// walk after ~limit entries instead of scanning, materializing and
/// sorting the whole result set. `ExecStats` counts what an execution
/// actually touched, which the push-down tests assert on.
///
/// Every operator is **checkpointable**: `SaveCheckpoint()` captures
/// the position strictly after the last id the operator produced as a
/// small tagged `DocValue`, and each cursor offers a resume
/// construction path that reopens at a saved position (streaming
/// operators seek — `SecondaryIndex::Scan::SeekAfter`,
/// `DocCursor::SeekAfter`, id watermarks; blocking operators
/// re-materialize and skip). The planner serializes the checkpoint
/// tree into the opaque page token behind `FindPage`.
///
/// Every cursor that touches storage holds the `CollectionView` it
/// reads through by value: the view pins an immutable storage version,
/// so a cursor tree stays valid — and yields one consistent snapshot —
/// no matter what writers do (or even if the `Collection` itself is
/// destroyed) while the tree is executing.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/predicate.h"
#include "storage/collection.h"

namespace dt {
class ThreadPool;
}

namespace dt::query {

/// Counters filled in during one `Find` execution — what the chosen
/// plan actually touched (the observable half of push-down: an indexed
/// order-by + limit-10 query examines ~10 index entries, not the
/// collection; resuming page 2 examines ~page_size entries, not the
/// consumed offset).
struct ExecStats {
  /// Index entries pulled from secondary-index scans.
  int64_t index_entries_examined = 0;
  /// Documents fetched (scan bodies, residual filters, sort-key
  /// extraction).
  int64_t docs_examined = 0;
  /// Ids the root cursor produced.
  int64_t docs_returned = 0;
  /// Wall time `PlanFind` spent choosing the plan. With incremental
  /// index statistics this is O(1) in hit count — the planner walks at
  /// most `SecondaryIndex::kExactCountThreshold + 1` entries per
  /// candidate, never O(hits).
  int64_t planning_ns = 0;
  /// Index entries the planner's bounded exact-count walks examined
  /// across every candidate it costed (the observable half of O(1)
  /// planning: bounded by candidates * (threshold + 1), independent of
  /// hit count).
  int64_t plan_entries_counted = 0;
  /// The chosen plan's driver cardinality estimate. Compare against
  /// `docs_returned` (for unlimited queries) for the
  /// estimate-vs-actual error the plan-quality harness bounds.
  int64_t estimated_rows = 0;
  /// 1 when every cardinality in the chosen plan came from an exact
  /// bounded count, 0 when a histogram/sketch estimate was involved
  /// (`est=~N (hist)` in Explain).
  int64_t estimate_exact = 1;

  /// Structured form for the wire (`QueryResponse`): a flat object of
  /// the counters. `FromDocValue(ToDocValue())` round-trips.
  storage::DocValue ToDocValue() const;
  /// Rejects anything but an object of int counters (kInvalidArgument).
  static Result<ExecStats> FromDocValue(const storage::DocValue& v);
};

/// Splits a comma-separated `order_by` into its component paths
/// ("type,name" -> {"type", "name"}). Field paths cannot contain ','
/// (`Collection::CreateIndex` rejects it), so the separator is
/// unambiguous; empty segments are dropped. Empty input -> empty.
std::vector<std::string> SplitOrderPaths(const std::string& order_by);

/// \brief One operator of an executing plan: pulls document ids.
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// Pulls the next id; false at end of stream (or on error — check
  /// `status()` after exhaustion).
  virtual bool Next(storage::DocId* id) = 0;

  /// First error the cursor (or a child) hit; OK while healthy.
  virtual Status status() const { return Status::OK(); }

  /// \brief This operator's resume position as a tagged `DocValue`
  /// array: reopening at it continues the stream strictly after the
  /// last id `Next` returned, byte-identically to never having
  /// stopped. Valid only against the same plan over the same storage
  /// version (the page token layer enforces both: tokens pin the
  /// version they were minted against).
  virtual storage::DocValue SaveCheckpoint() const = 0;
};

using CursorPtr = std::unique_ptr<Cursor>;

/// Drains `cursor` into `out`, propagating its terminal status and
/// counting returned ids into `stats` (may be null).
Status DrainCursor(Cursor* cursor, ExecStats* stats,
                   std::vector<storage::DocId>* out);

// ---- checkpoint helpers (shared by executor.cc and planner.cc) ----

/// Builds a tagged checkpoint array: [tag, fields...].
storage::DocValue MakeCheckpoint(const char* tag,
                                 std::vector<storage::DocValue> fields);

/// True when `ckpt` is an array whose first element is the string
/// `tag`.
bool CheckpointHasTag(const storage::DocValue& ckpt, const char* tag);

/// Field `i` (0 = the element after the tag), or nullptr.
const storage::DocValue* CheckpointField(const storage::DocValue& ckpt,
                                         size_t i);

/// \brief Ordered secondary-index scan.
///
/// Emits ids in index-key order (or reversed), with *runs* — maximal
/// groups of consecutive entries equal on the first `run_prefix_len`
/// key components — internally sorted by ascending id. That yields the
/// two contracts the planner needs from one operator:
///
///   run_prefix_len == number of equality-bound components: the whole
///   scan is one run, so ids stream out globally ascending (the
///   unordered `Find` contract) with no separate sort node;
///
///   run_prefix_len == equality components + 1: runs group by the
///   order-by component, so ids stream out ordered by that component
///   with ties ascending — the push-down contract.
///
/// Checkpoint: the current run's key prefix plus the last emitted id.
/// Resume seeks the underlying scan to the start of that run
/// (`Scan::SeekAfter`), which suppresses the already-consumed ids, so
/// a resumed scan re-examines at most one run — O(page) for ordered
/// queries — instead of re-walking the consumed offset.
class IxScanCursor : public Cursor {
 public:
  /// `view` must be the view owning the index behind `scan` (the
  /// cursor keeps it pinned for its own lifetime).
  IxScanCursor(storage::CollectionView view,
               storage::SecondaryIndex::Scan scan, size_t run_prefix_len,
               ExecStats* stats);

  /// Resume form: reopens strictly after the position a prior
  /// `SaveCheckpoint` captured (`resume_prefix` must have
  /// `run_prefix_len` components drawn from this scan's bounds).
  IxScanCursor(storage::CollectionView view,
               storage::SecondaryIndex::Scan scan, size_t run_prefix_len,
               ExecStats* stats, const storage::CompositeKey& resume_prefix,
               storage::DocId resume_id);

  bool Next(storage::DocId* id) override;
  storage::DocValue SaveCheckpoint() const override;

  /// Key component `component` of the run that produced the last
  /// emitted id (`component < run_prefix_len`). How `MergeUnionCursor`
  /// reads branch order keys without fetching documents.
  const storage::IndexKey& RunKeyPart(size_t component) const {
    return run_prefix_key_.part(component);
  }

 private:
  /// Refills `run_` with the next run; false when the scan is dry.
  bool FillRun();

  storage::CollectionView view_;  // keeps the scanned index alive
  storage::SecondaryIndex::Scan scan_;
  size_t run_prefix_len_;
  ExecStats* stats_;
  bool pending_valid_ = false;  // one-entry lookahead across run edges
  storage::CompositeKey pending_key_;
  storage::DocId pending_id_ = 0;
  std::vector<storage::DocId> run_;
  size_t run_at_ = 0;
  // Checkpoint state: the current run's `run_prefix_len_`-component
  // key prefix and the last id handed out.
  storage::CompositeKey run_prefix_key_;
  bool emitted_ = false;
  storage::DocId last_id_ = 0;
};

/// \brief Full collection scan with the predicate applied inline.
///
/// The serial form pulls documents lazily (a downstream limit stops
/// the scan early); `Parallel` chunks the scan over a thread pool,
/// materializes the thread-count-independent result once and replays
/// it. Both checkpoint by last-emitted-id watermark (tag "CS"), so a
/// token minted by either form resumes under the other with identical
/// output: the serial resume seeks `DocCursor::SeekAfter(id)`, the
/// parallel resume drops ids at or below the watermark while
/// materializing.
class CollScanCursor : public Cursor {
 public:
  /// Serial pull over `view`'s version; `pred` may be null (match
  /// everything). `after_id` > 0 resumes strictly after that document
  /// id.
  CollScanCursor(const storage::CollectionView& view, PredicatePtr pred,
                 ExecStats* stats, storage::DocId after_id = 0);

  /// Parallel scan: materializes matching ids > `after_id` on `pool`
  /// and returns a cursor replaying them. Output is identical to the
  /// serial form for every thread count.
  static Result<CursorPtr> Parallel(const storage::CollectionView& view,
                                    const PredicatePtr& pred, ThreadPool* pool,
                                    ExecStats* stats,
                                    storage::DocId after_id = 0);

  bool Next(storage::DocId* id) override;
  storage::DocValue SaveCheckpoint() const override;

 private:
  storage::DocCursor docs_;  // co-owns the scanned version
  PredicatePtr pred_;
  ExecStats* stats_;
  storage::DocId last_id_ = 0;
};

/// \brief Replays a pre-materialized ascending unique id vector
/// (parallel scans, text postings intersections), checkpointing by id
/// watermark under the caller's tag ("CS" for parallel collection
/// scans so serial and parallel tokens interchange, "V" for text).
class ReplayCursor : public Cursor {
 public:
  ReplayCursor(std::vector<storage::DocId> ids, const char* tag,
               storage::DocId after_id = 0)
      : ids_(std::move(ids)), tag_(tag), last_id_(after_id) {
    at_ = static_cast<size_t>(
        std::upper_bound(ids_.begin(), ids_.end(), after_id) - ids_.begin());
  }

  bool Next(storage::DocId* id) override {
    if (at_ >= ids_.size()) return false;
    *id = ids_[at_++];
    last_id_ = *id;
    return true;
  }

  storage::DocValue SaveCheckpoint() const override {
    return MakeCheckpoint(
        tag_, {storage::DocValue::Int(static_cast<int64_t>(last_id_))});
  }

 private:
  std::vector<storage::DocId> ids_;
  size_t at_ = 0;
  const char* tag_;
  storage::DocId last_id_;
};

/// \brief Residual filter: re-checks the full predicate on each
/// document the child produces. Positionally transparent — the
/// checkpoint is the child's.
class FilterCursor : public Cursor {
 public:
  FilterCursor(storage::CollectionView view, CursorPtr child,
               PredicatePtr pred, ExecStats* stats);

  bool Next(storage::DocId* id) override;
  Status status() const override { return child_->status(); }
  storage::DocValue SaveCheckpoint() const override {
    return child_->SaveCheckpoint();
  }

 private:
  storage::CollectionView view_;
  CursorPtr child_;
  PredicatePtr pred_;
  ExecStats* stats_;
};

/// \brief Deduplicated ascending-id streaming merge of branch cursors.
///
/// Every unordered access cursor emits strictly ascending ids, so the
/// union is a k-way min-merge with adjacent-duplicate suppression — no
/// materialization, and a downstream limit stops the branch scans
/// early. Checkpoint: the last emitted id; resume reopens the branches
/// and discards ids at or below the watermark.
class UnionCursor : public Cursor {
 public:
  explicit UnionCursor(std::vector<CursorPtr> children,
                       storage::DocId after_id = 0);

  bool Next(storage::DocId* id) override;
  Status status() const override;
  storage::DocValue SaveCheckpoint() const override;

 private:
  /// Loads the next id > the watermark from child `c` into `heads_`.
  void Refill(size_t c);

  std::vector<CursorPtr> children_;
  std::vector<storage::DocId> heads_;
  std::vector<bool> head_valid_;
  bool primed_ = false;
  bool failed_ = false;
  bool emitted_ = false;
  storage::DocId last_id_ = 0;
};

/// \brief One branch of an ordered union merge: the (possibly
/// filter-wrapped) branch cursor plus the `IxScanCursor` it pulls
/// from, which supplies each emitted id's order key straight off the
/// index run — no document fetch.
struct MergeBranch {
  CursorPtr cursor;
  /// Borrowed from inside `cursor`; outlives the merge with it.
  IxScanCursor* scan = nullptr;
  /// Index key component holding each order-by path's value for this
  /// branch, in order-path order (one entry per `order_by` component —
  /// multi-field orders read a composite merge key off the run).
  std::vector<size_t> order_components;
};

/// \brief Ordered k-way merge of order-covering index branches — the
/// SORT-free execution of `Or` + `order_by`: each branch streams in
/// (order key, id-asc) order, the merge emits the minimum (maximum
/// when descending) across branches with ascending-id tie break and
/// duplicate suppression. Checkpoint: the last emitted (order key,
/// id); resume positions each branch strictly after it (the planner
/// derives per-branch seek targets), so page 2 of an ordered `Or`
/// costs O(page), not O(offset).
class MergeUnionCursor : public Cursor {
 public:
  MergeUnionCursor(std::vector<MergeBranch> branches, bool descending);

  /// Resume form: branches must already be positioned strictly after
  /// (`resume_key`, `resume_id`) in merge order. `resume_key` carries
  /// one component per order-by path.
  MergeUnionCursor(std::vector<MergeBranch> branches, bool descending,
                   storage::CompositeKey resume_key,
                   storage::DocId resume_id);

  bool Next(storage::DocId* id) override;
  Status status() const override;
  storage::DocValue SaveCheckpoint() const override;

 private:
  struct Head {
    storage::CompositeKey key;
    storage::DocId id = 0;
    bool valid = false;
  };

  void Refill(size_t b);

  std::vector<MergeBranch> branches_;
  std::vector<Head> heads_;
  bool descending_;
  bool primed_ = false;
  bool failed_ = false;
  bool emitted_ = false;
  storage::CompositeKey last_key_;
  storage::DocId last_id_ = 0;
};

/// \brief Materialize-then-sort by (order key, id): the fallback when
/// no index covers the requested order. Missing fields sort as the
/// null key (first ascending); `descending` flips the key comparison
/// only — ties stay ascending by id. Checkpoint: the count of emitted
/// ids; resume re-materializes (blocking operators have no cheaper
/// position) and skips — the deterministic total order makes the
/// stitched pages byte-identical.
class SortCursor : public Cursor {
 public:
  SortCursor(storage::CollectionView view, CursorPtr child,
             std::string order_by, bool descending, ExecStats* stats,
             int64_t skip = 0);

  bool Next(storage::DocId* id) override;
  Status status() const override { return child_->status(); }
  storage::DocValue SaveCheckpoint() const override;

 private:
  void Materialize();

  storage::CollectionView view_;
  CursorPtr child_;
  std::vector<std::string> order_paths_;  // comma-split `order_by`
  bool descending_;
  ExecStats* stats_;
  int64_t skip_;
  bool sorted_ = false;
  std::vector<storage::DocId> ids_;
  size_t at_ = 0;
};

/// \brief Stops pulling from the child after `limit` ids — and, pulled
/// lazily itself, stops the upstream scan with it. Checkpoint: the
/// remaining budget plus the child's checkpoint, so a limit spans
/// pages.
class LimitCursor : public Cursor {
 public:
  LimitCursor(CursorPtr child, int64_t limit)
      : child_(std::move(child)), remaining_(limit) {}

  bool Next(storage::DocId* id) override {
    if (remaining_ <= 0) return false;
    if (!child_->Next(id)) {
      remaining_ = 0;
      return false;
    }
    --remaining_;
    return true;
  }
  Status status() const override { return child_->status(); }
  storage::DocValue SaveCheckpoint() const override {
    return MakeCheckpoint("LIM", {storage::DocValue::Int(remaining_),
                                  child_->SaveCheckpoint()});
  }

 private:
  CursorPtr child_;
  int64_t remaining_;
};

/// \brief Bounded top-k selector: keeps the best `k` items under
/// `better` (a strict "comes before" ordering) in a k-element heap
/// whose front is the worst kept item — O(n log k) instead of sorting
/// everything. Shared by `TopKCursor` and the group-count aggregation
/// in query.cc.
template <typename T, typename Better>
class BoundedTopK {
 public:
  BoundedTopK(int64_t k, Better better) : k_(k), better_(better) {}

  void Offer(T item) {
    if (k_ <= 0) return;
    if (static_cast<int64_t>(heap_.size()) < k_) {
      heap_.push_back(std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), better_);
    } else if (better_(item, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), better_);
      heap_.back() = std::move(item);
      std::push_heap(heap_.begin(), heap_.end(), better_);
    }
  }

  /// The kept items, best first. Leaves the selector empty.
  std::vector<T> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), better_);
    return std::move(heap_);
  }

 private:
  int64_t k_;
  Better better_;
  std::vector<T> heap_;
};

/// \brief Fused sort+limit: a bounded k-element heap over the child's
/// (order key, id) stream, then the k best in order. Same ordering and
/// checkpoint contract as `SortCursor` (resume re-selects and skips).
class TopKCursor : public Cursor {
 public:
  TopKCursor(storage::CollectionView view, CursorPtr child,
             std::string order_by, bool descending, int64_t k,
             ExecStats* stats, int64_t skip = 0);

  bool Next(storage::DocId* id) override;
  Status status() const override { return child_->status(); }
  storage::DocValue SaveCheckpoint() const override;

 private:
  void Materialize();

  storage::CollectionView view_;
  CursorPtr child_;
  std::vector<std::string> order_paths_;  // comma-split `order_by`
  bool descending_;
  int64_t k_;
  ExecStats* stats_;
  int64_t skip_;
  bool selected_ = false;
  std::vector<storage::DocId> ids_;
  size_t at_ = 0;
};

}  // namespace dt::query
