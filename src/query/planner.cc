#include "query/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "query/page_token.h"

namespace dt::query {

using storage::CollectionView;
using storage::DocId;
using storage::DocValue;
using storage::SecondaryIndex;

const char* AccessPathName(AccessPath access) {
  switch (access) {
    case AccessPath::kIndexEq:
    case AccessPath::kIndexRange:
      return "IXSCAN";
    case AccessPath::kTextIndex:
      return "TEXT";
    case AccessPath::kUnion:
      return "UNION";
    case AccessPath::kMergeUnion:
      return "MERGE_UNION";
    case AccessPath::kCollScan:
      return "COLLSCAN";
  }
  return "?";
}

namespace {

/// A vacuous conjunction needs no residual re-check: it matches every
/// document a scan can produce.
bool TriviallyTrue(const PredicatePtr& pred) {
  return pred == nullptr ||
         (pred->kind() == PredicateKind::kAnd && pred->children().empty());
}

/// \brief One way an index (or the text index) could drive the query:
/// which conjunction children it consumes and at what estimated
/// cardinality. The planner generates one per matchable index and
/// picks the best.
struct Candidate {
  AccessPath access = AccessPath::kCollScan;
  const SecondaryIndex* index = nullptr;  // null for kTextIndex
  std::vector<size_t> covered_children;   // indices into the child list
  std::vector<DocValue> eq_values;        // equality bounds, component order
  int range_child = -1;                   // child bounding the next component
  int64_t est = 0;
  bool est_exact = true;       // false once a histogram estimate answered
  int64_t entries_counted = 0; // entries the bounded exact-count walk cost
  bool covers_order = false;
  PredicatePtr driver;
};

/// True when `idx`'s components serve every order path: each path is
/// either equality-bound (every result ties on it, so it degenerates
/// to the tie break) or rides the next scanned component in sequence.
bool CoversOrder(const std::vector<std::string>& paths, size_t eq_width,
                 const std::vector<std::string>& order_paths) {
  size_t next = eq_width;  // next scanned component an order path may ride
  for (const std::string& op : order_paths) {
    bool eq_bound = false;
    for (size_t i = 0; i < eq_width && i < paths.size(); ++i) {
      if (paths[i] == op) {
        eq_bound = true;
        break;
      }
    }
    if (eq_bound) continue;
    if (next < paths.size() && paths[next] == op) {
      ++next;
      continue;
    }
    return false;
  }
  return true;
}

/// Matches `idx` against conjunction `children`: equality children
/// bind leading components greedily, then one range child may bind the
/// next component. Returns false when no component binds.
bool MatchIndex(const SecondaryIndex& idx,
                const std::vector<PredicatePtr>& children,
                const FindOptions& opts,
                const std::vector<std::string>& order_paths, Candidate* out) {
  const std::vector<std::string>& paths = idx.field_paths();
  std::vector<bool> used(children.size(), false);
  for (const std::string& comp : paths) {
    int eq_j = -1, range_j = -1;
    for (size_t j = 0; j < children.size(); ++j) {
      if (used[j] || children[j]->path() != comp) continue;
      if (children[j]->kind() == PredicateKind::kEq && eq_j < 0) {
        eq_j = static_cast<int>(j);
      }
      if (children[j]->kind() == PredicateKind::kRange && range_j < 0) {
        range_j = static_cast<int>(j);
      }
    }
    if (eq_j >= 0) {
      used[eq_j] = true;
      out->covered_children.push_back(static_cast<size_t>(eq_j));
      out->eq_values.push_back(children[eq_j]->value());
      continue;
    }
    if (range_j >= 0) {
      out->range_child = range_j;
      out->covered_children.push_back(static_cast<size_t>(range_j));
    }
    break;  // this component is unbound (or range-bound, which is last)
  }
  if (out->eq_values.empty() && out->range_child < 0) return false;
  out->index = &idx;
  const DocValue* lo = nullptr;
  const DocValue* hi = nullptr;
  if (out->range_child >= 0) {
    lo = &children[out->range_child]->lo();
    hi = &children[out->range_child]->hi();
  }
  const SecondaryIndex::ScanEstimate se =
      idx.EstimateScan(out->eq_values, lo, hi, opts.debug_exact_count_planning);
  out->est = static_cast<int64_t>(std::llround(se.rows));
  out->est_exact = se.exact;
  out->entries_counted = se.entries_counted;
  out->access = (out->range_child >= 0 || out->eq_values.empty())
                    ? AccessPath::kIndexRange
                    : AccessPath::kIndexEq;
  out->driver = out->eq_values.empty()
                    ? children[out->range_child]
                    : children[out->covered_children.front()];
  if (!order_paths.empty()) {
    out->covers_order = CoversOrder(paths, out->eq_values.size(), order_paths);
  }
  return true;
}

/// Probes the view's text index for a TextContains child.
bool MatchText(const CollectionView& coll, const PredicatePtr& p,
               size_t child_index, Candidate* out) {
  if (p->kind() != PredicateKind::kTextContains) return false;
  const storage::InvertedIndex* text = coll.TextIndexOn(p->path());
  if (text == nullptr || p->tokens().empty()) return false;
  // Conjunctive: the rarest term bounds the result size.
  int64_t best = std::numeric_limits<int64_t>::max();
  for (const auto& tok : p->tokens()) {
    best = std::min(best, text->DocFrequency(tok));
  }
  out->access = AccessPath::kTextIndex;
  out->covered_children.push_back(child_index);
  out->est = best;
  out->driver = p;
  return true;
}

/// Candidate preference: when an order-by plus limit is in play, an
/// order-covering scan early-terminates and beats raw selectivity;
/// otherwise the most selective driver wins. Ties go to the candidate
/// whose bounds pin more conjunction children (fewer residual document
/// fetches — this is where a compound index beats its single-field
/// prefix), then to order coverage, then to the narrower index.
bool BetterCandidate(const Candidate& a, const Candidate& b,
                     const FindOptions& opts) {
  const bool prefer_covered = !opts.order_by.empty() && opts.limit >= 0;
  if (prefer_covered && a.covers_order != b.covers_order) {
    return a.covers_order;
  }
  if (a.est != b.est) return a.est < b.est;
  if (a.covered_children.size() != b.covered_children.size()) {
    return a.covered_children.size() > b.covered_children.size();
  }
  if (a.covers_order != b.covers_order) return a.covers_order;
  const int wa = a.index != nullptr ? a.index->width() : 1;
  const int wb = b.index != nullptr ? b.index->width() : 1;
  return wa < wb;
}

QueryPlan CollScanPlan(const CollectionView& coll, const PredicatePtr& pred) {
  QueryPlan plan;
  plan.access = AccessPath::kCollScan;
  plan.node = pred;
  plan.estimated_rows = coll.count();
  return plan;
}

/// Builds the access-path half of the plan (no pipeline decoration).
/// `children` views `pred` as a conjunction: the predicate itself for
/// leaves, its child list for an And.
QueryPlan PlanConjunction(const CollectionView& coll, const PredicatePtr& pred,
                          const std::vector<PredicatePtr>& children,
                          bool is_and, const FindOptions& opts,
                          const std::vector<std::string>& order_paths,
                          int64_t* entries_counted) {
  Candidate best;
  bool found = false;
  for (const SecondaryIndex* idx : coll.Indexes()) {
    Candidate cand;
    if (!MatchIndex(*idx, children, opts, order_paths, &cand)) continue;
    *entries_counted += cand.entries_counted;
    if (!found || BetterCandidate(cand, best, opts)) {
      best = std::move(cand);
      found = true;
    }
  }
  for (size_t j = 0; j < children.size(); ++j) {
    Candidate cand;
    if (!MatchText(coll, children[j], j, &cand)) continue;
    if (!found || BetterCandidate(cand, best, opts)) {
      best = std::move(cand);
      found = true;
    }
  }
  if (!found) return CollScanPlan(coll, pred);
  // A residual scan that visits as many rows as the collection holds
  // saves nothing over the straight scan it complicates — unless the
  // scan order itself is the point (order-covering with a limit).
  const bool keep_for_order =
      best.covers_order && !opts.order_by.empty() && opts.limit >= 0;
  if (is_and && best.est >= coll.count() && !keep_for_order) {
    return CollScanPlan(coll, pred);
  }
  QueryPlan plan;
  plan.access = best.access;
  plan.node = pred;
  plan.driver = best.driver;
  plan.estimated_rows = best.est;
  plan.est_exact = best.est_exact;
  plan.residual = best.covered_children.size() < children.size();
  plan.index = best.index;
  plan.eq_values = std::move(best.eq_values);
  if (best.range_child >= 0) {
    plan.has_range = true;
    plan.range_lo = children[best.range_child]->lo();
    plan.range_hi = children[best.range_child]->hi();
  }
  plan.order_covered = best.covers_order;
  return plan;
}

/// The access-path chooser (pre-decoration); see PlanFind.
QueryPlan PlanAccess(const CollectionView& coll, const PredicatePtr& pred,
                     const FindOptions& opts,
                     const std::vector<std::string>& order_paths,
                     int64_t* entries_counted) {
  if (pred == nullptr || !opts.use_indexes) return CollScanPlan(coll, pred);

  switch (pred->kind()) {
    case PredicateKind::kEq:
    case PredicateKind::kRange:
    case PredicateKind::kTextContains:
      return PlanConjunction(coll, pred, {pred}, /*is_and=*/false, opts,
                             order_paths, entries_counted);
    case PredicateKind::kAnd:
      return PlanConjunction(coll, pred, pred->children(), /*is_and=*/true,
                             opts, order_paths, entries_counted);
    case PredicateKind::kOr: {
      // Ordered-merge attempt first: when an order is requested and
      // every branch plans as an order-covering index scan, the union
      // executes as a SORT-free k-way merge of the branch streams
      // (MERGE_UNION) — under a limit the branch walks early-terminate
      // like single-index sort push-down does. Two free pre-gates keep
      // a doomed attempt from paying the O(hits) estimate counting
      // twice (once here, once re-planning the unordered branches):
      // only Eq/Range/And children can yield covering IXSCANs, and no
      // index can cover an order path it does not even contain.
      bool merge_conceivable =
          !opts.order_by.empty() && !pred->children().empty();
      if (merge_conceivable) {
        for (const auto& child : pred->children()) {
          if (child->kind() != PredicateKind::kEq &&
              child->kind() != PredicateKind::kRange &&
              child->kind() != PredicateKind::kAnd) {
            merge_conceivable = false;
            break;
          }
        }
      }
      if (merge_conceivable && !order_paths.empty()) {
        bool order_indexed = false;
        for (const SecondaryIndex* idx : coll.Indexes()) {
          const std::vector<std::string>& paths = idx->field_paths();
          if (std::find(paths.begin(), paths.end(), order_paths.front()) !=
              paths.end()) {
            order_indexed = true;
            break;
          }
        }
        merge_conceivable = order_indexed;
      }
      if (merge_conceivable) {
        QueryPlan merged;
        merged.access = AccessPath::kMergeUnion;
        merged.node = pred;
        merged.order_covered = true;
        bool all_covered = true;
        for (const auto& child : pred->children()) {
          QueryPlan branch =
              PlanAccess(coll, child, opts, order_paths, entries_counted);
          if ((branch.access != AccessPath::kIndexEq &&
               branch.access != AccessPath::kIndexRange) ||
              !branch.order_covered) {
            all_covered = false;
            break;
          }
          // Branches carry the order decoration so the executor opens
          // them with order-grouped runs (and Explain annotates them).
          branch.order_by = opts.order_by;
          branch.order_desc = opts.order_desc;
          merged.estimated_rows += branch.estimated_rows;
          merged.est_exact = merged.est_exact && branch.est_exact;
          merged.branches.push_back(std::move(branch));
        }
        // Without a limit the merge must still visit every branch
        // entry, so it only pays off when it beats the straight scan's
        // cardinality; with a limit the early termination is the point.
        if (all_covered &&
            (opts.limit >= 0 || merged.estimated_rows < coll.count())) {
          return merged;
        }
      }
      // Union only when every branch is index-routable on its own; one
      // non-routable branch means one full scan answers the whole Or.
      QueryPlan plan;
      plan.access = AccessPath::kUnion;
      plan.node = pred;
      plan.estimated_rows = 0;
      // Branches are planned without order/limit decoration: the union
      // merge re-establishes ascending ids and the pipeline operators
      // apply on top.
      FindOptions branch_opts = opts;
      branch_opts.order_by.clear();
      branch_opts.limit = -1;
      const std::vector<std::string> no_order;
      for (const auto& child : pred->children()) {
        QueryPlan branch =
            PlanAccess(coll, child, branch_opts, no_order, entries_counted);
        if (branch.access == AccessPath::kCollScan) {
          return CollScanPlan(coll, pred);
        }
        plan.estimated_rows += branch.estimated_rows;
        plan.est_exact = plan.est_exact && branch.est_exact;
        plan.branches.push_back(std::move(branch));
      }
      if (plan.estimated_rows < coll.count() || plan.branches.empty()) {
        return plan;
      }
      return CollScanPlan(coll, pred);
    }
  }
  return CollScanPlan(coll, pred);
}

// Relative operator costs for pipeline-alternative decisions: stepping
// one index entry vs fetching + re-checking one document.
constexpr double kEntryCost = 1.0;
constexpr double kDocCost = 4.0;

/// The narrowest index whose leading components are exactly
/// `order_paths` in sequence — the index a pure order-driven walk can
/// stream from. Null when none qualifies.
const SecondaryIndex* OrderWalkIndex(
    const CollectionView& coll, const std::vector<std::string>& order_paths) {
  const SecondaryIndex* best = nullptr;
  for (const SecondaryIndex* idx : coll.Indexes()) {
    const std::vector<std::string>& paths = idx->field_paths();
    if (paths.size() < order_paths.size()) continue;
    bool leads = true;
    for (size_t i = 0; i < order_paths.size(); ++i) {
      if (paths[i] != order_paths[i]) {
        leads = false;
        break;
      }
    }
    if (!leads) continue;
    if (best == nullptr || idx->width() < best->width()) best = idx;
  }
  return best;
}

/// Rough match cardinality of `pred`, for costing pipeline
/// alternatives (not access paths): leaves ask the narrowest index
/// leading with their path, And multiplies child selectivities, Or
/// adds child estimates (clamped), and anything unestimable
/// (TextContains, unindexed leaves) pessimistically estimates the
/// whole collection. Accumulates walked entries into
/// `*entries_counted` and clears `*exact` when a histogram answered.
double EstimatePredicateRows(const CollectionView& coll,
                             const PredicatePtr& pred, bool force_exact,
                             int64_t* entries_counted, bool* exact) {
  const double n = static_cast<double>(coll.count());
  if (pred == nullptr) return n;
  switch (pred->kind()) {
    case PredicateKind::kEq:
    case PredicateKind::kRange: {
      const SecondaryIndex* best = nullptr;
      for (const SecondaryIndex* idx : coll.Indexes()) {
        if (idx->field_paths().front() != pred->path()) continue;
        if (best == nullptr || idx->width() < best->width()) best = idx;
      }
      if (best == nullptr) return n;
      std::vector<DocValue> eq;
      const DocValue* lo = nullptr;
      const DocValue* hi = nullptr;
      if (pred->kind() == PredicateKind::kEq) {
        eq.push_back(pred->value());
      } else {
        lo = &pred->lo();
        hi = &pred->hi();
      }
      const SecondaryIndex::ScanEstimate se =
          best->EstimateScan(eq, lo, hi, force_exact);
      *entries_counted += se.entries_counted;
      *exact = *exact && se.exact;
      return se.rows;
    }
    case PredicateKind::kTextContains:
      return n;
    case PredicateKind::kAnd: {
      double sel = 1.0;
      for (const auto& c : pred->children()) {
        sel *= n > 0 ? EstimatePredicateRows(coll, c, force_exact,
                                             entries_counted, exact) /
                           n
                     : 0.0;
      }
      return n * sel;
    }
    case PredicateKind::kOr: {
      double sum = 0;
      for (const auto& c : pred->children()) {
        sum += EstimatePredicateRows(coll, c, force_exact, entries_counted,
                                     exact);
      }
      return std::min(sum, n);
    }
  }
  return n;
}

}  // namespace

QueryPlan PlanFind(const CollectionView& coll, const PredicatePtr& pred,
                   const FindOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::string> order_paths = SplitOrderPaths(opts.order_by);
  int64_t entries_counted = 0;
  QueryPlan plan = PlanAccess(coll, pred, opts, order_paths, &entries_counted);
  // Sort push-down fallback for the match-everything case: an index
  // leads with the order paths and a limit bounds the walk, so stream
  // off the index order and stop after ~limit entries instead of
  // scanning, materializing and sorting everything.
  if (plan.access == AccessPath::kCollScan && opts.use_indexes &&
      TriviallyTrue(pred) && !order_paths.empty() && opts.limit >= 0) {
    const SecondaryIndex* order_idx = OrderWalkIndex(coll, order_paths);
    if (order_idx != nullptr) {
      QueryPlan scan;
      scan.access = AccessPath::kIndexRange;
      scan.node = pred;
      scan.estimated_rows = order_idx->entry_count();
      scan.index = order_idx;
      scan.order_covered = true;
      plan = std::move(scan);
    }
  }
  // Filtered order-walk: when no chosen path streams the requested
  // order but an index leads with it, walking that index in order and
  // filtering — stopping once the limit fills — beats materializing
  // and sorting, provided the predicate passes rows often enough that
  // the walk stays short. The statistics make that call: expected walk
  // length is limit / selectivity, and the switch demands a 2x cost
  // advantage as a margin against estimation error (PR 4 punted this
  // decision precisely because exact counting made it O(hits)).
  // `debug_exact_count_planning` disables the switch along with the
  // estimates: the knob reproduces the whole pre-statistics planner,
  // not just its counting.
  if (!plan.order_covered && plan.access != AccessPath::kTextIndex &&
      opts.use_indexes && !opts.debug_exact_count_planning &&
      !order_paths.empty() && opts.limit >= 0 && pred != nullptr &&
      !TriviallyTrue(pred) && coll.count() > 0) {
    const SecondaryIndex* order_idx = OrderWalkIndex(coll, order_paths);
    if (order_idx != nullptr) {
      const double n = static_cast<double>(coll.count());
      bool est_exact = true;
      double pred_rows = EstimatePredicateRows(
          coll, pred, opts.debug_exact_count_planning, &entries_counted,
          &est_exact);
      // The incumbent's driver estimate is a second upper bound on the
      // predicate's rows (an index-driven scan is a superset of the
      // result), and a tighter one when a compound index binds
      // components the per-leaf estimator treats as unindexed — e.g.
      // `name` in And(type, name) under a (type,name) index. Without
      // this clamp such predicates look unselective, the walk looks
      // short, and the switch fires into a walk that actually visits
      // 1/true-selectivity entries per emitted row.
      if (plan.access != AccessPath::kCollScan) {
        if (static_cast<double>(plan.estimated_rows) < pred_rows) {
          pred_rows = static_cast<double>(plan.estimated_rows);
          est_exact = est_exact && plan.est_exact;
        }
      }
      pred_rows = std::min(std::max(pred_rows, 0.0), n);
      const double sel = std::max(pred_rows / n, 1e-9);
      const double walk_entries =
          std::min(n, static_cast<double>(opts.limit) / sel);
      // Every walked entry fetches + re-checks its document; the
      // incumbent pays a fetch per estimated row (plus an entry step
      // when index-driven) and sorts, which the TOPK heap keeps cheap
      // enough to ignore at this granularity.
      const double walk_cost = walk_entries * (kEntryCost + kDocCost);
      const double cur_cost =
          plan.access == AccessPath::kCollScan
              ? n * kDocCost
              : static_cast<double>(plan.estimated_rows) *
                    (kEntryCost + kDocCost);
      if (walk_cost * 2 < cur_cost) {
        QueryPlan walk;
        walk.access = AccessPath::kIndexRange;
        walk.node = pred;
        walk.estimated_rows = static_cast<int64_t>(std::llround(pred_rows));
        walk.est_exact = est_exact;
        walk.index = order_idx;
        walk.residual = true;
        walk.order_covered = true;
        plan = std::move(walk);
      }
    }
  }
  plan.order_by = opts.order_by;
  plan.order_desc = opts.order_desc;
  plan.limit = opts.limit;
  if (plan.access == AccessPath::kCollScan || plan.access == AccessPath::kUnion ||
      plan.access == AccessPath::kTextIndex) {
    plan.order_covered = false;
  }
  if (order_paths.empty()) plan.order_covered = false;
  if (opts.stats != nullptr) {
    opts.stats->planning_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
    opts.stats->plan_entries_counted += entries_counted;
    opts.stats->estimated_rows = plan.estimated_rows;
    opts.stats->estimate_exact = plan.est_exact ? 1 : 0;
  }
  return plan;
}

// ---- execution ---------------------------------------------------------

namespace {

using storage::CompositeKey;
using storage::IndexKey;

const Status kBadCheckpoint = Status::InvalidArgument(
    "resume token does not match this query's operator tree");

/// Reads an integer checkpoint field.
bool CkptInt(const DocValue& ckpt, size_t i, int64_t* out) {
  const DocValue* f = CheckpointField(ckpt, i);
  if (f == nullptr || !f->is_int()) return false;
  *out = f->int_value();
  return true;
}

/// Reads an id-watermark checkpoint of shape [tag, last_id].
Result<DocId> CkptWatermark(const DocValue& ckpt, const char* tag) {
  int64_t id;
  if (!CheckpointHasTag(ckpt, tag) || !CkptInt(ckpt, 0, &id) || id < 0) {
    return kBadCheckpoint;
  }
  return static_cast<DocId>(id);
}

/// The IXSCAN run grouping for `plan`: how many leading components
/// define a run, whether the scan walks backwards, and which component
/// carries each order path's key (for merge branches; empty when no
/// order applies or the order is not covered by this scan).
struct IxScanShape {
  size_t run_len = 0;
  bool scan_desc = false;
  std::vector<size_t> order_components;  // one component per order path
};

IxScanShape ShapeOf(const QueryPlan& plan) {
  IxScanShape shape;
  const size_t m = plan.eq_values.size();
  shape.run_len = m;
  if (plan.order_covered && plan.index != nullptr &&
      !plan.order_by.empty()) {
    const std::vector<std::string>& paths = plan.index->field_paths();
    // Runs group on the equality-bound components plus every order
    // path riding a consecutively scanned component — see IxScanCursor.
    size_t next = m;
    for (const std::string& op : SplitOrderPaths(plan.order_by)) {
      size_t comp = std::string::npos;
      for (size_t i = 0; i < m && i < paths.size(); ++i) {
        if (paths[i] == op) {
          comp = i;
          break;
        }
      }
      if (comp == std::string::npos && next < paths.size() &&
          paths[next] == op) {
        comp = next++;
      }
      if (comp == std::string::npos) {  // not actually covered
        shape.order_components.clear();
        return shape;
      }
      shape.order_components.push_back(comp);
    }
    shape.run_len = next;
    shape.scan_desc = next > m && plan.order_desc;
  }
  return shape;
}

/// Builds an IXSCAN cursor for `plan`, optionally resumed at an "IX"
/// checkpoint or an explicit (prefix, id) position. `view` must be the
/// view whose version owns `plan.index`.
Result<std::unique_ptr<IxScanCursor>> BuildIxScan(
    const CollectionView& view, const QueryPlan& plan,
    const IxScanShape& shape, ExecStats* stats, const DocValue* ckpt,
    const CompositeKey* seek_prefix = nullptr, DocId seek_id = 0) {
  const SecondaryIndex* idx = plan.index;
  if (idx == nullptr) {
    return Status::Internal("IXSCAN plan without an index");
  }
  SecondaryIndex::Scan scan = idx->ScanPrefix(
      plan.eq_values, plan.has_range ? &plan.range_lo : nullptr,
      plan.has_range ? &plan.range_hi : nullptr, shape.scan_desc);
  if (seek_prefix != nullptr) {
    return std::make_unique<IxScanCursor>(view, scan, shape.run_len, stats,
                                          *seek_prefix, seek_id);
  }
  if (ckpt != nullptr) {
    if (!CheckpointHasTag(*ckpt, "IX")) return kBadCheckpoint;
    const DocValue* prefix = CheckpointField(*ckpt, 0);
    int64_t id;
    if (prefix == nullptr || !CkptInt(*ckpt, 1, &id) || id < 0) {
      return kBadCheckpoint;
    }
    if (!prefix->is_null()) {  // null prefix = nothing emitted yet
      if (!prefix->is_array() ||
          prefix->array_items().size() != shape.run_len) {
        return kBadCheckpoint;
      }
      std::vector<IndexKey> parts;
      parts.reserve(shape.run_len);
      for (const DocValue& part : prefix->array_items()) {
        parts.push_back(IndexKey::FromValue(part));
      }
      return std::make_unique<IxScanCursor>(view, scan, shape.run_len, stats,
                                            CompositeKey(std::move(parts)),
                                            static_cast<DocId>(id));
    }
  }
  return std::make_unique<IxScanCursor>(view, scan, shape.run_len, stats);
}

/// Postings intersection for a TEXT access over the view's own index
/// (so a resumed page reads the postings of the version its token
/// pinned): smallest list first, all lists sorted ascending by id (so
/// the result is too).
Result<CursorPtr> BuildTextCursor(const CollectionView& view,
                                  const QueryPlan& plan, ExecStats* stats,
                                  DocId after_id) {
  const Predicate& driver = *plan.driver;
  const storage::InvertedIndex* text = view.TextIndexOn(driver.path());
  if (text == nullptr) {
    return Status::Internal("TEXT plan without a text index");
  }
  std::vector<std::vector<DocId>> lists;
  lists.reserve(driver.tokens().size());
  for (const auto& tok : driver.tokens()) {
    lists.push_back(text->Postings(tok));
    if (stats != nullptr) {
      stats->index_entries_examined +=
          static_cast<int64_t>(lists.back().size());
    }
    if (lists.back().empty()) {  // conjunction fails
      return CursorPtr(std::make_unique<ReplayCursor>(std::vector<DocId>{},
                                                      "V", after_id));
    }
  }
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<DocId>& a, const std::vector<DocId>& b) {
              return a.size() < b.size();
            });
  std::vector<DocId> ids = std::move(lists[0]);
  for (size_t i = 1; i < lists.size() && !ids.empty(); ++i) {
    std::vector<DocId> next;
    std::set_intersection(ids.begin(), ids.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    ids.swap(next);
  }
  return CursorPtr(
      std::make_unique<ReplayCursor>(std::move(ids), "V", after_id));
}

/// Builds one MERGE_UNION branch positioned strictly after the merged
/// stream's last emitted (composite order key, id). The order
/// positions are walked in significance order: scanned components pin
/// to the resume key's parts (they are consecutive after the equality
/// prefix, so the pins extend the seek prefix), and the first
/// equality-bound position whose constant differs from the resume key
/// decides in merge order — "before" means every entry tying the
/// pinned prefix so far is already consumed (skip that whole group),
/// "after" means none of it is (open at the group's start; earlier
/// groups were consumed at an earlier scanned position). When every
/// position ties, the exact (prefix, id) watermark applies.
Result<std::unique_ptr<IxScanCursor>> BuildResumedMergeBranch(
    const CollectionView& view, const QueryPlan& branch,
    const IxScanShape& shape, ExecStats* stats, const CompositeKey& last_key,
    DocId last_id) {
  const size_t m = branch.eq_values.size();
  if (last_key.width() != shape.order_components.size()) {
    return kBadCheckpoint;
  }
  std::vector<IndexKey> parts;
  parts.reserve(shape.run_len);
  for (const DocValue& v : branch.eq_values) {
    parts.push_back(IndexKey::FromValue(v));
  }
  for (size_t j = 0; j < shape.order_components.size(); ++j) {
    const size_t c = shape.order_components[j];
    if (c >= m) {  // scanned component, consecutive from m
      parts.push_back(last_key.part(j));
      continue;
    }
    const IndexKey& k_b = parts[c];
    if (k_b == last_key.part(j)) continue;
    // "Before" is judged in MERGE order (branch.order_desc) — an
    // eq-bound component holds one constant regardless of scan
    // direction, so shape.scan_desc would misjudge it and drop (or
    // replay) the whole group on a descending resume.
    const bool before = branch.order_desc ? (last_key.part(j) < k_b)
                                          : (k_b < last_key.part(j));
    CompositeKey prefix(std::move(parts));
    return BuildIxScan(view, branch, shape, stats, nullptr, &prefix,
                       before ? std::numeric_limits<DocId>::max()
                              : static_cast<DocId>(0));
  }
  CompositeKey prefix(std::move(parts));
  return BuildIxScan(view, branch, shape, stats, nullptr, &prefix, last_id);
}

/// Builds the MERGE_UNION cursor, resumed at an "MU" checkpoint when
/// given.
Result<CursorPtr> BuildMergeUnionCursor(const CollectionView& coll,
                                        const QueryPlan& plan,
                                        ExecStats* stats,
                                        const DocValue* ckpt) {
  bool resumed = false;
  CompositeKey last_key;
  DocId last_id = 0;
  if (ckpt != nullptr) {
    if (!CheckpointHasTag(*ckpt, "MU")) return kBadCheckpoint;
    const DocValue* emitted = CheckpointField(*ckpt, 0);
    const DocValue* key = CheckpointField(*ckpt, 1);
    int64_t id;
    if (emitted == nullptr || !emitted->is_bool() || key == nullptr ||
        !CkptInt(*ckpt, 2, &id) || id < 0) {
      return kBadCheckpoint;
    }
    if (emitted->bool_value()) {
      if (!key->is_array()) return kBadCheckpoint;
      std::vector<IndexKey> key_parts;
      key_parts.reserve(key->array_items().size());
      for (const DocValue& part : key->array_items()) {
        key_parts.push_back(IndexKey::FromValue(part));
      }
      resumed = true;
      last_key = CompositeKey(std::move(key_parts));
      last_id = static_cast<DocId>(id);
    }
  }
  std::vector<MergeBranch> branches;
  branches.reserve(plan.branches.size());
  for (const QueryPlan& branch : plan.branches) {
    IxScanShape shape = ShapeOf(branch);
    if (shape.order_components.empty()) {
      return Status::Internal("MERGE_UNION branch without an order key");
    }
    std::unique_ptr<IxScanCursor> scan;
    if (resumed) {
      DT_ASSIGN_OR_RETURN(scan, BuildResumedMergeBranch(coll, branch, shape,
                                                        stats, last_key,
                                                        last_id));
    } else {
      DT_ASSIGN_OR_RETURN(scan,
                          BuildIxScan(coll, branch, shape, stats, nullptr));
    }
    MergeBranch mb;
    mb.scan = scan.get();
    mb.order_components = shape.order_components;
    mb.cursor = std::move(scan);
    if (branch.residual) {
      mb.cursor = std::make_unique<FilterCursor>(coll, std::move(mb.cursor),
                                                 branch.node, stats);
    }
    branches.push_back(std::move(mb));
  }
  if (resumed) {
    return CursorPtr(std::make_unique<MergeUnionCursor>(
        std::move(branches), plan.order_desc, last_key, last_id));
  }
  return CursorPtr(
      std::make_unique<MergeUnionCursor>(std::move(branches),
                                         plan.order_desc));
}

/// Builds the access-path cursor for `plan` (no pipeline operators),
/// resumed at `ckpt` when given.
Result<CursorPtr> BuildAccessCursor(const CollectionView& coll,
                                    const QueryPlan& plan,
                                    const FindOptions& opts,
                                    ExecStats* stats,
                                    const DocValue* ckpt) {
  switch (plan.access) {
    case AccessPath::kCollScan: {
      DocId after_id = 0;
      if (ckpt != nullptr) {
        DT_ASSIGN_OR_RETURN(after_id, CkptWatermark(*ckpt, "CS"));
      }
      if (opts.pool != nullptr && opts.pool->num_threads() > 1 &&
          coll.count() >= 2) {
        return CollScanCursor::Parallel(coll, plan.node, opts.pool, stats,
                                        after_id);
      }
      return CursorPtr(std::make_unique<CollScanCursor>(coll, plan.node,
                                                        stats, after_id));
    }
    case AccessPath::kIndexEq:
    case AccessPath::kIndexRange: {
      DT_ASSIGN_OR_RETURN(
          std::unique_ptr<IxScanCursor> scan,
          BuildIxScan(coll, plan, ShapeOf(plan), stats, ckpt));
      return CursorPtr(std::move(scan));
    }
    case AccessPath::kTextIndex: {
      DocId after_id = 0;
      if (ckpt != nullptr) {
        DT_ASSIGN_OR_RETURN(after_id, CkptWatermark(*ckpt, "V"));
      }
      return BuildTextCursor(coll, plan, stats, after_id);
    }
    case AccessPath::kUnion: {
      DocId after_id = 0;
      if (ckpt != nullptr) {
        DT_ASSIGN_OR_RETURN(after_id, CkptWatermark(*ckpt, "U"));
      }
      std::vector<CursorPtr> branches;
      branches.reserve(plan.branches.size());
      for (const QueryPlan& branch : plan.branches) {
        DT_ASSIGN_OR_RETURN(
            CursorPtr cur, BuildAccessCursor(coll, branch, opts, stats,
                                             nullptr));
        if (branch.residual) {
          cur = std::make_unique<FilterCursor>(coll, std::move(cur),
                                               branch.node, stats);
        }
        branches.push_back(std::move(cur));
      }
      return CursorPtr(
          std::make_unique<UnionCursor>(std::move(branches), after_id));
    }
    case AccessPath::kMergeUnion:
      return BuildMergeUnionCursor(coll, plan, stats, ckpt);
  }
  return Status::Internal("unknown access path");
}

/// Builds the full operator tree: access path, residual FILTER, then
/// SORT / TOPK / LIMIT as the decoration demands. `ckpt` (may be null)
/// is the checkpoint tree a prior page saved off the same plan; the
/// walk mirrors `SaveCheckpoint`'s nesting.
Result<CursorPtr> BuildCursor(const CollectionView& coll,
                              const QueryPlan& plan, const FindOptions& opts,
                              ExecStats* stats, const DocValue* ckpt) {
  const bool blocking_order =
      !plan.order_by.empty() && !plan.order_covered;
  if (blocking_order) {
    // SORT/TOPK own the position (emitted count; they re-materialize
    // on resume — blocking operators have no cheaper checkpoint), so
    // the subtree below them always opens fresh.
    int64_t skip = 0;
    const char* tag = plan.limit >= 0 ? "TOPK" : "SORT";
    if (ckpt != nullptr) {
      if (!CheckpointHasTag(*ckpt, tag) || !CkptInt(*ckpt, 0, &skip) ||
          skip < 0) {
        return kBadCheckpoint;
      }
    }
    DT_ASSIGN_OR_RETURN(CursorPtr cur,
                        BuildAccessCursor(coll, plan, opts, stats, nullptr));
    if (plan.residual && plan.access != AccessPath::kCollScan) {
      cur = std::make_unique<FilterCursor>(coll, std::move(cur), plan.node,
                                           stats);
    }
    if (plan.limit >= 0) {
      return CursorPtr(std::make_unique<TopKCursor>(
          coll, std::move(cur), plan.order_by, plan.order_desc, plan.limit,
          stats, skip));
    }
    return CursorPtr(std::make_unique<SortCursor>(
        coll, std::move(cur), plan.order_by, plan.order_desc, stats, skip));
  }
  const DocValue* inner_ckpt = ckpt;
  int64_t remaining = plan.limit;
  if (plan.limit >= 0 && ckpt != nullptr) {
    if (!CheckpointHasTag(*ckpt, "LIM") || !CkptInt(*ckpt, 0, &remaining) ||
        remaining < 0 || remaining > plan.limit) {
      return kBadCheckpoint;
    }
    inner_ckpt = CheckpointField(*ckpt, 1);
    if (inner_ckpt == nullptr) return kBadCheckpoint;
  }
  DT_ASSIGN_OR_RETURN(
      CursorPtr cur, BuildAccessCursor(coll, plan, opts, stats, inner_ckpt));
  if (plan.residual && plan.access != AccessPath::kCollScan) {
    cur = std::make_unique<FilterCursor>(coll, std::move(cur), plan.node,
                                         stats);
  }
  if (plan.limit >= 0) {
    cur = std::make_unique<LimitCursor>(std::move(cur), remaining);
  }
  return cur;
}

/// The resume-safety fingerprint: the collection identity plus the
/// canonical plan rendering (access path, index bounds, order, limit,
/// estimates) plus the predicate tree. Identical state re-plans to an
/// identical fingerprint; any drift in what the token's position means
/// — including handing a token minted on one collection to another
/// whose epoch coincidentally matches — rejects the token.
uint64_t PlanFingerprint(const CollectionView& coll, const QueryPlan& plan,
                         const PredicatePtr& pred) {
  std::string s = coll.ns();
  s += '\x1f';
  s += plan.ToString();
  s += '\x1f';
  s += pred != nullptr ? pred->ToString() : "";
  return Fnv1a64(s);
}

void NoteScan(const CollectionView& coll, const QueryPlan& plan) {
  if (plan.access == AccessPath::kCollScan) {
    coll.NoteCollScan();
  } else {
    coll.NoteIndexScan();
  }
}

/// The shared plan-validate-open core of FindPage/FindFold: resolves
/// the execution view (the caller's view, or — on resume — the exact
/// retained version the token was minted against), plans `pred`
/// against it, validates the token (incarnation, version reachability,
/// plan fingerprint) and returns the root cursor positioned
/// accordingly. Resets `opts.stats`, copies the plan to `*plan_out`,
/// the fingerprint to `*fingerprint_out` and the execution view to
/// `*exec_view_out` (so the caller mints tokens against the version
/// that actually executed).
Result<CursorPtr> OpenFind(const CollectionView& view,
                           const PredicatePtr& pred, const FindOptions& opts,
                           QueryPlan* plan_out, uint64_t* fingerprint_out,
                           CollectionView* exec_view_out) {
  if (pred == nullptr) {
    return Status::InvalidArgument("Find requires a predicate");
  }
  if (opts.stats != nullptr) *opts.stats = ExecStats{};
  CollectionView exec_view = view;
  DocValue ckpt;
  if (!opts.resume_token.empty()) {
    uint64_t token_fp, token_inc, token_vid;
    DT_RETURN_NOT_OK(DecodePageToken(opts.resume_token, &token_fp,
                                     &token_inc, &token_vid, &ckpt));
    if (token_inc != view.incarnation()) {
      return Status::InvalidArgument(
          "stale resume token: it was issued against a different "
          "incarnation of " +
          view.ns());
    }
    // Resolve the exact storage version the token was minted against:
    // the caller's current version, or an older one the collection
    // retained when the token was issued. Reclaimed versions reject.
    DT_ASSIGN_OR_RETURN(exec_view, view.At(token_vid));
    QueryPlan plan = PlanFind(exec_view, pred, opts);
    if (token_fp != PlanFingerprint(exec_view, plan, pred)) {
      return Status::InvalidArgument(
          "resume token does not match this query's plan");
    }
    DT_ASSIGN_OR_RETURN(CursorPtr root, BuildCursor(exec_view, plan, opts,
                                                    opts.stats, &ckpt));
    *plan_out = std::move(plan);
    *fingerprint_out = token_fp;
    *exec_view_out = std::move(exec_view);
    return root;
  }
  QueryPlan plan = PlanFind(exec_view, pred, opts);
  const uint64_t fingerprint = PlanFingerprint(exec_view, plan, pred);
  DT_ASSIGN_OR_RETURN(CursorPtr root, BuildCursor(exec_view, plan, opts,
                                                  opts.stats, nullptr));
  *plan_out = std::move(plan);
  *fingerprint_out = fingerprint;
  *exec_view_out = std::move(exec_view);
  return root;
}

}  // namespace

Result<FindResult> FindPage(const CollectionView& view,
                            const PredicatePtr& pred,
                            const FindOptions& opts) {
  if (opts.page_size == 0 || opts.page_size < -1) {
    return Status::InvalidArgument(
        "page_size must be positive (or -1 for unpaged)");
  }
  QueryPlan plan;
  uint64_t fingerprint;
  CollectionView exec_view = view;
  DT_ASSIGN_OR_RETURN(
      CursorPtr root,
      OpenFind(view, pred, opts, &plan, &fingerprint, &exec_view));
  FindResult out;
  if (opts.page_size < 0) {
    DT_RETURN_NOT_OK(DrainCursor(root.get(), opts.stats, &out.ids));
  } else {
    DocId id;
    while (static_cast<int64_t>(out.ids.size()) < opts.page_size &&
           root->Next(&id)) {
      out.ids.push_back(id);
    }
    DT_RETURN_NOT_OK(root->status());
    if (static_cast<int64_t>(out.ids.size()) == opts.page_size) {
      // Snapshot the position, then probe once: a token is only minted
      // when another id actually exists, so clients never chase an
      // empty trailing page.
      DocValue position = root->SaveCheckpoint();
      DocId probe;
      const bool more = root->Next(&probe);
      DT_RETURN_NOT_OK(root->status());
      if (more) {
        // The token pins the exact version this page executed against:
        // retain it so the next page resumes on identical data no
        // matter what writers publish in between.
        exec_view.RetainForResume();
        out.next_token =
            EncodePageToken(fingerprint, exec_view.incarnation(),
                            exec_view.version_id(), position);
      }
    }
    if (opts.stats != nullptr) {
      opts.stats->docs_returned += static_cast<int64_t>(out.ids.size());
    }
  }
  NoteScan(view, plan);
  return out;
}

Result<std::vector<DocId>> Find(const CollectionView& view,
                                const PredicatePtr& pred,
                                const FindOptions& opts) {
  DT_ASSIGN_OR_RETURN(FindResult page, FindPage(view, pred, opts));
  return std::move(page.ids);
}

Status FindFold(const CollectionView& view, const PredicatePtr& pred,
                const FindOptions& opts,
                const std::function<void(DocId)>& fn) {
  FindOptions fold_opts = opts;  // pagination is a FindPage concern
  fold_opts.page_size = -1;
  fold_opts.resume_token.clear();
  QueryPlan plan;
  uint64_t fingerprint;
  CollectionView exec_view = view;
  DT_ASSIGN_OR_RETURN(
      CursorPtr root,
      OpenFind(view, pred, fold_opts, &plan, &fingerprint, &exec_view));
  DocId id;
  int64_t returned = 0;
  while (root->Next(&id)) {
    fn(id);
    ++returned;
  }
  DT_RETURN_NOT_OK(root->status());
  if (fold_opts.stats != nullptr) fold_opts.stats->docs_returned += returned;
  NoteScan(view, plan);
  return Status::OK();
}

// ---- rendering ---------------------------------------------------------

namespace {

std::string RenderDocValue(const DocValue& v) {
  return v.is_string() ? "\"" + v.string_value() + "\"" : v.ToJson();
}

// ---- lenient field readers for RenderPlan ------------------------------
// The renderer accepts documents from the wire; a missing or mistyped
// field degrades to a placeholder instead of crashing.

std::string PlanStr(const DocValue& plan, const char* key) {
  const DocValue* v = plan.is_object() ? plan.Find(key) : nullptr;
  return v != nullptr && v->is_string() ? v->string_value() : std::string();
}

int64_t PlanInt(const DocValue& plan, const char* key, int64_t fallback) {
  const DocValue* v = plan.is_object() ? plan.Find(key) : nullptr;
  return v != nullptr && v->is_int() ? v->int_value() : fallback;
}

bool PlanBool(const DocValue& plan, const char* key) {
  const DocValue* v = plan.is_object() ? plan.Find(key) : nullptr;
  return v != nullptr && v->is_bool() && v->bool_value();
}

const storage::DocArray* PlanArray(const DocValue& plan, const char* key) {
  const DocValue* v = plan.is_object() ? plan.Find(key) : nullptr;
  return v != nullptr && v->is_array() ? &v->array_items() : nullptr;
}

/// Renders a serialized predicate field: absent/null falls back to
/// `fallback` ("TRUE" for match-all slots), undecodable to "?".
std::string PlanPredStr(const DocValue& plan, const char* key,
                        const char* fallback) {
  const DocValue* v = plan.is_object() ? plan.Find(key) : nullptr;
  if (v == nullptr || v->is_null()) return fallback;
  Result<PredicatePtr> pred = Predicate::FromDocValue(*v);
  return pred.ok() ? (*pred)->ToString() : "?";
}

}  // namespace

DocValue QueryPlan::ToDocValue() const {
  DocValue out = DocValue::Object();
  out.Add("access", DocValue::Str(AccessPathName(access)));
  out.Add("pred", node != nullptr ? node->ToDocValue() : DocValue::Null());
  out.Add("driver",
          driver != nullptr ? driver->ToDocValue() : DocValue::Null());
  out.Add("est", DocValue::Int(estimated_rows));
  out.Add("est_exact", DocValue::Bool(est_exact));
  out.Add("residual", DocValue::Bool(residual));
  DocValue paths = DocValue::Array();
  if (index != nullptr) {
    for (const auto& p : index->field_paths()) paths.Push(DocValue::Str(p));
  }
  out.Add("paths", std::move(paths));
  DocValue eq = DocValue::Array();
  for (const auto& v : eq_values) eq.Push(v);
  out.Add("eq", std::move(eq));
  if (has_range) {
    DocValue range = DocValue::Array();
    range.Push(range_lo);
    range.Push(range_hi);
    out.Add("range", std::move(range));
  } else {
    out.Add("range", DocValue::Null());
  }
  out.Add("order_by", DocValue::Str(order_by));
  out.Add("order_desc", DocValue::Bool(order_desc));
  out.Add("limit", DocValue::Int(limit));
  out.Add("order_covered", DocValue::Bool(order_covered));
  DocValue branch_docs = DocValue::Array();
  for (const auto& b : branches) branch_docs.Push(b.ToDocValue());
  out.Add("branches", std::move(branch_docs));
  return out;
}

std::string QueryPlan::ToString() const { return RenderPlan(ToDocValue()); }

std::string RenderPlan(const DocValue& plan) {
  const std::string access = PlanStr(plan, "access");
  const std::string est_num = std::to_string(PlanInt(plan, "est", 0));
  // Estimate provenance: only an explicit `est_exact: false` renders
  // as a histogram estimate, so plans from peers that predate the
  // field read as exact counts (which they were).
  const DocValue* ee = plan.is_object() ? plan.Find("est_exact") : nullptr;
  const bool est_exact = ee == nullptr || !ee->is_bool() || ee->bool_value();
  const std::string est =
      est_exact ? est_num + " (exact)" : "~" + est_num + " (hist)";
  const std::string order_by = PlanStr(plan, "order_by");
  const bool order_desc = PlanBool(plan, "order_desc");
  std::string out = access.empty() ? "?" : access;
  if (access == "COLLSCAN") {
    // A full scan's cardinality is the doc count — trivially exact, so
    // no provenance suffix.
    out += " { " + PlanPredStr(plan, "pred", "TRUE") + " } docs=" + est_num;
  } else if (access == "UNION" || access == "MERGE_UNION") {
    out += " [ ";
    // Each branch renders recursively — per-branch access, bounds
    // and `est=` (and, inside MERGE_UNION, the order annotation).
    if (const storage::DocArray* branches = PlanArray(plan, "branches")) {
      for (size_t i = 0; i < branches->size(); ++i) {
        if (i > 0) out += " , ";
        out += RenderPlan((*branches)[i]);
      }
    }
    out += " ]";
    if (access == "MERGE_UNION" && !order_by.empty()) {
      out += " order=" + order_by + (order_desc ? " desc" : "");
    }
    out += " est=" + est;
  } else if (access == "TEXT") {
    out += " { " + PlanPredStr(plan, "driver", "?") + " } est=" + est;
  } else if (access == "IXSCAN") {
    static const storage::DocArray kEmpty;
    const storage::DocArray* paths_arr = PlanArray(plan, "paths");
    const storage::DocArray& paths = paths_arr ? *paths_arr : kEmpty;
    const storage::DocArray* eq_arr = PlanArray(plan, "eq");
    const storage::DocArray& eq = eq_arr ? *eq_arr : kEmpty;
    const storage::DocArray* range = PlanArray(plan, "range");
    const bool has_range = range != nullptr && range->size() == 2;
    auto path_at = [&paths](size_t i) {
      return paths[i].is_string() ? paths[i].string_value() : std::string("?");
    };
    const size_t m = eq.size();
    size_t shown = m + (has_range ? 1 : 0);
    if (shown == 0) shown = std::min<size_t>(1, paths.size());
    out += "(";
    for (size_t i = 0; i < shown && i < paths.size(); ++i) {
      if (i > 0) out += ",";
      out += path_at(i);
    }
    out += ") { ";
    if (shown == 0 || paths.empty()) {
      out += "all";
    } else {
      for (size_t i = 0; i < m && i < paths.size(); ++i) {
        if (i > 0) out += ", ";
        out += path_at(i) + " == " + RenderDocValue(eq[i]);
      }
      if (has_range && m < paths.size()) {
        if (m > 0) out += ", ";
        out += path_at(m) + " in [" + RenderDocValue((*range)[0]) + ", " +
               RenderDocValue((*range)[1]) + "]";
      }
      if (m == 0 && !has_range) out += "all";
    }
    out += " }";
    if (PlanBool(plan, "order_covered") && !order_by.empty()) {
      out += " order=" + order_by + (order_desc ? " desc" : "");
    }
    out += " est=" + est;
  }
  if (PlanBool(plan, "residual") && access != "COLLSCAN") {
    // The residual's own output cardinality is unknown without
    // histograms; `est=` reports the rows entering the filter (the
    // driver estimate), the bound that matters for fetch cost.
    out += " -> FILTER { " + PlanPredStr(plan, "pred", "TRUE") +
           " } est=" + est;
  }
  const int64_t limit = PlanInt(plan, "limit", -1);
  bool limit_pending = limit >= 0;
  if (!order_by.empty() && !PlanBool(plan, "order_covered")) {
    if (limit_pending) {
      out += " -> TOPK(" + order_by + (order_desc ? " desc" : "") +
             ", k=" + std::to_string(limit) + ")";
      limit_pending = false;
    } else {
      out += " -> SORT(" + order_by + (order_desc ? " desc" : "") + ")";
    }
  }
  if (limit_pending) out += " -> LIMIT(" + std::to_string(limit) + ")";
  return out;
}

std::string ExplainFind(const CollectionView& view, const PredicatePtr& pred,
                        const FindOptions& opts) {
  QueryPlan plan = PlanFind(view, pred, opts);
  std::string out = plan.ToString();
  if (!opts.resume_token.empty()) {
    // Render where the resumed execution would restart — or why the
    // token would be rejected.
    uint64_t token_fp = 0, token_inc = 0, token_vid = 0;
    DocValue ckpt;
    if (!DecodePageToken(opts.resume_token, &token_fp, &token_inc,
                         &token_vid, &ckpt)
             .ok()) {
      out += " resume=INVALID";
    } else if (token_inc != view.incarnation()) {
      out += " resume=STALE(incarnation mismatch)";
    } else {
      Result<CollectionView> resolved = view.At(token_vid);
      if (!resolved.ok()) {
        out += " resume=STALE(version " + std::to_string(token_vid) +
               " reclaimed)";
      } else {
        const CollectionView& exec_view = *resolved;
        QueryPlan exec_plan = PlanFind(exec_view, pred, opts);
        if (token_fp != PlanFingerprint(exec_view, exec_plan, pred)) {
          out += " resume=PLAN_MISMATCH";
        } else if (exec_view.version_id() != view.version_id()) {
          out += " resume=RETAINED " + ckpt.ToJson();
        } else {
          out += " resume=" + ckpt.ToJson();
        }
      }
    }
  }
  return out;
}

}  // namespace dt::query
