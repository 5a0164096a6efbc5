#include "query/executor.h"

#include <utility>

#include "common/thread_pool.h"

namespace dt::query {

using storage::CollectionView;
using storage::CompositeKey;
using storage::DocId;
using storage::DocValue;
using storage::IndexKey;

DocValue ExecStats::ToDocValue() const {
  DocValue out = DocValue::Object();
  out.Add("index_entries_examined", DocValue::Int(index_entries_examined));
  out.Add("docs_examined", DocValue::Int(docs_examined));
  out.Add("docs_returned", DocValue::Int(docs_returned));
  out.Add("planning_ns", DocValue::Int(planning_ns));
  out.Add("plan_entries_counted", DocValue::Int(plan_entries_counted));
  out.Add("estimated_rows", DocValue::Int(estimated_rows));
  out.Add("estimate_exact", DocValue::Int(estimate_exact));
  return out;
}

Result<ExecStats> ExecStats::FromDocValue(const DocValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("ExecStats wants an object");
  }
  ExecStats out;
  struct Field {
    const char* key;
    int64_t* dst;
  } fields[] = {
      {"index_entries_examined", &out.index_entries_examined},
      {"docs_examined", &out.docs_examined},
      {"docs_returned", &out.docs_returned},
      {"planning_ns", &out.planning_ns},
      {"plan_entries_counted", &out.plan_entries_counted},
      {"estimated_rows", &out.estimated_rows},
      {"estimate_exact", &out.estimate_exact},
  };
  for (const Field& f : fields) {
    const DocValue* fv = v.Find(f.key);
    if (fv == nullptr || !fv->is_int()) {
      return Status::InvalidArgument(std::string("ExecStats field ") + f.key +
                                     " must be an int");
    }
    *f.dst = fv->int_value();
  }
  return out;
}

Status DrainCursor(Cursor* cursor, ExecStats* stats,
                   std::vector<DocId>* out) {
  DocId id;
  while (cursor->Next(&id)) out->push_back(id);
  DT_RETURN_NOT_OK(cursor->status());
  if (stats != nullptr) {
    stats->docs_returned += static_cast<int64_t>(out->size());
  }
  return Status::OK();
}

std::vector<std::string> SplitOrderPaths(const std::string& order_by) {
  std::vector<std::string> paths;
  size_t at = 0;
  while (at <= order_by.size()) {
    size_t comma = order_by.find(',', at);
    if (comma == std::string::npos) comma = order_by.size();
    if (comma > at) paths.push_back(order_by.substr(at, comma - at));
    at = comma + 1;
  }
  return paths;
}

// ---- checkpoint helpers ------------------------------------------------

DocValue MakeCheckpoint(const char* tag, std::vector<DocValue> fields) {
  DocValue out = DocValue::Array();
  out.Push(DocValue::Str(tag));
  for (DocValue& f : fields) out.Push(std::move(f));
  return out;
}

bool CheckpointHasTag(const DocValue& ckpt, const char* tag) {
  if (!ckpt.is_array() || ckpt.array_items().empty()) return false;
  const DocValue& head = ckpt.array_items().front();
  return head.is_string() && head.string_value() == tag;
}

const DocValue* CheckpointField(const DocValue& ckpt, size_t i) {
  if (!ckpt.is_array() || ckpt.array_items().size() <= i + 1) return nullptr;
  return &ckpt.array_items()[i + 1];
}

// ---- IxScanCursor ------------------------------------------------------

namespace {

/// First `n` components of `key` as their own key.
CompositeKey TruncateKey(const CompositeKey& key, size_t n) {
  n = std::min(n, key.width());
  std::vector<IndexKey> parts(key.parts().begin(),
                              key.parts().begin() + static_cast<long>(n));
  return CompositeKey(std::move(parts));
}

/// The (order key, id) comparison every ordering operator shares —
/// order keys are composite (one component per `order_by` path);
/// `descending` flips the key comparison only — ties stay ascending by
/// id, the deterministic contract the differential harness pins.
struct OrderBetter {
  bool descending;
  bool operator()(const std::pair<CompositeKey, DocId>& a,
                  const std::pair<CompositeKey, DocId>& b) const {
    if (a.first < b.first) return !descending;
    if (b.first < a.first) return descending;
    return a.second < b.second;
  }
};

/// The document's composite order key: one component per order path,
/// missing fields and non-indexable values as the null key.
CompositeKey OrderKeyOf(const DocValue* doc,
                        const std::vector<std::string>& paths) {
  std::vector<IndexKey> parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    const DocValue* v = doc == nullptr ? nullptr : doc->FindPath(path);
    parts.push_back(v == nullptr ? IndexKey() : IndexKey::FromValue(*v));
  }
  return CompositeKey(std::move(parts));
}

}  // namespace

IxScanCursor::IxScanCursor(CollectionView view,
                           storage::SecondaryIndex::Scan scan,
                           size_t run_prefix_len, ExecStats* stats)
    : view_(std::move(view)),
      scan_(scan),
      run_prefix_len_(run_prefix_len),
      stats_(stats) {}

IxScanCursor::IxScanCursor(CollectionView view,
                           storage::SecondaryIndex::Scan scan,
                           size_t run_prefix_len, ExecStats* stats,
                           const CompositeKey& resume_prefix,
                           DocId resume_id)
    : view_(std::move(view)),
      scan_(scan),
      run_prefix_len_(run_prefix_len),
      stats_(stats),
      run_prefix_key_(resume_prefix),
      emitted_(true),
      last_id_(resume_id) {
  scan_.SeekAfter(resume_prefix, resume_id);
}

bool IxScanCursor::FillRun() {
  run_.clear();
  run_at_ = 0;
  const CompositeKey* key;
  DocId id;
  if (!pending_valid_) {
    if (!scan_.Next(&key, &id)) return false;
    if (stats_ != nullptr) ++stats_->index_entries_examined;
    pending_key_ = *key;
    pending_id_ = id;
  }
  CompositeKey run_key = std::move(pending_key_);
  run_.push_back(pending_id_);
  pending_valid_ = false;
  while (scan_.Next(&key, &id)) {
    if (stats_ != nullptr) ++stats_->index_entries_examined;
    if (!run_key.PrefixEquals(*key, run_prefix_len_)) {
      // First entry of the next run: park it for the next fill.
      pending_key_ = *key;
      pending_id_ = id;
      pending_valid_ = true;
      break;
    }
    run_.push_back(id);
  }
  run_prefix_key_ = TruncateKey(run_key, run_prefix_len_);
  // Ids inside a run tie on every component that orders the output, so
  // the contract says ascending id.
  std::sort(run_.begin(), run_.end());
  return true;
}

bool IxScanCursor::Next(DocId* id) {
  while (run_at_ >= run_.size()) {
    if (!FillRun()) return false;
  }
  *id = run_[run_at_++];
  emitted_ = true;
  last_id_ = *id;
  return true;
}

DocValue IxScanCursor::SaveCheckpoint() const {
  if (!emitted_) {
    return MakeCheckpoint("IX", {DocValue::Null(), DocValue::Int(0)});
  }
  DocValue prefix = DocValue::Array();
  for (const IndexKey& part : run_prefix_key_.parts()) {
    prefix.Push(part.ToDocValue());
  }
  return MakeCheckpoint(
      "IX", {std::move(prefix), DocValue::Int(static_cast<int64_t>(last_id_))});
}

// ---- CollScanCursor ----------------------------------------------------

CollScanCursor::CollScanCursor(const CollectionView& view, PredicatePtr pred,
                               ExecStats* stats, DocId after_id)
    : docs_(view.ScanDocs()),
      pred_(std::move(pred)),
      stats_(stats),
      last_id_(after_id) {
  if (after_id > 0) docs_.SeekAfter(after_id);
}

bool CollScanCursor::Next(DocId* id) {
  const DocValue* doc;
  while (docs_.Next(id, &doc)) {
    if (stats_ != nullptr) ++stats_->docs_examined;
    if (pred_ == nullptr || pred_->Matches(*doc)) {
      last_id_ = *id;
      return true;
    }
  }
  return false;
}

DocValue CollScanCursor::SaveCheckpoint() const {
  return MakeCheckpoint("CS",
                        {DocValue::Int(static_cast<int64_t>(last_id_))});
}

Result<CursorPtr> CollScanCursor::Parallel(const CollectionView& view,
                                           const PredicatePtr& pred,
                                           ThreadPool* pool, ExecStats* stats,
                                           DocId after_id) {
  // The chunked loop needs random access; stage (id, doc) pointers —
  // they point into the view's immutable version, which the caller
  // keeps alive across this call.
  std::vector<std::pair<DocId, const DocValue*>> docs;
  docs.reserve(static_cast<size_t>(view.count()));
  view.ForEach([&](DocId id, const DocValue& doc) {
    if (id > after_id) docs.emplace_back(id, &doc);
  });
  if (stats != nullptr) {
    stats->docs_examined += static_cast<int64_t>(docs.size());
  }
  const size_t num_chunks = static_cast<size_t>(pool->num_threads()) * 4;
  std::vector<std::vector<DocId>> parts(num_chunks);
  DT_RETURN_NOT_OK(pool->ParallelForChunks(
      0, docs.size(), num_chunks,
      [&](size_t chunk, size_t begin, size_t end) {
        std::vector<DocId>& part = parts[chunk];
        for (size_t i = begin; i < end; ++i) {
          if (pred == nullptr || pred->Matches(*docs[i].second)) {
            part.push_back(docs[i].first);
          }
        }
        return Status::OK();
      }));
  std::vector<DocId> ids;
  // In-order concatenation keeps the output byte-identical to the
  // serial scan for every thread count.
  for (const auto& part : parts) {
    ids.insert(ids.end(), part.begin(), part.end());
  }
  // Tagged "CS" so serial and parallel executions mint interchangeable
  // resume positions.
  return CursorPtr(
      std::make_unique<ReplayCursor>(std::move(ids), "CS", after_id));
}

// ---- FilterCursor ------------------------------------------------------

FilterCursor::FilterCursor(CollectionView view, CursorPtr child,
                           PredicatePtr pred, ExecStats* stats)
    : view_(std::move(view)),
      child_(std::move(child)),
      pred_(std::move(pred)),
      stats_(stats) {}

bool FilterCursor::Next(DocId* id) {
  while (child_->Next(id)) {
    const DocValue* doc = view_.Get(*id);
    if (doc == nullptr) continue;  // not live in this version: no match
    if (stats_ != nullptr) ++stats_->docs_examined;
    if (pred_ == nullptr || pred_->Matches(*doc)) return true;
  }
  return false;
}

// ---- UnionCursor -------------------------------------------------------

UnionCursor::UnionCursor(std::vector<CursorPtr> children, DocId after_id)
    : children_(std::move(children)),
      heads_(children_.size(), 0),
      head_valid_(children_.size(), false),
      emitted_(after_id > 0),
      last_id_(after_id) {}

void UnionCursor::Refill(size_t c) {
  DocId id;
  // Children emit strictly ascending ids, so one pull suffices past
  // the priming phase; on resume the watermark drop loops.
  while (children_[c]->Next(&id)) {
    if (emitted_ && id <= last_id_) continue;  // consumed before resume
    heads_[c] = id;
    head_valid_[c] = true;
    return;
  }
  head_valid_[c] = false;
  if (!children_[c]->status().ok()) failed_ = true;
}

bool UnionCursor::Next(DocId* id) {
  if (!primed_) {
    primed_ = true;
    for (size_t c = 0; c < children_.size(); ++c) Refill(c);
  }
  while (!failed_) {
    size_t best = children_.size();
    for (size_t c = 0; c < children_.size(); ++c) {
      if (!head_valid_[c]) continue;
      if (best == children_.size() || heads_[c] < heads_[best]) best = c;
    }
    if (best == children_.size()) return false;  // all dry
    DocId v = heads_[best];
    Refill(best);
    if (emitted_ && v == last_id_) continue;  // duplicate across branches
    emitted_ = true;
    last_id_ = v;
    *id = v;
    return true;
  }
  return false;
}

Status UnionCursor::status() const {
  for (const CursorPtr& child : children_) {
    DT_RETURN_NOT_OK(child->status());
  }
  return Status::OK();
}

DocValue UnionCursor::SaveCheckpoint() const {
  return MakeCheckpoint("U", {DocValue::Int(static_cast<int64_t>(last_id_))});
}

// ---- MergeUnionCursor --------------------------------------------------

MergeUnionCursor::MergeUnionCursor(std::vector<MergeBranch> branches,
                                   bool descending)
    : branches_(std::move(branches)),
      heads_(branches_.size()),
      descending_(descending) {}

MergeUnionCursor::MergeUnionCursor(std::vector<MergeBranch> branches,
                                   bool descending, CompositeKey resume_key,
                                   DocId resume_id)
    : branches_(std::move(branches)),
      heads_(branches_.size()),
      descending_(descending),
      emitted_(true),
      last_key_(std::move(resume_key)),
      last_id_(resume_id) {}

void MergeUnionCursor::Refill(size_t b) {
  DocId id;
  if (branches_[b].cursor->Next(&id)) {
    std::vector<IndexKey> parts;
    parts.reserve(branches_[b].order_components.size());
    for (size_t component : branches_[b].order_components) {
      parts.push_back(branches_[b].scan->RunKeyPart(component));
    }
    heads_[b].key = CompositeKey(std::move(parts));
    heads_[b].id = id;
    heads_[b].valid = true;
  } else {
    heads_[b].valid = false;
    if (!branches_[b].cursor->status().ok()) failed_ = true;
  }
}

bool MergeUnionCursor::Next(DocId* id) {
  if (!primed_) {
    primed_ = true;
    for (size_t b = 0; b < branches_.size(); ++b) Refill(b);
  }
  const OrderBetter better{descending_};
  while (!failed_) {
    size_t best = branches_.size();
    for (size_t b = 0; b < branches_.size(); ++b) {
      if (!heads_[b].valid) continue;
      if (best == branches_.size() ||
          better({heads_[b].key, heads_[b].id},
                 {heads_[best].key, heads_[best].id})) {
        best = b;
      }
    }
    if (best == branches_.size()) return false;  // all branches dry
    Head head = heads_[best];
    Refill(best);
    // Equal ids across branches carry equal keys (the key is a
    // function of the document), so duplicates surface back to back.
    if (emitted_ && head.id == last_id_ && head.key == last_key_) continue;
    emitted_ = true;
    last_key_ = head.key;
    last_id_ = head.id;
    *id = head.id;
    return true;
  }
  return false;
}

Status MergeUnionCursor::status() const {
  for (const MergeBranch& b : branches_) {
    DT_RETURN_NOT_OK(b.cursor->status());
  }
  return Status::OK();
}

DocValue MergeUnionCursor::SaveCheckpoint() const {
  // One component per order path (the shape the resume path rebuilds).
  DocValue key = DocValue::Array();
  for (const IndexKey& part : last_key_.parts()) {
    key.Push(part.ToDocValue());
  }
  return MakeCheckpoint(
      "MU", {DocValue::Bool(emitted_), std::move(key),
             DocValue::Int(static_cast<int64_t>(last_id_))});
}

// ---- SortCursor --------------------------------------------------------

SortCursor::SortCursor(CollectionView view, CursorPtr child,
                       std::string order_by, bool descending,
                       ExecStats* stats, int64_t skip)
    : view_(std::move(view)),
      child_(std::move(child)),
      order_paths_(SplitOrderPaths(order_by)),
      descending_(descending),
      stats_(stats),
      skip_(skip) {}

void SortCursor::Materialize() {
  std::vector<std::pair<CompositeKey, DocId>> keyed;
  DocId id;
  while (child_->Next(&id)) {
    if (order_paths_.empty()) {
      ids_.push_back(id);
      continue;
    }
    if (stats_ != nullptr) ++stats_->docs_examined;
    keyed.emplace_back(OrderKeyOf(view_.Get(id), order_paths_), id);
  }
  if (order_paths_.empty()) {
    std::sort(ids_.begin(), ids_.end());
    return;
  }
  std::sort(keyed.begin(), keyed.end(), OrderBetter{descending_});
  ids_.reserve(keyed.size());
  for (auto& [key, kid] : keyed) ids_.push_back(kid);
}

bool SortCursor::Next(DocId* id) {
  if (!sorted_) {
    sorted_ = true;
    Materialize();
    if (!child_->status().ok()) return false;
    at_ = std::min(static_cast<size_t>(skip_), ids_.size());
  }
  if (at_ >= ids_.size()) return false;
  *id = ids_[at_++];
  return true;
}

DocValue SortCursor::SaveCheckpoint() const {
  // The count of emitted ids: the sort's total order is deterministic,
  // so re-materializing and skipping reproduces the stream exactly.
  const int64_t emitted = sorted_ ? static_cast<int64_t>(at_) : skip_;
  return MakeCheckpoint("SORT", {DocValue::Int(emitted)});
}

// ---- TopKCursor --------------------------------------------------------

TopKCursor::TopKCursor(CollectionView view, CursorPtr child,
                       std::string order_by, bool descending, int64_t k,
                       ExecStats* stats, int64_t skip)
    : view_(std::move(view)),
      child_(std::move(child)),
      order_paths_(SplitOrderPaths(order_by)),
      descending_(descending),
      k_(k),
      stats_(stats),
      skip_(skip) {}

void TopKCursor::Materialize() {
  BoundedTopK<std::pair<CompositeKey, DocId>, OrderBetter> top(
      k_, OrderBetter{descending_});
  DocId id;
  while (child_->Next(&id)) {
    if (stats_ != nullptr) ++stats_->docs_examined;
    top.Offer({OrderKeyOf(view_.Get(id), order_paths_), id});
  }
  std::vector<std::pair<CompositeKey, DocId>> best = top.TakeSorted();
  ids_.reserve(best.size());
  for (auto& [key, kid] : best) ids_.push_back(kid);
}

bool TopKCursor::Next(DocId* id) {
  if (!selected_) {
    selected_ = true;
    Materialize();
    if (!child_->status().ok()) return false;
    at_ = std::min(static_cast<size_t>(skip_), ids_.size());
  }
  if (at_ >= ids_.size()) return false;
  *id = ids_[at_++];
  return true;
}

DocValue TopKCursor::SaveCheckpoint() const {
  const int64_t emitted = selected_ ? static_cast<int64_t>(at_) : skip_;
  return MakeCheckpoint("TOPK", {DocValue::Int(emitted)});
}

}  // namespace dt::query
