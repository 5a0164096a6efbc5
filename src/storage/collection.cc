#include "storage/collection.h"

#include <algorithm>
#include <chrono>
#include <random>

#include "common/hash.h"
#include "common/strutil.h"

namespace dt::storage {

void ExtentChain::Append(int64_t bytes, uint64_t* alloc_epoch) {
  if (extents_.empty() ||
      extents_.back().used + bytes > extents_.back().capacity) {
    int64_t cap = extents_.empty()
                      ? opts_.initial_extent_size_bytes
                      : std::min(opts_.max_extent_size_bytes,
                                 extents_.back().capacity * 2);
    cap = std::max(cap, bytes);  // oversized documents get a fitted extent
    extents_.push_back(Extent{cap, 0});
    storage_size_ += cap;
    if (alloc_epoch != nullptr) last_alloc_epoch_ = ++*alloc_epoch;
  }
  extents_.back().used += bytes;
}

namespace internal {

StorageVersion::StorageVersion(const StorageVersion& other)
    : ns(other.ns),
      opts(other.opts),
      next_id(other.next_id),
      alloc_epoch(other.alloc_epoch),
      chunks(other.chunks),
      shards(other.shards),
      indexes(other.indexes),
      inverted_index(other.inverted_index),
      data_size(other.data_size),
      doc_count(other.doc_count),
      epoch(other.epoch),
      version_id(other.version_id) {}

size_t StorageVersion::ChunkLowerBound(DocId id) const {
  auto it = std::partition_point(
      chunks.begin(), chunks.end(),
      [id](const std::shared_ptr<DocChunk>& c) {
        return c->docs.back().first < id;
      });
  return static_cast<size_t>(it - chunks.begin());
}

namespace {

/// Position of `id` within a chunk's sorted doc run.
std::vector<std::pair<DocId, DocValue>>::const_iterator LowerBoundIn(
    const DocChunk& chunk, DocId id) {
  return std::partition_point(
      chunk.docs.begin(), chunk.docs.end(),
      [id](const std::pair<DocId, DocValue>& e) { return e.first < id; });
}

}  // namespace

const DocValue* StorageVersion::Get(DocId id) const {
  size_t ci = ChunkLowerBound(id);
  if (ci == chunks.size()) return nullptr;
  auto it = LowerBoundIn(*chunks[ci], id);
  if (it == chunks[ci]->docs.end() || it->first != id) return nullptr;
  return &it->second;
}

void StorageVersion::ForEach(
    const std::function<void(DocId, const DocValue&)>& fn) const {
  for (const auto& chunk : chunks) {
    for (const auto& [id, doc] : chunk->docs) fn(id, doc);
  }
}

const SecondaryIndex* StorageVersion::IndexOn(
    const std::string& field_path) const {
  for (const auto& idx : indexes) {
    if (idx->field_path() == field_path) return idx.get();
  }
  return nullptr;
}

const InvertedIndex* StorageVersion::TextIndexOn(
    const std::string& field_path) const {
  if (inverted_index == nullptr) return nullptr;
  return inverted_index->field_path() == field_path ? inverted_index.get()
                                                    : nullptr;
}

DocChunk* StorageVersion::MutableChunk(size_t i) {
  if (chunks[i].use_count() != 1) {
    chunks[i] = std::make_shared<DocChunk>(*chunks[i]);
  }
  return chunks[i].get();
}

SecondaryIndex* StorageVersion::MutableIndex(size_t i) {
  if (indexes[i].use_count() != 1) {
    indexes[i] = std::make_shared<SecondaryIndex>(*indexes[i]);
  }
  return indexes[i].get();
}

InvertedIndex* StorageVersion::MutableTextIndex() {
  if (inverted_index.use_count() != 1) {
    inverted_index = std::make_shared<InvertedIndex>(*inverted_index);
  }
  return inverted_index.get();
}

void StorageVersion::InsertDocSorted(DocId id, DocValue doc) {
  size_t ci = ChunkLowerBound(id);
  if (ci == chunks.size()) {
    // Append path (the common case: ids are assigned ascending).
    if (chunks.empty() || chunks.back()->docs.size() >= kDocChunkCapacity) {
      chunks.push_back(std::make_shared<DocChunk>());
    }
    MutableChunk(chunks.size() - 1)
        ->docs.emplace_back(id, std::move(doc));
    return;
  }
  DocChunk* chunk = MutableChunk(ci);
  auto it = LowerBoundIn(*chunk, id);
  chunk->docs.emplace(chunk->docs.begin() + (it - chunk->docs.cbegin()), id,
                      std::move(doc));
  if (chunk->docs.size() > kDocChunkCapacity) {
    // Split in half so mid-directory inserts stay O(chunk), not O(n).
    auto right = std::make_shared<DocChunk>();
    size_t half = chunk->docs.size() / 2;
    right->docs.assign(std::make_move_iterator(chunk->docs.begin() + half),
                       std::make_move_iterator(chunk->docs.end()));
    chunk->docs.resize(half);
    chunks.insert(chunks.begin() + ci + 1, std::move(right));
  }
}

bool StorageVersion::EraseDoc(DocId id, DocValue* removed) {
  size_t ci = ChunkLowerBound(id);
  if (ci == chunks.size()) return false;
  {
    auto it = LowerBoundIn(*chunks[ci], id);
    if (it == chunks[ci]->docs.end() || it->first != id) return false;
  }
  DocChunk* chunk = MutableChunk(ci);
  auto it = chunk->docs.begin() +
            (LowerBoundIn(*chunk, id) - chunk->docs.cbegin());
  *removed = std::move(it->second);
  chunk->docs.erase(it);
  if (chunk->docs.empty()) chunks.erase(chunks.begin() + ci);
  return true;
}

DocValue* StorageVersion::FindMutableDoc(DocId id) {
  size_t ci = ChunkLowerBound(id);
  if (ci == chunks.size()) return nullptr;
  {
    auto it = LowerBoundIn(*chunks[ci], id);
    if (it == chunks[ci]->docs.end() || it->first != id) return nullptr;
  }
  DocChunk* chunk = MutableChunk(ci);
  auto it = chunk->docs.begin() +
            (LowerBoundIn(*chunk, id) - chunk->docs.cbegin());
  return &it->second;
}

void CollectionShared::TrimRetainedLocked() {
  const size_t budget =
      opts.retained_versions < 0 ? 0
                                 : static_cast<size_t>(opts.retained_versions);
  while (retained.size() > budget) {
    retained.front()->in_retained = false;
    retained.pop_front();
  }
}

void CollectionShared::Mutate(const std::function<void(StorageVersion&)>& fn,
                              bool bump_epoch) {
  std::unique_lock<std::mutex> vlock(version_mu);
  if (published.use_count() == 1) {
    // No view, cursor or retained entry can reach this version, and
    // none can be acquired while we hold version_mu: mutate in place
    // (granules shared with older versions still get cloned). Readers
    // drop their references under version_mu too, so their reads are
    // ordered before these writes.
    StorageVersion& v = *published;
    fn(v);
    if (bump_epoch) ++v.epoch;
    v.version_id = rng.Next();
    TrimRetainedLocked();
    vlock.unlock();
  } else {
    std::shared_ptr<const StorageVersion> base = published;
    vlock.unlock();
    // Copy-on-write off the lock: readers keep traversing `base`
    // while the successor is assembled against shared granules.
    auto next = std::make_shared<StorageVersion>(*base);
    fn(*next);
    if (bump_epoch) ++next->epoch;
    next->version_id = rng.Next();
    vlock.lock();
    published = std::move(next);
    TrimRetainedLocked();
    base.reset();
    vlock.unlock();
  }
}

VersionPin::~VersionPin() {
  std::lock_guard<std::mutex> lock(state->version_mu);
  core.reset();
}

namespace {

/// Pins `core` for a reader. Requires version_mu, so the reference is
/// taken under the same mutex every other one is dropped under.
std::shared_ptr<const VersionPin> PinLocked(
    const std::shared_ptr<CollectionShared>& st,
    std::shared_ptr<const StorageVersion> core) {
  return std::make_shared<const VersionPin>(st, std::move(core));
}

/// Non-deterministic writer-RNG seed: collection identity (version
/// ids, incarnations) must differ across processes, unlike the
/// repository's reproducible experiment seeds.
uint64_t EntropySeed() {
  std::random_device rd;
  uint64_t seed = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  seed ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return Mix64(seed);
}

}  // namespace

}  // namespace internal

// ---- CollectionView ----

std::vector<const SecondaryIndex*> CollectionView::Indexes() const {
  std::vector<const SecondaryIndex*> out;
  out.reserve(core().indexes.size());
  for (const auto& idx : core().indexes) out.push_back(idx.get());
  return out;
}

std::vector<std::vector<std::string>> CollectionView::IndexSpecs() const {
  std::vector<std::vector<std::string>> out;
  for (const auto& idx : core().indexes) {
    if (idx->field_path() != "_id") out.push_back(idx->field_paths());
  }
  return out;
}

void CollectionView::RetainForResume() const {
  internal::CollectionShared& st = *pin_->state;
  std::lock_guard<std::mutex> lock(st.version_mu);
  if (core().in_retained) return;
  core().in_retained = true;
  st.retained.push_back(pin_->core);
  st.TrimRetainedLocked();
}

Result<CollectionView> CollectionView::At(uint64_t version_id) const {
  if (version_id == core().version_id) return *this;
  const std::shared_ptr<internal::CollectionShared>& st = pin_->state;
  std::lock_guard<std::mutex> lock(st->version_mu);
  if (st->published->version_id == version_id) {
    return CollectionView(internal::PinLocked(st, st->published));
  }
  for (const auto& v : st->retained) {
    if (v->version_id == version_id) {
      return CollectionView(internal::PinLocked(st, v));
    }
  }
  return Status::InvalidArgument(
      "stale resume token: the version of " + core().ns +
      " it was minted against is no longer retained");
}

// ---- DocCursor ----

bool DocCursor::Next(DocId* id, const DocValue** doc) {
  const auto& chunks = pin_->core->chunks;
  while (chunk_ < chunks.size()) {
    const auto& docs = chunks[chunk_]->docs;
    if (pos_ < docs.size()) {
      *id = docs[pos_].first;
      *doc = &docs[pos_].second;
      ++pos_;
      return true;
    }
    ++chunk_;
    pos_ = 0;
  }
  return false;
}

void DocCursor::SeekAfter(DocId id) {
  // Land on the chunk that would hold `id`, then take the first
  // element strictly greater (spilling into the next chunk when `id`
  // was that chunk's last element).
  const auto& chunks = pin_->core->chunks;
  chunk_ = pin_->core->ChunkLowerBound(id);
  pos_ = 0;
  if (chunk_ >= chunks.size()) return;
  const auto& docs = chunks[chunk_]->docs;
  pos_ = static_cast<size_t>(
      std::partition_point(docs.begin(), docs.end(),
                           [id](const std::pair<DocId, DocValue>& e) {
                             return e.first <= id;
                           }) -
      docs.begin());
  if (pos_ >= docs.size()) {
    ++chunk_;
    pos_ = 0;
  }
}

// ---- Collection ----

Collection::Collection(std::string ns, CollectionOptions opts)
    : state_(std::make_shared<internal::CollectionShared>()) {
  internal::CollectionShared& st = *state_;
  st.ns = ns;
  st.opts = opts;
  st.rng.Seed(internal::EntropySeed());
  st.incarnation = st.rng.Next();
  auto v = std::make_shared<internal::StorageVersion>();
  v->ns = std::move(ns);
  v->opts = opts;
  v->shards.reserve(opts.num_shards);
  for (int i = 0; i < opts.num_shards; ++i) v->shards.emplace_back(opts);
  // Default _id index, as in the production store behind Table I
  // (nindexes == 1 for a collection with no user indexes).
  v->indexes.push_back(std::make_shared<SecondaryIndex>("_id"));
  v->version_id = st.rng.Next();
  st.published = std::move(v);
}

CollectionView Collection::GetView() const {
  std::lock_guard<std::mutex> lock(state_->version_mu);
  return CollectionView(internal::PinLocked(state_, state_->published));
}

CollectionView Collection::GetViewWithTextIndex(
    const std::string& field_path) const {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  // Writers are excluded, so the published documents are stable: build
  // off version_mu and publish the finished index like any mutation.
  const internal::StorageVersion& cur = *state_->published;
  if (cur.TextIndexOn(field_path) == nullptr) {
    auto idx = std::make_shared<InvertedIndex>(field_path);
    cur.ForEach([&](DocId id, const DocValue& doc) { idx->AddDoc(id, doc); });
    state_->Mutate(
        [&](internal::StorageVersion& v) {
          v.inverted_index = std::move(idx);
        },
        /*bump_epoch=*/false);
  }
  return GetView();
}

int Collection::ShardOf(const CollectionOptions& opts, DocId id) {
  return static_cast<int>(Mix64(id) % static_cast<uint64_t>(opts.num_shards));
}

void Collection::InsertUnchecked(internal::StorageVersion& v, DocId id,
                                 DocValue doc) {
  if (doc.is_object() && doc.Find("_id") == nullptr) {
    doc.Add("_id", DocValue::Int(static_cast<int64_t>(id)));
  }
  int64_t bytes = doc.SerializedSize();
  v.shards[ShardOf(v.opts, id)].Append(bytes, &v.alloc_epoch);
  v.data_size += bytes;
  for (size_t i = 0; i < v.indexes.size(); ++i) {
    v.MutableIndex(i)->Insert(id, doc);
  }
  if (v.inverted_index != nullptr) v.MutableTextIndex()->AddDoc(id, doc);
  v.InsertDocSorted(id, std::move(doc));
  ++v.doc_count;
  if (id >= v.next_id) v.next_id = id + 1;
}

DocId Collection::Insert(DocValue doc) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  DocId id = state_->published->next_id;  // never live and never 0
  state_->Mutate([&](internal::StorageVersion& v) {
    InsertUnchecked(v, id, std::move(doc));
  });
  if (state_->observer) {
    // Only writers replace or mutate the published version, and we
    // hold writer_mu: the borrowed document is stable for the callback.
    const internal::StorageVersion& v = *state_->published;
    MutationEvent ev;
    ev.op = MutationEvent::Op::kInsert;
    ev.epoch = v.epoch;
    ev.id = id;
    ev.doc = v.Get(id);
    state_->observer(ev);
  }
  return id;
}

Status Collection::RestoreDocument(DocId id, DocValue doc) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  if (id == 0) {
    return Status::InvalidArgument("document id 0 is not assignable");
  }
  if (state_->published->Get(id) != nullptr) {
    return Status::AlreadyExists("document id " + std::to_string(id) +
                                 " already live in " + state_->ns);
  }
  state_->Mutate([&](internal::StorageVersion& v) {
    InsertUnchecked(v, id, std::move(doc));
  });
  return Status::OK();
}

Status Collection::Update(DocId id, DocValue doc) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  if (state_->published->Get(id) == nullptr) {
    return Status::NotFound("no document with id " + std::to_string(id) +
                            " in " + state_->ns);
  }
  if (doc.is_object() && doc.Find("_id") == nullptr) {
    doc.Add("_id", DocValue::Int(static_cast<int64_t>(id)));
  }
  state_->Mutate([&](internal::StorageVersion& v) {
    DocValue* slot = v.FindMutableDoc(id);
    for (size_t i = 0; i < v.indexes.size(); ++i) {
      SecondaryIndex* idx = v.MutableIndex(i);
      idx->Remove(id, *slot);
      idx->Insert(id, doc);
    }
    if (v.inverted_index != nullptr) {
      InvertedIndex* text = v.MutableTextIndex();
      text->RemoveDoc(id, *slot);
      text->AddDoc(id, doc);
    }
    v.data_size += doc.SerializedSize() - slot->SerializedSize();
    // In-place update: extent accounting models append-only
    // allocation, so updated bytes stay attributed to the original
    // extent.
    *slot = std::move(doc);
  });
  if (state_->observer) {
    const internal::StorageVersion& v = *state_->published;
    MutationEvent ev;
    ev.op = MutationEvent::Op::kUpdate;
    ev.epoch = v.epoch;
    ev.id = id;
    ev.doc = v.Get(id);
    state_->observer(ev);
  }
  return Status::OK();
}

Status Collection::Remove(DocId id) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  if (state_->published->Get(id) == nullptr) {
    return Status::NotFound("no document with id " + std::to_string(id) +
                            " in " + state_->ns);
  }
  state_->Mutate([&](internal::StorageVersion& v) {
    DocValue removed;
    v.EraseDoc(id, &removed);
    for (size_t i = 0; i < v.indexes.size(); ++i) {
      v.MutableIndex(i)->Remove(id, removed);
    }
    if (v.inverted_index != nullptr) {
      v.MutableTextIndex()->RemoveDoc(id, removed);
    }
    v.data_size -= removed.SerializedSize();
    --v.doc_count;
  });
  if (state_->observer) {
    MutationEvent ev;
    ev.op = MutationEvent::Op::kRemove;
    ev.epoch = state_->published->epoch;
    ev.id = id;
    state_->observer(ev);
  }
  return Status::OK();
}

Status Collection::CreateIndex(const char* field_path) {
  return CreateIndex(std::vector<std::string>{field_path});
}

Status Collection::CreateIndex(const std::vector<std::string>& field_paths) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  if (field_paths.empty()) {
    return Status::InvalidArgument("an index needs at least one field path");
  }
  for (const std::string& path : field_paths) {
    if (path.empty()) {
      return Status::InvalidArgument("empty index field path");
    }
    for (char c : path) {
      // ',' is reserved by the canonical compound name ("type,name"):
      // allowing it would let two distinct indexes collide on one
      // name. Control characters make no sense in a dotted path.
      if (static_cast<unsigned char>(c) < 0x20 || c == ',') {
        return Status::InvalidArgument(
            "index field path contains a reserved character");
      }
    }
    if (static_cast<size_t>(std::count(field_paths.begin(), field_paths.end(),
                                       path)) > 1) {
      return Status::InvalidArgument("duplicate component " + path +
                                     " in compound index");
    }
  }
  auto idx = std::make_shared<SecondaryIndex>(field_paths);
  if (state_->published->IndexOn(idx->field_path()) != nullptr) {
    return Status::AlreadyExists("index on " + idx->field_path() +
                                 " already exists");
  }
  state_->Mutate([&](internal::StorageVersion& v) {
    v.ForEach([&](DocId id, const DocValue& doc) { idx->Insert(id, doc); });
    v.indexes.push_back(std::move(idx));
  });
  if (state_->observer) {
    MutationEvent ev;
    ev.op = MutationEvent::Op::kCreateIndex;
    ev.epoch = state_->published->epoch;
    ev.index_paths = &field_paths;
    state_->observer(ev);
  }
  return Status::OK();
}

void Collection::SetMutationObserver(MutationObserver observer) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  state_->observer = std::move(observer);
}

int64_t Collection::count() const {
  std::lock_guard<std::mutex> lock(state_->version_mu);
  return state_->published->doc_count;
}

uint64_t Collection::mutation_epoch() const {
  std::lock_guard<std::mutex> lock(state_->version_mu);
  return state_->published->epoch;
}

uint64_t Collection::version_id() const {
  std::lock_guard<std::mutex> lock(state_->version_mu);
  return state_->published->version_id;
}

size_t Collection::retained_version_count() const {
  std::lock_guard<std::mutex> lock(state_->version_mu);
  return state_->retained.size();
}

DocId Collection::next_id() const {
  std::lock_guard<std::mutex> lock(state_->version_mu);
  return state_->published->next_id;
}

void Collection::RestoreNextId(DocId next_id) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  std::lock_guard<std::mutex> vlock(state_->version_mu);
  // Loading is single-threaded and the version unobserved; adjust in
  // place without minting a new version.
  if (next_id > state_->published->next_id) {
    state_->published->next_id = next_id;
  }
}

void Collection::RestoreLineage(uint64_t incarnation, uint64_t epoch) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  std::lock_guard<std::mutex> vlock(state_->version_mu);
  state_->incarnation = incarnation;
  state_->published->epoch = epoch;
}

Status Collection::RestoreIndexStats(std::vector<IndexStats> stats) {
  std::lock_guard<std::mutex> wlock(state_->writer_mu);
  std::lock_guard<std::mutex> vlock(state_->version_mu);
  internal::StorageVersion& v = *state_->published;
  if (stats.size() != v.indexes.size()) {
    return Status::InvalidArgument(
        std::to_string(stats.size()) + " stats records for " +
        std::to_string(v.indexes.size()) + " indexes in " + state_->ns);
  }
  for (size_t i = 0; i < stats.size(); ++i) {
    v.MutableIndex(i)->RestoreStats(std::move(stats[i]));
  }
  return Status::OK();
}

CollectionStats Collection::Stats() const {
  std::lock_guard<std::mutex> lock(state_->version_mu);
  const internal::StorageVersion* core = state_->published.get();
  CollectionStats st;
  st.ns = core->ns;
  st.count = core->doc_count;
  st.nindexes = static_cast<int64_t>(core->indexes.size());
  st.num_shards = core->opts.num_shards;
  uint64_t best_epoch = 0;
  for (const auto& shard : core->shards) {
    st.num_extents += shard.num_extents();
    st.storage_size += shard.storage_size();
    if (shard.last_alloc_epoch() >= best_epoch && shard.num_extents() > 0) {
      best_epoch = shard.last_alloc_epoch();
      st.last_extent_size = shard.last_extent_size();
    }
  }
  for (const auto& idx : core->indexes) st.total_index_size += idx->SizeBytes();
  st.data_size = core->data_size;
  st.avg_obj_size = st.count > 0 ? st.data_size / st.count : 0;
  st.index_scans = index_scans();
  st.coll_scans = coll_scans();
  return st;
}

std::string CollectionStats::ToString() const {
  std::string out;
  out += "{\n";
  out += "  \"ns\" : \"" + ns + "\",\n";
  out += "  \"count\" : " + std::to_string(count) + ",\n";
  out += "  \"numExtents\" : " + std::to_string(num_extents) + ",\n";
  out += "  \"nindexes\" : " + std::to_string(nindexes) + ",\n";
  out += "  \"lastExtentSize\" : " + std::to_string(last_extent_size) + ",\n";
  out += "  \"totalIndexSize\" : " + std::to_string(total_index_size) + ",\n";
  out += "  \"dataSize\" : " + std::to_string(data_size) + ",\n";
  out += "  \"storageSize\" : " + std::to_string(storage_size) + ",\n";
  out += "  \"avgObjSize\" : " + std::to_string(avg_obj_size) + ",\n";
  out += "  \"numShards\" : " + std::to_string(num_shards) + ",\n";
  out += "  \"indexScans\" : " + std::to_string(index_scans) + ",\n";
  out += "  \"collScans\" : " + std::to_string(coll_scans) + "\n";
  out += "}";
  return out;
}

}  // namespace dt::storage
