/// \file collection.h
/// \brief Sharded document collection with extent-based storage
/// accounting and versioned reads.
///
/// Mirrors the storage engine the paper runs on: a collection is split
/// across shards; each shard appends documents into fixed-capacity
/// extents, allocated with doubling sizes up to a 2 GB cap (the
/// allocation policy that produces the `numExtents`/`lastExtentSize`
/// figures of Tables I and II). A default `_id` index always exists;
/// secondary indexes can be added and are maintained on insert/update/
/// remove.
///
/// Concurrency model (the "heavy traffic from millions of users"
/// serving path):
///
///   * All reachable document/index state lives in an immutable
///     `StorageVersion`. Writers (serialized by an internal writer
///     mutex) either mutate the published version in place when no
///     reader holds it, or build the next version copy-on-write —
///     sharing untouched doc chunks and index shards with the previous
///     version and cloning only what the mutation touches — and swap
///     it in atomically.
///   * Readers call `GetView()` to obtain a `CollectionView`: a
///     version handle that keeps the version alive by `shared_ptr`.
///     Everything reached through a view (cursors, index scans, the
///     text index, borrowed documents) is immutable and stays valid
///     for the view's lifetime, no matter what writers do
///     concurrently. Every reference to a version is taken and dropped
///     under `version_mu` (the last view or cursor copy drops it
///     there), so the writer's `use_count() == 1` test, made under
///     the same mutex, is ordered after every read the dropped
///     reference made.
///   * Versions that resume tokens reference are parked in a retained
///     set (`RetainForResume`), trimmed oldest-first to
///     `CollectionOptions::retained_versions` whenever it grows or a
///     version publishes. A held view keeps reading its own version
///     whatever the trim does; a token whose version was trimmed is
///     rejected as stale.
///
/// `Collection` itself hands out no borrowed document or index: every
/// read goes through a view, and the collection answers only value
/// queries (count, epoch, stats).

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "storage/docvalue.h"
#include "storage/index.h"
#include "storage/inverted_index.h"

namespace dt::storage {

class Collection;
class CollectionView;

/// Tuning knobs for a collection. The defaults reproduce the paper's
/// production configuration; benches scale `max_extent_size_bytes`
/// down proportionally with the data scale factor.
struct CollectionOptions {
  /// Number of shards the collection is distributed over.
  int num_shards = 8;
  /// First extent allocated per shard.
  int64_t initial_extent_size_bytes = 1 << 16;  // 64 KiB
  /// Extent allocation doubles until reaching this cap (2 GB in the
  /// paper's deployment).
  int64_t max_extent_size_bytes = 2LL * 1024 * 1024 * 1024;
  /// How many versions the collection keeps resumable for page tokens
  /// (the retained set), held views or not. 0 makes every token die
  /// on the next write; the budget is an in-memory serving knob and is
  /// not persisted by snapshots.
  int retained_versions = 8;
};

/// Snapshot of collection statistics — the `db.<coll>.stats()` call
/// whose output the paper prints as Tables I and II.
struct CollectionStats {
  std::string ns;             ///< namespace, e.g. "dt.instance"
  int64_t count = 0;          ///< number of documents
  int64_t num_extents = 0;    ///< total extents across shards
  int64_t nindexes = 0;       ///< including the default _id index
  int64_t last_extent_size = 0;  ///< capacity of the most recent extent
  int64_t total_index_size = 0;  ///< bytes across all indexes
  int64_t data_size = 0;      ///< serialized bytes of live documents
  int64_t storage_size = 0;   ///< sum of extent capacities
  int64_t avg_obj_size = 0;   ///< data_size / count
  int num_shards = 0;
  /// Queries served through a secondary-index access path vs a full
  /// collection scan since this collection was created (the planner's
  /// contribution to the `db.entity.stats()` shape; not persisted by
  /// snapshots — a loaded collection starts both at zero).
  int64_t index_scans = 0;
  int64_t coll_scans = 0;

  /// Renders in the mongo-shell style of the paper's tables.
  std::string ToString() const;
};

/// \brief One shard's extent chain (byte bookkeeping only; documents
/// live in the version's doc chunks).
class ExtentChain {
 public:
  explicit ExtentChain(const CollectionOptions& opts) : opts_(opts) {}

  /// Accounts for a document of `bytes`; allocates a new extent when
  /// the current one cannot fit it. `alloc_epoch` is the owning
  /// version's allocation counter, bumped per extent allocation (a
  /// per-call parameter rather than a stored pointer so chains stay
  /// plainly copyable when a version is cloned).
  void Append(int64_t bytes, uint64_t* alloc_epoch);

  int64_t num_extents() const { return static_cast<int64_t>(extents_.size()); }
  int64_t last_extent_size() const {
    return extents_.empty() ? 0 : extents_.back().capacity;
  }
  int64_t storage_size() const { return storage_size_; }
  /// Epoch counter of the most recent allocation (for cross-shard
  /// "latest extent" resolution).
  uint64_t last_alloc_epoch() const { return last_alloc_epoch_; }

 private:
  struct Extent {
    int64_t capacity = 0;
    int64_t used = 0;
  };

  CollectionOptions opts_;
  std::vector<Extent> extents_;
  int64_t storage_size_ = 0;
  uint64_t last_alloc_epoch_ = 0;
};

/// \brief Post-commit mutation notification — the hook the write-ahead
/// log hangs off (see storage/wal.h). Invoked synchronously at the end
/// of Insert/Update/Remove/CreateIndex with the collection's writer
/// mutex held, after the mutation has published: `epoch` is the
/// post-mutation epoch, and the borrowed pointers are valid only for
/// the duration of the callback. `RestoreDocument`/`RestoreLineage`
/// (snapshot/WAL replay paths) never notify — replay must not re-log.
struct MutationEvent {
  enum class Op : uint8_t { kInsert, kUpdate, kRemove, kCreateIndex };
  Op op = Op::kInsert;
  uint64_t epoch = 0;  ///< the collection's post-mutation epoch
  DocId id = 0;        ///< insert/update/remove
  /// Stored document after the mutation (insert/update: includes the
  /// auto-added "_id" field); nullptr otherwise.
  const DocValue* doc = nullptr;
  /// Component paths of the created index (create_index only).
  const std::vector<std::string>* index_paths = nullptr;
};

/// Observer of committed mutations. Runs under the writer mutex, so it
/// must not call back into the collection's write surface.
using MutationObserver = std::function<void(const MutationEvent&)>;

namespace internal {

/// Sorted run of (id, document) pairs — the copy-on-write granule of
/// document storage. Chunks within a version are disjoint and
/// ascending, so iterating the chunk directory yields id order.
struct DocChunk {
  std::vector<std::pair<DocId, DocValue>> docs;
};

/// Splitting threshold for a doc chunk. Small enough that cloning the
/// one touched chunk per write is cheap, large enough that the chunk
/// directory stays shallow.
inline constexpr size_t kDocChunkCapacity = 256;

/// \brief One immutable published state of a collection. Everything a
/// reader traverses hangs off a version; writers publish a new one
/// (or mutate the current one in place when provably unobserved).
struct StorageVersion {
  StorageVersion() = default;
  /// Copy shares doc chunks and indexes structurally (shared_ptr) —
  /// the writer clones a granule before first touching it. Retention
  /// bookkeeping does not carry over to the copy.
  StorageVersion(const StorageVersion& other);
  StorageVersion& operator=(const StorageVersion&) = delete;

  std::string ns;
  CollectionOptions opts;
  DocId next_id = 1;
  uint64_t alloc_epoch = 0;
  std::vector<std::shared_ptr<DocChunk>> chunks;
  std::vector<ExtentChain> shards;
  std::vector<std::shared_ptr<SecondaryIndex>> indexes;  // [0] is _id
  /// The demand-built inverted index (null until a text read asks for
  /// one; see `Collection::GetViewWithTextIndex`). Maintained by every
  /// write once present; never persisted.
  std::shared_ptr<InvertedIndex> inverted_index;
  int64_t data_size = 0;
  int64_t doc_count = 0;
  /// Ordinal mutation counter: exactly one bump per insert/update/
  /// remove/index creation, continued across snapshot save/load (the
  /// persisted epoch lineage).
  uint64_t epoch = 0;
  /// Random identity of this exact version; what page tokens pin.
  /// Regenerated on every publication and on snapshot load, so a
  /// token can never falsely match a state it was not minted against.
  uint64_t version_id = 0;

  // Retention bookkeeping, guarded by CollectionShared::version_mu.
  mutable bool in_retained = false;

  // ---- Read accessors (safe on a published version) ----
  const DocValue* Get(DocId id) const;
  void ForEach(const std::function<void(DocId, const DocValue&)>& fn) const;
  const SecondaryIndex* IndexOn(const std::string& field_path) const;
  /// The text index when it covers `field_path`, else nullptr.
  const InvertedIndex* TextIndexOn(const std::string& field_path) const;
  /// Index of the first chunk whose last id is >= `id` (chunks.size()
  /// if none) — the chunk `id` would live in.
  size_t ChunkLowerBound(DocId id) const;

  // ---- Mutators (writer-only: callers guarantee exclusive access
  // to *this; shared granules are cloned before mutation) ----
  DocChunk* MutableChunk(size_t i);
  SecondaryIndex* MutableIndex(size_t i);
  InvertedIndex* MutableTextIndex();
  /// Inserts into the chunk directory (no index/extent bookkeeping).
  void InsertDocSorted(DocId id, DocValue doc);
  /// Removes `id` from the chunk directory, moving the removed
  /// document into `removed`; false if not present.
  bool EraseDoc(DocId id, DocValue* removed);
  /// Mutable slot of a live document (clones its chunk first), or
  /// nullptr.
  DocValue* FindMutableDoc(DocId id);
};

/// State shared between a Collection, its views and its cursors.
/// Behind one shared_ptr so Collection stays movable and a view can
/// structurally outlive the Collection that minted it.
struct CollectionShared {
  std::string ns;
  CollectionOptions opts;
  /// Random lineage id minted when the collection is first created
  /// and persisted by snapshots: tokens carry it, so a token can name
  /// which lineage it belongs to across process restarts.
  uint64_t incarnation = 0;

  /// Serializes writers (Insert/Update/Remove/CreateIndex/Restore*).
  std::mutex writer_mu;
  /// Guards `published`, `retained` and the per-version retention
  /// flags; readers take and drop their version references under it
  /// (`VersionPin`).
  mutable std::mutex version_mu;
  std::shared_ptr<StorageVersion> published;
  std::deque<std::shared_ptr<const StorageVersion>> retained;

  /// Writer-side RNG for version ids (guarded by writer_mu).
  Rng rng;

  /// Committed-mutation observer (guarded by writer_mu; empty = none).
  MutationObserver observer;

  // Query-path accounting; atomics so concurrent readers may record.
  mutable std::atomic<int64_t> index_scans{0};
  mutable std::atomic<int64_t> coll_scans{0};

  /// Evicts the oldest retained versions until the set fits
  /// `opts.retained_versions`. Requires version_mu.
  void TrimRetainedLocked();

  /// Runs `fn` against the next version under the publication
  /// protocol: in place when the published version is unobserved
  /// (holding version_mu throughout, so no reader can acquire it
  /// mid-mutation), else copy-on-write + atomic swap. Mints a fresh
  /// version_id and trims the retained set; `bump_epoch` false
  /// publishes derived state (the text index) without counting a
  /// mutation. Callers hold writer_mu.
  void Mutate(const std::function<void(StorageVersion&)>& fn,
              bool bump_epoch = true);
};

/// A reader's hold on one version: keeps it alive, shared by every
/// view/cursor copy that reads it. The last copy drops the version
/// under version_mu.
struct VersionPin {
  VersionPin(std::shared_ptr<CollectionShared> s,
             std::shared_ptr<const StorageVersion> c)
      : state(std::move(s)), core(std::move(c)) {}
  ~VersionPin();
  VersionPin(const VersionPin&) = delete;
  VersionPin& operator=(const VersionPin&) = delete;

  std::shared_ptr<CollectionShared> state;
  std::shared_ptr<const StorageVersion> core;
};

}  // namespace internal

/// \brief Pull-based iteration over the live documents of one storage
/// version, in id order. The cursor co-owns the version, so it is
/// structurally impossible for it to outlive the documents it yields —
/// concurrent writers publish new versions and never touch this one.
class DocCursor {
 public:
  /// Pulls the next (id, document); false at end. The document
  /// pointer stays valid for the cursor's lifetime.
  bool Next(DocId* id, const DocValue** doc);

  /// Repositions the cursor at the first live document with id
  /// strictly greater than `id` (O(log n)) — how a resumed
  /// collection scan restarts after a prior page without re-walking
  /// the consumed prefix.
  void SeekAfter(DocId id);

 private:
  friend class CollectionView;
  explicit DocCursor(std::shared_ptr<const internal::VersionPin> pin)
      : pin_(std::move(pin)) {}

  std::shared_ptr<const internal::VersionPin> pin_;
  size_t chunk_ = 0;
  size_t pos_ = 0;
};

/// \brief A pinned, immutable handle on one published state of
/// a collection — the unit the query layer reads through. Copyable
/// (copies share the pin); cheap to pass by value. Everything
/// borrowed from a view (documents, index scans, cursors) is valid
/// for as long as any copy of the view or cursor lives.
class CollectionView {
 public:
  const std::string& ns() const { return core().ns; }
  const CollectionOptions& options() const { return core().opts; }
  int64_t count() const { return core().doc_count; }
  DocId next_id() const { return core().next_id; }
  /// Ordinal mutation epoch of this version (see StorageVersion).
  uint64_t mutation_epoch() const { return core().epoch; }
  /// Random identity of this version — what resume tokens pin.
  uint64_t version_id() const { return core().version_id; }
  /// Lineage id of the owning collection (persisted by snapshots).
  uint64_t incarnation() const { return pin_->state->incarnation; }

  /// Document with `id`, or nullptr; valid for the view's lifetime.
  const DocValue* Get(DocId id) const { return core().Get(id); }

  /// Invokes `fn` for every live document in id order.
  void ForEach(const std::function<void(DocId, const DocValue&)>& fn) const {
    core().ForEach(fn);
  }

  DocCursor ScanDocs() const { return DocCursor(pin_); }

  bool HasIndex(const std::string& field_path) const {
    return IndexOn(field_path) != nullptr;
  }
  const SecondaryIndex* IndexOn(const std::string& field_path) const {
    return core().IndexOn(field_path);
  }
  /// This version's inverted index when it covers `field_path`, else
  /// nullptr (a version carries one only after a text read asked for
  /// it; see `Collection::GetViewWithTextIndex`).
  const InvertedIndex* TextIndexOn(const std::string& field_path) const {
    return core().TextIndexOn(field_path);
  }
  std::vector<const SecondaryIndex*> Indexes() const;
  std::vector<std::vector<std::string>> IndexSpecs() const;

  void NoteIndexScan() const {
    pin_->state->index_scans.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteCollScan() const {
    pin_->state->coll_scans.fetch_add(1, std::memory_order_relaxed);
  }

  /// Parks this view's version in the collection's retained set so a
  /// resume token minted against it stays serviceable after writers
  /// publish newer versions, until the retention budget evicts it.
  /// Idempotent.
  void RetainForResume() const;

  /// Resolves `version_id` to a view: this view or the live published
  /// version if they match, else a still-retained version; otherwise
  /// InvalidArgument ("stale resume token": the version was
  /// reclaimed, so the token cannot be honored without skipping or
  /// duplicating documents).
  Result<CollectionView> At(uint64_t version_id) const;

 private:
  friend class Collection;
  explicit CollectionView(std::shared_ptr<const internal::VersionPin> pin)
      : pin_(std::move(pin)) {}

  const internal::StorageVersion& core() const { return *pin_->core; }

  std::shared_ptr<const internal::VersionPin> pin_;
};

/// \brief A sharded document collection.
///
/// Writers are internally serialized and may run concurrently with
/// any number of `GetView()` readers; documents and indexes are read
/// only through those views.
class Collection {
 public:
  Collection(std::string ns, CollectionOptions opts = {});

  Collection(Collection&&) = default;
  Collection& operator=(Collection&&) = default;
  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  const std::string& ns() const { return state_->ns; }

  /// Pins and returns the currently published version — the read
  /// path for documents and indexes.
  CollectionView GetView() const;

  /// \brief `GetView()` of a version that carries the inverted index on
  /// `field_path`: the first call builds it over the published
  /// documents and publishes it (a collection holds one; asking for
  /// another path replaces it). Derived state only: the mutation
  /// epoch is unchanged and nothing is logged or persisted, but the
  /// new version gets a fresh `version_id`, so a page token minted
  /// before the build keeps resuming against the version it pinned.
  /// Inserts, updates and removes maintain the index from then on.
  CollectionView GetViewWithTextIndex(const std::string& field_path) const;

  /// Inserts a document, assigning and returning its id. The document
  /// gains an "_id" field if absent.
  DocId Insert(DocValue doc);

  /// Replaces the document with `id`. Indexes are maintained.
  Status Update(DocId id, DocValue doc);

  /// Removes the document with `id`. Indexes are maintained.
  Status Remove(DocId id);

  /// Creates a secondary index on `field_path`, backfilling existing
  /// documents. Fails with AlreadyExists if one exists on that path.
  /// (Takes const char* rather than std::string so a braced list of
  /// literals unambiguously selects the compound overload below.)
  Status CreateIndex(const char* field_path);

  /// \brief Creates a compound secondary index on `field_paths` in the
  /// given component order, backfilling existing documents. Components
  /// must be non-empty, free of control characters and ',' (reserved
  /// by the canonical name) and distinct within the index;
  /// AlreadyExists if an index with the same canonical name exists.
  Status CreateIndex(const std::vector<std::string>& field_paths);

  int64_t count() const;

  /// \brief Ordinal count of structural mutations (inserts, updates,
  /// removes, index creation) over the collection's whole lineage:
  /// snapshots persist it, so a loaded collection continues from the
  /// saved value instead of wrapping back to its restore-insert
  /// count. Resume-token validation pins the random `version_id()`
  /// rather than this counter.
  uint64_t mutation_epoch() const;

  /// Random identity of the currently published version.
  uint64_t version_id() const;

  /// Random lineage id (persisted by snapshots; folded into resume
  /// tokens so cross-lineage tokens are rejected by name).
  uint64_t incarnation() const { return state_->incarnation; }

  /// Superseded versions currently kept resumable (test hook).
  size_t retained_version_count() const;

  const CollectionOptions& options() const { return state_->opts; }

  /// Id that the next `Insert` will assign.
  DocId next_id() const;

  /// \brief Inserts a document under an explicit id (snapshot loading;
  /// not a general API). Extent accounting and indexes are maintained
  /// exactly as `Insert` would, and `next_id` advances past `id`.
  /// Fails with InvalidArgument for id 0 and AlreadyExists for a live
  /// id.
  Status RestoreDocument(DocId id, DocValue doc);

  /// Raises `next_id` to at least `next_id` (restores ids burned by
  /// removed documents so save -> load -> save is byte-identical).
  void RestoreNextId(DocId next_id);

  /// \brief Adopts a persisted epoch lineage (snapshot loading): the
  /// saving collection's incarnation id and exact mutation epoch.
  /// Overwrites whatever the restore inserts accumulated, so
  /// save -> load -> save round-trips the lineage byte-identically.
  /// The published version keeps its fresh random `version_id`, so
  /// tokens minted before the save never validate after a load.
  void RestoreLineage(uint64_t incarnation, uint64_t epoch);

  /// \brief Adopts persisted per-index statistics (snapshot loading),
  /// one record per index in `CollectionView::Indexes()` order ("_id"
  /// first, then user indexes in creation order). Replaces the stats
  /// the restore inserts built incrementally — the saving writer's
  /// stats reflect its full mutation history, not an id-order
  /// reinsertion — so save -> load -> save round-trips them
  /// byte-identically.
  /// InvalidArgument when the record count does not match the index
  /// count.
  Status RestoreIndexStats(std::vector<IndexStats> stats);

  /// \brief Installs (or, with an empty function, removes) the
  /// committed-mutation observer — the WAL's append hook. At most one
  /// observer exists; it runs under the writer mutex (see
  /// MutationEvent for the contract). Safe to call concurrently with
  /// writers.
  void SetMutationObserver(MutationObserver observer);

  /// The `db.<coll>.stats()` snapshot.
  CollectionStats Stats() const;

  /// Queries served via an index access path / via a full scan
  /// (recorded through `CollectionView::NoteIndexScan/NoteCollScan`).
  int64_t index_scans() const {
    return state_->index_scans.load(std::memory_order_relaxed);
  }
  int64_t coll_scans() const {
    return state_->coll_scans.load(std::memory_order_relaxed);
  }

 private:
  static int ShardOf(const CollectionOptions& opts, DocId id);
  /// Shared mutation core of Insert/RestoreDocument: no liveness check
  /// (callers guarantee `id` is fresh), maintains extents, indexes and
  /// next_id.
  static void InsertUnchecked(internal::StorageVersion& v, DocId id,
                              DocValue doc);

  std::shared_ptr<internal::CollectionShared> state_;
};

}  // namespace dt::storage
