/// \file recovery.h
/// \brief Crash recovery: incremental checkpoints + WAL replay.
///
/// `WalManager` owns one durability directory:
///
///   MANIFEST            which checkpoint files are current and which
///                       WAL segment replay starts from (atomic
///                       temp+rename swap, codec-framed)
///   coll-<seq>-<k>.dtb  per-collection checkpoint snapshots (the
///                       standalone collection snapshot format of
///                       storage/snapshot.h, epoch lineage included)
///   wal-<seq>.log       WAL segments (storage/wal.h)
///
/// Life cycle:
///
///   1. `Open` recovers: sweep stale temp files, load the MANIFEST's
///      checkpoint snapshots into a fresh store, then replay every WAL
///      segment >= the manifest floor in sequence order. A record
///      applies iff it names a known (collection, incarnation) lineage
///      AND its epoch is exactly the collection's epoch + 1; records
///      at or below the current epoch are the prefix the checkpoint
///      already folded in and are skipped. Torn segment tails are
///      truncated, never errors.
///   2. `Attach` hooks every collection of the live store with a
///      mutation observer that encodes + appends one WAL record per
///      committed mutation (durability per `DurabilityOptions`).
///   3. `Checkpoint` folds the log: rotate to a fresh segment first,
///      then re-encode ONLY the collections whose (incarnation, epoch)
///      moved since their manifest entry — checkpoint cost is
///      proportional to what changed, not to the corpus — swap the
///      MANIFEST, and prune dead segments/snapshots. Mutations may
///      race a checkpoint freely: each collection snapshot is one
///      immutable view taken after the rotation, so any record a
///      pruned segment carried is covered by a snapshot, and any
///      uncovered record lands in the surviving segment (the epoch
///      filter makes double-application impossible).
///
/// The manager's write path can fail only on I/O errors; since
/// `Collection::Insert` cannot surface a status, the first failure
/// makes the manager sticky-unhealthy (`health()`). A caller that must
/// not acknowledge a lost mutation opens a `CommitScope` around its
/// mutations and acknowledges only if `Commit()` returns OK (the
/// facade's ingest path does; a bare `Collection::Insert` cannot tell).

#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/document_store.h"
#include "storage/wal.h"

namespace dt::storage {

/// Configuration of the durability subsystem.
struct DurabilityOptions {
  /// Directory holding MANIFEST / checkpoints / WAL segments. Empty
  /// disables durability entirely (as does `Durability::kNone`).
  std::string dir;
  /// When is an acknowledged mutation on disk (see storage/wal.h).
  Durability durability = Durability::kGroup;
  /// Auto-checkpoint once the live WAL segment exceeds this many
  /// bytes (a background thread watches the high-water mark).
  /// 0 = manual checkpoints only.
  uint64_t checkpoint_wal_bytes = 64ull << 20;
};

/// Counters surfaced through `DataTamer::durability_stats()` and
/// `ServerStats`.
struct DurabilityStats {
  bool enabled = false;
  Durability mode = Durability::kNone;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_group_batches = 0;  ///< fsyncs that covered > 1 append
  uint64_t checkpoints = 0;
  /// Collections re-encoded across all checkpoints vs reused clean
  /// from their previous checkpoint file (the incremental win).
  uint64_t checkpoint_collections_written = 0;
  uint64_t checkpoint_collections_reused = 0;
  // What `Open` recovered:
  uint64_t recovered_segments = 0;
  uint64_t recovered_records = 0;  ///< records applied by replay
  uint64_t recovered_skipped = 0;  ///< stale / unknown-lineage records
  uint64_t recovered_torn_bytes = 0;
  /// Replay hit an epoch gap (a record further ahead than the state
  /// it applies to — only possible when un-synced log bytes were lost,
  /// e.g. power loss under kAsync) and stopped at the consistent
  /// prefix before it.
  bool recovery_gap = false;
};

/// \brief The durability subsystem: recovery at open, WAL appends per
/// mutation while attached, incremental checkpoints on demand or by
/// log size.
class WalManager {
 public:
  /// Recovers the durable state under `opts.dir` (creating the
  /// directory if needed) and opens a fresh WAL segment. When a prior
  /// state existed, `*recovered` receives the store rebuilt from
  /// checkpoints + replay; otherwise it is reset to null (fresh
  /// directory). The manager is not yet attached to any store.
  static Result<std::unique_ptr<WalManager>> Open(
      const DurabilityOptions& opts, const std::string& db_name,
      std::unique_ptr<DocumentStore>* recovered);

  /// Stops the checkpoint thread, syncs the log and detaches.
  ~WalManager();
  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// \brief Attaches the mutation observers to every collection of
  /// `store` (detaching from a previously attached store first — call
  /// before destroying that store). Collections whose lineage the
  /// durable state does not know yet are enrolled: a fresh (epoch 0)
  /// collection costs one create-collection record; a collection with
  /// history (a snapshot loaded over a durable store) forces an
  /// immediate checkpoint so its baseline is on disk. Must not run
  /// concurrently with writers — attach during single-threaded setup.
  /// Dropping a collection from an attached store destroys it under
  /// the manager's observers: `DetachAll` first, drop, then re-attach
  /// (the lineage diff logs the drop durably).
  Status Attach(DocumentStore* store);

  /// Removes the observers from the attached store's collections.
  /// Must be called before the attached store is destroyed/replaced.
  void DetachAll();

  /// Folds the log into per-collection checkpoint snapshots (only
  /// dirty collections are re-encoded) and prunes dead segments.
  Status Checkpoint();

  /// Forces every acknowledged append onto disk (any mode — this is
  /// how kAsync callers bound their loss window manually).
  Status Flush();

  /// First WAL I/O failure, sticky; OK while healthy.
  Status health() const;

  /// \brief Groups the WAL appends one thread makes into one commit.
  ///
  /// While the scope is open, a kGroup append made *by the thread that
  /// opened it* is only written; `Commit()` then waits for one
  /// group-commit fsync covering all of them (one per segment touched:
  /// an auto-checkpoint may rotate the segment mid-batch) and returns
  /// the sticky `health()`. Appends from other threads, and every
  /// kStrict append, keep their per-append sync; under kAsync there is
  /// nothing to wait for and `Commit()` only reports `health()`. A
  /// scope destroyed uncommitted commits (and drops the status), so
  /// no kGroup append is ever left unsynced. A null manager makes a
  /// no-op scope. Scopes nest per thread: the innermost one collects.
  class CommitScope {
   public:
    explicit CommitScope(WalManager* mgr);
    ~CommitScope();
    CommitScope(const CommitScope&) = delete;
    CommitScope& operator=(const CommitScope&) = delete;

    /// Syncs what the scope collected; returns the manager's health.
    Status Commit();

   private:
    friend class WalManager;
    WalManager* mgr_;
    CommitScope* outer_;  ///< the scope this one shadows on its thread
    /// Highest sequence number written per touched segment writer.
    std::vector<std::pair<std::shared_ptr<WalWriter>, uint64_t>> pending_;
  };

  DurabilityStats stats() const;

  const DurabilityOptions& options() const { return opts_; }

  /// Live WAL segment bytes since the last checkpoint (test hook).
  uint64_t wal_bytes() const;

 private:
  /// One durable collection lineage: the checkpoint file capturing it
  /// (empty = none yet) and the (incarnation, epoch) that file holds.
  struct ManifestEntry {
    std::string file;
    uint64_t incarnation = 0;
    uint64_t epoch = 0;
  };

  WalManager(DurabilityOptions opts, std::string db_name);

  Status Recover(std::unique_ptr<DocumentStore>* recovered);
  Status ReadManifestIfPresent(bool* found);
  Status WriteManifestLocked();
  Status CheckpointLocked();
  Status RotateSegmentLocked();
  void PruneLocked();
  void DetachAllLocked();
  /// Appends one already-encoded record payload to the live segment;
  /// pokes the checkpoint thread past the high-water mark.
  Status AppendPayload(std::string_view payload);
  void SetUnhealthy(const Status& st);
  void StartCheckpointThread();

  const DurabilityOptions opts_;
  std::string db_name_;

  /// Serializes checkpoints, attach/detach and manifest state.
  mutable std::mutex state_mu_;
  std::map<std::string, ManifestEntry> manifest_;
  std::map<std::string, Collection*> attached_;
  /// Lineages the durable state tracks (manifest entries + create
  /// records already in the log), keyed by registry name.
  std::map<std::string, uint64_t> known_lineage_;
  uint64_t seq_ = 1;  ///< sequence number of the live segment
  uint64_t manifest_floor_ = 1;

  /// Guards the writer pointer swap; appenders copy the shared_ptr
  /// and append outside this lock so group commit can batch them.
  /// Order: state_mu_ before writer_mu_; never a collection lock
  /// while holding writer_mu_.
  mutable std::mutex writer_mu_;
  std::shared_ptr<WalWriter> writer_;

  mutable std::mutex health_mu_;
  Status health_;

  // Accumulated counters (stats from rotated-away writers fold in
  // here; state_mu_).
  WalWriterStats retired_writer_stats_;
  uint64_t checkpoints_ = 0;
  uint64_t ckpt_written_ = 0;
  uint64_t ckpt_reused_ = 0;
  uint64_t recovered_segments_ = 0;
  uint64_t recovered_records_ = 0;
  uint64_t recovered_skipped_ = 0;
  uint64_t recovered_torn_bytes_ = 0;
  bool recovery_gap_ = false;

  // Background checkpoint trigger (see checkpoint_wal_bytes).
  std::mutex ckpt_thread_mu_;
  std::condition_variable ckpt_cv_;
  bool stop_ = false;
  std::thread ckpt_thread_;
};

}  // namespace dt::storage
