/// \file snapshot.h
/// \brief Binary snapshot persistence for collections and stores.
///
/// A snapshot makes cold start O(read) instead of O(re-ingest +
/// re-index): the file carries every live document (in the
/// storage/codec.h binary format), each collection's options and
/// `next_id`, and the field paths of its secondary indexes. On open
/// the documents are decoded and the indexes are rebuilt from their
/// persisted metadata, so queries run unchanged against the loaded
/// store. A text index is derived state and is not persisted: a loaded
/// collection builds it again the first time a text read asks.
///
/// File layout (all framing via storage/codec.h, little-endian):
///
///   codec header ("DTB1", version, flags); only kCodecVersion loads
///   u8 kind              1 = DocumentStore snapshot, 2 = Collection
///   [store only]         db_name string, u32 collection count
///   per collection:
///     [store only]       registry name string
///     ns string
///     options            u32 num_shards, u64 initial/max extent bytes
///     u64 next_id
///     epoch lineage      u64 incarnation + u64 mutation epoch. Loading
///                        adopts the lineage, so save -> load -> save
///                        is byte-identical — but resume tokens minted
///                        before the save are still rejected after a
///                        load, because token validity is keyed on the
///                        never-persisted random version id.
///     index specs        u32 count, then per user index its component
///                        paths as u32 count + path strings (the
///                        `PutIndexSpec` layout the WAL shares)
///     index statistics   u32 count (user indexes + 1), then one
///                        `IndexStats` record string per index, "_id"
///                        first
///     u64 doc_count
///     chunk directory    u32 chunk count, then per chunk
///                        u32 doc count + u64 payload bytes
///     chunk payloads     per document: u64 id + encoded DocValue
///
/// Documents are grouped into fixed-size chunks (`kDocsPerChunk`)
/// that encode and decode in parallel on a thread pool when one is
/// given. Chunk boundaries depend only on document order, never on
/// thread scheduling, so the bytes written are identical for every
/// pool size and save -> load -> save is byte-identical.
///
/// Load never trusts the input: every length is bounds-checked and a
/// truncated or corrupt file comes back as `Status::Corruption` (file
/// system failures as `Status::IOError`), never a crash.

#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/document_store.h"

namespace dt {
class ThreadPool;
}

namespace dt::storage {

/// Documents per encode/decode chunk (the parallelism grain).
constexpr size_t kDocsPerChunk = 512;

// Every entry point below encodes or decodes its chunks on `pool` when
// non-null and serially otherwise; the bytes are the same either way.

// ---- Whole-store snapshots ----

/// Writes `store` to `path` (via a temp file + rename, so a crash
/// mid-save cannot truncate an existing snapshot).
Status SaveSnapshot(const DocumentStore& store, const std::string& path,
                    dt::ThreadPool* pool = nullptr);

/// Reads a store snapshot written by `SaveSnapshot`. Collections come
/// back with their original options, documents, ids and (rebuilt)
/// secondary indexes.
Result<std::unique_ptr<DocumentStore>> LoadSnapshot(
    const std::string& path, dt::ThreadPool* pool = nullptr);

// ---- Single-collection snapshots ----

Status SaveSnapshot(const Collection& coll, const std::string& path,
                    dt::ThreadPool* pool = nullptr);

Result<std::unique_ptr<Collection>> LoadCollectionSnapshot(
    const std::string& path, dt::ThreadPool* pool = nullptr);

/// Encodes a single-collection snapshot of one immutable `view` — the
/// unit an incremental checkpoint writes per dirty collection (the
/// view pins a consistent version, so a checkpoint never freezes
/// writers). Bytes are identical to `SaveSnapshot(coll, ...)` taken at
/// the same version.
Status EncodeCollectionSnapshot(const CollectionView& view,
                                dt::ThreadPool* pool, std::string* out);

// ---- In-memory variants (testing; embedding in other streams) ----

Status EncodeStoreSnapshot(const DocumentStore& store, dt::ThreadPool* pool,
                           std::string* out);

Result<std::unique_ptr<DocumentStore>> DecodeStoreSnapshot(
    std::string_view buf, dt::ThreadPool* pool = nullptr);

// ---- File utilities (shared with the WAL/recovery layer) ----

/// Reads the whole file at `path` into `out` (kIOError on failure).
Status ReadFileToString(const std::string& path, std::string* out);

/// Writes `data` to `path` atomically: unique temp file
/// (`<path>.tmp.<pid>.<n>`) + fsync + rename + directory fsync, so a
/// crash mid-write can never truncate or tear an existing file.
Status AtomicWriteFile(const std::string& path, std::string_view data);

/// Deletes stale `*.tmp.<pid>.<n>` files under `dir` ("" = cwd) left
/// behind by an `AtomicWriteFile` whose process crashed between
/// temp-create and rename. A temp file whose embedded pid is still a
/// live process is a concurrent saver's work in progress and is left
/// alone (which also protects this process's own in-flight saves).
/// Best-effort: I/O errors are swallowed — sweeping is hygiene, not
/// correctness. Returns the number of files removed.
int SweepStaleTempFiles(const std::string& dir);

}  // namespace dt::storage
